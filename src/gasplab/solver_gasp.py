"""XP decider for rank instances, parameterized by the number of agent types.

Stability is recovered by guessing, per type, the worst alternative any of
its agents ends up experiencing.  A guess pins one agent of each type to
exactly that alternative and turns the remaining agents loose on everything
the type likes at least as much; what is left is a perfect individually
rational assignment problem on a derived size-approval instance, answered
by `find_ir_assignment` with every derived type required to attend in full.

`gtosg_reduce` builds the derived instance and is a faithful translation:
for a consistent guess every solution maps back to a stable assignment, and
every stable assignment matching the guess yields a solution.  Guessed
alternatives that fail the plain survivor filter need extra care (inline
notes in `gtosg_reduce`); without it a feasible derived instance can map
back to an assignment some residual agent deserts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from .errors import BudgetError, InternalSolverError, InvalidInstanceError
from .model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentType,
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    _require_kind,
    verify_gasp,
)
from .solvers_sgasp import SolveResult, find_ir_assignment

# Reserved activity standing for "stays home" in derived instances.
IDLE_ACTIVITY = "@idle"

DEFAULT_TYPE_CAP = 4

_PIN = "#pin"
_REST = "#rest"


@dataclass(frozen=True)
class MinimalGuess:
    """Per type, the guessed worst alternative its agents experience.

    Values are (activity, size) pairs; HOME marks types with an agent
    staying home.  Alternatives strictly below home never qualify (no agent
    tolerates them), but ties with home are real guesses of their own: they
    pin an agent to that activity, which HOME does not.  Collapsing ties to
    HOME loses stable assignments whose worst-off agents all attend.
    """

    choices: Mapping[str, Tuple[str, int]]

    def __post_init__(self):
        clean = {str(t): (str(a), int(s)) for t, (a, s) in dict(self.choices).items()}
        object.__setattr__(self, "choices", clean)

    def activity(self, tid: str) -> str:
        return self.choices[tid][0]


@dataclass(frozen=True)
class DerivedSGasp:
    """A size-approval instance over the original activities plus
    IDLE_ACTIVITY, the activities that must not stay empty, and the
    book-keeping needed to map its solutions back to the source types."""

    instance: TypedInstance
    a_ne: FrozenSet[str]
    origin: Mapping[str, str]  # derived type id -> source type id
    guess: MinimalGuess
    consistent: bool
    removed: FrozenSet[Tuple[str, int]]


def _checked_thresholds(inst: TypedInstance, guess: MinimalGuess) -> Dict[str, int]:
    """Validate the guess against the instance; per type, the rank every
    alternative its agents touch must meet or beat."""
    if set(guess.choices) != set(inst.type_ids()):
        raise InvalidInstanceError("guess must name exactly the instance's types")
    known = set(inst.activities)
    thr: Dict[str, int] = {}
    for t in inst.types:
        aid, size = guess.choices[t.id]
        if aid == EMPTY_ACTIVITY:
            if size != 1:
                raise InvalidInstanceError("the home alternative only exists at size 1")
            thr[t.id] = t.prefs.home_rank
            continue
        if aid not in known:
            raise InvalidInstanceError(f"guess for {t.id!r} names unknown activity {aid!r}")
        if not 1 <= size <= inst.n:
            raise InvalidInstanceError(
                f"guess for {t.id!r} has size {size}, but only {inst.n} agents exist")
        rank = t.prefs.rank((aid, size))
        if rank < t.prefs.home_rank:
            raise InvalidInstanceError(
                f"guess for {t.id!r} ranks below home and can never be minimal")
        thr[t.id] = rank
    return thr


def gtosg_reduce(inst: TypedInstance, guess: MinimalGuess) -> DerivedSGasp:
    """Derive the size-approval instance whose perfect individually
    rational assignments are the stable assignments matching the guess.

    (a, i) survives unless some type prefers (a, i+1) to its guessed
    alternative: that type has an agent pinned at or above its guess, and
    unless the pin sits at a itself it would desert into a, so size i could
    never persist.  Each type contributes a pinned singleton fixed to its
    guessed alternative (all idle sizes for a home guess) and a residual
    type approving the surviving alternatives it weakly prefers to the
    guess.  A_ne collects activities someone prefers to enter even alone;
    they may not stay empty.

    A guessed alternative struck from the survivors stays available to
    residual agents: its pin holds the size in place, and only types whose
    pin sits at that same activity may prefer its successor.  Two guards
    keep this sound.  If a type pinned to a *different* activity prefers
    the successor, no assignment can realize the guess at all; the result
    is flagged inconsistent.  And residual agents seated elsewhere must
    weakly prefer their seat to each struck-out alternative's successor,
    which the plain threshold filter does not imply.
    """
    _require_kind(inst, "gasp")
    if IDLE_ACTIVITY in inst.activities:
        raise InvalidInstanceError(f"{IDLE_ACTIVITY!r} is reserved for derived instances")
    n = inst.n
    thr = _checked_thresholds(inst, guess)

    def struck(aid: str, i: int) -> bool:
        # (aid, i+1) only exists while someone is left to join, hence i < n
        return i < n and any(t.prefs.rank((aid, i + 1)) > thr[t.id] for t in inst.types)

    survives = {a: {i for i in range(1, n + 1) if not struck(a, i)} for a in inst.activities}
    guessed: Dict[str, set] = {}
    for t in inst.types:
        aid, size = guess.choices[t.id]
        if aid != EMPTY_ACTIVITY:
            guessed.setdefault(aid, set()).add(size)
    removed = frozenset(
        (a, i) for a, sizes in guessed.items() for i in sizes if i not in survives[a])

    consistent = True
    for (au, iu) in removed:
        for t in inst.types:
            if guess.activity(t.id) != au and t.prefs.rank((au, iu + 1)) > thr[t.id]:
                consistent = False

    idle_sizes = frozenset(range(1, n + 1))
    floors = sorted(removed)
    derived = []
    origin: Dict[str, str] = {}
    for t in inst.types:
        aid, size = guess.choices[t.id]
        home_guess = aid == EMPTY_ACTIVITY
        pin_prefs = {IDLE_ACTIVITY: idle_sizes} if home_guess else {aid: {size}}
        pin_id = t.id + _PIN
        derived.append(AgentType(pin_id, 1, SizeSetPrefs(pin_prefs)))
        origin[pin_id] = t.id
        if t.count == 1:
            continue
        rm = t.prefs
        appr: Dict[str, set] = {}
        for a in inst.activities:
            ok = set()
            for i in survives[a] | guessed.get(a, set()):
                r = rm.rank((a, i))
                if r < thr[t.id]:
                    continue
                if any(au != a and r < rm.rank((au, iu + 1)) for (au, iu) in floors):
                    continue
                ok.add(i)
            if ok:
                appr[a] = ok
        # the home seat obeys the same filters as any other; it is never at
        # a struck-out activity, so every floor applies
        if rm.home_rank >= thr[t.id] and all(
                rm.home_rank >= rm.rank((au, iu + 1)) for (au, iu) in floors):
            appr[IDLE_ACTIVITY] = idle_sizes
        rest_id = t.id + _REST
        derived.append(AgentType(rest_id, t.count - 1, SizeSetPrefs(appr)))
        origin[rest_id] = t.id

    a_ne = frozenset(
        a for a in inst.activities
        if any(t.prefs.rank((a, 1)) > thr[t.id] for t in inst.types))
    dinst = TypedInstance(tuple(inst.activities) + (IDLE_ACTIVITY,), tuple(derived))
    return DerivedSGasp(dinst, a_ne, origin, guess, consistent, removed)


def pull_back(inst: TypedInstance, derived: DerivedSGasp,
              picked: TypeCountAssignment) -> TypeCountAssignment:
    """Merge pinned and residual rows per source type and drop the idle
    column; idle attendees are the agents staying home."""
    tindex = inst.type_index()
    rows = [[0] * len(inst.activities) for _ in inst.types]
    for di, dt in enumerate(derived.instance.types):
        oi = tindex[derived.origin[dt.id]]
        for ai in range(len(inst.activities)):
            rows[oi][ai] += picked.counts[di][ai]
    return TypeCountAssignment(tuple(tuple(r) for r in rows))


def _candidates(inst: TypedInstance, t: AgentType):
    """Guess pool for one type: listed alternatives ranked at least home,
    best first (ties by activity order, then size), then home itself."""
    home = t.prefs.home_rank
    aidx = inst.activity_index()
    alts = [alt for alt, r in t.prefs.ranks.items()
            if alt[0] != EMPTY_ACTIVITY and r >= home]
    alts.sort(key=lambda alt: (-t.prefs.rank(alt), aidx[alt[0]], alt[1]))
    return alts + [HOME]


def solve_xp_gasp(inst: TypedInstance, *, max_types: int = DEFAULT_TYPE_CAP) -> SolveResult:
    """Decide whether a rank instance has a stable assignment.

    Enumerates minimal-alternative guesses in declaration order of the
    types, best candidates first; the first feasible branch wins.  The
    derived witness is mapped back and re-verified; a failed re-check is an
    internal bug, never a NO.  Runs take |A|*n guesses per type, so the
    type count is capped (override with max_types).
    """
    _require_kind(inst, "gasp")
    if len(inst.types) > max_types:
        raise BudgetError(
            f"{len(inst.types)} types exceed the cap of {max_types}; raise max_types to override")
    if not inst.types:
        return SolveResult(True, TypeCountAssignment(()), {"branches": 0, "skipped": 0})
    pools = [_candidates(inst, t) for t in inst.types]
    branches = skipped = 0
    for combo in itertools.product(*pools):
        branches += 1
        guess = MinimalGuess({t.id: alt for t, alt in zip(inst.types, combo)})
        der = gtosg_reduce(inst, guess)
        if not der.consistent:
            skipped += 1
            continue
        picked = find_ir_assignment(der.instance, der.instance.type_ids(), der.a_ne)
        if picked is None:
            continue
        witness = pull_back(inst, der, picked)
        report = verify_gasp(inst, witness)
        if not report.stable:
            raise InternalSolverError(
                f"derived solution for guess {guess.choices} maps back unstable")
        return SolveResult(True, witness, {"branches": branches, "skipped": skipped})
    return SolveResult(False, None, {"branches": branches, "skipped": skipped})
