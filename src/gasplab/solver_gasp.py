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

`solve_xp_gasp` does not build derived instances.  It compiles the instance
once into per-guess bitmasks read off each type's rank levels
(`model._rank_levels`, in `_guess_reducer`), applies `gtosg_reduce`'s rules
to them, and hands the derived approval masks to `solvers_sgasp._ir_kernel`,
the kernel `xp-t` uses too.  The guesses are walked as a prefix tree on
`budget.walk`, folded one type at a time, and a prefix already inconsistent
is cut with all its guesses.  The idle column is the index past the real
activities, so a real activity may be named like IDLE_ACTIVITY.
`gtosg_reduce`, `pull_back`, `MinimalGuess` and `DerivedSGasp` stay as the
reference entry points the tests compare the int reduction against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from .budget import check, metered, walk
from .errors import InvalidInstanceError
from .model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentType,
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    _is_int,
    _rank_levels,
    _require_kind,
    verify_gasp,
)
from .solvers_sgasp import SolveResult, _accept, _columns_to_rows, _ir_kernel
from .subsetsum import _bits

# Reserved activity standing for "stays home" in derived instances.
IDLE_ACTIVITY = "@idle"

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
        clean = {}
        for t, (a, s) in dict(self.choices).items():
            if not _is_int(s):
                raise InvalidInstanceError(f"guess for {t!r} has size {s!r}, not an int")
            clean[str(t)] = (str(a), s)
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

    A guess whose pins clash is flagged inconsistent too: two pins at one
    activity with different sizes, or more pins at an activity than its
    pinned size.  Each pin is a derived type of count one approving only
    its size there, so no derived solution exists.
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
    pinned: Dict[str, int] = {}  # per activity, the types pinned there
    for t in inst.types:
        aid, size = guess.choices[t.id]
        if aid != EMPTY_ACTIVITY:
            guessed.setdefault(aid, set()).add(size)
            pinned[aid] = pinned.get(aid, 0) + 1
    removed = frozenset(
        (a, i) for a, sizes in guessed.items() for i in sizes if i not in survives[a])

    # every pin attends in full at its one size: an activity cannot hold
    # two pinned sizes, nor more pins than its pinned size
    consistent = all(len(sizes) == 1 and pinned[a] <= min(sizes)
                     for a, sizes in guessed.items())
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
    return TypeCountAssignment(rows)


def _candidates(inst: TypedInstance, t: AgentType):
    """Guess pool for one type: listed alternatives ranked at least home,
    best first (ties by activity order, then size), then home itself."""
    home = t.prefs.home_rank
    aidx = inst.activity_index()
    alts = [alt for alt, r in t.prefs.ranks.items()
            if alt[0] != EMPTY_ACTIVITY and r >= home]
    alts.sort(key=lambda alt: (-t.prefs.rank(alt), aidx[alt[0]], alt[1]))
    return alts + [HOME]


def _guess_reducer(inst: TypedInstance):
    """`gtosg_reduce` compiled for one instance, on plain ints.

    Returns (pools, caps, owner, root, fold, build).  pools[t] is type t's
    guess pool in `_candidates` order; each entry is (alternative, activity
    index (m, the idle column, for home), pin label, rank r, successors,
    threats, alone, accepted).  The pin label is the guessed size, or every
    size for home.  The rest are bitmasks over sizes (bit s: size s) or
    activities, read off the level of r in the type's `model._rank_levels`:

    * successors[a]: sizes i < n at a whose successor i+1 the type ranks
      above r, the sizes it strikes;
    * threats: successors with the pinned activity's entry cleared, the
      struck sizes that make a guess pinned elsewhere unrealizable;
    * alone: the activities the type would enter alone, ranked above r;
    * accepted[a]: the sizes at a ranked at least r, with the idle column
      (all sizes, or none if home ranks below r) last.

    Each type's levels take one sort of its listed alternatives; an entry
    then costs O(|A|), and checks the deadline once.

    caps are the counts of the derived types, a pin then, for counts above
    one, a rest per source type, and owner[d] is derived type d's source
    type; neither depends on the guess.

    fold(state, entry) adds one type's entry to a guess's state (struck,
    guessed, threat, pins, a_ne, consistent), root for no type: per activity
    the struck sizes, the guessed sizes, those struck by types pinned
    elsewhere and the number of pins, then the must-use activities.  A
    guess is consistent while no guessed size is threatened and its pins do
    not clash (one guessed size per activity, and no more pins there than
    that size).  Guesses, threats and pins only grow, so an inconsistent
    prefix stays so.  build(combo, state) makes a guess's derived approval
    masks (idle column last); a struck guess's floor is the level of its
    successor's rank.  Masks, a_ne and the flag equal what `gtosg_reduce`
    and `approval_masks` give for that guess.
    """
    n, m = inst.n, len(inst.activities)
    aidx = inst.activity_index()
    every = (1 << n + 1) - 2  # sizes 1..n, the idle column's label
    levels = [_rank_levels(t.prefs, inst.activities) for t in inst.types]
    pools = []
    for t, level in zip(inst.types, levels):
        home = t.prefs.home_rank
        pool = []
        for alt in _candidates(inst, t):
            check()  # each entry costs O(|A|)
            if alt == HOME:
                a, pin, r = m, every, home
            else:
                a, pin, r = aidx[alt[0]], 1 << alt[1], t.prefs.rank(alt)
            above, at = level[r]
            # listed sizes are at most n, so i + 1 <= n; size 1 strikes no i
            successors = [x >> 1 & ~1 for x in above]
            threats = [0 if b == a else x for b, x in enumerate(successors)]
            alone = sum(1 << b for b, x in enumerate(above) if x & 2)
            accepted = at + [every if home >= r else 0]
            pool.append((alt, a, pin, r, successors, threats, alone, accepted))
        pools.append(pool)
    caps, owner = [], []
    for ti, t in enumerate(inst.types):
        caps.append(1)
        owner.append(ti)
        if t.count > 1:
            caps.append(t.count - 1)
            owner.append(ti)
    root = ([0] * m, [0] * m, [0] * m, [0] * m, 0, True)

    def fold(state, entry):
        struck, guessed, threat, pins, a_ne, consistent = state
        _, a, pin, _, successors, threats, alone, _ = entry
        struck = [x | y for x, y in zip(struck, successors)]
        threat = [x | y for x, y in zip(threat, threats)]
        if a < m:
            guessed = guessed.copy()
            guessed[a] |= pin
            pins = pins.copy()
            pins[a] += 1
            g = guessed[a]
            consistent = consistent and not g & (g - 1) and pins[a] < g.bit_length()
        consistent = consistent and not any(g & x for g, x in zip(guessed, threat))
        return struck, guessed, threat, pins, a_ne | alone, consistent

    def build(combo, state):
        struck, guessed = state[0], state[1]
        # struck guesses stay seats; residual agents seated elsewhere must
        # weakly prefer their seat to each struck-out alternative's successor
        # (struck sizes are 1..n-1, so i + 1 is a size)
        floors = [(b, i) for b, (g, x) in enumerate(zip(guessed, struck)) for i in _bits(g & x)]
        seats = [every & ~x | g for x, g in zip(struck, guessed)]
        masks = []
        for (_, a, pin, r, _, _, _, accepted), t, level in zip(combo, inst.types, levels):
            row = [0] * (m + 1)
            row[a] = pin
            masks.append(row)
            if t.count == 1:
                continue
            rest = [acc & seat for acc, seat in zip(accepted, seats)]
            rest.append(accepted[m])
            for b, i in floors:
                # a floor ranked at most r changes nothing: rest and the idle
                # column already hold only what ranks at least r.  Above r it
                # is a level; home is never at a struck-out activity, so the
                # floor clears the idle column
                bar = t.prefs.rank((inst.activities[b], i + 1))
                if bar > r:
                    floor = level[bar][1]
                    for c in range(m):
                        if c != b:
                            rest[c] &= floor[c]
                    rest[m] = 0
            masks.append(rest)
        return masks

    return pools, caps, owner, root, fold, build


def solve_xp_gasp(inst: TypedInstance, budget=None) -> SolveResult:
    """Decide whether a rank instance has a stable assignment.

    Enumerates minimal-alternative guesses in declaration order of the
    types, best candidates first; the first feasible branch wins.  An
    inconsistent prefix is cut, its guesses ticked in one step and counted
    as skipped.  A guess is inconsistent when a guessed size is threatened
    or its pins clash (two sizes at one activity, or more pins there than
    the pinned size); no derived solution survives either.  A consistent
    guess is reduced on the compiled masks (`_guess_reducer`) and
    decided by the shared `solvers_sgasp._ir_kernel` with every derived
    type attending in full; no per-guess instance is built.  The derived
    picks are mapped back as `pull_back` does: `_columns_to_rows` adds each
    derived type's attendance to its owner type's row and drops the idle
    column, and `_accept` re-verifies the witness with `verify_gasp`; a
    failed re-check is an internal bug, never a NO.  A sweep walks the
    product of the guess pool sizes, up to |A|*n + 1 per type (one empty
    guess for an instance without types); a product above the budget is
    refused up front, from the `_candidates` pool sizes, before any pool
    entry is compiled.  The compile, one sort per type and O(|A|) per
    entry, checks the deadline once per entry.
    """
    _require_kind(inst, "gasp")
    meter = metered(budget, math.prod(len(_candidates(inst, t)) for t in inst.types),
                    "xp-gasp guesses")
    pools, caps, owner, root, fold, build = _guess_reducer(inst)
    find = _ir_kernel(caps, meter.limit)
    everyone = (1 << len(caps)) - 1

    def step(state, entry, depth):
        state = fold(state, entry)
        return state if state[-1] else None

    walked = 0  # consistent guesses; every other one ticked is skipped
    for combo, state in walk(pools, root, step, meter):
        walked += 1
        picks = find(build(combo, state), state[4], everyone)
        if picks is None:
            continue
        x = _columns_to_rows(picks, owner, inst)
        return _accept(inst, x, verify_gasp,
                       {"branches": meter.spent, "skipped": meter.spent - walked}, "xp-gasp")
    return SolveResult(False, None, {"branches": meter.spent, "skipped": meter.spent - walked})
