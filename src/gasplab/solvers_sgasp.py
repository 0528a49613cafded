"""Exact deciders for size-approval instances.

Three parameterizations of the same question (does a stable assignment
exist), each built on `model.gamma_masks`, the bitmask form of the pruning
in `model.gamma_preprocess`:

* solve_fpt_ta: branch over the set Q of fully-attending types and over
  acyclic bipartite type-activity patterns, then solve a tree subset sum
  per pattern.  Fixed-parameter tractable in #types + #activities.  Each
  Q's masks also lose the sizes its types cannot fill (`_trim_unfillable`)
  before the pattern walk reads them.
* solve_xp_t: branch over Q only and solve a multidimensional subset sum
  over per-activity contribution vectors, the splits of each approved size
  over the types approving it (`subsetsum._splits`); the kernel,
  `_ir_kernel`, is shared with `solver_gasp.solve_xp_gasp`.  XP in #types.
* solve_fpt_n: branch over home sets and partitions of the rest into
  groups, then match groups to activities they fit, using every must-use
  one, as a padded perfect bipartite matching (Kuhn's algorithm on an
  explicit stack).  FPT in #agents.

All three, and xp-gasp, answer YES through `_accept`, which re-verifies
the witness; a failed re-check is an internal bug, never a NO.  Each
counts its branches on one `WorkMeter` capped by
`budget.resolve_budget(budget, DEFAULT_SOLVER_BUDGET)`; xp-t and fpt-n,
whose branch counts are known before the sweep, refuse up front.  fpt-ta's
branches are the patterns its walk visits, yielded or not, so the budget
bounds its time even where whole Qs yield nothing; a budget below the
2^|T| empty patterns every sweep visits (one per Q) is refused up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .budget import DEFAULT_SOLVER_BUDGET, WorkMeter, check, metered, resolve_budget
from .errors import BudgetError, InternalSolverError, InvalidInstanceError
from .model import (
    TypeCountAssignment,
    TypedInstance,
    _require_kind,
    approval_masks,
    gamma_masks,
    verify_sgasp,
)
from .subsetsum import _bits, _MixedRadix, _mpss, _mpss_witness, _splits, _tss


@dataclass(frozen=True)
class SolveResult:
    exists: bool
    witness: Optional[TypeCountAssignment] = None
    stats: Dict[str, int] = field(default_factory=dict)


def enumerate_acyclic_patterns(t_count: int, a_count: int,
                               q: Iterable[int] = (),
                               a_ne: Iterable[int] = (),
                               masks: Optional[Sequence[Sequence[int]]] = None,
                               meter: Optional[WorkMeter] = None):
    """All acyclic bipartite patterns compatible with (q, a_ne), each once,
    as (type, activity) edge tuples.  Every type in q and every activity in
    a_ne gets at least one incident edge.

    The order is that of a depth-first walk over the lexicographic edge
    list, skip-branch before take-branch: a pattern comes before the patterns
    that extend it by later edges, and those come latest-edge first.  Cyclic
    subsets are never built.

    With `masks` (per type and activity, a bitmask of allowed sizes, as
    `model.gamma_masks` returns them) only the patterns whose activity
    labels, the AND of the neighbours' masks, are all nonzero are yielded,
    in the same order.  Three cuts make that cheap, each dropping only
    patterns that would not be yielded:

    * an edge with mask 0 is never taken: its activity label would be 0;
    * an edge that would make its activity's running label 0 is not taken
      either: labels only shrink as edges are added, so every pattern
      through it is rejected;
    * once a type in q or an activity in a_ne is uncovered and has no edge
      left to take, the branch ends: no pattern below it covers that vertex.

    `meter` ticks once for the empty pattern and once for every pattern the
    walk extends to, before it is yielded, whether or not it covers q and
    a_ne; so a walk that yields nothing still spends its budget and checks
    the deadline.
    """
    if masks is None:
        masks = [[-1] * a_count for _ in range(t_count)]
    if meter is None:
        meter = WorkMeter()
    edges = [(t, a) for t in range(t_count) for a in range(a_count) if masks[t][a]]
    # vertices: type t is t, activity a is t_count + a.  last[v]: index of
    # the last edge at the required vertex v, -1 if it has none
    last = dict.fromkeys(list(q) + [t_count + a for a in a_ne], -1)
    for i, (t, a) in enumerate(edges):
        for v in (t, t_count + a):
            if v in last:
                last[v] = i
    # stranded[j]: the required vertices without an edge at index j or later
    stranded = [sum(1 << v for v, i in last.items() if i < j) for j in range(len(edges) + 1)]
    need = stranded[-1]

    top = len(edges) - 1
    meter.tick()
    if not need:
        yield ()
    # one frame per pattern being extended: the next edge index to try
    # (descending), the lowest index it may take, and the pattern with its
    # state: a component id per vertex, the covered vertices as a bitmask,
    # and the activity labels (-1: no neighbour yet)
    stack = [[top, 0, (), list(range(t_count + a_count)), 0, [-1] * a_count]]
    while stack:
        frame = stack[-1]
        j, lo, pat, comp, covered, labels = frame
        while j >= lo:
            # taking j must not skip the last edge of an uncovered required
            # vertex, close a cycle, or empty the label of j's activity
            if not stranded[j] & ~covered:
                t, a = edges[j]
                ct, ca = comp[t], comp[t_count + a]
                label = labels[a] & masks[t][a]
                if ct != ca and label:
                    break
            j -= 1
        else:
            stack.pop()
            continue
        frame[0] = j - 1
        meter.tick()
        pat = pat + ((t, a),)
        covered |= 1 << t | 1 << t_count + a
        if not need & ~covered:
            yield pat
        labels = labels.copy()
        labels[a] = label
        stack.append([top, j + 1, pat, [ct if c == ca else c for c in comp], covered, labels])


def _trim_unfillable(masks: List[List[int]], caps: Sequence[int]) -> None:
    """Clear, in place, bit s of every masks[t][a] when s exceeds the sum of
    caps[u] over the types u whose mask at a holds s.

    An activity valued s has s in each neighbour's mask, and each neighbour
    sends it at most its cap, so no valuation is lost.  The test at (a, s)
    reads only column a's bit s, so one pass leaves nothing to trim.
    """
    for a in range(len(masks[0]) if masks else 0):
        sizes = 0
        for row in masks:
            sizes |= row[a]
        keep = 0
        for s in _bits(sizes):
            if s <= sum(c for c, row in zip(caps, masks) if row[a] >> s & 1):
                keep |= 1 << s
        for row in masks:
            row[a] &= keep


def solve_fpt_ta(inst: TypedInstance, budget: Optional[int] = None) -> SolveResult:
    """Pattern branching plus tree subset sum.

    A pattern edge valued v means v agents of that type at that activity; a
    zero-valued edge realizes a sub-pattern, which is sound here because
    activity labels never contain 0 and the assignment is re-verified.
    Labels are bitmasks, {0} for an activity without pattern edges; the
    patterns are forests, as the TSS kernel requires.

    Per Q, the pruned masks are trimmed to the sizes the types could fill
    (`_trim_unfillable`), each type capped at the top of its label: its
    count if in Q, count - 1 otherwise.  Every valuation TSS would accept
    survives the trim, so the feasible patterns, their order and the alpha
    TSS returns for them are unchanged.  The enumerator gets those masks,
    so it never builds a pattern with an empty activity label, which TSS
    would reject, and ends a branch once a Q type or must-use activity can
    no longer be covered; see `enumerate_acyclic_patterns`.  The first
    feasible pattern, and with it the answer and the witness, are those of
    the full sweep.  `branches` counts the patterns the walk visits, the
    empty one of each Q included.  Since every Q visits at least that one,
    a budget below 2^|T| is refused up front; otherwise it caps the count
    as it goes.
    """
    _require_kind(inst, "sgasp")
    k = len(inst.types)
    m = len(inst.activities)
    meter = metered(budget, 1 << k, "fpt-ta patterns (at least one per Q mask)")
    masks = approval_masks(inst)
    for q_mask in range(1 << k):
        q_idx = [i for i in range(k) if q_mask >> i & 1]
        pruned, a_ne = gamma_masks(masks, [i for i in range(k) if not q_mask >> i & 1])
        caps = [t.count if q_mask >> i & 1 else t.count - 1 for i, t in enumerate(inst.types)]
        _trim_unfillable(pruned, caps)
        type_labels = [1 << t.count if q_mask >> i & 1 else (1 << t.count) - 1
                       for i, t in enumerate(inst.types)]
        for pat in enumerate_acyclic_patterns(k, m, q_idx, a_ne, pruned, meter):
            act_labels = [-1] * m  # -1: no neighbour yet
            for t, a in pat:
                act_labels[a] &= pruned[t][a]
            alpha = _tss(type_labels + [1 if lab < 0 else lab for lab in act_labels],
                         [(t, k + a) for t, a in pat])
            if alpha is None:
                continue
            rows = [[0] * m for _ in range(k)]
            for (t, a), val in zip(pat, alpha):
                rows[t][a] = val
            x = TypeCountAssignment(rows)
            return _accept(inst, x, verify_sgasp, {"branches": meter.spent}, "fpt-ta")
    return SolveResult(False, None, {"branches": meter.spent})


def _ir_kernel(caps: Sequence[int], budget: Optional[int] = None):
    """The perfect-IR decider behind `find_ir_assignment`, compiled for one
    solve: `find(masks, a_ne, q_mask)` on approval masks (bit s of
    masks[t][a]: type t approves size s at a) returns one k-vector per
    activity, the attendance of each type there, or None.  Exactly the types
    in the bitmask q_mask attend in full, and every activity in the bitmask
    a_ne is nonempty.

    One vector set per activity: for each size p someone approves, every
    split of p agents over the types approving p (`subsetsum._splits`, the
    other types capped at 0), with one deadline check per vector; the zero
    vector stands for leaving the activity empty and is withheld from a_ne
    members.  Sets are sorted and deduplicated as `VectorFamily` does, and
    folded by the MPSS kernel on one mixed-radix table over the caps
    (counts per type).
    The capped vector sums reachable with one pick per activity are exactly
    the per-type attendance totals.  The final table is filtered to the
    sums whose full/not-full pattern is q before anything is decoded; the
    smallest such target in tuple order is taken and its witness rebuilt
    with `subsetsum._mpss_witness`, which is `solve_mpss`'s rule.

    The caps stay fixed within a solve, so the closure memoizes the vector
    set per (mask column, must-use flag) and each vector's (position, geq
    mask), and computes the full-attendance masks of the q filter once;
    nothing outlives the closure.  A table of more than the resolved
    budget's ∏(caps+1) positions is refused before anything is built.  Each
    set holds at most that many vectors, but m of them could hold m times
    as many, so the sets one fold takes spend the same budget as they are
    gathered: each adds its vector count, memo hits included.  The set memo
    is emptied whenever the vectors it holds would pass that budget, so it
    stays under it across folds.
    """
    k = len(caps)
    caps = tuple(caps)
    limit = metered(budget, math.prod(c + 1 for c in caps), "subset-sum table positions").limit
    radix = _MixedRadix(caps) if k else None
    # per type, the table positions where it attends in full
    fulls = [radix._component_geq(i, c) for i, c in enumerate(caps)]
    vec_memo: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    set_memo: Dict[Tuple[Tuple[int, ...], int], tuple] = {}
    held_vectors = 0  # the vectors set_memo holds

    def vector_set(column, must):
        nonlocal held_vectors
        key = (column, must)
        got = set_memo.get(key)
        if got is None:
            vecs: List[Tuple[int, ...]] = []
            sizes = 0
            for mk in column:
                sizes |= mk
            for p in _bits(sizes):
                for vec in _splits(p, [c if mk >> p & 1 else 0 for c, mk in zip(caps, column)]):
                    check()
                    vecs.append(vec)
            if not must:
                vecs.append((0,) * k)
            vecs = sorted(set(vecs))
            pairs = []
            for vec in vecs:
                pg = vec_memo.get(vec)
                if pg is None:
                    pg = vec_memo[vec] = (radix.position(vec), radix.geq_mask(vec))
                pairs.append(pg)
            got = (vecs, pairs)
            if held_vectors + len(vecs) > limit:
                set_memo.clear()
                held_vectors = 0
            set_memo[key] = got
            held_vectors += len(vecs)
        return got

    def find(masks, a_ne, q_mask):
        if not k:
            # nobody to send anywhere; feasible iff nothing must be nonempty
            return None if a_ne else []
        held = WorkMeter(limit)
        sets = []
        for a, col in enumerate(zip(*masks)):
            sets.append(vector_set(col, a_ne >> a & 1))
            held.tick(len(sets[-1][0]))
        pairs = [p for _, p in sets]
        prefixes = _mpss(pairs)
        table = prefixes[-1]
        for i, full in enumerate(fulls):
            table &= full if q_mask >> i & 1 else ~full
        if not table:
            return None
        if table & (table - 1):
            # several targets: the smallest in tuple order, digit by digit
            for i, c in enumerate(caps):
                for v in range(c):
                    low = table & ~radix._component_geq(i, v + 1)
                    if low:
                        table = low
                        break
        picks = _mpss_witness(pairs, prefixes, table.bit_length() - 1)
        return [vecs[j] for (vecs, _), j in zip(sets, picks)]

    return find


def _columns_to_rows(picks, owner: Sequence[int], inst: TypedInstance) -> TypeCountAssignment:
    """The first m picks (m activities), one attendance vector per activity,
    as inst's type-count matrix, component d counting for type owner[d]."""
    m = len(inst.activities)
    rows = [[0] * m for _ in inst.types]
    for a, vec in zip(range(m), picks):
        for d, v in enumerate(vec):
            rows[owner[d]][a] += v
    return TypeCountAssignment(rows)


def _accept(inst: TypedInstance, x: TypeCountAssignment, verify, stats: Dict[str, int],
            solver: str) -> SolveResult:
    """YES with witness x once `verify` calls it stable, else
    InternalSolverError: a failed re-check is a bug, never a NO.  `verify`
    is the caller's module-level name, so a patched or wrapped one runs."""
    if not verify(inst, x).stable:
        raise InternalSolverError(f"{solver} witness failed re-verification; this is a bug")
    return SolveResult(True, x, stats)


def find_ir_assignment(inst: TypedInstance, q: Iterable[str],
                       a_ne: Iterable[str]) -> Optional[TypeCountAssignment]:
    """An individually rational assignment where exactly the types in q
    attend in full and every activity in a_ne is nonempty, or None.

    The validated entry point of `_ir_kernel`: names are checked against
    the instance, then the kernel runs once on its approval masks.
    """
    _require_kind(inst, "sgasp")
    tindex = inst.type_index()
    aindex = inst.activity_index()
    q, a_ne = set(q), set(a_ne)
    unknown = sorted(q - set(tindex)) + sorted(a_ne - set(aindex))
    if unknown:
        raise InvalidInstanceError(f"unknown type or activity ids: {unknown}")
    find = _ir_kernel([t.count for t in inst.types])
    picks = find(approval_masks(inst), sum(1 << aindex[a] for a in a_ne),
                 sum(1 << tindex[t] for t in q))
    return None if picks is None else _columns_to_rows(picks, range(len(tindex)), inst)


def solve_xp_t(inst: TypedInstance, budget: Optional[int] = None) -> SolveResult:
    """Q branching plus multidimensional subset sum over activity vectors.

    The approval masks are built once; each Q prunes them with
    `model.gamma_masks` and runs the shared `_ir_kernel`, whose caps (the
    type counts) are the same for every Q.  More than the budget's 2^|T| Q
    masks, or kernel table positions, are refused up front.
    """
    _require_kind(inst, "sgasp")
    k = len(inst.types)
    meter = metered(budget, 1 << k, "xp-t Q masks")
    masks = approval_masks(inst)
    find = _ir_kernel([t.count for t in inst.types], meter.limit)
    for q_mask in range(1 << k):
        meter.tick()
        pruned, a_ne = gamma_masks(masks, [i for i in range(k) if not q_mask >> i & 1])
        picks = find(pruned, sum(1 << a for a in a_ne), q_mask)
        if picks is None:
            continue
        x = _columns_to_rows(picks, range(k), inst)
        return _accept(inst, x, verify_sgasp, {"branches": meter.spent}, "xp-t")
    return SolveResult(False, None, {"branches": meter.spent})


# ---------------------------------------------------------------------------
# FPT in the number of agents


def _partitions(items: Sequence[int], groups: List[List[int]], i: int = 0):
    """Set partitions of `items` in restricted-growth order: items[:i] are
    already placed in `groups`, and item i joins each group in turn, then a
    group of its own."""
    if i == len(items):
        yield [tuple(g) for g in groups]
        return
    for g in groups:
        g.append(items[i])
        yield from _partitions(items, groups, i + 1)
        g.pop()
    groups.append([items[i]])
    yield from _partitions(items, groups, i + 1)
    groups.pop()


def _augment(r: int, rows: Sequence[int], owner: List[int]) -> bool:
    """Kuhn's step: match row r to an activity in rows[r], re-routing rows
    already matched, each activity tried once (lowest bit first) on one
    `seen` mask.  Depth-first on an explicit stack: path[i] is a row that
    would take activity acts[i] from the next row on the path (the last
    from r); a row whose activities run out hands back to its parent."""
    seen = 0
    path, acts = [], []
    # `seen` grows as the walk goes, so the free bits are read afresh each step
    while True:
        free = rows[r] & ~seen
        if free:
            low = free & -free
            seen |= low
            a = low.bit_length() - 1
            if owner[a] < 0:
                owner[a] = r
                for row, act in zip(path, acts):
                    owner[act] = row
                return True
            path.append(r)
            acts.append(a)
            r = owner[a]
        elif path:
            r = path.pop()
            acts.pop()
        else:
            return False


def _cover_matching(fits: Sequence[int], m: int, a_ne: int) -> Optional[List[int]]:
    """Distinct activities per group, each one the group fits (bit a of
    fits[g]), that use every activity in the bitmask a_ne; or None.

    The groups plus m - len(fits) pad rows, each fitting exactly the
    activities outside a_ne, must match perfectly (see `solve_fpt_n`).
    Kuhn's algorithm: rows in order, activities in ascending bit order.
    """
    rows = list(fits) + [((1 << m) - 1) & ~a_ne] * (m - len(fits))
    owner = [-1] * m  # owner[a]: the row matched to activity a
    if not all(_augment(r, rows, owner) for r in range(len(rows))):
        return None
    return [owner.index(g) for g in range(len(fits))]


def solve_fpt_n(inst: TypedInstance, budget: Optional[int] = None) -> SolveResult:
    """Branch over home sets and partitions of the attendees into groups,
    then match groups to activities.

    Agents are expanded from the type counts; agents of one type share an
    approval bitmask.  A size s survives pruning (`model.gamma_masks`) at
    activity a unless some home agent approves s+1 there (it would join); an
    activity must be used if some home agent approves size 1 there.

    Group g fits activity a when the AND of its members' pruned masks at a
    has bit |g|.  A branch holds iff the groups get distinct activities they
    fit that use every must-use activity.  `_cover_matching` decides that
    as a perfect matching after adding m - #groups pad rows that fit exactly
    the other activities.  That is exact: a covering matching leaves
    m - #groups activities free, none must-use, for the pads; pads never
    take a must-use activity, so a perfect matching covers them with groups.

    A full sweep walks Bell(n+1) branches; more than the budget is refused
    up front."""
    _require_kind(inst, "sgasp")
    n = inst.n
    meter = WorkMeter(resolve_budget(budget, DEFAULT_SOLVER_BUDGET))
    row = [1]  # Bell triangle: row[0] is Bell(i) after i steps
    for _ in range(n + 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
        if row[0] > meter.limit:
            raise BudgetError(f"fpt-n would walk Bell({n + 1}) > {meter.limit} branches")
    m = len(inst.activities)
    type_of = [i for i, t in enumerate(inst.types) for _ in range(t.count)]
    masks = approval_masks(inst)
    for home_mask in range((1 << n) - 1, -1, -1):
        rest = [i for i in range(n) if not home_mask >> i & 1]
        pruned, a_ne = gamma_masks(masks, {type_of[i] for i in range(n) if home_mask >> i & 1})
        a_ne_mask = sum(1 << a for a in a_ne)
        for parts in _partitions(rest, []):
            meter.tick()
            if len(parts) > m:
                continue  # more groups than activities can host
            fits = []
            for group in parts:
                fit = 0
                for a in range(m):
                    lab = -1
                    for i in group:
                        lab &= pruned[type_of[i]][a]
                    if lab >> len(group) & 1:
                        fit |= 1 << a
                fits.append(fit)
            match = _cover_matching(fits, m, a_ne_mask)
            if match is None:
                continue
            rows = [[0] * m for _ in inst.types]
            for group, a in zip(parts, match):
                for agent in group:
                    rows[type_of[agent]][a] += 1
            x = TypeCountAssignment(rows)
            return _accept(inst, x, verify_sgasp, {"branches": meter.spent}, "fpt-n")
    return SolveResult(False, None, {"branches": meter.spent})
