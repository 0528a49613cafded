"""Exhaustive deciders for all three problem variants.

These are the ground-truth oracles the tests compare the real solvers
against.  Each one walks every candidate assignment in a fixed order and
tests it on a boolean stability kernel: a private closure that compiles the
instance once per call into plain ints (approval bitmasks for sgasp, a rank
table ``rank[t][a][s]`` for sizes 0..n+1 plus home ranks for gasp, per-agent
rank rows and adjacency/member bitmasks for ggasp) and answers stable or not
without building an assignment or a report.  Only a candidate the kernel
calls stable becomes a `TypeCountAssignment`/`AgentAssignment`, and it is
kept only after the full `verify_*` of `model` agrees; a disagreement is an
implementation bug and raises `InternalSolverError`.  So every witness is
re-verified, and the enumeration order, the witnesses and the `explored`
count are those of an enumerate-verify-collect loop.

For the typed variants the enumeration runs over per-type attendance counts
rather than per-agent choices, which is equivalent because agents of one
type are interchangeable, and exponentially smaller.  Connectivity breaks
that symmetry in ggasp, so its oracle enumerates per-agent picks.  Every
oracle walks its candidates on `budget.walk`, depth-first, in the order of
`itertools.product`: over each type's rows, or over each agent's picks.
Each kernel gives, per type row or agent pick, a bitmask per activity of
the sizes any stable candidate using it can have there (exact for sgasp, a
necessary relaxation for gasp and ggasp).  The walk's step keeps the
partial column sizes (member bitmasks for ggasp) and the AND of the chosen
masks, and cuts a node whose masks leave some activity no size its
remaining agents can reach; the meter ticks once with the cut leaves.  So
the order, the witnesses and `explored` stay those of the full product.  A
leaf that passes this window is stable for sgasp, so only the gasp and
ggasp kernels keep a leaf test.  A budget check up front refuses instances
that would enumerate too much; refusing is never reported as NO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .budget import metered, walk
from .errors import InternalSolverError
from .model import (
    EMPTY_ACTIVITY,
    AgentAssignment,
    NetworkInstance,
    TypeCountAssignment,
    TypedInstance,
    _rank_table,
    approval_masks,
    verify_gasp,
    verify_ggasp,
    verify_sgasp,
)

DEFAULT_ORACLE_BUDGET = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witnesses: Tuple
    explored: int


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _count_matrices(inst: TypedInstance) -> int:
    a = len(inst.activities)
    out = 1
    for t in inst.types:
        out *= math.comb(t.count + a, a)
    return out


def _sgasp_kernel(inst: TypedInstance):
    """Stability of a type-count matrix on approval bitmasks (bit s: size s):
    every attended activity approves its size, and a type with an agent at
    home approves no activity at its size plus one.

    `row_masks(ti, home, attended)` gives, per activity, the sizes (bit s)
    at which a row of type ti passes those tests.  The two tests read one
    size each, so a matrix is stable exactly when every row's masks hold
    the final sizes: the walk's window alone decides, and no leaf test is
    returned (None)."""
    masks = approval_masks(inst)

    def row_masks(ti, home, attended):
        mrow = masks[ti]
        out = [~(m >> 1) for m in mrow] if home else [-1] * len(mrow)
        for ai in attended:
            out[ai] &= mrow[ai]
        return out

    return None, row_masks


def _gasp_kernel(inst: TypedInstance):
    """Stability of a type-count matrix on int rank tables: from no occupied
    alternative (attended activity at its size, or home) may a type strictly
    improve by joining another activity at its size plus one, and no attended
    alternative ranks below home.

    `row_masks(ti, home, attended)` gives, per activity, sizes (bit s) that
    every stable matrix using the row has there, a necessary relaxation:
    with someone home, no activity may rank above home at its size plus
    one; an attended activity must rank at least home at its size, and no
    other activity may rank, at its size plus one, above the best such
    rank."""
    n = inst.n
    tables = [_rank_table(t.prefs, inst.activities, n) for t in inst.types]
    homes = [t.prefs.home_rank for t in inst.types]

    def stable(rows, sizes):
        for rank, home_rank, (_, home, attended, _) in zip(tables, homes, rows):
            grown = [r[s + 1] for r, s in zip(rank, sizes)]
            if home and any(g > home_rank for g in grown):
                return False
            for ai in attended:
                cur = rank[ai][sizes[ai]]
                if home_rank > cur:
                    return False
                for bi, g in enumerate(grown):
                    if g > cur and bi != ai:
                        return False
        return True

    def grown_at_most(r, cap):
        """Sizes s in 0..n with r[s + 1] <= cap, as a bitmask."""
        return sum(1 << s for s in range(n + 1) if r[s + 1] <= cap)

    def type_masks(rank, home_rank):
        """The masks of someone home, and per activity ai those of attending
        it (at ai its sizes ranked at least home, elsewhere the sizes that
        do not grow above the best of them)."""
        at_home = [grown_at_most(r, home_rank) for r in rank]
        attend = []
        for ai, r in enumerate(rank):
            ok = [s for s in range(n + 1) if r[s] >= home_rank]
            best = max((r[s] for s in ok), default=None)
            attend.append([sum(1 << s for s in ok) if bi == ai
                           else -1 if best is None else grown_at_most(rb, best)
                           for bi, rb in enumerate(rank)])
        return at_home, attend

    parts = [type_masks(rank, home_rank) for rank, home_rank in zip(tables, homes)]

    def row_masks(ti, home, attended):
        at_home, attend = parts[ti]
        out = at_home if home else [-1] * len(at_home)
        for ai in attended:
            out = [m & x for m, x in zip(out, attend[ai])]
        return out

    return stable, row_masks


def _typed_oracle(inst, kernel, verify, variant, budget, collect_all):
    meter = metered(budget, _count_matrices(inst), f"{variant} oracle matrices",
                    DEFAULT_ORACLE_BUDGET)
    a = len(inst.activities)
    stable, row_masks = kernel(inst)
    # per type, in _compositions order: the row as the kernel reads it
    # (attendance counts over activities, the remainder staying home;
    # whether anyone stays home; the attended activity indices) and its masks
    pools = []
    for ti, t in enumerate(inst.types):
        pool = []
        for comp in _compositions(t.count, a + 1):
            row = (comp[:a], comp[a] > 0, tuple(ai for ai in range(a) if comp[ai]))
            pool.append(row + (row_masks(ti, row[1], row[2]),))
        pools.append(pool)
    # per depth, the bits partial..partial + spare of a final size, spare
    # being the agents of the types below
    windows = [(2 << sum(t.count for t in inst.types[d + 1:])) - 1
               for d in range(len(inst.types))]

    def step(state, row, d):
        sizes, masks = state
        sizes = [s + c for s, c in zip(sizes, row[0])]
        masks = [m & r for m, r in zip(masks, row[3])]
        window = windows[d]
        if all((m >> s) & window for m, s in zip(masks, sizes)):
            return sizes, masks
        return None

    survivors = []
    for rows, (sizes, _) in walk(pools, ([0] * a, [-1] * a), step, meter):
        if stable is not None and not stable(rows, sizes):
            continue
        x = TypeCountAssignment(tuple(row[0] for row in rows))
        if not verify(inst, x).stable:
            raise InternalSolverError(
                f"{variant} oracle kernel calls {x.counts} stable, the verifier does not")
        survivors.append(x)
        if not collect_all:
            break
    return OracleResult(bool(survivors), tuple(survivors), meter.spent)


def oracle_sgasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _sgasp_kernel, verify_sgasp, "sgasp", budget, collect_all)


def oracle_gasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _gasp_kernel, verify_gasp, "gasp", budget, collect_all)


def _ggasp_kernel(net: NetworkInstance):
    """Stability of per-agent picks (0 home, i+1 activity i) given per-activity
    member bitmasks over agent positions: every group of two or more is
    connected (bitmask flood fill over adjacency masks), no agent prefers home
    over its group, and no agent strictly improves by joining another
    activity it links into (an empty target needs no link).

    `masks[i][p]` gives, per activity, sizes (bit s) that every stable
    assignment in which agent i picks p has there, a necessary relaxation
    read off the sizes alone: at its own activity the agent ranks its size
    at least home, and an activity it would rank above its best such rank
    (home: the home rank) at size 1 cannot stay empty, since joining an
    empty activity needs no link."""
    agents = net.agent_ids()
    n = len(agents)
    pos = {agent: i for i, agent in enumerate(agents)}
    adj = [0] * n
    for u, v in net.links:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]

    def pick_masks(rank, home_rank):
        out = [[~1 if r[1] > home_rank else -1 for r in rank]]
        for ai, r in enumerate(rank):
            ok = [s for s in range(1, n + 1) if r[s] >= home_rank]
            # with no size ok, row[ai] is 0 and the pick is always cut
            best = max((r[s] for s in ok), default=home_rank)
            row = [~1 if rb[1] > best else -1 for rb in rank]
            row[ai] = sum(1 << s for s in ok)
            out.append(row)
        return out

    by_type = {t.id: (_rank_table(t.prefs, net.base.activities, n), t.prefs.home_rank)
               for t in net.base.types}
    rows = [by_type[tid] for _, tid in net.agents]
    masks = [pick_masks(rank, home_rank) for rank, home_rank in rows]

    def connected(m):
        seen = frontier = m & -m
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & m & ~seen
            seen |= new
            frontier |= new
        return seen == m

    def stable(picks, members):
        sizes = [m.bit_count() for m in members]
        for p, (rank, home_rank), link in zip(picks, rows, adj):
            if p:
                cur = rank[p - 1][sizes[p - 1]]
                if home_rank > cur:
                    return False
            else:
                cur = home_rank
            for bi, (r, s, m) in enumerate(zip(rank, sizes, members)):
                if r[s + 1] > cur and bi != p - 1 and (not s or link & m):
                    return False
        return all(connected(m) for m in members if m & (m - 1))

    return stable, masks


def oracle_ggasp(net: NetworkInstance, budget=None, collect_all=False) -> OracleResult:
    """Per-agent enumeration; connectivity breaks type symmetry, so the
    type-count shortcut is not available here.  The picks are walked by
    `budget.walk` agent by agent, in the order of `itertools.product` over
    each agent's picks.  The step keeps the member bitmasks and the AND of
    the picks' size masks, and cuts a node whose masks leave some activity
    no size in [members, members + agents left]; the meter ticks once with
    the cut leaves, so the order, the witnesses and `explored` stay those of
    the full product.  Connectivity and linked deviations are tested at the
    leaves."""
    agents = net.agent_ids()
    choices = [EMPTY_ACTIVITY] + list(net.base.activities)
    meter = metered(budget, len(choices) ** len(agents), "ggasp oracle assignments",
                    DEFAULT_ORACLE_BUDGET)
    stable, masks = _ggasp_kernel(net)
    a = len(net.base.activities)
    n = len(agents)
    # per depth, the bits members..members + agents left of a final size
    windows = [(2 << (n - 1 - d)) - 1 for d in range(n)]

    def step(state, p, d):
        members, held = state
        if p:
            members = members.copy()
            members[p - 1] |= 1 << d
        held = [h & x for h, x in zip(held, masks[d][p])]
        window = windows[d]
        if all((h >> m.bit_count()) & window for h, m in zip(held, members)):
            return members, held
        return None

    survivors = []
    for picks, (members, _) in walk([range(a + 1)] * n, ([0] * a, [-1] * a), step, meter):
        if not stable(picks, members):
            continue
        pi = AgentAssignment({agent: choices[p] for agent, p in zip(agents, picks)})
        if not verify_ggasp(net, pi).stable:
            raise InternalSolverError(
                f"ggasp oracle kernel calls {pi.mapping} stable, the verifier does not")
        survivors.append(pi)
        if not collect_all:
            break
    return OracleResult(bool(survivors), tuple(survivors), meter.spent)
