"""Exhaustive deciders for all three problem variants.

These are the ground-truth oracles the tests compare the real solvers
against.  Each one walks every candidate assignment in a fixed order and
keeps exactly those the full `verify_*` of `model` calls stable, so the
witnesses, their order and the `explored` count are those of an
enumerate-verify-collect loop.

For the typed variants the candidates are per-type attendance counts rather
than per-agent choices: a type's rows are the splits of its count over the
activities and home, in tuple order (`subsetsum._splits`).  That is
equivalent because agents of one type are interchangeable, and
exponentially smaller.  Connectivity breaks that symmetry in ggasp, so its
oracle enumerates per-agent picks.  All three run on one sweep (`_sweep`)
over `budget.walk`, depth-first in the order of `itertools.product`: over
each type's rows, or over each agent's picks.
Each kernel compiles the instance once into plain ints and gives, per type
row or agent pick, a bitmask per activity of the sizes any stable candidate
using it can have there (exact for sgasp, a necessary relaxation for gasp
and ggasp).  The sweep keeps the partial column sizes and the AND of the
chosen masks, and cuts a node whose masks leave some activity no size its
remaining agents can reach; the meter ticks once with the cut leaves.  A
budget check up front refuses instances that would enumerate too much;
refusing is never reported as NO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .budget import DEFAULT_ORACLE_BUDGET, metered, walk
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
from .subsetsum import _splits


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witnesses: Tuple
    explored: int


def _count_matrices(inst: TypedInstance) -> int:
    a = len(inst.activities)
    out = 1
    for t in inst.types:
        out *= math.comb(t.count + a, a)
    return out


def _sweep(inst, verify, build, pools, placed, a, meter, collect_all):
    """The candidates of `itertools.product(*pools)` that `verify(inst, x)`
    calls stable, x being `build(payloads)`, as an `OracleResult`.

    Each item of `pools[d]` is (size delta per activity, size masks per
    activity, payload), and depth d places `placed[d]` agents.  The walk's
    step adds the deltas and ANDs the masks, and cuts a node at which some
    activity has no size bit in [partial size, partial size + the agents
    of the depths below]."""
    windows = [(2 << sum(placed[d + 1:])) - 1 for d in range(len(placed))]

    def step(state, item, d):
        sizes, held = state
        sizes = [s + c for s, c in zip(sizes, item[0])]
        held = [h & m for h, m in zip(held, item[1])]
        window = windows[d]
        if all((h >> s) & window for h, s in zip(held, sizes)):
            return sizes, held
        return None

    survivors = []
    for items, _ in walk(pools, ([0] * a, [-1] * a), step, meter):
        x = build([item[2] for item in items])
        if verify(inst, x).stable:
            survivors.append(x)
            if not collect_all:
                break
    return OracleResult(bool(survivors), tuple(survivors), meter.spent)


def _sgasp_kernel(inst: TypedInstance):
    """`row_masks(ti, home, attended)`: per activity, the sizes (bit s) at
    which a row of type ti keeps sgasp stability on approval bitmasks: every
    attended activity approves its size, and with an agent at home no
    activity approves its size plus one.  The two tests read one size each,
    so a matrix is stable exactly when every row's masks hold the final
    sizes."""
    masks = approval_masks(inst)

    def row_masks(ti, home, attended):
        mrow = masks[ti]
        out = [~(m >> 1) for m in mrow] if home else [-1] * len(mrow)
        for ai in attended:
            out[ai] &= mrow[ai]
        return out

    return row_masks


def _gasp_kernel(inst: TypedInstance):
    """`row_masks(ti, home, attended)`: per activity, sizes (bit s) that
    every stable matrix using a row of type ti has there, read off int rank
    tables; a necessary relaxation.  With someone home, no activity may rank
    above home at its size plus one; an attended activity must rank at least
    home at its size, and no other activity may rank, at its size plus one,
    above the best such rank."""
    n = inst.n

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

    parts = [type_masks(_rank_table(t.prefs, inst.activities, n), t.prefs.home_rank)
             for t in inst.types]

    def row_masks(ti, home, attended):
        at_home, attend = parts[ti]
        out = at_home if home else [-1] * len(at_home)
        for ai in attended:
            out = [m & x for m, x in zip(out, attend[ai])]
        return out

    return row_masks


def _typed_oracle(inst, kernel, verify, variant, budget, collect_all):
    meter = metered(budget, _count_matrices(inst), f"{variant} oracle matrices",
                    DEFAULT_ORACLE_BUDGET)
    a = len(inst.activities)
    row_masks = kernel(inst)
    # per type, in tuple order: the attendance counts over the activities
    # (the remainder staying home), their masks, and the row again
    pools = []
    for ti, t in enumerate(inst.types):
        pool = []
        for comp in _splits(t.count, [t.count] * (a + 1)):
            row = comp[:a]
            masks = row_masks(ti, comp[a] > 0, tuple(ai for ai in range(a) if row[ai]))
            pool.append((row, masks, row))
        pools.append(pool)
    return _sweep(inst, verify, TypeCountAssignment, pools, [t.count for t in inst.types],
                  a, meter, collect_all)


def oracle_sgasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _sgasp_kernel, verify_sgasp, "sgasp", budget, collect_all)


def oracle_gasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _gasp_kernel, verify_gasp, "gasp", budget, collect_all)


def _ggasp_kernel(net: NetworkInstance):
    """`masks[i][p]`: per activity, sizes (bit s) that every stable
    assignment in which agent i picks p (0 home, i+1 activity i) has there,
    a necessary relaxation read off the sizes alone.  At its own activity
    the agent ranks its size at least home, and an activity it would rank
    above its best such rank (home: the home rank) at size 1 cannot stay
    empty, since joining an empty activity needs no link."""
    n = len(net.agents)

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

    by_type = {t.id: pick_masks(_rank_table(t.prefs, net.base.activities, n), t.prefs.home_rank)
               for t in net.base.types}
    return [by_type[tid] for _, tid in net.agents]


def oracle_ggasp(net: NetworkInstance, budget=None, collect_all=False) -> OracleResult:
    """Per-agent enumeration; connectivity breaks type symmetry, so the
    type-count shortcut is not available here.  The sweep goes agent by
    agent over the picks home, then each activity; connectivity and linked
    deviations are left to `verify_ggasp`."""
    agents = net.agent_ids()
    choices = (EMPTY_ACTIVITY,) + tuple(net.base.activities)
    meter = metered(budget, len(choices) ** len(agents), "ggasp oracle assignments",
                    DEFAULT_ORACLE_BUDGET)
    a = len(net.base.activities)
    deltas = [tuple(int(ai == p - 1) for ai in range(a)) for p in range(a + 1)]
    pools = [list(zip(deltas, masks, choices)) for masks in _ggasp_kernel(net)]
    return _sweep(net, verify_ggasp, lambda picks: AgentAssignment(dict(zip(agents, picks))),
                  pools, [1] * len(agents), a, meter, collect_all)
