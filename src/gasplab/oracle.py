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
Each kernel compiles the instance once into plain ints: per type, home
masks and per-activity attend masks, a bitmask per activity of the sizes
any stable candidate with someone of that type home, or at that activity,
can have there (exact for sgasp, a necessary relaxation read off the rank
levels of `model._rank_levels` for gasp and ggasp).  A type row or agent
pick takes the AND of the masks it uses (`_held`).  The sweep keeps the
partial column sizes and the AND of the chosen masks, and cuts a node
whose masks leave some activity no size its remaining agents can reach;
the meter ticks once with the cut leaves.  A budget check up front refuses
instances that would enumerate too much; refusing is never reported as NO.
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
    _rank_levels,
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
    """Per type, (home, attend): per activity, the sizes (bit s) at which a
    row of that type keeps sgasp stability on approval bitmasks.  With an
    agent at home no activity approves its size plus one (home), and an
    attended activity ai approves its size (attend[ai], no bound elsewhere).
    The two tests read one size each, so a matrix is stable exactly when
    every row's masks (`_held`) hold the final sizes."""
    out = []
    for mrow in approval_masks(inst):
        attend = [[m if bi == ai else -1 for bi in range(len(mrow))]
                  for ai, m in enumerate(mrow)]
        out.append(([~(m >> 1) for m in mrow], attend))
    return out


def _gasp_kernel(inst: TypedInstance):
    """Per type, (home, attend): per activity, sizes (bit s) that every
    stable matrix using a row of that type has there, read off its rank
    levels (`model._rank_levels`); a necessary relaxation.  With someone
    home (home), no activity may rank above home at its size plus one.  An
    attended activity ai (attend[ai]) must rank at least home at its size,
    and no other activity may rank, at its size plus one, above the best
    such rank; with no such size the row is always cut."""
    out = []
    for t in inst.types:
        levels = _rank_levels(t.prefs, inst.activities)
        above, ok = levels[t.prefs.home_rank]
        attend = []
        for ai, sizes in enumerate(ok):
            best = next((r for r, (_, at) in levels.items() if at[ai]), None)
            row = [-1] * len(ok) if best is None else [~(x >> 1) for x in levels[best][0]]
            row[ai] = sizes
            attend.append(row)
        out.append(([~(x >> 1) for x in above], attend))
    return out


def _held(masks, home, attended):
    """The AND of one type's kernel masks (home, attend) for a row or pick:
    home's when someone of it stays home, and attend[ai] for each attended
    activity ai."""
    at_home, attend = masks
    out = at_home if home else [-1] * len(at_home)
    for ai in attended:
        out = [x & y for x, y in zip(out, attend[ai])]
    return out


def _typed_oracle(inst, kernel, verify, variant, budget, collect_all):
    meter = metered(budget, _count_matrices(inst), f"{variant} oracle matrices",
                    DEFAULT_ORACLE_BUDGET)
    a = len(inst.activities)
    # per type, in tuple order: the attendance counts over the activities
    # (the remainder staying home), their masks, and the row again
    pools = []
    for t, masks in zip(inst.types, kernel(inst)):
        pool = []
        for comp in _splits(t.count, [t.count] * (a + 1)):
            row = comp[:a]
            pool.append((row, _held(masks, comp[a] > 0, [ai for ai in range(a) if row[ai]]), row))
        pools.append(pool)
    return _sweep(inst, verify, TypeCountAssignment, pools, [t.count for t in inst.types],
                  a, meter, collect_all)


def oracle_sgasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _sgasp_kernel, verify_sgasp, "sgasp", budget, collect_all)


def oracle_gasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _gasp_kernel, verify_gasp, "gasp", budget, collect_all)


def _ggasp_kernel(net: NetworkInstance):
    """Per type, (home, attend): per activity, sizes (bit s) that every
    stable assignment in which an agent of that type stays home (home) or
    attends activity ai (attend[ai]) has there, a necessary relaxation read
    off the sizes alone.  At its own activity the agent ranks its size at
    least home, and an activity it would rank above its best such rank
    (home: the home rank) at size 1 cannot stay empty, since joining an
    empty activity needs no link."""
    out = []
    for t in net.base.types:
        levels = _rank_levels(t.prefs, net.base.activities)
        above, ok = levels[t.prefs.home_rank]
        attend = []
        for ai, sizes in enumerate(ok):
            # with no size ok, row[ai] is 0 and the pick is always cut
            best = next((r for r, (_, at) in levels.items() if at[ai]), t.prefs.home_rank)
            row = [~1 if x & 2 else -1 for x in levels[best][0]]
            row[ai] = sizes
            attend.append(row)
        out.append(([~1 if x & 2 else -1 for x in above], attend))
    return out


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
    by_type = [[_held(masks, True, ())] + [_held(masks, False, (ai,)) for ai in range(a)]
               for masks in _ggasp_kernel(net)]
    tindex = net.base.type_index()
    pools = [list(zip(deltas, by_type[tindex[tid]], choices)) for _, tid in net.agents]
    return _sweep(net, verify_ggasp, lambda picks: AgentAssignment(dict(zip(agents, picks))),
                  pools, [1] * len(agents), a, meter, collect_all)
