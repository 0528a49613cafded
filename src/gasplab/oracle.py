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
type are interchangeable, and exponentially smaller.  A budget check up
front refuses instances that would enumerate too much; refusing is never
reported as NO.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

from .budget import resolve_budget
from .errors import BudgetError, InternalSolverError
from .model import (
    EMPTY_ACTIVITY,
    AgentAssignment,
    NetworkInstance,
    TypeCountAssignment,
    TypedInstance,
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
    home approves no activity at its size plus one."""
    masks = approval_masks(inst)

    def stable(rows, sizes):
        for mrow, (_, home, attended) in zip(masks, rows):
            for ai in attended:
                if not (mrow[ai] >> sizes[ai]) & 1:
                    return False
            if home:
                for m, s in zip(mrow, sizes):
                    if (m >> (s + 1)) & 1:
                        return False
        return True

    return stable


def _rank_table(rm, activities, n: int) -> list[list[int]]:
    """rank[a][s] for sizes 0..n+1 (size 0 and n+1 are never ranked)."""
    return [[rm.rank((aid, s)) for s in range(n + 2)] for aid in activities]


def _gasp_kernel(inst: TypedInstance):
    """Stability of a type-count matrix on int rank tables: from no occupied
    alternative (attended activity at its size, or home) may a type strictly
    improve by joining another activity at its size plus one, and no attended
    alternative ranks below home."""
    tables = [_rank_table(t.prefs, inst.activities, inst.n) for t in inst.types]
    homes = [t.prefs.home_rank for t in inst.types]

    def stable(rows, sizes):
        for rank, home_rank, (_, home, attended) in zip(tables, homes, rows):
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

    return stable


def _typed_oracle(inst, kernel, verify, variant, budget, collect_all):
    cap = resolve_budget(budget, DEFAULT_ORACLE_BUDGET)
    total = _count_matrices(inst)
    if total > cap:
        raise BudgetError(
            f"{variant} oracle would enumerate {total} matrices, cap is {cap}")
    a = len(inst.activities)
    stable = kernel(inst)
    # per type: attendance counts over activities (the remainder stays home),
    # whether anyone stays home, and the attended activity indices
    rows_per_type = [
        [(row[:a], row[a] > 0, tuple(ai for ai in range(a) if row[ai]))
         for row in _compositions(t.count, a + 1)]
        for t in inst.types
    ]
    explored = 0
    survivors = []
    for rows in itertools.product(*rows_per_type):
        explored += 1
        counts = [row[0] for row in rows]
        if not stable(rows, [sum(col) for col in zip(*counts)]):
            continue
        x = TypeCountAssignment(tuple(counts))
        if not verify(inst, x).stable:
            raise InternalSolverError(
                f"{variant} oracle kernel calls {x.counts} stable, the verifier does not")
        survivors.append(x)
        if not collect_all:
            break
    return OracleResult(bool(survivors), tuple(survivors), explored)


def oracle_sgasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _sgasp_kernel, verify_sgasp, "sgasp", budget, collect_all)


def oracle_gasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, _gasp_kernel, verify_gasp, "gasp", budget, collect_all)


def _ggasp_kernel(net: NetworkInstance):
    """Stability of per-agent picks (0 home, i+1 activity i) given per-activity
    member bitmasks over agent positions: every group of two or more is
    connected (bitmask flood fill over adjacency masks), no agent prefers home
    over its group, and no agent strictly improves by joining another
    activity it links into (an empty target needs no link)."""
    agents = net.agent_ids()
    pos = {agent: i for i, agent in enumerate(agents)}
    adj = [0] * len(agents)
    for u, v in net.links:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    by_type = {t.id: (_rank_table(t.prefs, net.base.activities, len(agents)), t.prefs.home_rank)
               for t in net.base.types}
    rows = [by_type[tid] for _, tid in net.agents]

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

    return stable


def oracle_ggasp(net: NetworkInstance, budget=None, collect_all=False) -> OracleResult:
    """Per-agent enumeration; connectivity breaks type symmetry, so the
    type-count shortcut is not available here."""
    cap = resolve_budget(budget, DEFAULT_ORACLE_BUDGET)
    agents = net.agent_ids()
    choices = [EMPTY_ACTIVITY] + list(net.base.activities)
    total = len(choices) ** len(agents)
    if total > cap:
        raise BudgetError(
            f"ggasp oracle would enumerate {total} assignments, cap is {cap}")
    stable = _ggasp_kernel(net)
    a = len(net.base.activities)
    explored = 0
    survivors = []
    for picks in itertools.product(range(a + 1), repeat=len(agents)):
        explored += 1
        members = [0] * a
        for i, p in enumerate(picks):
            if p:
                members[p - 1] |= 1 << i
        if not stable(picks, members):
            continue
        pi = AgentAssignment({agent: choices[p] for agent, p in zip(agents, picks)})
        if not verify_ggasp(net, pi).stable:
            raise InternalSolverError(
                f"ggasp oracle kernel calls {pi.mapping} stable, the verifier does not")
        survivors.append(pi)
        if not collect_all:
            break
    return OracleResult(bool(survivors), tuple(survivors), explored)
