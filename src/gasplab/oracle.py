"""Exhaustive deciders for all three problem variants.

These are the ground-truth oracles the tests compare the real solvers
against.  They stay dumb on purpose: enumerate, verify, collect.  For the
typed variants the enumeration runs over per-type attendance counts rather
than per-agent choices, which is equivalent because agents of one type are
interchangeable, and exponentially smaller.  A budget check up front refuses
instances that would enumerate too much; refusing is never reported as NO.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

from .budget import resolve_budget
from .errors import BudgetError
from .model import (
    EMPTY_ACTIVITY,
    AgentAssignment,
    NetworkInstance,
    TypeCountAssignment,
    TypedInstance,
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


def _typed_oracle(inst, verify, variant, budget, collect_all):
    cap = resolve_budget(budget, DEFAULT_ORACLE_BUDGET)
    total = _count_matrices(inst)
    if total > cap:
        raise BudgetError(
            f"{variant} oracle would enumerate {total} matrices, cap is {cap}")
    a = len(inst.activities)
    # per type: attendance counts over activities, remainder stays home
    rows_per_type = [
        [row[:a] for row in _compositions(t.count, a + 1)] for t in inst.types
    ]
    explored = 0
    survivors = []
    for rows in itertools.product(*rows_per_type):
        explored += 1
        x = TypeCountAssignment(tuple(rows))
        if verify(inst, x).stable:
            survivors.append(x)
            if not collect_all:
                break
    return OracleResult(bool(survivors), tuple(survivors), explored)


def oracle_sgasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, verify_sgasp, "sgasp", budget, collect_all)


def oracle_gasp(inst: TypedInstance, budget=None, collect_all=False) -> OracleResult:
    return _typed_oracle(inst, verify_gasp, "gasp", budget, collect_all)


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
    explored = 0
    survivors = []
    for picks in itertools.product(choices, repeat=len(agents)):
        explored += 1
        pi = AgentAssignment(dict(zip(agents, picks)))
        if verify_ggasp(net, pi).stable:
            survivors.append(pi)
            if not collect_all:
                break
    return OracleResult(bool(survivors), tuple(survivors), explored)
