import random

import pytest

from conftest import (
    gasp_instance,
    lift_sgasp,
    random_gasp,
    random_network,
    random_sgasp,
    sgasp_instance,
)
from gasplab.errors import BudgetError
from gasplab.model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentAssignment,
    AgentType,
    NetworkInstance,
    RankMap,
    TypeCountAssignment,
    TypedInstance,
    induced_type_counts,
)
from gasplab.oracle import (
    oracle_gasp,
    oracle_ggasp,
    oracle_sgasp,
)


def x(*rows):
    return TypeCountAssignment(tuple(tuple(r) for r in rows))


def test_sgasp_pair_activity():
    inst = sgasp_instance(["a"], [("t1", 2, {"a": {2}})])
    res = oracle_sgasp(inst, collect_all=True)
    assert res.exists
    assert set(res.witnesses) == {x([2]), x([0])}
    assert res.explored == 3


def test_sgasp_empty_instance_vacuously_yes():
    res = oracle_sgasp(TypedInstance((), ()))
    assert res.exists and res.witnesses == (TypeCountAssignment(()),)


def test_sgasp_forced_attendance():
    inst = sgasp_instance(["a"], [("t1", 1, {"a": {1}})])
    res = oracle_sgasp(inst, collect_all=True)
    assert set(res.witnesses) == {x([1])}


def test_gasp_no_stable_assignment():
    inst = gasp_instance(
        ["a"],
        [("t1", 1, {("a", 1): 1, HOME: 0, ("a", 2): -1}),
         ("t2", 1, {("a", 2): 1, HOME: 0, ("a", 1): -1})])
    res = oracle_gasp(inst, collect_all=True)
    assert not res.exists and res.witnesses == () and res.explored == 4


def test_gasp_homebodies():
    inst = gasp_instance(["a"], [("t1", 2, {HOME: 5, ("a", 1): 1, ("a", 2): 1})])
    res = oracle_gasp(inst)
    assert res.exists and res.witnesses[0] == x([0])


def test_gasp_matches_lifted_sgasp_fuzz():
    rng = random.Random(8101)
    for _ in range(120):
        inst = random_sgasp(rng)
        a = oracle_sgasp(inst, collect_all=True)
        b = oracle_gasp(lift_sgasp(inst), collect_all=True)
        assert a.exists == b.exists
        assert set(a.witnesses) == set(b.witnesses)


def _pair_network(linked):
    base = TypedInstance(
        ("a",),
        (AgentType("t1", 2, RankMap({("a", 2): 1, HOME: 0})),))
    links = frozenset({("n0", "n1")}) if linked else frozenset()
    return NetworkInstance(base, (("n0", "t1"), ("n1", "t1")), links)


def test_ggasp_linked_pair_meets():
    res = oracle_ggasp(_pair_network(True), collect_all=True)
    # (|A|+1)^n enumeration: 2 choices per agent here
    assert res.exists and res.explored == 4
    assert AgentAssignment({"n0": "a", "n1": "a"}) in res.witnesses


def test_ggasp_unlinked_pair_stays_home():
    res = oracle_ggasp(_pair_network(False), collect_all=True)
    assert res.exists
    for pi in res.witnesses:
        assert set(pi.mapping.values()) == {EMPTY_ACTIVITY}


def test_ggasp_complete_network_matches_gasp_fuzz():
    rng = random.Random(8102)
    for _ in range(60):
        net = random_network(rng, complete=True)
        a = oracle_ggasp(net, collect_all=True)
        b = oracle_gasp(net.base, collect_all=True)
        assert a.exists == b.exists
        assert {induced_type_counts(net, pi) for pi in a.witnesses} == set(b.witnesses)


def test_typed_oracles_invariant_under_reordering():
    rng = random.Random(8103)
    for _ in range(60):
        inst = random_gasp(rng)
        acts = list(inst.activities)
        rng.shuffle(acts)
        types = list(inst.types)
        rng.shuffle(types)
        shuffled = TypedInstance(tuple(acts), tuple(types))
        assert oracle_gasp(inst).exists == oracle_gasp(shuffled).exists
    for _ in range(60):
        inst = random_sgasp(rng)
        acts = list(inst.activities)
        rng.shuffle(acts)
        types = list(inst.types)
        rng.shuffle(types)
        shuffled = TypedInstance(tuple(acts), tuple(types))
        assert oracle_sgasp(inst).exists == oracle_sgasp(shuffled).exists


def test_oracle_budget_refusal_is_not_a_no():
    inst = sgasp_instance(
        ["a", "b"], [(f"t{i}", 6, {"a": {1}}) for i in range(6)])
    with pytest.raises(BudgetError):
        oracle_sgasp(inst, budget=10)
    net = random_network(random.Random(1), max_agents=4)
    with pytest.raises(BudgetError):
        oracle_ggasp(net, budget=1)


def test_oracle_explicit_budget_beats_env(monkeypatch):
    inst = sgasp_instance(["a"], [("t1", 2, {"a": {2}})])
    monkeypatch.setenv("GASPLAB_BUDGET", "1")
    assert oracle_sgasp(inst, budget=100).exists
    with pytest.raises(BudgetError, match="cap is 1"):
        oracle_sgasp(inst)
    monkeypatch.setenv("GASPLAB_BUDGET", "100")
    with pytest.raises(BudgetError, match="cap is 1"):
        oracle_sgasp(inst, budget=1)
