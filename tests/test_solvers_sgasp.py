import random

import pytest

from conftest import random_sgasp, random_sgasp_laddered, sgasp_instance
from gasplab.errors import BudgetError, InvalidInstanceError
from gasplab.model import (
    TypeCountAssignment,
    TypedInstance,
    incidence_graph,
    is_acyclic,
    verify_sgasp,
)
from gasplab.oracle import oracle_sgasp
from gasplab.solvers_sgasp import (
    enumerate_acyclic_patterns,
    find_ir_assignment,
    solve_fpt_n,
    solve_fpt_ta,
    solve_xp_t,
)


def x(*rows):
    return TypeCountAssignment(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# pattern enumeration

def test_pattern_counts():
    assert sum(1 for _ in enumerate_acyclic_patterns(2, 2)) == 15
    assert sum(1 for _ in enumerate_acyclic_patterns(1, 1)) == 2
    assert sum(1 for _ in enumerate_acyclic_patterns(2, 1)) == 4


def test_patterns_unique_acyclic_and_complete():
    seen = set()
    for pat in enumerate_acyclic_patterns(2, 3):
        assert is_acyclic(pat)
        assert pat not in seen
        seen.add(pat)
    # every acyclic subset shows up: count them the dumb way
    import itertools
    all_edges = [(t, a) for t in range(2) for a in range(3)]
    brute = 0
    for r in range(len(all_edges) + 1):
        for sub in itertools.combinations(all_edges, r):
            if is_acyclic(sub):
                brute += 1
    assert len(seen) == brute


def test_pattern_compatibility_filter():
    pats = list(enumerate_acyclic_patterns(2, 2, q=[0], a_ne=[1]))
    for pat in pats:
        assert any(t == 0 for t, _ in pat)
        assert any(a == 1 for _, a in pat)
    full = sum(1 for _ in enumerate_acyclic_patterns(2, 2))
    assert 0 < len(pats) < full


# ---------------------------------------------------------------------------
# worked instances, all three solvers

def pair():
    return sgasp_instance(["a"], [("t1", 2, {"a": {2}})])


def mismatch():
    return sgasp_instance(["a"], [("t1", 1, {"a": {2}}), ("t2", 1, {"a": {1}})])


def no_activities():
    return sgasp_instance([], [("t1", 2, {})])


@pytest.mark.parametrize("solve", [solve_fpt_ta, solve_xp_t, solve_fpt_n])
def test_pair_activity_yes(solve):
    res = solve(pair())
    assert res.exists
    assert verify_sgasp(pair(), res.witness).stable


@pytest.mark.parametrize("solve", [solve_fpt_ta, solve_xp_t, solve_fpt_n])
def test_size_mismatch_no(solve):
    res = solve(mismatch())
    assert not res.exists and res.witness is None


@pytest.mark.parametrize("solve", [solve_fpt_ta, solve_xp_t, solve_fpt_n])
def test_no_activities_yes(solve):
    res = solve(no_activities())
    assert res.exists and res.witness == x([])


@pytest.mark.parametrize("solve", [solve_fpt_ta, solve_xp_t, solve_fpt_n])
def test_empty_instance(solve):
    res = solve(TypedInstance((), ()))
    assert res.exists


@pytest.mark.parametrize("solve", [solve_fpt_ta, solve_xp_t, solve_fpt_n])
def test_rejects_rank_instances(solve):
    from conftest import gasp_instance
    inst = gasp_instance(["a"], [("t1", 1, {("a", 1): 1})])
    with pytest.raises(InvalidInstanceError):
        solve(inst)


def test_xp_t_split_groups():
    inst = sgasp_instance(["a1", "a2"], [("t1", 3, {"a1": {1}, "a2": {2}})])
    res = solve_xp_t(inst)
    assert res.exists
    assert verify_sgasp(inst, res.witness).stable
    # the perfect split 1+2 is among the stable outcomes
    assert verify_sgasp(inst, x([1, 2])).stable


def test_xp_t_non_perfect_branch():
    # one agent at a, one home: nobody wants (a,2), so this is stable
    inst = sgasp_instance(["a"], [("t1", 2, {"a": {1}})])
    res = solve_xp_t(inst)
    assert res.exists
    assert res.witness == x([1])


def test_fpt_ta_activity_labels():
    # Pins the activity label rule: {0} without a pattern edge, the
    # intersection of the neighbours' pruned sizes otherwise, even when that
    # is empty.  Nobody approves a, so the only stable outcome (t2 alone at
    # b) leaves a edgeless.  With both types home, t1 and t2 share no pruned
    # size at b; read as edgeless, that would let b, which t1 would start,
    # stay empty.
    inst = sgasp_instance(["a", "b"], [("t1", 1, {"b": {1}}), ("t2", 1, {"b": {1, 2}})])
    res = solve_fpt_ta(inst)
    assert res.exists and res.witness == x([0, 0], [0, 1])
    assert oracle_sgasp(inst).witnesses == (res.witness,)


def test_fpt_n_lonely_agent():
    inst = sgasp_instance(["a"], [("t1", 1, {})])
    res = solve_fpt_n(inst)
    assert res.exists and res.witness == x([0])


def test_fpt_n_agent_cap():
    inst = sgasp_instance(["a"], [("t1", 11, {"a": {11}})])
    with pytest.raises(BudgetError):
        solve_fpt_n(inst)
    assert solve_fpt_n(inst, max_agents=11).exists


def test_find_ir_assignment_respects_q_and_a_ne():
    inst = sgasp_instance(["a", "b"], [("t1", 2, {"a": {1, 2}, "b": {1}})])
    got = find_ir_assignment(inst, ["t1"], [])
    assert got is not None and got.row_sum(0) == 2
    got = find_ir_assignment(inst, [], ["a"])
    assert got is not None
    assert got.counts[0][0] >= 1 and got.row_sum(0) < 2
    # both activities nonempty needs both agents out, i.e. a perfect q
    assert find_ir_assignment(inst, [], ["a", "b"]) is None
    assert find_ir_assignment(inst, ["t1"], ["a", "b"]) == x([1, 1])


# ---------------------------------------------------------------------------
# agreement fuzz

def test_four_way_agreement_fuzz():
    # Half plain, half laddered: plain instances are stable most of the time,
    # the laddered ones supply the NO side of the corpus.
    rng = random.Random(9301)
    yes = no = 0
    for i in range(300):
        if i % 2:
            inst = random_sgasp_laddered(rng)
        else:
            inst = random_sgasp(rng, max_types=3, max_acts=3, max_count=3)
        want = oracle_sgasp(inst).exists
        got_ta = solve_fpt_ta(inst)
        got_xt = solve_xp_t(inst)
        got_n = solve_fpt_n(inst)
        assert got_ta.exists == want
        assert got_xt.exists == want
        assert got_n.exists == want
        if want:
            yes += 1
            for res in (got_ta, got_xt, got_n):
                assert verify_sgasp(inst, res.witness).stable
            assert is_acyclic(incidence_graph(got_ta.witness))
        else:
            no += 1
    assert yes > 100 and no >= 10


def test_witness_determinism():
    rng = random.Random(9302)
    for _ in range(40):
        inst = random_sgasp(rng, max_types=3, max_acts=2, max_count=3)
        for solve in (solve_fpt_ta, solve_xp_t, solve_fpt_n):
            a, b = solve(inst), solve(inst)
            assert a.exists == b.exists and a.witness == b.witness
