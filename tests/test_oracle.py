import itertools
import random

import pytest

from conftest import (
    all_assignments,
    gasp_instance,
    lift_sgasp,
    random_gasp,
    random_gasp_windowed,
    random_network,
    random_sgasp,
    random_sgasp_laddered,
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
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    induced_type_counts,
    verify_gasp,
    verify_ggasp,
    verify_sgasp,
)
from gasplab.oracle import (
    oracle_gasp,
    oracle_ggasp,
    oracle_sgasp,
)
from gasplab.solver_gasp import solve_xp_gasp
from gasplab.solvers_sgasp import solve_fpt_n, solve_fpt_ta, solve_xp_t


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


def _answers(inst):
    """`exists` of every oracle and solver for the instance's kind."""
    if inst.kind == "sgasp":
        return (oracle_sgasp(inst).exists, solve_fpt_ta(inst).exists,
                solve_xp_t(inst).exists, solve_fpt_n(inst).exists)
    return oracle_gasp(inst).exists, solve_xp_gasp(inst).exists


def _shuffled(inst, rng):
    acts = list(inst.activities)
    rng.shuffle(acts)
    types = list(inst.types)
    rng.shuffle(types)
    return TypedInstance(tuple(acts), tuple(types))


def _renamed(inst, rng):
    names = [f"act{i}" for i in range(len(inst.activities))]
    rng.shuffle(names)
    act = dict(zip(inst.activities, names))
    types = []
    for i, t in enumerate(inst.types):
        if isinstance(t.prefs, SizeSetPrefs):
            prefs = SizeSetPrefs({act[a]: sizes for a, sizes in t.prefs.approvals.items()})
        else:
            prefs = RankMap({(act.get(a, a), s): r for (a, s), r in t.prefs.ranks.items()})
        types.append(AgentType(f"kind{len(inst.types) - i}", t.count, prefs))
    return TypedInstance(tuple(act[a] for a in inst.activities), tuple(types))


def _split_type(inst, rng):
    """One type of count >= 2 split into two identical types, or None."""
    splittable = [i for i, t in enumerate(inst.types) if t.count > 1]
    if not splittable:
        return None
    i = rng.choice(splittable)
    t = inst.types[i]
    c = rng.randint(1, t.count - 1)
    types = list(inst.types)
    types[i:i + 1] = [AgentType(t.id, c, t.prefs), AgentType(t.id + "-twin", t.count - c, t.prefs)]
    return TypedInstance(inst.activities, tuple(types))


def _with_idle_activity(inst, rng):
    """An activity nobody approves or ranks, at a random position."""
    acts = list(inst.activities)
    acts.insert(rng.randint(0, len(acts)), "idle")
    return TypedInstance(tuple(acts), inst.types)


def test_typed_oracles_invariant_under_reordering():
    """Shuffling, renaming, splitting a type into identical twins and adding
    an activity nobody wants leave every oracle's and solver's answer as is."""
    rng = random.Random(8103)
    makers = (random_gasp, random_gasp_windowed, random_sgasp, random_sgasp_laddered)
    for i in range(160):
        inst = makers[i % 4](rng)
        expected = _answers(inst)
        for transform in (_shuffled, _renamed, _split_type, _with_idle_activity):
            other = transform(inst, rng)
            if other is not None:
                assert _answers(other) == expected, (transform.__name__, inst)


def _seekers(activities, seekers, pairs):
    """Singleton seekers approve {1} everywhere and `pairs` pair seekers of one
    type approve {2} everywhere: NO with one pair seeker and more singleton
    seekers than activities, YES with two pair seekers."""
    acts = [f"a{i}" for i in range(activities)]
    types = [(f"s{i}", c, {a: {1} for a in acts}) for i, c in enumerate(seekers)]
    types.append(("p", pairs, {a: {2} for a in acts}))
    return sgasp_instance(acts, types)


def _big_sgasp(rng):
    acts = ["a0", "a1", "a2"]
    counts = [rng.randint(8, 12) for _ in range(3)]
    n = sum(counts)
    types = []
    for i, count in enumerate(counts):
        appr = {}
        for a in acts:
            r = rng.random()
            if r < 0.4:
                appr[a] = {rng.randint(1, 4)}
            elif r < 0.7:
                lo = rng.randint(1, n)
                appr[a] = set(range(lo, min(n, lo + rng.randint(0, 6)) + 1))
        types.append((f"t{i}", count, appr))
    return sgasp_instance(acts, types)


def test_xp_gasp_on_lift_matches_xp_t_beyond_oracle_cap():
    rng = random.Random(8104)
    cases = [_seekers(3, (14, 16), 1), _seekers(3, (20, 25), 1), _seekers(3, (14, 16), 2)]
    cases += [_big_sgasp(rng) for _ in range(6)]
    answers = []
    for inst in cases:
        with pytest.raises(BudgetError):
            oracle_sgasp(inst)
        expected = solve_xp_t(inst).exists
        assert solve_xp_gasp(lift_sgasp(inst)).exists == expected, inst
        answers.append(expected)
    assert answers[:3] == [False, False, True]


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


# ---------------------------------------- stability kernels against verify_*

def _stable_picks(net):
    """Every stable per-agent assignment, by verify_ggasp, in oracle order."""
    agents = net.agent_ids()
    choices = (EMPTY_ACTIVITY,) + net.base.activities
    out = []
    for picks in itertools.product(choices, repeat=len(agents)):
        pi = AgentAssignment(dict(zip(agents, picks)))
        if verify_ggasp(net, pi).stable:
            out.append(pi)
    return out


def _network(activities, types, agents, links):
    """types: (id, {(activity, size): rank}), home at 0 unless ranked;
    agents: (agent id, type id)."""
    base = gasp_instance(activities, [
        (tid, sum(1 for _, t in agents if t == tid), ranks) for tid, ranks in types])
    return NetworkInstance(base, tuple(agents), frozenset(links))


EDGE_TYPED = [
    sgasp_instance([], [("t1", 2, {}), ("t2", 1, {})]),   # zero activities
    gasp_instance([], [("t1", 2, {})]),
    TypedInstance((), ()),                                 # zero types
    TypedInstance(("a", "b"), ()),
    sgasp_instance(["a"], [("t1", 2, {"a": {2}}), ("t2", 1, {})]),  # t2 wholly home
    sgasp_instance(["a", "b"], [("t1", 2, {"a": {1, 3}}), ("t2", 1, {"b": {2}})]),
    gasp_instance(["a"], [("t1", 2, {("a", 2): 1}),
                          ("t2", 1, {HOME: 3, ("a", 1): 1, ("a", 3): 2})]),
]

EDGE_NETWORKS = [
    _network([], [("t1", {})], [("n0", "t1"), ("n1", "t1")], [("n0", "n1")]),  # zero activities
    NetworkInstance(TypedInstance(("a",), ()), (), frozenset()),  # zero agents
    # t2 ranks only home: wholly at home
    _network(["a"], [("t1", {("a", 2): 1}), ("t2", {})],
             [("n0", "t1"), ("n1", "t1"), ("n2", "t2")], [("n0", "n1"), ("n1", "n2")]),
    # {n0, n2} at a is a disconnected group
    _network(["a"], [("t1", {("a", 2): 1})],
             [("n0", "t1"), ("n1", "t1"), ("n2", "t1")], [("n0", "n1")]),
    # no links at all: a join needs a link unless the target is empty
    _network(["a", "b"], [("t1", {("a", 1): 1, ("b", 1): 2, ("b", 2): 3}),
                          ("t2", {("a", 2): 1, ("b", 2): 2, ("b", 1): 1})],
             [("n0", "t1"), ("n1", "t2"), ("n2", "t1")], []),
]


def test_kernels_match_verifiers():
    """Each oracle's kernel keeps exactly the assignments its verifier calls
    stable, in enumeration order (the oracle raises if a kernel survivor
    fails the verifier, and a missed survivor shows up as a missing entry)."""
    rng = random.Random(8105)
    typed = list(EDGE_TYPED)
    makers = (random_sgasp, random_sgasp_laddered, random_gasp, random_gasp_windowed)
    typed += [makers[i % 4](rng) for i in range(400)]
    for inst in typed:
        sgasp = inst.kind == "sgasp"
        oracle, verify = (oracle_sgasp, verify_sgasp) if sgasp else (oracle_gasp, verify_gasp)
        everything = list(all_assignments(inst))
        res = oracle(inst, collect_all=True)
        assert list(res.witnesses) == [x for x in everything if verify(inst, x).stable], inst
        assert res.explored == len(everything)
        if sgasp:  # the same instances as rank instances
            lifted = lift_sgasp(inst)
            assert (list(oracle_gasp(lifted, collect_all=True).witnesses)
                    == [x for x in everything if verify_gasp(lifted, x).stable]), inst
    nets = list(EDGE_NETWORKS)
    nets += [random_network(rng, max_acts=3, max_agents=4) for _ in range(120)]
    for net in nets:
        res = oracle_ggasp(net, collect_all=True)
        assert list(res.witnesses) == _stable_picks(net), net
