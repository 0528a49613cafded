import random

import pytest

from gasplab.errors import (InvalidAssignmentError, InvalidInstanceError,
                            NoCycleError)
from gasplab.model import (EMPTY_ACTIVITY, HOME, AgentAssignment, AgentType,
                           NetworkInstance, RankMap, SizeSetPrefs,
                           TypeCountAssignment, TypedInstance, compress_once,
                           approval_masks, gamma_masks,
                           gamma_preprocess, incidence_graph,
                           induced_type_counts, is_acyclic,
                           minimal_alternatives, perfect_types, verify_gasp,
                           verify_gasp_minimal, verify_ggasp, verify_sgasp)


def sgasp(activities, type_specs):
    """type_specs: [(id, count, {activity: sizes})]"""
    types = tuple(AgentType(tid, c, SizeSetPrefs({a: frozenset(s) for a, s in appr.items()}))
                  for tid, c, appr in type_specs)
    return TypedInstance(tuple(activities), types)


def gasp(activities, type_specs):
    """type_specs: [(id, count, {(activity, size): rank})]; home defaults to 0."""
    types = []
    for tid, c, ranks in type_specs:
        ranks = dict(ranks)
        ranks.setdefault(HOME, 0)
        types.append(AgentType(tid, c, RankMap(ranks)))
    return TypedInstance(tuple(activities), tuple(types))


def x(*rows):
    return TypeCountAssignment(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------- instances

def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        sgasp(["a", "a"], [("t", 1, {"a": {1}})])
    with pytest.raises(InvalidInstanceError):
        sgasp(["a"], [("t", 0, {"a": {1}})])
    with pytest.raises(InvalidInstanceError):
        sgasp(["a"], [("t", 1, {"b": {1}})])
    with pytest.raises(InvalidInstanceError):
        sgasp(["a"], [("t", 1, {"a": {2}})])  # size 2 with one agent
    with pytest.raises(InvalidInstanceError):
        sgasp([EMPTY_ACTIVITY], [("t", 1, {})])
    with pytest.raises(InvalidInstanceError):
        TypedInstance(("a",), (
            AgentType("t1", 1, SizeSetPrefs({"a": frozenset({1})})),
            AgentType("t2", 1, RankMap({HOME: 0})),
        ))
    # floats and bools are refused, not truncated
    with pytest.raises(InvalidInstanceError):
        SizeSetPrefs({"a": {1.5}})  # int() read this as size 1
    with pytest.raises(InvalidInstanceError):
        SizeSetPrefs({"a": {True}})
    with pytest.raises(InvalidInstanceError):
        AgentType("t", 1.5, SizeSetPrefs({"a": {1}}))
    with pytest.raises(InvalidInstanceError):
        AgentType("t", True, SizeSetPrefs({"a": {1}}))


def test_rank_map_defaults():
    rm = RankMap({("a", 1): 5, HOME: 2, ("a", 2): -1})
    assert rm.rank(("a", 1)) == 5
    assert rm.home_rank == 2
    assert rm.rank(("b", 3)) == rm.rank(("c", 9)) == -2  # unlisted tie below all
    with pytest.raises(InvalidInstanceError):
        RankMap({("a", 1): 5})  # home missing
    with pytest.raises(InvalidInstanceError):
        RankMap({HOME: 0, (EMPTY_ACTIVITY, 2): 1})
    with pytest.raises(InvalidInstanceError):
        RankMap({HOME: 0.5, ("a", 1): 0})  # int() tied home with ("a", 1)
    with pytest.raises(InvalidInstanceError):
        RankMap({HOME: 0, ("a", 1.0): 1})
    with pytest.raises(InvalidInstanceError):
        RankMap({HOME: True, ("a", 1): 0})


def test_assignment_validation():
    inst = sgasp(["a", "b"], [("t", 2, {"a": {1, 2}})])
    with pytest.raises(InvalidAssignmentError):
        verify_sgasp(inst, x([1]))  # wrong width
    with pytest.raises(InvalidAssignmentError):
        verify_sgasp(inst, x([2, 1]))  # row exceeds count
    with pytest.raises(InvalidAssignmentError):
        verify_sgasp(inst, x([-1, 0]))
    with pytest.raises(InvalidAssignmentError):
        x([1.7, 0])  # int() read this as 1
    with pytest.raises(InvalidAssignmentError):
        x([True, 0])


# ---------------------------------------------------------------- verify_sgasp

def test_verify_sgasp_examples():
    inst = sgasp(["a"], [("t1", 2, {"a": {2}})])
    assert verify_sgasp(inst, x([2])).stable
    assert verify_sgasp(inst, x([0])).stable  # joining alone not approved
    rep = verify_sgasp(inst, x([1]))
    assert not rep.stable
    assert any(v.kind == "ir" for v in rep.violations)


def test_verify_sgasp_deviation():
    inst = sgasp(["a"], [("t1", 2, {"a": {1}})])
    rep = verify_sgasp(inst, x([0]))
    assert [v.kind for v in rep.violations] == ["deviation"]


def test_verify_sgasp_empty_instance():
    inst = TypedInstance((), ())
    assert verify_sgasp(inst, TypeCountAssignment(())).stable


# ---------------------------------------------------------------- verify_gasp

def test_verify_gasp_examples():
    inst = gasp(["a"], [("t1", 1, {("a", 1): 1})])
    assert verify_gasp(inst, x([1])).stable
    assert not verify_gasp(inst, x([0])).stable  # wants to open the activity


def test_verify_gasp_two_types_unstable_everywhere():
    inst = gasp(["a"], [
        ("t1", 1, {("a", 1): 2, ("a", 2): -1}),
        ("t2", 1, {("a", 2): 2, ("a", 1): -1}),
    ])
    for row1 in (0, 1):
        for row2 in (0, 1):
            assert not verify_gasp(inst, x([row1], [row2])).stable


def test_verify_gasp_no_activities():
    inst = gasp([], [("t1", 3, {})])
    assert verify_gasp(inst, x([])).stable
    assert verify_gasp_minimal(inst, x([])).stable


def test_minimal_matches_full_on_examples():
    inst = gasp(["a", "b"], [
        ("t1", 2, {("a", 1): 3, ("a", 2): 1, ("b", 1): 2}),
        ("t2", 1, {("b", 1): 1, ("b", 2): 1}),
    ])
    for xa in range(3):
        for xb in range(3 - xa):
            for yb in range(2):
                cand = x([xa, xb], [0, yb])
                try:
                    full = verify_gasp(inst, cand).stable
                except InvalidAssignmentError:
                    continue
                assert verify_gasp_minimal(inst, cand).stable == full


def test_minimal_alternatives_helper():
    inst = gasp(["a"], [("t1", 2, {("a", 1): 5})])
    assert minimal_alternatives(inst, x([1]))["t1"] == (HOME,)
    assert minimal_alternatives(inst, x([2]))["t1"] == (("a", 2),)


def _random_gasp(rng, max_types=2, max_acts=2, max_count=3):
    acts = [f"a{i}" for i in range(rng.randint(0, max_acts))]
    n_types = rng.randint(1, max_types)
    counts = [rng.randint(1, max_count) for _ in range(n_types)]
    n = sum(counts)
    specs = []
    for i in range(n_types):
        ranks = {}
        for a in acts:
            for s in range(1, n + 1):
                if rng.random() < 0.5:
                    ranks[(a, s)] = rng.randint(-3, 3)
        specs.append((f"t{i}", counts[i], ranks))
    return gasp(acts, specs)


def _assignments(inst):
    def rows(ti):
        c = inst.types[ti].count
        a = len(inst.activities)

        def rec(prefix, left, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for v in range(left + 1):
                yield from rec(prefix + [v], left - v, slots - 1)
        yield from rec([], c, a)
    import itertools
    for combo in itertools.product(*(rows(ti) for ti in range(len(inst.types)))):
        yield TypeCountAssignment(combo)


def test_minimal_equivalence_fuzz():
    rng = random.Random(101)
    pairs = 0
    for _ in range(120):
        inst = _random_gasp(rng)
        for cand in _assignments(inst):
            assert verify_gasp(inst, cand).stable == verify_gasp_minimal(inst, cand).stable
            pairs += 1
    assert pairs > 1000


# ---------------------------------------------------------------- verify_ggasp

def _net(activities, type_specs, agents, links):
    base = gasp(activities, type_specs)
    return NetworkInstance(base, tuple(agents), frozenset(links))


def test_verify_ggasp_connectivity():
    net = _net(["a"], [("t", 3, {("a", 2): 1, ("a", 3): 1})],
               [("n1", "t"), ("n2", "t"), ("n3", "t")],
               [("n1", "n2")])
    pi = AgentAssignment({"n1": "a", "n2": "a", "n3": EMPTY_ACTIVITY})
    assert verify_ggasp(net, pi).stable
    pi3 = AgentAssignment({"n1": "a", "n2": "a", "n3": "a"})
    rep = verify_ggasp(net, pi3)
    assert any(v.kind == "disconnected" for v in rep.violations)


def test_verify_ggasp_link_gated_deviation():
    # two linked agents approving (a, 2): joining the other's activity needs a link
    specs = [("t", 2, {("a", 2): 1})]
    linked = _net(["a"], specs, [("n1", "t"), ("n2", "t")], [("n1", "n2")])
    alone = AgentAssignment({"n1": EMPTY_ACTIVITY, "n2": EMPTY_ACTIVITY})
    assert verify_ggasp(linked, alone).stable  # empty target at size 1 unranked
    unlinked = _net(["a"], specs, [("n1", "t"), ("n2", "t")], [])
    one_in = AgentAssignment({"n1": "a", "n2": EMPTY_ACTIVITY})
    rep_linked = verify_ggasp(linked, one_in)
    rep_unlinked = verify_ggasp(unlinked, one_in)
    # n1 alone at a is below home ("a",1 unlisted): IR fails either way,
    # but only the linked variant also lets n2 deviate in.
    assert any(v.kind == "deviation" for v in rep_linked.violations)
    assert not any(v.kind == "deviation" for v in rep_unlinked.violations)


def test_verify_ggasp_empty_target_needs_no_link():
    net = _net(["a"], [("t", 1, {("a", 1): 1})], [("n1", "t")], [])
    rep = verify_ggasp(net, AgentAssignment({"n1": EMPTY_ACTIVITY}))
    assert [v.kind for v in rep.violations] == ["deviation"]


def test_verify_ggasp_errors():
    net = _net(["a"], [("t", 1, {("a", 1): 1})], [("n1", "t")], [])
    with pytest.raises(InvalidAssignmentError):
        verify_ggasp(net, AgentAssignment({"n2": "a"}))
    with pytest.raises(InvalidAssignmentError):
        verify_ggasp(net, AgentAssignment({"n1": "zzz"}))


def test_complete_network_matches_gasp():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        base = _random_gasp(rng, max_types=2, max_acts=2, max_count=2)
        if not base.types:
            continue
        agents = []
        for t in base.types:
            agents.extend((f"{t.id}_{i}", t.id) for i in range(t.count))
        links = {(a, b) for i, (a, _) in enumerate(agents)
                 for (b, _) in agents[i + 1:]}
        net = NetworkInstance(base, tuple(agents), frozenset(links))
        acts = list(base.activities) + [EMPTY_ACTIVITY]
        import itertools
        for combo in itertools.product(acts, repeat=len(agents)):
            pi = AgentAssignment({agents[i][0]: combo[i] for i in range(len(agents))})
            want = verify_gasp(base, induced_type_counts(net, pi)).stable
            assert verify_ggasp(net, pi).stable == want
            checked += 1
        if checked > 400:
            break
    assert checked > 200


# ---------------------------------------------------------------- gamma

def test_gamma_example():
    inst = sgasp(["a"], [("t1", 2, {"a": {1, 2}}), ("t2", 1, {"a": {2}})])
    pruned, nonempty = gamma_preprocess(inst, {"t1"})
    assert pruned.types[0].prefs.sizes("a") == frozenset({2})
    assert pruned.types[1].prefs.sizes("a") == frozenset({2})
    assert nonempty == ()


def test_gamma_nonempty_detection():
    inst = sgasp(["a", "b"], [("t1", 1, {"a": {1}}), ("t2", 1, {"b": {2}})])
    _, nonempty = gamma_preprocess(inst, {"t2"})
    assert nonempty == ("a",)
    _, nonempty = gamma_preprocess(inst, {"t1", "t2"})
    assert nonempty == ()


def test_gamma_unknown_type():
    inst = sgasp(["a"], [("t1", 1, {"a": {1}})])
    with pytest.raises(InvalidInstanceError):
        gamma_preprocess(inst, {"zzz"})


def _random_sgasp(rng, max_types=3, max_acts=2, max_count=2):
    acts = [f"a{i}" for i in range(rng.randint(0, max_acts))]
    n_types = rng.randint(1, max_types)
    counts = [rng.randint(1, max_count) for _ in range(n_types)]
    n = sum(counts)
    specs = []
    for i in range(n_types):
        appr = {a: {s for s in range(1, n + 1) if rng.random() < 0.4} for a in acts}
        specs.append((f"t{i}", counts[i], appr))
    return sgasp(acts, specs)


def test_gamma_guarantee_fuzz():
    rng = random.Random(2024)
    for _ in range(150):
        inst = _random_sgasp(rng)
        for cand in _assignments(inst):
            q = perfect_types(inst, cand)
            pruned, nonempty = gamma_preprocess(inst, q)
            sizes = cand.column_sums()
            ir = all(v.kind != "ir" for v in verify_sgasp(pruned, cand).violations)
            filled = all(sizes[i] > 0 for i, a in enumerate(inst.activities) if a in nonempty)
            assert verify_sgasp(inst, cand).stable == (ir and filled)


def test_gamma_masks_match_gamma_preprocess():
    rng = random.Random(77)
    for _ in range(150):
        inst = _random_sgasp(rng)
        k, n = len(inst.types), inst.n
        masks = approval_masks(inst)
        for q_mask in range(1 << k):
            q = [t.id for i, t in enumerate(inst.types) if q_mask >> i & 1]
            pruned, nonempty = gamma_preprocess(inst, q)
            got, a_ne = gamma_masks(masks, [i for i in range(k) if not q_mask >> i & 1])
            for ti, t in enumerate(pruned.types):
                for ai, a in enumerate(inst.activities):
                    sizes = {s for s in range(n + 1) if got[ti][ai] >> s & 1}
                    assert sizes == t.prefs.sizes(a)
            assert tuple(inst.activities[a] for a in a_ne) == nonempty


# ---------------------------------------------------------------- incidence / compression

def test_incidence_and_acyclicity():
    a = x([1, 0], [1, 1])
    assert incidence_graph(a) == frozenset({(0, 0), (1, 0), (1, 1)})
    assert is_acyclic(incidence_graph(a))
    b = x([1, 1], [1, 1])
    assert not is_acyclic(incidence_graph(b))
    assert is_acyclic(frozenset())


def test_compress_once_square():
    out = compress_once(x([1, 1], [1, 1]))
    assert out.counts in (((0, 2), (2, 0)), ((2, 0), (0, 2)))
    with pytest.raises(NoCycleError):
        compress_once(out)


def test_compress_once_preserves_sums():
    rng = random.Random(5)
    done = 0
    while done < 200:
        t_n = rng.randint(2, 3)
        a_n = rng.randint(2, 3)
        cand = TypeCountAssignment(tuple(
            tuple(rng.randint(0, 3) for _ in range(a_n)) for _ in range(t_n)))
        if is_acyclic(incidence_graph(cand)):
            continue
        out = compress_once(cand)
        assert [sum(r) for r in out.counts] == [sum(r) for r in cand.counts]
        assert out.column_sums() == cand.column_sums()
        assert incidence_graph(out) < incidence_graph(cand)  # strict subset
        done += 1


def test_compress_terminates_within_edge_bound():
    rng = random.Random(6)
    for _ in range(100):
        t_n, a_n = rng.randint(2, 3), rng.randint(2, 3)
        cand = TypeCountAssignment(tuple(
            tuple(rng.randint(0, 3) for _ in range(a_n)) for _ in range(t_n)))
        steps = 0
        while not is_acyclic(incidence_graph(cand)):
            cand = compress_once(cand)
            steps += 1
            assert steps <= t_n * a_n


def test_compress_once_on_a_cycle_through_1200_vertices():
    # rows[i][i] = rows[i][i + 1 mod n] = 1 is one incidence cycle through
    # every type and activity, deeper than Python's recursion limit
    n = 600
    cand = TypeCountAssignment(tuple(
        tuple(int(j in (i, (i + 1) % n)) for j in range(n)) for i in range(n)))
    out = compress_once(cand)
    assert [sum(r) for r in out.counts] == [sum(r) for r in cand.counts]
    assert out.column_sums() == cand.column_sums()
    assert incidence_graph(out) < incidence_graph(cand)
    assert is_acyclic(incidence_graph(out))
