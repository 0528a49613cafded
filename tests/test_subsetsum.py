import gc
import itertools
import random

import pytest

from gasplab.errors import BudgetError, InvalidInstanceError
from gasplab.subsetsum import (
    LabeledTree,
    PSSInstance,
    VectorFamily,
    brute_mpss,
    brute_pss,
    brute_tss,
    check_tss_witness,
    solve_mpss,
    solve_pss,
    solve_tss,
)


# ---------------------------------------------------------------------------
# PSS

def test_pss_single_source():
    assert solve_pss(PSSInstance({5}, [{2, 3}])) == {2, 3}


def test_pss_no_sources_returns_targets():
    assert solve_pss(PSSInstance({4})) == {4}


def test_pss_two_sources():
    assert solve_pss(PSSInstance({3, 4}, [{1}, {1, 2}])) == {0, 1, 2}


def test_pss_empty_source_kills_everything():
    assert solve_pss(PSSInstance({3}, [{1}, set()])) == frozenset()


def test_pss_brute_matches_examples():
    for targets, sources in [({5}, [{2, 3}]), ({4}, []), ({3, 4}, [{1}, {1, 2}])]:
        inst = PSSInstance(targets, sources)
        assert brute_pss(inst) == solve_pss(inst)


def test_pss_rejects_negative():
    with pytest.raises(InvalidInstanceError):
        PSSInstance({-1})
    with pytest.raises(InvalidInstanceError):
        PSSInstance({1}, [{-2}])


# ---------------------------------------------------------------------------
# TSS

def star():
    return LabeledTree([{5}, {0, 2}, {0, 3}, {0, 7}], [(0, 1), (0, 2), (0, 3)])


def test_tss_star_witness():
    res = solve_tss(star())
    assert res.feasible and res.alpha == (2, 3, 0)


def test_tss_single_vertex():
    assert solve_tss(LabeledTree([{0}])).feasible
    assert not solve_tss(LabeledTree([{1}])).feasible


def test_tss_infeasible_edge():
    assert not solve_tss(LabeledTree([{2}, {3}], [(0, 1)])).feasible


def test_tss_rejects_cycle():
    with pytest.raises(InvalidInstanceError):
        LabeledTree([{0}, {0}, {0}], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidInstanceError):
        LabeledTree([{0}, {0}], [(0, 1), (1, 0)])


def test_tss_forest_components_decided_independently():
    t = LabeledTree([{1}, {1}, {0}], [(0, 1)])
    assert solve_tss(t).feasible
    assert not solve_tss(LabeledTree([{1}, {1}, {2}], [(0, 1)])).feasible


def test_tss_brute_matches_examples():
    for tree in [star(), LabeledTree([{0}]), LabeledTree([{2}, {3}], [(0, 1)])]:
        got, want = brute_tss(tree), solve_tss(tree)
        assert got.feasible == want.feasible
        if got.feasible:
            assert check_tss_witness(tree, got.alpha)
            assert check_tss_witness(tree, want.alpha)


def test_tss_zero_valued_edges_allowed():
    # a path where the middle vertex needs nothing from one side
    t = LabeledTree([{2}, {2}, {0}], [(0, 1), (1, 2)])
    res = solve_tss(t)
    assert res.feasible and res.alpha == (2, 0)


# ---------------------------------------------------------------------------
# MPSS

def test_mpss_one_dimensional():
    fam = VectorFamily(1, 5, [[(2,), (3,)], [(0,), (1,)]])
    assert solve_mpss(fam).targets == {(2,), (3,), (4,)}


def test_mpss_single_set_identity():
    fam = VectorFamily(2, 2, [[(1, 0), (0, 2)]])
    assert solve_mpss(fam).targets == {(1, 0), (0, 2)}


def test_mpss_two_dimensional():
    fam = VectorFamily(2, 3, [[(1, 0), (0, 1)], [(2, 0)]])
    assert solve_mpss(fam).targets == {(3, 0), (2, 1)}


def test_mpss_empty_set_flagged():
    res = solve_mpss(VectorFamily(1, 3, [[(1,)], []]))
    assert res.targets == frozenset()
    with pytest.raises(KeyError):
        res.witness((1,))


def test_mpss_witness_reconstruction():
    fam = VectorFamily(2, 3, [[(1, 0), (0, 1)], [(2, 0)]])
    res = solve_mpss(fam)
    assert res.witness((2, 1)) == ((0, 1), (2, 0))
    assert res.witness((3, 0)) == ((1, 0), (2, 0))
    with pytest.raises(KeyError):
        res.witness((0, 0))


def test_vector_family_rejects_non_ints():
    for k, caps, sets in [(1, [1.5], []), (1, True, []), (2, ["3", 1], []),
                          (1, 2.0, []), (1.0, 2, []), (1, 2, [[(1.5,)]]),
                          (1, 2, [[(True,)]])]:
        with pytest.raises(InvalidInstanceError):
            VectorFamily(k, caps, sets)
    assert VectorFamily(2, 3, []).caps == (3, 3)
    assert VectorFamily(2, (1, 3), []).caps == (1, 3)


def test_mpss_per_component_caps():
    fam = VectorFamily(2, (1, 3), [[(1, 0), (0, 2)], [(1, 0), (0, 1)]])
    # (2,0) exceeds cap 1 in the first component and must be dropped
    assert solve_mpss(fam).targets == {(1, 1), (0, 3), (1, 2)}


def test_mpss_brute_matches_examples():
    for fam in [
        VectorFamily(1, 5, [[(2,), (3,)], [(0,), (1,)]]),
        VectorFamily(2, 2, [[(1, 0), (0, 2)]]),
        VectorFamily(2, 3, [[(1, 0), (0, 1)], [(2, 0)]]),
    ]:
        assert brute_mpss(fam).targets == solve_mpss(fam).targets


# ---------------------------------------------------------------------------
# randomized equivalence, witness validity, monotonicity

def _random_pss(rng):
    top = rng.randint(0, 8)
    targets = {rng.randint(0, top) for _ in range(rng.randint(1, 3))}
    sources = [
        {rng.randint(0, 6) for _ in range(rng.randint(0, 4))}
        for _ in range(rng.randint(0, 3))
    ]
    return PSSInstance(targets, sources)


def test_pss_matches_brute_fuzz():
    rng = random.Random(7001)
    for _ in range(1000):
        inst = _random_pss(rng)
        assert solve_pss(inst) == brute_pss(inst)


def _random_tree(rng):
    n = rng.randint(1, 5)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.append((rng.randrange(v), v))
    labels = [
        {rng.randint(0, 6) for _ in range(rng.randint(0, 3))}
        for _ in range(n)
    ]
    return LabeledTree(labels, edges)


def test_tss_matches_brute_fuzz():
    rng = random.Random(7002)
    yes = 0
    for _ in range(1000):
        tree = _random_tree(rng)
        got, want = solve_tss(tree), brute_tss(tree)
        assert got.feasible == want.feasible
        if got.feasible:
            yes += 1
            assert check_tss_witness(tree, got.alpha)
    assert yes > 100  # the corpus exercises both answers


def _random_family(rng):
    k = rng.randint(1, 3)
    caps = tuple(rng.randint(0, 4) for _ in range(k))
    sets = [
        [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 4))
    ]
    return VectorFamily(k, caps, sets)


def test_mpss_matches_brute_fuzz():
    rng = random.Random(7003)
    nonempty = 0
    for _ in range(1000):
        fam = _random_family(rng)
        res, want = solve_mpss(fam), brute_mpss(fam)
        assert res.targets == want.targets
        if res.targets:
            nonempty += 1
            for t in sorted(res.targets):
                parts = res.witness(t)
                assert len(parts) == len(fam.sets)
                assert all(p in s for p, s in zip(parts, fam.sets))
                total = tuple(map(sum, zip(*parts))) if parts else t
                assert total == t
    assert nonempty > 300


def test_brute_mpss_target_stop_matches_full_walk_fuzz():
    rng = random.Random(7006)
    hits = misses = 0
    for _ in range(600):
        fam = _random_family(rng)
        full = brute_mpss(fam)
        for t in sorted(full.targets):
            got = brute_mpss(fam, target=t)
            assert got.targets == {t}
            assert got.witness(t) == full.witness(t)
            hits += 1
        # unreachable points of the cap box, then points outside it
        box = itertools.product(*(range(c + 1) for c in fam.caps))
        for t in [t for t in box if t not in full.targets][:3]:
            assert brute_mpss(fam, target=t).targets == frozenset()
            misses += 1
        i = rng.randrange(fam.k)
        over = tuple(c + (j == i) * rng.randint(1, 3) for j, c in enumerate(fam.caps))
        assert brute_mpss(fam, target=over).targets == frozenset()
    assert hits > 250 and misses > 1000  # 318 and 1544 at this seed


def test_brute_mpss_edge_cases():
    # cap 0 in one component: only vectors that are 0 there are usable
    fam = VectorFamily(2, (0, 3), [[(0, 1), (1, 0)], [(0, 2)]])
    assert brute_mpss(fam).targets == {(0, 3)}
    assert brute_mpss(fam, target=(0, 3)).witness((0, 3)) == ((0, 1), (0, 2))
    assert brute_mpss(fam, target=(1, 2)).targets == frozenset()
    # an empty set reaches nothing
    fam = VectorFamily(1, 4, [[(1,)], []])
    res = brute_mpss(fam)
    assert res.targets == frozenset()
    with pytest.raises(KeyError):
        res.witness((1,))
    assert brute_mpss(fam, target=(1,)).targets == frozenset()
    # no sets: the zero vector, with the empty witness
    fam = VectorFamily(3, (2, 0, 5), [])
    for res in (brute_mpss(fam), brute_mpss(fam, target=(0, 0, 0))):
        assert res.targets == {(0, 0, 0)}
        assert res.witness((0, 0, 0)) == ()
    assert brute_mpss(fam, target=(1, 0, 0)).targets == frozenset()
    with pytest.raises(InvalidInstanceError):
        brute_mpss(fam, target=(0, 0))


def test_brute_mpss_guard_bit_stops_carry():
    # (1,0) + (1,0) is 2 > 1 in the first component; unchecked, that field
    # would carry into the second and read as (0, 1) or similar
    fam = VectorFamily(2, (1, 3), [[(1, 0)], [(1, 0)]])
    assert brute_mpss(fam).targets == frozenset()
    for t in itertools.product(range(2), range(4)):
        assert brute_mpss(fam, target=t).targets == frozenset()
    fam = VectorFamily(2, (1, 3), [[(1, 0), (0, 3)], [(1, 0), (0, 1)]])
    assert brute_mpss(fam).targets == solve_mpss(fam).targets == {(1, 3), (1, 1)}


def test_brute_checkers_leave_no_reference_cycles():
    # a self-recursive closure would pin its frame until the collector ran
    gc.collect()
    gc.disable()
    try:
        fam = VectorFamily(2, (3, 3), [[(1, 0), (0, 1)]] * 3)
        assert brute_mpss(fam).witness((1, 2)) == ((0, 1), (0, 1), (1, 0))
        assert brute_mpss(fam, target=(1, 2)).witness((1, 2)) == ((0, 1), (0, 1), (1, 0))
        assert brute_tss(LabeledTree([{1, 2}, {2}, {1}], [(0, 1), (1, 2)])).alpha == (1, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tss_monotone_in_labels():
    rng = random.Random(7004)
    flips = 0
    for _ in range(300):
        tree = _random_tree(rng)
        if not solve_tss(tree).feasible:
            continue
        flips += 1
        grown = [set(l) | {rng.randint(0, 6)} for l in tree.labels]
        assert solve_tss(LabeledTree(grown, tree.edges)).feasible
    assert flips > 30


def test_mpss_monotone_in_sets():
    rng = random.Random(7005)
    for _ in range(300):
        fam = _random_family(rng)
        before = solve_mpss(fam).targets
        sets = [list(s) for s in fam.sets]
        sets[rng.randrange(len(sets))].append(
            tuple(rng.randint(0, 3) for _ in range(fam.k)))
        after = solve_mpss(VectorFamily(fam.k, fam.caps, sets)).targets
        assert before <= after


def test_brute_budgets_refuse_oversized():
    with pytest.raises(BudgetError):
        brute_tss(LabeledTree([{9}] * 6, [(0, i) for i in range(1, 6)]), budget=10)
    with pytest.raises(BudgetError):
        brute_pss(PSSInstance({5}, [set(range(6))] * 6), budget=10)
    with pytest.raises(BudgetError):
        brute_mpss(VectorFamily(1, 50, [[(0,), (1,)]] * 10), budget=10)
    with pytest.raises(BudgetError):
        brute_mpss(VectorFamily(1, 50, [[(0,), (1,)]] * 10), budget=10, target=(10,))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("GASPLAB_BUDGET", "3")
    with pytest.raises(BudgetError):
        brute_pss(PSSInstance({5}, [{1, 2}, {1, 2}]))
    monkeypatch.setenv("GASPLAB_BUDGET", "1000")
    assert brute_pss(PSSInstance({5}, [{1, 2}, {1, 2}])) == {1, 2, 3}
