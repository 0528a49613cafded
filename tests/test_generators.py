"""Generator tests: Sidon sequences, the clique containers, and the four
constructive encodings, checked against frozen hand-derived values, brute
clique search, and the stability oracles."""

import random
from itertools import combinations

import pytest

from gasplab.errors import BudgetError, InvalidInstanceError
from gasplab.generators import (
    PartitionedCliqueInstance,
    SMPSSInstance,
    find_clique,
    pc_to_gasp,
    pc_to_ggasp,
    pc_to_smpss,
    random_instance,
    random_partitioned_clique,
    sidon,
    smpss_solvable,
    smpss_to_sgasp,
)
from gasplab.model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentAssignment,
    TypeCountAssignment,
    verify_gasp,
    verify_ggasp,
)
from gasplab.oracle import oracle_sgasp


def tiny_pc(planted=False):
    """Three parts of two vertices, one cross edge per pair, forming the
    triangle u1-w1-z1."""
    parts = (("u1", "u2"), ("w1", "w2"), ("z1", "z2"))
    edges = frozenset({("u1", "w1"), ("u1", "z1"), ("w1", "z1")})
    meta = {"planted": ("u1", "w1", "z1")} if planted else None
    return PartitionedCliqueInstance(parts, edges, meta=meta)


# ---------------------------------------------------------------------------
# sidon


def test_sidon_first_values():
    assert sidon(1) == [1]
    assert sidon(5) == [1, 2, 4, 8, 13]


def test_sidon_rejects_bad_length():
    with pytest.raises(ValueError):
        sidon(0)


def test_sidon_pairwise_sums_distinct():
    seq = sidon(12)
    sums = [a + b for a, b in combinations(seq, 2)] + [2 * a for a in seq]
    assert len(sums) == len(set(sums)) == 12 * 11 // 2 + 12


def test_sidon_prefix_stable():
    assert sidon(8)[:4] == sidon(4)


# ---------------------------------------------------------------------------
# partitioned clique container


def test_pc_normalizes_edges_and_orders_pairs():
    pc = PartitionedCliqueInstance(
        (("u1", "u2"), ("w1", "w2")), frozenset({("w1", "u2"), ("u1", "w1")}))
    assert pc.k == 2 and pc.n == 2
    assert ("u2", "w1") in pc.edges  # endpoint of the earlier part first
    assert pc.pair_edges(0, 1) == (("u1", "w1"), ("u2", "w1"))
    assert pc.adjacent("w1", "u2") and not pc.adjacent("u1", "w2")


def test_pc_rejects_bad_shapes():
    with pytest.raises(InvalidInstanceError):
        PartitionedCliqueInstance((("u1",), ("w1", "w2")), frozenset())
    with pytest.raises(InvalidInstanceError):
        PartitionedCliqueInstance((("u1", "u2"),), frozenset({("u1", "u2")}))
    with pytest.raises(InvalidInstanceError):
        PartitionedCliqueInstance((("u1", "u1"),), frozenset())
    with pytest.raises(InvalidInstanceError):
        PartitionedCliqueInstance((("u1",), ("w1",)), frozenset({("u1", "q")}))


def test_find_clique():
    assert find_clique(tiny_pc()) == ("u1", "w1", "z1")
    # break the triangle: no transversal is pairwise adjacent any more
    parts = (("u1", "u2"), ("w1", "w2"), ("z1", "z2"))
    edges = frozenset({("u1", "w1"), ("u2", "z1"), ("w2", "z2")})
    assert find_clique(PartitionedCliqueInstance(parts, edges)) is None
    # 2^3 combinations: refused up front under a smaller budget
    with pytest.raises(BudgetError, match="8 clique combinations, cap is 7"):
        find_clique(tiny_pc(), budget=7)
    assert find_clique(tiny_pc(), budget=8) == ("u1", "w1", "z1")


# ---------------------------------------------------------------------------
# SMPSS container


def test_smpss_validates_simplicity():
    with pytest.raises(InvalidInstanceError):
        SMPSSInstance((1, 1), (((1, 1),),))  # two non-zero components
    with pytest.raises(InvalidInstanceError):
        SMPSSInstance((1,), (((0,),),))  # no non-zero component
    with pytest.raises(InvalidInstanceError):
        SMPSSInstance((3,), (((2,), (2,)),))  # value repeated in one set
    with pytest.raises(InvalidInstanceError):
        # repeated value across different components still breaks simplicity
        SMPSSInstance((2, 2), (((2, 0), (0, 2)),))
    s = SMPSSInstance((2, 2), (((2, 0), (0, 1)),))
    assert s.d == 2 and len(s.sets) == 1


def test_smpss_solvable_hand():
    assert smpss_solvable(SMPSSInstance((6,), (((6,),),)))
    assert not smpss_solvable(SMPSSInstance((6,), (((3,),),)))
    assert smpss_solvable(SMPSSInstance((0,), ()))  # empty sum hits a zero target
    assert smpss_solvable(SMPSSInstance((3, 4), (((3, 0), (0, 4)), ((0, 4), (3, 0)))))


# ---------------------------------------------------------------------------
# clique -> SMPSS


def test_pc_to_smpss_counts():
    s = pc_to_smpss(tiny_pc())
    assert s.d == 9  # k(k-1) + k(k-1)/2 at k=3
    assert len(s.sets) == 21  # C(k,2) + nk(2k-3) at k=3, n=2
    assert s.meta["k3_case_overlap"] is True

    pc4 = random_partitioned_clique(4, 2, 1, seed=0)
    s4 = pc_to_smpss(pc4)
    assert s4.d == 18 and len(s4.sets) == 46
    assert s4.meta["k3_case_overlap"] is False


def test_pc_to_smpss_hand_layout():
    # k=3, n=2: powers 4/16/64/256, position sum 3, Sidon [1,2,4,8,13,21];
    # first-of-part targets 64+16, last-of-part targets 256+64+3, edge
    # targets are the Sidon sums of both parts
    s = pc_to_smpss(tiny_pc())
    assert s.target == (80, 323, 80, 323, 80, 323, 15, 37, 46)
    names = s.meta["set_names"]
    assert names[0] == "PV1(2,1)" and names[6] == "PEV1(2,1)" and names[18] == "PE(1,2)"
    # PV1(2,l): plus vector 16-l on cV1(2), minus vector 256+l on cV1(3)
    assert s.sets[0] == ((15, 0, 0, 0, 0, 0, 0, 0, 0), (0, 257, 0, 0, 0, 0, 0, 0, 0))
    # PEV1(2,1): plus 64+1 on cV1(2), minus Sidon(u1)=1 on cE(1,2)
    assert s.sets[6] == ((65, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 0))
    # PE(1,2): single edge u1-w1, Sidon 1+4
    assert s.sets[18] == ((0, 0, 0, 0, 0, 0, 5, 0, 0),)


def test_pc_to_smpss_planted_choice_meets_target():
    s = pc_to_smpss(tiny_pc(planted=True))
    picked = [s.sets[i][c] for i, c in enumerate(s.meta["planted_choice"])]
    summed = tuple(sum(col) for col in zip(*picked))
    assert summed == s.target
    assert smpss_solvable(s)


def test_pc_to_smpss_rejections():
    with pytest.raises(InvalidInstanceError):
        pc_to_smpss(PartitionedCliqueInstance((("u1", "u2"), ("w1", "w2")),
                                              frozenset({("u1", "w1")})))
    with pytest.raises(InvalidInstanceError):  # parts of size one
        pc_to_smpss(PartitionedCliqueInstance(
            (("u1",), ("w1",), ("z1",)),
            frozenset({("u1", "w1"), ("u1", "z1"), ("w1", "z1")})))
    lopsided = PartitionedCliqueInstance(
        (("u1", "u2"), ("w1", "w2"), ("z1", "z2")),
        frozenset({("u1", "w1"), ("u1", "w2"), ("u1", "z1"), ("w1", "z1")}))
    with pytest.raises(InvalidInstanceError):
        pc_to_smpss(lopsided)
    bogus = PartitionedCliqueInstance(
        tiny_pc().parts, tiny_pc().edges, meta={"planted": ("u1", "w2", "z1")})
    with pytest.raises(InvalidInstanceError):
        pc_to_smpss(bogus)


def test_pc_to_smpss_iff_fuzz():
    yes = no = 0
    for seed in range(18):
        m = seed % 3 + 1
        pc = random_partitioned_clique(3, 2, m, seed=seed, planted=(seed % 2 == 0))
        has = find_clique(pc) is not None
        assert smpss_solvable(pc_to_smpss(pc)) == has, f"seed {seed}"
        yes += has
        no += not has
    assert yes >= 6 and no >= 3


# ---------------------------------------------------------------------------
# SMPSS -> size approvals


def test_smpss_to_sgasp_shape():
    s = SMPSSInstance((2, 1), (((2, 0), (0, 1)), ((1, 0),)))
    inst = smpss_to_sgasp(s)
    assert inst.kind == "sgasp"
    assert [t.id for t in inst.types] == ["t1", "t2", "tP", "tne1", "tne2"]
    assert len(inst.types) == s.d + 3
    assert inst.activities == ("a1", "a2", "aP")
    by_id = {t.id: t for t in inst.types}
    assert by_id["t1"].count == 6 and by_id["t2"].count == 3
    assert by_id["t1"].prefs.sizes("a1") == {6}  # scaled component values
    assert by_id["t1"].prefs.sizes("a2") == {3}
    assert by_id["t2"].prefs.sizes("a1") == {3}
    assert by_id["t1"].prefs.sizes("aP") == {2}
    assert by_id["tP"].prefs.sizes("aP") == {1, 3}
    assert by_id["tne1"].prefs.sizes("a1") == {1}
    assert by_id["tne2"].prefs.sizes("a2") == {2}
    assert not by_id["tne1"].prefs.sizes("aP")


def test_smpss_to_sgasp_hand_yes_no():
    assert oracle_sgasp(smpss_to_sgasp(SMPSSInstance((6,), (((6,),),)))).exists
    assert not oracle_sgasp(smpss_to_sgasp(SMPSSInstance((6,), (((3,),),)))).exists


def test_smpss_to_sgasp_zero_component_drops_type():
    s = SMPSSInstance((0, 2), (((0, 2),), ((3, 0),)))
    inst = smpss_to_sgasp(s)
    assert [t.id for t in inst.types] == ["t2", "tP", "tne1", "tne2"]
    # the second set only offers a vector on the dead component, so neither
    # side has a solution
    assert not smpss_solvable(s)
    assert not oracle_sgasp(inst).exists


def test_smpss_to_sgasp_iff_fuzz():
    rng = random.Random(20260814)
    yes = no = 0
    for trial in range(32):
        d = rng.randint(1, 2)
        sets = []
        for _ in range(rng.randint(0, 2)):
            vecs = []
            for val in rng.sample([1, 2], rng.randint(1, 2)):
                vec = [0] * d
                vec[rng.randrange(d)] = val
                vecs.append(tuple(vec))
            sets.append(tuple(vecs))
        if trial % 2 and sets:
            # realizable target: sum one pick per set
            picks = [rng.choice(p) for p in sets]
            target = [sum(col) for col in zip(*picks)]
        else:
            target = [rng.randint(0, 2) for _ in range(d)]
        while sum(target) > 3:
            # keep the oracle's matrix space small; labels are recomputed
            target[target.index(max(target))] -= 1
        target = tuple(target)
        s = SMPSSInstance(target, tuple(sets))
        a = smpss_solvable(s)
        b = oracle_sgasp(smpss_to_sgasp(s)).exists
        assert a == b, f"trial {trial}: {target} {sets}"
        yes += a
        no += not a
    assert yes >= 8 and no >= 8


# ---------------------------------------------------------------------------
# clique -> ranks


def test_pc_to_gasp_counts():
    inst = pc_to_gasp(tiny_pc())
    assert len(inst.activities) == 6  # C(k,2) + k
    assert len(inst.types) == 7  # 2k + 1
    assert inst.types[0].id == "val" and inst.types[0].count == 19
    assert inst.n == 25


def test_pc_to_gasp_val_ranks():
    inst = pc_to_gasp(tiny_pc())
    rm = inst.types[0].prefs
    # named vertex sizes 3 and 5 on every a_i, named edge size 1 on pairs
    assert rm.rank(("a1", 3)) == rm.rank(("a1", 5)) == rm.rank(("a3", 3)) == 3
    assert rm.rank(("a1.2", 1)) == rm.rank(("a2.3", 1)) == 3
    assert rm.rank(("a1", 2)) == 2 and rm.rank(("a1", 1)) == 1
    assert rm.home_rank == 0
    assert rm.rank(("a1", 4)) == -1  # everything unnamed sits below home
    assert rm.rank(("a1.2", 2)) == -1


def test_pc_to_gasp_walker_ranks():
    inst = pc_to_gasp(tiny_pc())
    by_id = {t.id: t for t in inst.types}
    fwd, bwd = by_id["fwd1"].prefs, by_id["bwd1"].prefs
    # successor sizes of a1 top, then one class per vertex of part 1
    assert fwd.rank(("a1", 4)) == fwd.rank(("a1", 6)) == 3
    assert fwd.rank(("a1", 5)) == 2  # u2, the larger-named vertex, comes first
    assert fwd.rank(("a1", 3)) == 1
    assert fwd.rank(("a1.2", 2)) == 1  # edge u1-w1 follows its endpoint u1
    assert bwd.rank(("a1", 3)) == 2 and bwd.rank(("a1", 5)) == 1
    assert bwd.rank(("a1.2", 2)) == 2
    assert fwd.home_rank == bwd.home_rank == 0


def test_pc_to_gasp_planted_witness_verifies():
    for seed in range(6):
        m = seed % 2 + 1
        pc = random_partitioned_clique(3, 2, m, seed=seed, planted=True)
        inst = pc_to_gasp(pc)
        x = TypeCountAssignment(inst.meta["witness_counts"])
        assert verify_gasp(inst, x).stable, f"seed {seed}"
        # vertex activity sizes spell out the planted clique
        alpha_v = dict(inst.meta["alpha_v"])
        sizes = dict(zip(inst.activities, x.column_sums()))
        for i, v in enumerate(inst.meta["planted"]):
            assert sizes[f"a{i + 1}"] == alpha_v[v]


def test_pc_to_gasp_rejections():
    with pytest.raises(InvalidInstanceError):  # two parts only
        pc_to_gasp(PartitionedCliqueInstance(
            (("u1",), ("w1",)), frozenset({("u1", "w1")})))
    with pytest.raises(InvalidInstanceError):  # no edges at all
        pc_to_gasp(PartitionedCliqueInstance(
            (("u1",), ("w1",), ("z1",)), frozenset()))
    assert pc_to_gasp(tiny_pc()).meta["planted"] is None


# ---------------------------------------------------------------------------
# clique -> ranks on a network


def test_pc_to_ggasp_counts_and_cover():
    net = pc_to_ggasp(tiny_pc())
    assert len(net.base.activities) == 6
    assert len(net.base.types) == 12  # C(k,2) + 3k
    assert len(net.agents) == 42  # 2k + k(2n+3) + C(k,2)(2m+3)
    cover = set(net.meta["cover"])
    assert len(cover) <= 9  # C(k,2) + 2k
    assert all(u in cover or v in cover for (u, v) in net.links)


def test_pc_to_ggasp_planted_witness_stable_and_connected():
    for seed in (0, 1, 2):
        pc = random_partitioned_clique(3, 2, 2, seed=seed, planted=True)
        net = pc_to_ggasp(pc)
        pi = AgentAssignment(dict(net.meta["witness_assignment"]))
        assert verify_ggasp(net, pi).stable, f"seed {seed}"


def test_pc_to_ggasp_witness_edge_groups_are_stars():
    net = pc_to_ggasp(tiny_pc(planted=True))
    pi = dict(net.meta["witness_assignment"])
    for i, j in combinations(range(3), 2):
        act = f"a{i + 1}.{j + 1}"
        group = [a for a, where in pi.items() if where == act]
        hub = f"M{i + 1}.{j + 1}.0"
        assert hub in group
        assert all(a.startswith(f"M{i + 1}.{j + 1}.") for a in group)
        assert len(group) == 3  # the planted edge carries the smallest name


# ---------------------------------------------------------------------------
# random factories


def test_random_partitioned_clique_shape_and_planting():
    pc = random_partitioned_clique(3, 3, 4, seed=11, planted=True)
    assert pc.k == 3 and pc.n == 3
    assert set(pc.pair_counts().values()) == {4}
    clique = pc.meta["planted"]
    assert find_clique(pc) is not None
    for i, j in combinations(range(3), 2):
        assert pc.adjacent(clique[i], clique[j])
    with pytest.raises(InvalidInstanceError):
        random_partitioned_clique(3, 2, 5, seed=0)
    with pytest.raises(InvalidInstanceError):
        random_partitioned_clique(3, 2, 0, seed=0, planted=True)


def test_random_instance_deterministic():
    a = random_instance("gasp", types=2, activities=2, agents=4, density=0.6, seed=9)
    b = random_instance("gasp", types=2, activities=2, agents=4, density=0.6, seed=9)
    assert a == b
    c = random_instance("ggasp", types=2, activities=2, agents=4, density=0.6, seed=9)
    d = random_instance("ggasp", types=2, activities=2, agents=4, density=0.6, seed=9)
    assert c.agents == d.agents and c.links == d.links and c.base == d.base


def test_random_instance_density_extremes():
    full = random_instance("sgasp", types=2, activities=2, agents=3, density=1.0, seed=5)
    assert all(t.prefs.sizes(a) == frozenset({1, 2, 3})
               for t in full.types for a in full.activities)
    bare = random_instance("gasp", types=2, activities=2, agents=3, density=0.0, seed=5)
    assert all(set(t.prefs.ranks) == {HOME} for t in bare.types)
    lonely = random_instance("ggasp", types=2, activities=1, agents=4, density=0.0, seed=1)
    assert not lonely.links
    social = random_instance("ggasp", types=2, activities=1, agents=4, density=1.0, seed=1)
    assert len(social.links) == 6


def test_random_instance_rejections():
    with pytest.raises(InvalidInstanceError):
        random_instance("nope", types=1, activities=1, agents=1)
    with pytest.raises(InvalidInstanceError):
        random_instance("sgasp", types=3, activities=1, agents=2)
    with pytest.raises(InvalidInstanceError):
        random_instance("sgasp", types=1, activities=1, agents=1, density=1.5)