import gc
import itertools
import math
import random

import pytest

from conftest import (
    ir_reference,
    no_family,
    random_sgasp,
    random_sgasp_laddered,
    sgasp_instance,
)
from gasplab import solvers_sgasp
from gasplab.errors import BudgetError, InvalidInstanceError
from gasplab.generators import pc_to_smpss, random_partitioned_clique, smpss_to_sgasp
from gasplab.model import (
    TypeCountAssignment,
    TypedInstance,
    approval_masks,
    gamma_masks,
    gamma_preprocess,
    incidence_graph,
    is_acyclic,
    verify_sgasp,
)
from gasplab.oracle import oracle_sgasp
from gasplab.solvers_sgasp import (
    SolveResult,
    _cover_matching,
    _ir_kernel,
    _partitions,
    _trim_unfillable,
    enumerate_acyclic_patterns,
    find_ir_assignment,
    solve_fpt_n,
    solve_fpt_ta,
    solve_xp_t,
)
from gasplab.subsetsum import _splits, _tss


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


def swept_patterns(t_count, a_count, q, a_ne, masks=None):
    """Reference sweep: every edge subset, kept when it is acyclic, covers q
    and a_ne and, with masks, leaves every activity label nonzero; in
    skip-before-take order over the lexicographic edge list."""
    edges = [(t, a) for t in range(t_count) for a in range(a_count)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(edges)):
        pat = tuple(e for e, b in zip(edges, bits) if b)
        if (not is_acyclic(pat) or not set(q) <= {t for t, _ in pat}
                or not set(a_ne) <= {a for _, a in pat}):
            continue
        if masks is not None:
            labels = [-1] * a_count
            for t, a in pat:
                labels[a] &= masks[t][a]
            if not all(labels):
                continue
        out.append(pat)
    return out


def test_pruned_patterns_match_reference_sweep():
    rng = random.Random(9303)
    cut = 0
    for _ in range(300):
        t_count, a_count = rng.randint(0, 3), rng.randint(0, 3)
        q = [t for t in range(t_count) if rng.random() < 0.4]
        a_ne = [a for a in range(a_count) if rng.random() < 0.4]
        masks = [[rng.choice((0, 1, 2, 3, 4, 6, 7)) for _ in range(a_count)]
                 for _ in range(t_count)]
        assert (list(enumerate_acyclic_patterns(t_count, a_count, q, a_ne))
                == swept_patterns(t_count, a_count, q, a_ne))
        want = swept_patterns(t_count, a_count, q, a_ne, masks)
        assert list(enumerate_acyclic_patterns(t_count, a_count, q, a_ne, masks)) == want
        cut += len(swept_patterns(t_count, a_count, q, a_ne)) - len(want)
    assert cut > 1000  # the masks do empty labels


def test_pattern_sweep_stops_at_stranded_vertex():
    # Type 0 must be covered but every mask of its row is 0, so it has no
    # edge.  The sweep ends at once: it reads no mask after the edge filter.
    reads = []

    class Row(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    masks = [Row([0] * 4)] + [Row([-1] * 4) for _ in range(3)]
    assert list(enumerate_acyclic_patterns(4, 4, q=[0], masks=masks)) == []
    assert len(reads) == 16


def tss_feasible(pats, masks, type_labels, k, m):
    """The (pattern, alpha) pairs TSS accepts, activity labels the AND of
    the pattern's masks, in the order given."""
    for pat in pats:
        labels = [-1] * m
        for t, a in pat:
            labels[a] &= masks[t][a]
        alpha = _tss(type_labels + [1 if lab < 0 else lab for lab in labels],
                     [(t, k + a) for t, a in pat])
        if alpha is not None:
            yield pat, alpha


def reference_fpt_ta(inst):
    """fpt-ta without pruning: every pattern of every Q through the TSS
    kernel; the counts of the first feasible one, or None."""
    k, m = len(inst.types), len(inst.activities)
    masks = approval_masks(inst)
    for q_mask in range(1 << k):
        q_idx = [i for i in range(k) if q_mask >> i & 1]
        pruned, a_ne = gamma_masks(masks, [i for i in range(k) if i not in q_idx])
        type_labels = [1 << t.count if i in q_idx else (1 << t.count) - 1
                       for i, t in enumerate(inst.types)]
        for pat, alpha in tss_feasible(enumerate_acyclic_patterns(k, m, q_idx, a_ne),
                                       pruned, type_labels, k, m):
            rows = [[0] * m for _ in range(k)]
            for (t, a), val in zip(pat, alpha):
                rows[t][a] = val
            return tuple(tuple(r) for r in rows)
    return None


def test_fpt_ta_pruning_keeps_answers_and_witnesses():
    rng = random.Random(9304)
    no = 0
    for i in range(200):
        if i % 2:
            inst = random_sgasp_laddered(rng, max_acts=3)
        else:
            inst = random_sgasp(rng, max_types=3, max_acts=3, max_count=3)
        want = reference_fpt_ta(inst)
        res = solve_fpt_ta(inst)
        assert res.exists == (want is not None)
        assert (res.witness and res.witness.counts) == want
        no += want is None
    assert no >= 10


def test_trim_keeps_the_feasible_patterns_in_order():
    # per Q, the walk on trimmed masks keeps every TSS-feasible pattern of
    # the unmasked sweep, in its order and with its alpha
    rng = random.Random(9305)
    trimmed_qs = found = 0
    for i in range(300):
        if i % 2:
            inst = random_sgasp_laddered(rng, max_types=4, max_acts=2)
        else:
            inst = random_sgasp(rng, max_types=3, max_acts=3, max_count=3)
        k, m = len(inst.types), len(inst.activities)
        masks = approval_masks(inst)
        for q_mask in range(1 << k):
            q_idx = [i for i in range(k) if q_mask >> i & 1]
            pruned, a_ne = gamma_masks(masks, [i for i in range(k) if i not in q_idx])
            caps = [t.count if i in q_idx else t.count - 1 for i, t in enumerate(inst.types)]
            trimmed = [row.copy() for row in pruned]
            _trim_unfillable(trimmed, caps)
            trimmed_qs += trimmed != pruned
            type_labels = [1 << c if i in q_idx else (2 << c) - 1 for i, c in enumerate(caps)]
            want = list(tss_feasible(enumerate_acyclic_patterns(k, m, q_idx, a_ne),
                                     pruned, type_labels, k, m))
            got = list(tss_feasible(enumerate_acyclic_patterns(k, m, q_idx, a_ne, trimmed),
                                    trimmed, type_labels, k, m))
            assert got == want, (inst, q_mask)
            found += len(want)
    assert trimmed_qs > 1000 and found > 500, (trimmed_qs, found)


def test_fpt_ta_visits_only_the_empty_patterns_of_the_no_families():
    # C10's family(5) (no_family(3, [2, 2]) up to type ids) and sweep-no's
    # no_family(3, [2, 2, 2]): the trim drops the pair seeker's size 2,
    # which one agent cannot fill.  In Q it is then left without an edge;
    # out of Q it stays home and strikes size 1 everywhere.  The walk
    # visits each Q's empty pattern and nothing else.
    for inst in (no_family(3, [2, 2]), no_family(3, [2, 2, 2])):
        assert solve_fpt_ta(inst) == SolveResult(False, None, {"branches": 1 << len(inst.types)})


def test_fpt_ta_pruning_pin():
    # C10's NO family at N=50 (|T|=3, |A|=3): the pruned walk visits at most
    # a fifth of the unpruned patterns, summed over all Q
    acts = ["a1", "a2", "a3"]
    inst = sgasp_instance(acts, [("t1", 24, {a: {1} for a in acts}),
                                 ("t1b", 25, {a: {1} for a in acts}),
                                 ("t2", 1, {a: {2} for a in acts})])
    masks = approval_masks(inst)
    full = 0
    for q_mask in range(8):
        q_idx = [i for i in range(3) if q_mask >> i & 1]
        _, a_ne = gamma_masks(masks, [i for i in range(3) if i not in q_idx])
        full += sum(1 for _ in enumerate_acyclic_patterns(3, 3, q_idx, a_ne))
    res = solve_fpt_ta(inst)
    assert not res.exists
    assert res.stats["branches"] * 5 <= full


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
    # the default budget walks Bell(11) = 678,570 branches, not Bell(12)
    assert solve_fpt_n(sgasp_instance(["a"], [("t1", 10, {"a": {10}})])).exists
    inst = sgasp_instance(["a"], [("t1", 11, {"a": {11}})])
    with pytest.raises(BudgetError, match=r"Bell\(12\)"):
        solve_fpt_n(inst)
    assert solve_fpt_n(inst, budget=4_213_597).exists


def test_fpt_ta_refuses_fewer_steps_than_q_masks_up_front(monkeypatch):
    # every Q visits at least its empty pattern: 2^4 = 16 steps at least,
    # refused before any Q's masks are pruned
    inst = no_family(3, [2, 2, 2])

    def no_pruning(*args):
        raise AssertionError("a Q was set up")

    monkeypatch.setattr(solvers_sgasp, "gamma_masks", no_pruning)
    with pytest.raises(BudgetError, match="would enumerate 16 fpt-ta patterns .*, cap is 15"):
        solve_fpt_ta(inst, budget=15)


def test_xp_t_refuses_the_smpss_chain_table_up_front(monkeypatch):
    # smpss_to_sgasp(pc_to_smpss(pc)) has 12 types and 3,924 agents; its
    # subset-sum table would need prod(count + 1) ~ 7.3e22 positions
    pc = random_partitioned_clique(3, 2, 2, seed=1, planted=True)
    inst = smpss_to_sgasp(pc_to_smpss(pc))
    counts = [t.count for t in inst.types]
    assert len(counts) == 12 and sum(counts) == 3924
    size = math.prod(c + 1 for c in counts)
    assert size > 10 ** 22
    # refused before a single vector set or mask is built
    monkeypatch.setattr(solvers_sgasp, "_splits", None)
    monkeypatch.setattr(solvers_sgasp, "_MixedRadix", None)
    with pytest.raises(BudgetError, match=f"would enumerate {size} subset-sum table"):
        solve_xp_t(inst)
    with pytest.raises(BudgetError, match=f"{size} subset-sum table"):
        solve_xp_t(inst, budget=10 ** 22)


def test_fpt_n_partitions_in_order_without_reference_cycles():
    assert list(_partitions([0, 1, 2], [])) == [
        [(0, 1, 2)], [(0, 1), (2,)], [(0, 2), (1,)], [(0,), (1, 2)], [(0,), (1,), (2,)]]
    # NO with 3 agents: every home set and partition is walked, Bell(4) in all
    inst = sgasp_instance(["a"], [("s", 2, {"a": {1}}), ("p", 1, {"a": {2}})])
    gc.collect()
    gc.disable()
    try:
        assert solve_fpt_n(inst) == SolveResult(False, None, {"branches": 15})
        assert solve_fpt_n(sgasp_instance(["a"], [("t", 3, {"a": {3}})])).exists
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cover_matching_matches_brute_force():
    # every injective group -> activity map is tried; a map counts when each
    # group fits its activity and every a_ne activity is used
    rng = random.Random(9330)
    cases = [([], 0, 0), ([], 3, 0), ([], 3, 0b101), ([0b11] * 3, 2, 0)]
    for _ in range(600):
        m = rng.randint(0, 5)
        groups = rng.randint(0, 4) if rng.random() < 0.9 else 0
        fits = [rng.getrandbits(m) | rng.getrandbits(m) for _ in range(groups)]
        cases.append((fits, m, rng.getrandbits(m) & rng.getrandbits(m)))
    seen = {"yes": 0, "no": 0, "more groups": 0, "a_ne, no groups": 0}
    for fits, m, a_ne in cases:
        want = any(all(fits[g] >> a & 1 for g, a in enumerate(pick))
                   and not a_ne & ~sum(1 << a for a in pick)
                   for pick in itertools.permutations(range(m), len(fits)))
        got = _cover_matching(fits, m, a_ne)
        assert (got is not None) == want, (fits, m, a_ne)
        seen["yes" if want else "no"] += 1
        seen["more groups"] += len(fits) > m
        seen["a_ne, no groups"] += bool(a_ne) and not fits
        if got is not None:
            assert len(got) == len(fits) and len(set(got)) == len(got)
            assert all(fits[g] >> a & 1 for g, a in enumerate(got))
            assert not a_ne & ~sum(1 << a for a in got)
    assert min(seen.values()) >= 20, seen


def test_activity_vectors_lexicographic_and_acyclic():
    # the kernel's vectors: `_splits` with the types off `allowed` capped at
    # 0; the reference: every capped vector, zero off `allowed`, in tuple order
    rng = random.Random(9331)
    gc.collect()
    gc.disable()
    try:
        for _ in range(300):
            k = rng.randint(1, 4)
            caps = [rng.randint(0, 3) for _ in range(k)]
            allowed = sorted(rng.sample(range(k), rng.randint(0, k)))
            total = rng.randint(0, 8)
            box = [range(c + 1) if i in allowed else [0] for i, c in enumerate(caps)]
            want = [v for v in itertools.product(*box) if sum(v) == total]
            got = _splits(total, [c if i in allowed else 0 for i, c in enumerate(caps)])
            assert list(got) == want
        # no self-recursive closure left behind for the collector
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    for q, a_ne in ((["t9"], []), ([], ["z"])):  # unknown names are refused
        with pytest.raises(InvalidInstanceError):
            find_ir_assignment(inst, q, a_ne)


def test_ir_kernel_matches_reference_per_q():
    # every Q of xp-t, with no early exit: the kernel on gamma_masks equals
    # find_ir_assignment on gamma_preprocess and the set-form reference
    rng = random.Random(9320)
    insts = [random_sgasp(rng, max_types=3, max_acts=3, max_count=3) for _ in range(40)]
    insts += [random_sgasp_laddered(rng) for _ in range(40)]
    insts += [sgasp_instance([], [("t", 2, {})]), sgasp_instance(["a"], [])]
    found = 0
    for inst in insts:
        k = len(inst.types)
        tids = inst.type_ids()
        masks = approval_masks(inst)
        find = _ir_kernel([t.count for t in inst.types])
        for q_mask in range(1 << k):
            q_ids = {tids[i] for i in range(k) if q_mask >> i & 1}
            pruned, a_ne = gamma_masks(masks, [i for i in range(k) if not q_mask >> i & 1])
            picks = find(pruned, sum(1 << a for a in a_ne), q_mask)
            pinst, ne_ids = gamma_preprocess(inst, q_ids)
            assert ne_ids == tuple(inst.activities[a] for a in a_ne)
            want = find_ir_assignment(pinst, q_ids, ne_ids)
            assert ir_reference(pinst, q_ids, ne_ids) == (want.counts if want else None)
            if picks is None:
                assert want is None
                continue
            found += 1
            assert tuple(tuple(vec[i] for vec in picks) for i in range(k)) == want.counts
    assert found > 100


def test_ir_kernel_fold_vectors_spend_the_budget():
    # caps (2, 2): the table holds 9 positions, so a budget of 9 passes its
    # guard.  Both types approving sizes 1-4 at a and 1-3 at b hand the fold
    # vector sets of 9 and 8 (the zero vector included): 17 > 9 is refused.
    masks = [[0b11110, 0b1110], [0b11110, 0b1110]]
    with pytest.raises(BudgetError, match="17 > 9"):
        _ir_kernel([2, 2], budget=9)(masks, 0, 0b11)
    find = _ir_kernel([2, 2], budget=17)
    # the budget holds per fold: memoized sets count again, folds do not add up
    assert find(masks, 0, 0b11) == find(masks, 0, 0b11) == [(2, 2), (0, 0)]


def _cell(fn, name):
    """The value of free variable `name` of closure `fn`."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_ir_kernel_memo_stays_under_the_budget():
    # caps (2, 2), budget 20: many distinct mask columns would build far
    # more than 20 vectors over the folds; the memo is emptied instead of
    # growing, and the answers stay those of a kernel with a fresh memo
    rng = random.Random(9321)
    find = _ir_kernel([2, 2], budget=20)
    memo = _cell(_cell(find, "vector_set"), "set_memo")
    built = 0
    for _ in range(200):
        masks = [[rng.randrange(1, 32) << 1 for _ in range(2)] for _ in range(2)]
        a_ne, q_mask = rng.randrange(4), rng.randrange(4)
        before = set(memo)
        got = find(masks, a_ne, q_mask)
        built += sum(len(memo[key][0]) for key in set(memo) - before)
        assert sum(len(vecs) for vecs, _ in memo.values()) <= 20
        assert got == _ir_kernel([2, 2], budget=20)(masks, a_ne, q_mask)
    assert built > 10 * 20


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
