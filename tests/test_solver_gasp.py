import itertools
import random

import pytest

from conftest import (
    gasp_instance,
    ir_reference,
    lift_sgasp,
    random_gasp,
    random_gasp_windowed,
    random_sgasp,
    sgasp_instance,
)
from gasplab import budget, cli, formats, solver_gasp, solvers_sgasp
from gasplab.errors import BudgetError, DeadlineError, InternalSolverError, InvalidInstanceError
from gasplab.model import (
    EMPTY_ACTIVITY,
    HOME,
    StabilityReport,
    TypeCountAssignment,
    Violation,
    approval_masks,
    verify_gasp,
    verify_gasp_minimal,
)
from gasplab.oracle import oracle_gasp
from gasplab.solver_gasp import (
    IDLE_ACTIVITY,
    MinimalGuess,
    _candidates,
    _guess_reducer,
    gtosg_reduce,
    pull_back,
    solve_xp_gasp,
)
from gasplab.solvers_sgasp import _ir_kernel, find_ir_assignment, solve_fpt_ta


def x(rows):
    return TypeCountAssignment(tuple(tuple(r) for r in rows))


def solve_branch(inst, der):
    """One guess branch exactly as solve_xp_gasp runs it."""
    picked = find_ir_assignment(der.instance, der.instance.type_ids(), der.a_ne)
    if picked is None:
        return None
    return pull_back(inst, der, picked)


# The canonical unstable pair: a loner and a follower chasing each other
# around one activity.
NO_FIXTURE = gasp_instance(
    ["a"],
    [("t1", 1, {("a", 1): 2, ("a", 2): -1}),
     ("t2", 1, {("a", 2): 2, ("a", 1): -1})],
)


def test_reduce_pins_single_type():
    inst = gasp_instance(["a"], [("t", 1, {("a", 1): 1})])
    der = gtosg_reduce(inst, MinimalGuess({"t": ("a", 1)}))
    assert der.instance.activities == ("a", IDLE_ACTIVITY)
    assert der.instance.type_ids() == ("t#pin",)
    assert der.instance.types[0].prefs.sizes("a") == {1}
    assert der.a_ne == frozenset()
    assert der.consistent and der.removed == frozenset()
    assert solve_branch(inst, der) == x([[1]])


def test_reduce_home_guess_cannot_fill_forced_activity():
    # guessing home leaves the only agent idle, but its own taste for (a,1)
    # forces a nonempty; the branch must die
    inst = gasp_instance(["a"], [("t", 1, {("a", 1): 1})])
    der = gtosg_reduce(inst, MinimalGuess({"t": HOME}))
    assert der.instance.types[0].prefs.sizes(IDLE_ACTIVITY) == {1}
    assert der.instance.types[0].prefs.sizes("a") == frozenset()
    assert der.a_ne == {"a"}
    assert solve_branch(inst, der) is None


def test_reduce_top_guesses_realizable():
    inst = gasp_instance(
        ["a", "b"],
        [("t1", 2, {("a", 2): 5}), ("t2", 1, {("b", 1): 5})],
    )
    der = gtosg_reduce(inst, MinimalGuess({"t1": ("a", 2), "t2": ("b", 1)}))
    assert der.consistent and der.removed == frozenset()
    got = solve_branch(inst, der)
    assert got == x([[2, 0], [0, 1]])
    assert verify_gasp(inst, got).stable


def test_reduce_top_guesses_clashing_sizes():
    # both tops pin activity a to different sizes; not simultaneously
    # realizable, so the clash flags the guess inconsistent
    inst = gasp_instance(
        ["a"],
        [("t1", 2, {("a", 2): 5}), ("t2", 1, {("a", 1): 7})],
    )
    der = gtosg_reduce(inst, MinimalGuess({"t1": ("a", 2), "t2": ("a", 1)}))
    assert not der.consistent
    assert solve_branch(inst, der) is None


def test_reduce_readmits_struck_guess():
    # (a,1) is struck out (the type prefers (a,2)), yet guessed; residual
    # agents keep it, but lose every seat below the successor (a,2)
    inst = gasp_instance(
        ["a", "b"],
        [("t", 2, {("a", 1): 0, ("a", 2): 10, ("b", 1): 5, HOME: -5})],
    )
    der = gtosg_reduce(inst, MinimalGuess({"t": ("a", 1)}))
    assert der.removed == {("a", 1)}
    assert der.consistent
    rest = der.instance.types[der.instance.type_index()["t#rest"]]
    assert rest.prefs.sizes("a") == {1, 2}
    assert rest.prefs.sizes("b") == frozenset()  # (b,1) < (a,2), would desert
    assert der.a_ne == {"b"}
    assert solve_branch(inst, der) is None  # nobody can fill b

    der2 = gtosg_reduce(inst, MinimalGuess({"t": ("a", 2)}))
    assert der2.removed == frozenset()
    assert solve_branch(inst, der2) == x([[2, 0]])

    res = solve_xp_gasp(inst)
    assert res.exists and res.witness == x([[2, 0]])
    assert res.stats["branches"] == 1  # (a,2) is the best-ranked candidate


def test_reduce_flags_inconsistent_guess():
    # u's guessed (a,1) is struck out and t, pinned elsewhere, prefers the
    # successor (a,2): t's pinned agent would always desert into a
    inst = gasp_instance(
        ["a"],
        [("u", 1, {("a", 1): 5, ("a", 2): 8}), ("t", 1, {("a", 2): 9})],
    )
    der = gtosg_reduce(inst, MinimalGuess({"u": ("a", 1), "t": HOME}))
    assert der.removed == {("a", 1)}
    assert not der.consistent

    res = solve_xp_gasp(inst)
    assert res.exists and res.witness == x([[1], [1]])
    assert verify_gasp(inst, res.witness).stable


def test_solve_single_agent_yes():
    inst = gasp_instance(["a"], [("t", 1, {("a", 1): 1})])
    res = solve_xp_gasp(inst)
    assert res.exists and res.witness == x([[1]])


def test_solve_two_type_fixture_no():
    res = solve_xp_gasp(NO_FIXTURE)
    assert not res.exists and res.witness is None
    # every branch either skipped as inconsistent or infeasible
    assert res.stats == {"branches": 4, "skipped": 2}
    want = oracle_gasp(NO_FIXTURE)
    assert not want.exists and want.explored == 4


@pytest.mark.parametrize("alg", ["fpt-ta", "xp-t", "fpt-n", "xp-gasp"])
def test_solver_raises_when_its_witness_fails_reverification(alg, monkeypatch):
    """Every solver re-verifies its YES witness and calls a failure a bug
    rather than answering YES."""
    inst = sgasp_instance(["a"], [("t1", 2, {"a": {2}})])
    module, name = solvers_sgasp, "verify_sgasp"
    if alg == "xp-gasp":
        inst, module, name = lift_sgasp(inst), solver_gasp, "verify_gasp"
    assert cli._run_alg(alg, inst)[0]
    monkeypatch.setattr(module, name, lambda inst, x: StabilityReport(
        (Violation("ir", inst.types[0].id, "a", "planted"),)))
    with pytest.raises(InternalSolverError):
        cli._run_alg(alg, inst)


def test_solve_empty_instance():
    inst = gasp_instance([], [])
    res = solve_xp_gasp(inst)
    assert res.exists and res.witness == TypeCountAssignment(())


@pytest.mark.parametrize("activities", [[], ["a", "b"]])
def test_instance_without_types_counts_one_branch(activities):
    # the empty guess is the one leaf of the walk, as the empty Q, pattern,
    # partition and matrix are for the other deciders
    inst = gasp_instance(activities, [])
    res = solve_xp_gasp(inst)
    assert res.exists and res.witness == TypeCountAssignment(())
    assert res.stats == {"branches": 1, "skipped": 0}


def test_solve_type_cap():
    # each type's pool is (a, 1) and home: 2^5 guesses
    inst = gasp_instance(["a"], [(f"t{i}", 1, {("a", 1): 1}) for i in range(5)])
    with pytest.raises(BudgetError, match="32 xp-gasp guesses, cap is 31"):
        solve_xp_gasp(inst, budget=31)
    res = solve_xp_gasp(inst, budget=32)
    assert res.exists and verify_gasp(inst, res.witness).stable


def test_solve_refuses_the_guess_product_before_compiling(monkeypatch):
    # the 2^5 guesses are counted from the pool sizes; no entry is compiled
    inst = gasp_instance(["a"], [(f"t{i}", 1, {("a", 1): 1}) for i in range(5)])

    def no_compile(*args):
        raise AssertionError("a rank table was compiled")

    monkeypatch.setattr(solver_gasp, "_rank_table", no_compile)
    with pytest.raises(BudgetError, match="32 xp-gasp guesses, cap is 31"):
        solve_xp_gasp(inst, budget=31)


def test_compile_stops_at_an_expired_deadline(monkeypatch):
    inst = gasp_instance(["a"], [("t", 2, {("a", 1): 1, ("a", 2): 2})])
    now = [0.0]
    monkeypatch.setattr(budget, "_clock", lambda: now[0])
    with budget.deadline(1):
        _guess_reducer(inst)  # in time
        now[0] = 2
        with pytest.raises(DeadlineError, match="exceeded 1s"):
            _guess_reducer(inst)


def test_solve_requires_rank_instance():
    inst = sgasp_instance(["a"], [("t", 1, {"a": {1}})])
    with pytest.raises(InvalidInstanceError):
        solve_xp_gasp(inst)


def test_reduce_validates_guesses():
    inst = gasp_instance(
        ["a", "b"],
        [("t", 2, {("a", 1): 0, ("a", 2): 10, ("b", 1): 5, HOME: -5})],
    )
    with pytest.raises(InvalidInstanceError):  # size beyond the agent count
        gtosg_reduce(inst, MinimalGuess({"t": ("a", 3)}))
    with pytest.raises(InvalidInstanceError):  # unknown activity
        gtosg_reduce(inst, MinimalGuess({"t": ("c", 1)}))
    with pytest.raises(InvalidInstanceError):  # below home
        gtosg_reduce(inst, MinimalGuess({"t": ("b", 2)}))
    with pytest.raises(InvalidInstanceError):  # home only exists at size 1
        gtosg_reduce(inst, MinimalGuess({"t": (EMPTY_ACTIVITY, 2)}))
    with pytest.raises(InvalidInstanceError):  # must cover exactly the types
        gtosg_reduce(inst, MinimalGuess({}))
    for size in (1.5, True, "1"):  # refused, not truncated to an int
        with pytest.raises(InvalidInstanceError):
            MinimalGuess({"t": ("a", size)})
    # tied with home is a valid guess: it pins an agent, unlike HOME
    tied = gtosg_reduce(gasp_instance(["a"], [("t", 2, {("a", 1): 0})]),
                        MinimalGuess({"t": ("a", 1)}))
    assert tied.instance.types[0].prefs.sizes("a") == {1}
    rest = tied.instance.types[1].prefs
    assert rest.sizes(IDLE_ACTIVITY) == {1, 2}  # home ties the threshold


def test_reduce_rejects_idle_collision():
    inst = gasp_instance([IDLE_ACTIVITY], [("t", 1, {(IDLE_ACTIVITY, 1): 1})])
    with pytest.raises(InvalidInstanceError):
        gtosg_reduce(inst, MinimalGuess({"t": HOME}))


def test_xp_gasp_accepts_idle_activity(tmp_path, capsys):
    # the derived idle column is an index past the real activities, so a
    # real activity may carry the reserved name
    inst = gasp_instance([IDLE_ACTIVITY, "b"], [("t", 1, {(IDLE_ACTIVITY, 1): 2})])
    res = solve_xp_gasp(inst)
    assert res.exists == oracle_gasp(inst).exists is True
    assert res.witness == x([[1, 0]]) and verify_gasp(inst, res.witness).stable
    path = str(tmp_path / "idle.json")
    formats.save_instance(inst, path)
    assert cli.main(["solve", "--alg", "xp-gasp", "--in", path]) == 0
    assert '"@idle": 1' in capsys.readouterr().out


def _reference_masks(inst, der):
    """The derived approval masks with the idle column last, and a_ne as a
    bitmask over the source activities."""
    aidx = inst.activity_index()
    return approval_masks(der.instance), sum(1 << aidx[a] for a in der.a_ne)


def test_int_reduction_and_kernel_match_reference_per_guess():
    # every guess of the full product, inconsistent ones included, with no
    # early exit: the folded int reduction equals gtosg_reduce +
    # approval_masks, and the shared kernel
    # equals find_ir_assignment and the set-form reference on the derived
    # instance, witness included
    rng = random.Random(9420)
    insts = [random_gasp(rng, max_types=3, max_acts=2, max_count=3) for _ in range(50)]
    insts += [random_gasp_windowed(rng, max_types=3, max_acts=2, max_count=2) for _ in range(30)]
    insts += [lift_sgasp(random_sgasp(rng, max_types=3, max_acts=2, max_count=2))
              for _ in range(20)]
    insts += [gasp_instance([], [("t", 2, {}), ("u", 1, {})]), NO_FIXTURE]
    seen = {"tie": 0, "count1": 0, "no_acts": 0, "struck_ok": 0, "struck_bad": 0, "found": 0}
    for inst in insts:
        pools, caps, owner, root, fold, build = _guess_reducer(inst)
        assert [[e[0] for e in pool] for pool in pools] == [
            list(_candidates(inst, t)) for t in inst.types]
        find = _ir_kernel(caps)
        seen["count1"] += any(t.count == 1 for t in inst.types)
        seen["no_acts"] += not inst.activities
        for combo in itertools.product(*pools):
            alts = [e[0] for e in combo]
            guess = MinimalGuess({t.id: alt for t, alt in zip(inst.types, alts)})
            der = gtosg_reduce(inst, guess)
            state = root
            for entry in combo:
                state = fold(state, entry)
            *_, a_ne, consistent = state
            masks = build(combo, state)
            assert (masks, a_ne) == _reference_masks(inst, der)
            assert consistent == der.consistent
            assert caps == [t.count for t in der.instance.types]
            assert [inst.type_index()[der.origin[d]] for d in der.instance.type_ids()] == owner
            seen["tie"] += any(alt != HOME and t.prefs.rank(alt) == t.prefs.home_rank
                               for t, alt in zip(inst.types, alts))
            if der.removed:
                seen["struck_ok" if consistent else "struck_bad"] += 1
            if not consistent:
                continue
            picks = find(masks, a_ne, (1 << len(caps)) - 1)
            want = find_ir_assignment(der.instance, der.instance.type_ids(), der.a_ne)
            ref = ir_reference(der.instance, set(der.instance.type_ids()), der.a_ne)
            assert ref == (want.counts if want else None)
            if picks is None:
                assert want is None
                continue
            seen["found"] += 1
            rows = tuple(tuple(vec[d] for vec in picks) for d in range(len(caps)))
            assert rows == want.counts
    assert all(v > 0 for v in seen.values()), seen


def test_cut_counts_like_the_full_guess_product(monkeypatch):
    # branches and skipped are those of a guess-by-guess sweep with
    # gtosg_reduce up to the first feasible guess, though inconsistent
    # prefixes are cut whole, and the kernel runs on every consistent guess
    calls = []

    def counted(caps, limit=None):
        find = _ir_kernel(caps, limit)

        def wrapped(*args):
            calls.append(args)
            return find(*args)

        return wrapped

    monkeypatch.setattr(solver_gasp, "_ir_kernel", counted)
    rng = random.Random(9431)
    cut = 0
    for i in range(300):
        if i % 2:
            inst = random_gasp_windowed(rng, max_types=3, max_acts=2, max_count=2)
        else:
            inst = random_gasp(rng, max_types=3, max_acts=2, max_count=3)
        calls.clear()
        res = solve_xp_gasp(inst)
        branches = skipped = 0
        for combo in itertools.product(*(_candidates(inst, t) for t in inst.types)):
            branches += 1
            der = gtosg_reduce(inst, MinimalGuess(dict(zip(inst.type_ids(), combo))))
            if not der.consistent:
                skipped += 1
            elif solve_branch(inst, der) is not None:
                break
        assert res.stats == {"branches": branches, "skipped": skipped}, inst
        assert len(calls) == branches - skipped
        cut += skipped > 0
    assert cut >= 60, cut


def pins_clash(guess):
    """The clash rule on a guess: two pinned sizes at one activity, or more
    pins there than the pinned size."""
    sizes, pins = {}, {}
    for a, s in guess.values():
        if a != EMPTY_ACTIVITY:
            sizes.setdefault(a, set()).add(s)
            pins[a] = pins.get(a, 0) + 1
    return any(len(got) > 1 or pins[a] > min(got) for a, got in sizes.items())


def test_clashing_pins_have_no_derived_solution():
    # every guess the clash rule rejects is flagged inconsistent and its
    # derived instance, built anyway, has no solution
    rng = random.Random(9440)
    clashes = 0
    for i in range(1000):
        if i % 3 == 0:
            inst = random_gasp(rng, max_types=3, max_acts=2, max_count=3)
        elif i % 3 == 1:
            inst = random_gasp_windowed(rng, max_types=3, max_acts=2, max_count=2)
        else:
            inst = lift_sgasp(random_sgasp(rng, max_types=3, max_acts=2, max_count=2))
        for combo in itertools.product(*(_candidates(inst, t) for t in inst.types)):
            guess = dict(zip(inst.type_ids(), combo))
            if not pins_clash(guess):
                continue
            der = gtosg_reduce(inst, MinimalGuess(guess))
            assert not der.consistent, guess
            assert solve_branch(inst, der) is None, (inst, guess)
            clashes += 1
    assert clashes > 5000, clashes


def test_reduce_type_count_bound():
    rng = random.Random(9410)
    for _ in range(40):
        inst = random_gasp(rng, max_types=3, max_acts=2, max_count=3)
        der = gtosg_reduce(inst, MinimalGuess({t.id: HOME for t in inst.types}))
        assert len(der.instance.types) <= 2 * len(inst.types)
        assert der.instance.n == inst.n
        assert der.instance.kind == "sgasp"


def assert_guess_realized(inst, guess, witness):
    """The witness of a branch realizes its guess: the guessed alternative
    is experienced and nothing the type touches ranks below it."""
    sizes = witness.column_sums()
    aidx = inst.activity_index()
    for ti, t in enumerate(inst.types):
        ranks = [t.prefs.rank((a, sizes[aidx[a]]))
                 for a in inst.activities if witness.counts[ti][aidx[a]] > 0]
        if witness.row_sum(ti) < t.count:
            ranks.append(t.prefs.home_rank)
        low = min(ranks)
        choice = guess.choices[t.id]
        if choice == HOME:
            assert witness.row_sum(ti) < t.count
            assert low == t.prefs.home_rank
        else:
            aid, size = choice
            assert witness.counts[ti][aidx[aid]] > 0 and sizes[aidx[aid]] == size
            assert low == t.prefs.rank(choice) >= t.prefs.home_rank


def test_roundtrip_guess_realized():
    rng = random.Random(9411)
    hits = 0
    for _ in range(80):
        inst = random_gasp_windowed(rng)
        for combo in itertools.product(*(_candidates(inst, t) for t in inst.types)):
            guess = MinimalGuess({t.id: alt for t, alt in zip(inst.types, combo)})
            der = gtosg_reduce(inst, guess)
            if not der.consistent:
                continue
            got = solve_branch(inst, der)
            if got is None:
                continue
            assert verify_gasp(inst, got).stable
            assert_guess_realized(inst, guess, got)
            hits += 1
            break
    assert hits > 40


def test_oracle_agreement_fuzz():
    rng = random.Random(9401)
    yes = no = 0
    for i in range(220):
        if i % 2:
            inst = random_gasp_windowed(rng)
        else:
            inst = random_gasp(rng, max_types=2, max_acts=2, max_count=2)
        want = oracle_gasp(inst).exists
        res = solve_xp_gasp(inst)
        assert res.exists == want
        if want:
            yes += 1
            assert verify_gasp(inst, res.witness).stable
            assert verify_gasp_minimal(inst, res.witness).stable
        else:
            no += 1
    assert yes > 150 and no >= 3


def test_lifted_sgasp_agreement_fuzz():
    rng = random.Random(9402)
    for _ in range(100):
        inst = random_sgasp(rng, max_types=2, max_acts=2, max_count=2)
        lifted = lift_sgasp(inst)
        want = solve_fpt_ta(inst)
        res = solve_xp_gasp(lifted)
        assert res.exists == want.exists
        if res.exists:
            assert verify_gasp(lifted, res.witness).stable
            assert verify_gasp_minimal(lifted, res.witness).stable
    for _ in range(20):
        inst = random_sgasp(rng, max_types=3, max_acts=2, max_count=1)
        lifted = lift_sgasp(inst)
        assert solve_xp_gasp(lifted).exists == solve_fpt_ta(inst).exists


def test_tied_minimal_needs_pinning_regression():
    # fuzz-found: both stable assignments give t2 the minimal alternative
    # (a1,3), which ties its home rank while every t2 agent attends.
    # Collapsing the tie to a home guess parks a t2 agent idle and kills
    # both branches, turning a YES into a NO.
    inst = gasp_instance(
        ["a0", "a1"],
        [("t0", 2, {("a0", 1): -3, ("a0", 2): 3, ("a0", 3): -1,
                    ("a1", 1): 0, ("a1", 5): 0, HOME: 1}),
         ("t1", 1, {("a0", 1): -1, ("a0", 3): -1, ("a0", 4): 0,
                    ("a1", 1): -3, ("a1", 3): 2, ("a1", 4): -1, HOME: -3}),
         ("t2", 2, {("a0", 2): 2, ("a0", 3): -3, ("a0", 4): -2, ("a0", 5): -2,
                    ("a1", 1): 3, ("a1", 3): -1, ("a1", 4): 2, ("a1", 5): -2,
                    HOME: -1})],
    )
    assert oracle_gasp(inst).exists
    res = solve_xp_gasp(inst)
    assert res.exists
    assert verify_gasp(inst, res.witness).stable
    sizes = res.witness.column_sums()
    assert sizes[1] == 3 and res.witness.counts[2][1] == 2  # t2 fully at a1


def test_solve_determinism():
    rng = random.Random(9403)
    for _ in range(30):
        inst = random_gasp_windowed(rng)
        a, b = solve_xp_gasp(inst), solve_xp_gasp(inst)
        assert a.exists == b.exists and a.witness == b.witness
