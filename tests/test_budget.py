"""Deadlines and work meters: every algorithm stops at an expired deadline
and at an exhausted work budget, a deadline holds only in the thread that
set it, an inner deadline never extends an outer one, and the product walk
counts cut subtrees as their leaves.  The clock is the test's, not the
wall's."""

import itertools
import math
import random
import threading

import pytest

from conftest import gasp_instance, no_family, sgasp_instance
from gasplab import budget, cli, formats
from gasplab.errors import BudgetError, DeadlineError, InvalidSettingError
from gasplab.generators import SMPSSInstance, random_partitioned_clique
from gasplab.model import NetworkInstance
from gasplab.solvers_sgasp import solve_fpt_ta, solve_xp_t

YES_SGASP = sgasp_instance(["a1"], [("t1", 2, {"a1": {1, 2}})])
NO_GASP = gasp_instance(["a"], [("t1", 1, {("a", 1): 2, ("a", 2): -1}),
                                ("t2", 1, {("a", 2): 2, ("a", 1): -1})])

# one small instance per kind some algorithm handles
INSTANCES = {
    "sgasp": YES_SGASP,
    "gasp": NO_GASP,
    "ggasp": NetworkInstance(NO_GASP, (("x1", "t1"), ("x2", "t2")), frozenset({("x1", "x2")})),
    "smpss": SMPSSInstance((3, 2), [[(1, 0), (2, 0)], [(0, 1), (0, 3)]]),
    "pclique": random_partitioned_clique(3, 2, 1, seed=3, planted=True),
}


@pytest.fixture
def clock(monkeypatch):
    """The deadline clock, read from and set through now[0]."""
    now = [0.0]
    monkeypatch.setattr(budget, "_clock", lambda: now[0])
    return now


def test_every_algorithm_stops_at_an_expired_deadline(clock):
    # a solver registered without a tick or check() fails here
    runs = [(alg, kind) for alg, (kinds, _) in cli.ALGORITHMS.items() for kind in sorted(kinds)]
    for alg, kind in runs:
        with budget.deadline(1):
            cli._run_alg(alg, INSTANCES[kind])  # in time: runs to the end
            clock[0] = 2
            with pytest.raises(DeadlineError, match="exceeded 1s"):
                cli._run_alg(alg, INSTANCES[kind])
        clock[0] = 0


def test_every_algorithm_stops_at_a_budget_of_one(capsys, tmp_path):
    # every fixture needs more than one step: fpt-ta 2 patterns, xp-t 2 Q
    # masks, fpt-n Bell(3) = 5 branches, xp-gasp 4 guesses, brute more
    # than one matrix, search node or clique combination
    runs = [(alg, kind) for alg, (kinds, _) in cli.ALGORITHMS.items() for kind in sorted(kinds)]
    for alg, kind in runs:
        with pytest.raises(BudgetError) as exc:
            cli._run_alg(alg, INSTANCES[kind], budget=1)
        assert not isinstance(exc.value, DeadlineError), (alg, kind)
        path = str(tmp_path / f"{kind}.json")
        formats.save_instance(INSTANCES[kind], path)
        assert cli.main(["solve", "--alg", alg, "--in", path, "--budget", "1"]) == 3
        assert "work budget exhausted" in capsys.readouterr().err, (alg, kind)


def test_fpt_ta_walk_checks_the_deadline(clock, capsys, tmp_path):
    # no_family(3, [2, 2, 2]): no Q yields a pattern (see
    # test_fpt_ta_visits_only_the_empty_patterns_of_the_no_families), so
    # only the walk's own ticks can stop the sweep
    inst = no_family(3, [2, 2, 2])
    with budget.deadline(1):
        clock[0] = 2
        with pytest.raises(DeadlineError, match="exceeded 1s"):
            solve_fpt_ta(inst)
    path = str(tmp_path / "no.json")
    formats.save_instance(inst, path)
    assert cli.main(["solve", "--alg", "fpt-ta", "--in", path, "--budget", "2"]) == 3
    assert "work budget exhausted" in capsys.readouterr().err
    # 2^|T| = 4 empty patterns fit the budget of 4, so the refusal up front
    # passes; the NO sweep visits 9 patterns and the walk's ticks stop it
    inst = sgasp_instance(["a"], [("t0", 1, {"a": {1, 3}}), ("t1", 2, {"a": {1, 2}})])
    assert solve_fpt_ta(inst).stats == {"branches": 9}
    formats.save_instance(inst, path)
    assert cli.main(["solve", "--alg", "fpt-ta", "--in", path, "--budget", "4"]) == 3
    assert "work budget exceeded: 5 > 4 steps" in capsys.readouterr().err


def test_deadline_holds_only_in_its_own_thread(clock):
    answers = []
    with budget.deadline(1):
        clock[0] = 2
        worker = threading.Thread(target=lambda: answers.append(solve_xp_t(YES_SGASP).exists))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        with pytest.raises(DeadlineError):
            solve_xp_t(YES_SGASP)
    assert answers == [True]


def test_inner_deadline_never_extends_the_outer_one(clock):
    with budget.deadline(1):
        for inner in (100, 0, None):
            with budget.deadline(inner):
                clock[0] = 2
                with pytest.raises(DeadlineError, match="exceeded 1s"):
                    budget.check()
            clock[0] = 0
        with budget.deadline(0.5):  # a shorter inner one does apply
            clock[0] = 0.75
            with pytest.raises(DeadlineError, match="exceeded 0.5s"):
                budget.check()
        budget.check()  # and ends with its block
    clock[0] = 10 ** 9
    budget.check()  # no deadline outside


@pytest.mark.parametrize("seconds", [-1, float("nan"), float("inf"), 1e10])
def test_deadline_refuses_bad_seconds(seconds):
    with pytest.raises(InvalidSettingError, match="deadline"):
        with budget.deadline(seconds):
            pass


def test_meter_without_limit_still_checks_the_deadline(clock):
    meter = budget.WorkMeter()
    meter.tick(10 ** 12)
    assert meter.spent == 10 ** 12
    with pytest.raises(BudgetError, match="3 > 2"):
        budget.WorkMeter(2).tick(3)
    with budget.deadline(1):
        clock[0] = 1
        with pytest.raises(DeadlineError):
            meter.tick()


def test_walk_yields_the_uncut_leaves_in_product_order():
    rng = random.Random(7301)
    for _ in range(300):
        pools = [[rng.randrange(4) for _ in range(rng.randint(0, 3))]
                 for _ in range(rng.randint(0, 4))]
        # a random cut per prefix; a leaf survives when no prefix of it is cut
        cut = {p for d in range(1, len(pools) + 1)
               for p in itertools.product(*pools[:d]) if rng.random() < 0.25}

        def step(state, item, depth):
            assert depth == len(state)
            state += (item,)
            return None if state in cut else state

        meter = budget.WorkMeter()
        got = []
        for items, state in budget.walk(pools, (), step, meter):
            assert tuple(items) == state
            got.append((state, meter.spent))
        want = [(leaf, i + 1) for i, leaf in enumerate(itertools.product(*pools))
                if not any(leaf[:d] in cut for d in range(1, len(leaf) + 1))]
        assert got == want, pools
        assert meter.spent == math.prod(map(len, pools))


def test_walk_cut_checks_the_deadline(clock):
    meter = budget.WorkMeter()
    with budget.deadline(1):
        clock[0] = 2
        with pytest.raises(DeadlineError, match="exceeded 1s"):
            next(budget.walk([[0, 1], [0, 1]], None, lambda state, item, depth: None, meter))
    assert meter.spent == 2  # the first cut ticked its two leaves at once
