"""End-to-end command tests: every subcommand through main(argv), exit
codes per the documented table, and one subprocess check of the installed
console script."""

import csv
import itertools
import json
import subprocess
import threading

import pytest

from conftest import gasp_instance, sgasp_instance
from gasplab import cli, formats
from gasplab.generators import SMPSSInstance, random_partitioned_clique
from gasplab.model import NetworkInstance


# size 1 approved too, else all-home is stable and the witness is empty
YES_SGASP = sgasp_instance(["a1"], [("t1", 2, {"a1": {1, 2}})])
NO_GASP = gasp_instance(
    ["a"],
    [("t1", 1, {("a", 1): 2, ("a", 2): -1}),
     ("t2", 1, {("a", 2): 2, ("a", 1): -1})],
)


def write(path, obj):
    formats.save_instance(obj, path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------------ solve

def test_solve_yes_fixture_with_witness(tmp_path, capsys):
    inst = write(tmp_path / "i.json", YES_SGASP)
    wpath = str(tmp_path / "w.json")
    code, out, _ = run(capsys, "solve", "--alg", "fpt-ta", "--in", inst,
                       "--witness", wpath)
    assert code == 0
    report = json.loads(out)
    assert report["exists"] is True
    assert report["witness"] == {"t1": {"a1": 2}}
    assert report["stats"]["branches"] >= 1
    # the emitted witness file passes verify
    code, out, _ = run(capsys, "verify", "--in", inst, "--assignment", wpath)
    assert code == 0
    assert json.loads(out)["stable"] is True


def test_solve_no_fixture(tmp_path, capsys):
    inst = write(tmp_path / "i.json", NO_GASP)
    code, out, _ = run(capsys, "solve", "--alg", "xp-gasp", "--in", inst)
    assert code == 0
    report = json.loads(out)
    assert report["exists"] is False and report["witness"] is None


def test_solve_kind_mismatch(tmp_path, capsys):
    inst = write(tmp_path / "i.json", NO_GASP)
    code, _, err = run(capsys, "solve", "--alg", "fpt-ta", "--in", inst)
    assert code == 2
    assert "does not handle" in err


def test_solve_missing_and_malformed_files(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", "--alg", "fpt-ta", "--in",
                     str(tmp_path / "ghost.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "solve", "--alg", "fpt-ta", "--in", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_solve_brute_on_every_kind(tmp_path, capsys):
    pc = random_partitioned_clique(3, 2, 1, seed=3, planted=True)
    jobs = [
        ("s.json", YES_SGASP, True),
        ("g.json", NO_GASP, False),
        ("pc.json", pc, True),
    ]
    for name, obj, expect in jobs:
        inst = write(tmp_path / name, obj)
        code, out, _ = run(capsys, "solve", "--alg", "brute", "--in", inst)
        assert code == 0
        assert json.loads(out)["exists"] is expect


def test_solve_brute_smpss_and_ggasp(tmp_path, capsys):
    code = cli.main(["gen", "pc-smpss", "--k", "3", "--n", "2", "--m", "1",
                     "--planted", "--seed", "5", "--out", str(tmp_path / "s.json")])
    assert code == 0
    code = cli.main(["solve", "--alg", "brute", "--in", str(tmp_path / "s.json")])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads("\n".join(out))
    assert report["exists"] is True
    assert len(report["witness"]) == 21  # one chosen vector per set

    code = cli.main(["gen", "random-ggasp", "--types", "2", "--activities", "1",
                     "--agents", "3", "--seed", "2", "--out", str(tmp_path / "n.json")])
    assert code == 0
    code = cli.main(["solve", "--alg", "brute", "--in", str(tmp_path / "n.json")])
    assert code == 0


def test_solve_brute_smpss_unreachable_target(tmp_path, capsys):
    inst = write(tmp_path / "s.json",
                 SMPSSInstance((3, 2), [[(1, 0), (2, 0)], [(0, 1), (0, 3)]]))
    code, out, _ = run(capsys, "solve", "--alg", "brute", "--in", inst)
    assert code == 0
    assert json.loads(out)["exists"] is False
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", inst, "--budget", "1")
    assert code == 3
    assert "budget" in err


# Inputs deeper than Python's recursion limit end with a documented code.

@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """`gen` files with one agent and 1,000 activities, sgasp and gasp."""
    folder = tmp_path_factory.mktemp("wide")
    paths = {}
    for kind in ("sgasp", "gasp"):
        paths[kind] = str(folder / f"{kind}.json")
        assert cli.main(["gen", f"random-{kind}", "--types", "1", "--activities", "1000",
                         "--agents", "1", "--seed", "1", "--out", paths[kind]]) == 0
    return paths


@pytest.mark.parametrize("kind, alg", [("sgasp", "brute"), ("sgasp", "fpt-n"),
                                       ("gasp", "brute")])
def test_solve_one_agent_on_1000_activities(wide_files, capsys, kind, alg):
    code, out, _ = run(capsys, "solve", "--alg", alg, "--in", wide_files[kind])
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_solve_brute_on_1068_smpss_sets_spends_its_budget(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert cli.main(["gen", "pc-smpss", "--k", "8", "--n", "10", "--m", "5", "--seed", "1",
                     "--planted", "--out", path]) == 0
    assert len(formats.load_instance(path).sets) == 1068
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", path, "--budget", "200000")
    assert code == 3
    assert "budget" in err


def test_solve_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "i.json"
    write(path, YES_SGASP)
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text(path.read_text().rstrip()[:-1] + f', "meta": {deep}}}')
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_solve_budget_exit(tmp_path, capsys):
    inst = write(tmp_path / "i.json", YES_SGASP)
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", inst,
                       "--budget", "1")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
def test_budget_flag_must_be_positive_int(tmp_path, capsys, command, value):
    inst = write(tmp_path / "i.json", YES_SGASP)
    suite = tmp_path / "suite.txt"
    suite.write_text(inst + "\n")
    source = ["--in", inst] if command == "solve" else ["--suite", str(suite)]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--alg", "brute", *source, "--budget", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "--budget" in out.err and "integer >= 1" in out.err
    assert "Traceback" not in out.err and out.out == ""


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("value", ["0", "-3", "1.5", "abc"])
def test_budget_env_must_be_positive_int(tmp_path, capsys, monkeypatch, command, value):
    inst = write(tmp_path / "i.json", YES_SGASP)
    suite = tmp_path / "suite.txt"
    suite.write_text(inst + "\n")
    source = ["--in", inst] if command == "solve" else ["--suite", str(suite)]
    monkeypatch.setenv("GASPLAB_BUDGET", value)
    code, out, err = run(capsys, command, "--alg", "brute", *source)
    assert code == 2
    assert "GASPLAB_BUDGET" in err and "integer >= 1" in err
    assert "Traceback" not in err and out == ""


def test_budget_flag_beats_env(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path / "i.json", YES_SGASP)
    monkeypatch.setenv("GASPLAB_BUDGET", "1")
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", inst)
    assert code == 3 and "cap is 1" in err
    code, out, _ = run(capsys, "solve", "--alg", "brute", "--in", inst,
                       "--budget", "1000000")
    assert code == 0 and json.loads(out)["exists"] is True


def test_solve_structural_caps_raisable(tmp_path, capsys):
    # 12 agents take Bell(13) = 27,644,437 fpt-n branches, over the default
    # budget; --budget lifts it.  All-home is stable here (nobody approves
    # size 1), and it is branched on first.
    inst = write(tmp_path / "i.json",
                 sgasp_instance(["a1"], [("t1", 12, {"a1": {12}})]))
    code, _, err = run(capsys, "solve", "--alg", "fpt-n", "--in", inst)
    assert code == 3 and "work budget exhausted" in err
    code, out, _ = run(capsys, "solve", "--alg", "fpt-n", "--in", inst,
                       "--budget", "27644437")
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_solve_xp_t_refuses_the_smpss_chain(tmp_path, capsys):
    # 12 types, 3,924 agents: the subset-sum table is refused before it is
    # built, instead of the process running out of memory
    s, g = str(tmp_path / "s.json"), str(tmp_path / "g.json")
    assert cli.main(["gen", "pc-smpss", "--k", "3", "--n", "2", "--m", "2", "--seed", "1",
                     "--planted", "--out", s]) == 0
    assert cli.main(["gen", "smpss-sgasp", "--in", s, "--out", g]) == 0
    code, out, err = run(capsys, "solve", "--alg", "xp-t", "--in", g, "--timeout", "60")
    assert code == 3 and out == ""
    assert "work budget exhausted" in err and "subset-sum table positions" in err


def chasing_network():
    # loners and followers chasing each other across six activities: no
    # stable outcome, so brute force sweeps all 7^7 agent assignments, about
    # 0.3 s with the oracle's cut on a 2-core x86-64 VM, well past the
    # timeouts below
    acts = [f"a{i}" for i in range(6)]
    ranks1 = {(a, 1): 2 for a in acts} | {(a, 2): -1 for a in acts}
    ranks2 = {(a, 2): 2 for a in acts} | {(a, 1): -1 for a in acts}
    base = gasp_instance(acts, [("t1", 4, ranks1), ("t2", 3, ranks2)])
    ids = [(f"x{i}", "t1" if i < 4 else "t2") for i in range(7)]
    links = frozenset((u, v) for (u, _), (v, _) in itertools.combinations(ids, 2))
    return NetworkInstance(base, tuple(ids), links)


def test_solve_timeout_exit(tmp_path, capsys):
    inst = write(tmp_path / "n.json", chasing_network())
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", inst,
                       "--timeout", "0.05")
    assert code == 3
    assert "timed out" in err


def test_solve_timeout_off_the_main_thread(tmp_path, capsys):
    # the deadline needs no signal handler, so a worker thread may call main
    for name, obj, alg, want in (("n.json", chasing_network(), "brute", 3),
                                 ("i.json", YES_SGASP, "fpt-ta", 0)):
        inst = write(tmp_path / name, obj)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(cli.main(
            ["solve", "--alg", alg, "--in", inst, "--timeout", "0.05"])))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert codes == [want]
        assert ("timed out" in capsys.readouterr().err) == (want == 3)


def yes_source(tmp_path, command):
    """The input arguments of `solve` or `bench` for YES_SGASP."""
    inst = write(tmp_path / "i.json", YES_SGASP)
    suite = tmp_path / "suite.txt"
    suite.write_text(inst + "\n")
    return ["--in", inst] if command == "solve" else ["--suite", str(suite)]


def bad_flag_exit(tmp_path, capsys, command, flag, value):
    """The exit code and stderr of solve/bench on YES_SGASP with one bad flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--alg", "fpt-n", *yes_source(tmp_path, command), flag, value])
    out = capsys.readouterr()
    assert "Traceback" not in out.err and out.out == ""
    return exc.value.code, out.err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("flag", ["--max-agents", "--max-types"])
@pytest.mark.parametrize("value", ["-1", "-5", "x"])
def test_caps_must_be_nonneg_int(tmp_path, capsys, command, flag, value):
    # the structural caps are retired in favour of --budget: whatever their
    # value, an old command line is an input error, not silently uncapped
    code, err = bad_flag_exit(tmp_path, capsys, command, flag, value)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e30", "-1", "abc"])
def test_timeout_must_be_finite_seconds(tmp_path, capsys, command, value):
    code, err = bad_flag_exit(tmp_path, capsys, command, "--timeout", value)
    assert code == 2
    assert "--timeout" in err and "seconds" in err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_timeout_accepts_zero_and_seconds(tmp_path, capsys, command):
    source = yes_source(tmp_path, command)
    for value in ("0", "30", "0.5"):
        code, _, _ = run(capsys, command, "--alg", "fpt-n", *source, "--timeout", value)
        assert code == 0


def test_solve_witness_flag_rejected_off_kind(tmp_path, capsys):
    inst = write(tmp_path / "pc.json", random_partitioned_clique(3, 2, 1, seed=3))
    code, _, err = run(capsys, "solve", "--alg", "brute", "--in", inst,
                       "--witness", str(tmp_path / "w.json"))
    assert code == 2
    assert "witness files" in err


# ----------------------------------------------------------------------- verify

def test_verify_violation_listed(tmp_path, capsys):
    inst = write(tmp_path / "i.json", YES_SGASP)
    wpath = tmp_path / "w.json"
    # leaves one agent home, and home agents want to join at size 2
    wpath.write_text(formats.dumps({"format": "gasplab-witness", "version": 1,
                                    "kind": "sgasp", "counts": {"t1": {"a1": 1}}}))
    code, out, _ = run(capsys, "verify", "--in", inst, "--assignment", str(wpath))
    assert code == 1
    report = json.loads(out)
    assert report["stable"] is False
    assert report["violations"][0]["kind"] == "deviation"
    assert report["violations"][0]["subject"] == "t1"


def test_verify_unresolved_ids(tmp_path, capsys):
    inst = write(tmp_path / "i.json", YES_SGASP)
    wpath = tmp_path / "w.json"
    wpath.write_text(formats.dumps({"format": "gasplab-witness", "version": 1,
                                    "kind": "sgasp", "counts": {"zz": {"a1": 1}}}))
    code, _, err = run(capsys, "verify", "--in", inst, "--assignment", str(wpath))
    assert code == 2
    assert "unknown type" in err


def test_verify_rejects_unverifiable_kind(tmp_path, capsys):
    inst = write(tmp_path / "pc.json", random_partitioned_clique(3, 2, 1, seed=3))
    code, _, err = run(capsys, "verify", "--in", inst, "--assignment", inst)
    assert code == 2
    assert "no verifier" in err


# -------------------------------------------------------------------------- gen

def test_gen_sidon_stdout(capsys):
    code, out, _ = run(capsys, "gen", "sidon", "--length", "5")
    assert code == 0
    assert json.loads(out) == [1, 2, 4, 8, 13]


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_gen_sidon_length_must_be_positive_int(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "sidon", "--length", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "--length" in out.err and "integer >= 1" in out.err
    assert "Traceback" not in out.err and out.out == ""


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "random-sgasp", "--types", "2", "--activities", "2",
            "--agents", "5", "--seed", "7"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = formats.load_instance(a)
    assert inst.n == 5 and len(inst.types) == 2


def test_gen_pc_gasp_fixture_counts_and_witness(tmp_path, capsys):
    inst_path = str(tmp_path / "g.json")
    wpath = str(tmp_path / "w.json")
    code = cli.main(["gen", "pc-gasp", "--k", "3", "--n", "2", "--m", "1",
                     "--planted", "--seed", "4", "--out", inst_path,
                     "--witness", wpath])
    assert code == 0
    inst = formats.load_instance(inst_path)
    assert len(inst.activities) == 6
    assert len(inst.types) == 7
    assert inst.n == 25
    code, out, _ = run(capsys, "verify", "--in", inst_path, "--assignment", wpath)
    assert code == 0
    assert json.loads(out)["stable"] is True


def test_gen_pc_ggasp_witness_pipeline(tmp_path, capsys):
    inst_path = str(tmp_path / "n.json")
    wpath = str(tmp_path / "w.json")
    code = cli.main(["gen", "pc-ggasp", "--k", "3", "--n", "2", "--m", "2",
                     "--planted", "--seed", "4", "--out", inst_path,
                     "--witness", wpath])
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", inst_path, "--assignment", wpath)
    assert code == 0

    # perturbation: pull one walker off its pinned activity
    doc = json.loads(open(wpath).read())
    moved = next(a for a, x in doc["assignment"].items() if x == "a1")
    doc["assignment"][moved] = "@empty"
    wpath2 = tmp_path / "w2.json"
    wpath2.write_text(formats.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", inst_path,
                       "--assignment", str(wpath2))
    assert code == 1
    assert json.loads(out)["violations"]


def test_gen_witness_needs_planting(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "pc-gasp", "--k", "3", "--n", "2", "--m", "1",
                       "--seed", "4", "--out", str(tmp_path / "g.json"),
                       "--witness", str(tmp_path / "w.json"))
    assert code == 2
    assert "no planted witness" in err


def test_gen_chain_pc_smpss_sgasp(tmp_path, capsys):
    pc_path = str(tmp_path / "pc.json")
    write(pc_path, random_partitioned_clique(3, 2, 1, seed=8, planted=True))
    s_path = str(tmp_path / "s.json")
    assert cli.main(["gen", "pc-smpss", "--in", pc_path, "--out", s_path]) == 0
    g_path = str(tmp_path / "g.json")
    assert cli.main(["gen", "smpss-sgasp", "--in", s_path, "--out", g_path]) == 0
    inst = formats.load_instance(g_path)
    assert inst.kind == "sgasp"
    assert inst.meta["source"] == "smpss_to_sgasp"


def test_gen_source_argument_errors(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "pc-smpss", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "--k/--n/--m" in err
    # rejections from the generator itself propagate as input errors
    code, _, err = run(capsys, "gen", "pc-smpss", "--k", "2", "--n", "2", "--m", "1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2


# ------------------------------------------------------------------------ bench

def bench_suite(tmp_path, instances):
    paths = []
    for i, obj in enumerate(instances):
        p = tmp_path / f"i{i}.json"
        formats.save_instance(obj, p)
        paths.append(p.name)
    suite = tmp_path / "suite.txt"
    suite.write_text("# fuzz fixtures\n" + "\n".join(paths) + "\n")
    return str(suite)


def test_bench_agreement_csv(tmp_path, capsys):
    suite = bench_suite(tmp_path, [
        YES_SGASP,
        sgasp_instance(["a1", "a2"], [("t1", 2, {"a1": {2}, "a2": {1}})]),
        sgasp_instance(["a1"], [("t1", 3, {"a1": {1, 3}})]),
    ])
    out_csv = str(tmp_path / "bench.csv")
    code = cli.main(["bench", "--suite", suite, "--alg", "fpt-ta,xp-t,brute",
                     "--out", out_csv])
    assert code == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 9
    by_inst = {}
    for r in rows:
        by_inst.setdefault(r["instance"], set()).add(r["answer"])
        assert float(r["wall_ms"]) >= 0
    assert all(len(v) == 1 for v in by_inst.values())


def test_bench_empty_suite(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("# nothing\n")
    code, out, _ = run(capsys, "bench", "--suite", str(suite), "--alg", "brute")
    assert code == 0
    assert out.strip() == "instance,algorithm,answer,wall_ms,branches"


def test_bench_missing_file(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("ghost.json\n")
    code, _, _ = run(capsys, "bench", "--suite", str(suite), "--alg", "brute")
    assert code == 2


def test_bench_budget_marker(tmp_path, capsys):
    suite = bench_suite(tmp_path, [YES_SGASP])
    out_csv = str(tmp_path / "bench.csv")
    code = cli.main(["bench", "--suite", suite, "--alg", "fpt-ta,brute",
                     "--budget", "1", "--out", out_csv])
    assert code == 3
    rows = list(csv.DictReader(open(out_csv)))
    answers = {r["algorithm"]: r["answer"] for r in rows}
    assert answers["brute"] == "budget"
    assert answers["fpt-ta"] == "budget"  # it needs 2 patterns here


def test_bench_structural_caps(tmp_path, capsys):
    # bench hands --budget to the solvers: fpt-n would walk Bell(4) = 15
    # branches on 3 agents, xp-gasp 2 x 2 guesses on NO_GASP
    three = sgasp_instance(["a1"], [("t1", 3, {"a1": {1, 3}})])
    for alg, inst, cap, answer in (("fpt-n", three, ["--budget", "14"], "yes"),
                                   ("xp-gasp", NO_GASP, ["--budget", "3"], "no")):
        suite = bench_suite(tmp_path, [inst])
        for extra, code_want, cell in (([], 0, answer), (cap, 3, "budget")):
            code, out, _ = run(capsys, "bench", "--suite", suite, "--alg", alg, *extra)
            assert code == code_want
            assert [r["answer"] for r in csv.DictReader(out.splitlines())] == [cell]


def test_bench_timeout_cell(tmp_path, capsys):
    suite = bench_suite(tmp_path, [chasing_network()])
    code, out, _ = run(capsys, "bench", "--suite", suite, "--alg", "brute",
                       "--timeout", "0.05")
    assert code == 3
    assert [r["answer"] for r in csv.DictReader(out.splitlines())] == ["timeout"]


def test_bench_algorithm_names_checked(tmp_path, capsys):
    suite = bench_suite(tmp_path, [YES_SGASP])
    code, out, err = run(capsys, "bench", "--suite", suite, "--alg", "fpt-ta,nope")
    assert code == 2 and out == ""
    assert "unknown algorithm 'nope'" in err
    code, out, err = run(capsys, "bench", "--suite", suite, "--alg", ",")
    assert code == 2 and out == ""
    assert "no algorithms given" in err


def test_bench_disagreement(tmp_path, capsys, monkeypatch):
    suite = bench_suite(tmp_path, [YES_SGASP])
    real = cli._run_alg

    def lying(alg, inst, budget=None):
        exists, w, stats = real(alg, inst, budget)
        if alg == "xp-t":
            return not exists, None, stats
        return exists, w, stats

    monkeypatch.setattr(cli, "_run_alg", lying)
    code = cli.main(["bench", "--suite", suite, "--alg", "fpt-ta,xp-t",
                     "--out", str(tmp_path / "b.csv")])
    assert code == 1


# ------------------------------------------------------------------- entry point

def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "solve" in capsys.readouterr().out


def test_console_script_runs():
    proc = subprocess.run(["gasplab", "gen", "sidon", "--length", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [1, 2, 4, 8, 13]
