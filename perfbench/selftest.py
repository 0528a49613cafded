"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, for seed 1:

1. the NO family behind `sweep-no` and `oracle-check` is NO, with its rank
   lift and its complete network, per the exhaustive oracles on small
   members;
2. the verdict checks catch a wrong answer and a witness that does not
   re-verify;
3. every op of every workload prints the same report (answer, witness,
   solver stats) untraced and traced, so the wrappers change nothing, and
   two traced calls give identical work counters;
4. two `run.py --trace 1` runs in fresh processes print identical counter
   metrics, and `BENCHMARK.json` lists exactly the metrics `run.py` prints.

Exits 0 when all hold, 1 otherwise.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import layers  # noqa: E402
from gasplab.oracle import oracle_gasp, oracle_ggasp, oracle_sgasp  # noqa: E402
from tracing import Tracer  # noqa: E402
from verdicts import check_first, normalize  # noqa: E402
from workloads import Op, build, complete_network, lift, no_family  # noqa: E402

# exact per-pass metrics: two runs of one seed must print the same values
EXACT = tuple(layers.CALLS) + layers.COUNTERS + tuple(layers.SHARES)

failures = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_family():
    for acts, seekers in ((1, [1, 1]), (2, [2, 1]), (2, [1, 1, 1])):
        inst = no_family(acts, seekers)
        name = f"|A|={acts} seekers={seekers}"
        expect(not oracle_sgasp(inst).exists, f"NO family is NO: {name}")
        expect(not oracle_gasp(lift(inst)).exists, f"its rank lift is NO: {name}")
        expect(not oracle_ggasp(complete_network(lift(inst))).exists,
               f"its complete network is NO: {name}")


def check_verdict_checks(workdir):
    wl = build("sweep-no", 1, workdir)
    op = next(o for o in wl.ops if o.alg == "xp-t")
    inst = wl.instances[op.path]
    session = bench.Session(1, wl)
    _, code, out, _ = session.call(op.argv)
    flipped = Op(op.alg, op.path, op.argv, True)
    try:
        check_first(flipped, inst, code, out)
        caught = False
    except ValueError:
        caught = True
    expect(caught, "a NO against an expected YES is a wrong verdict")
    # claim YES with the empty assignment: some seeker stays home and the
    # empty activities invite it, so the witness must fail re-verification
    doc = json.loads(out)
    doc.update(exists=True, witness={})
    plain = Op(op.alg, op.path, op.argv, None)
    try:
        check_first(plain, inst, code, json.dumps(doc))
        caught = False
    except ValueError:
        caught = True
    expect(caught, "a YES whose witness does not re-verify is a wrong verdict")


def check_wrappers(workload, seed, workdir):
    wl = build(workload, seed, workdir)
    session = bench.Session(seed, wl)
    tracer = Tracer()
    same_report = same_counts = True
    for i, op in enumerate(wl.ops):
        _, code, out, _ = session.call(op.argv)
        _, tcode, tout, _, agg, counts = session.call_traced(tracer, i)
        first = layers.exact(agg, counts)
        _, _, _, _, agg, counts = session.call_traced(tracer, i)
        if (code, normalize(out)) != (tcode, normalize(tout)):
            same_report = False
            print(f"     report differs when traced: {op.alg} {op.path}")
        if layers.exact(agg, counts) != first:
            same_counts = False
            print(f"     counters differ between traced calls: {op.alg} {op.path}")
    expect(same_report, f"{workload}: every op reports the same untraced and traced")
    expect(same_counts, f"{workload}: work counters repeat exactly")


def run_traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(seed):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.UNITS,
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    for workload in bench.WORKLOADS:
        a, b = run_traced(workload, seed), run_traced(workload, seed)
        ok = a is not None and b is not None and a["correct"] and b["correct"]
        expect(ok, f"{workload}: two traced runs succeed")
        if ok:
            expect(all(a["metrics"][k] == b["metrics"][k] for k in EXACT),
                   f"{workload}: exact counters equal across two runs of seed {seed}")


def main():
    seed = 1
    workdir = os.path.join(bench.WORK, f"selftest-pid{os.getpid()}")
    try:
        check_family()
        os.makedirs(os.path.join(workdir, "verdicts"))
        check_verdict_checks(os.path.join(workdir, "verdicts"))
        for workload in bench.WORKLOADS:
            os.makedirs(os.path.join(workdir, workload))
            check_wrappers(workload, seed, os.path.join(workdir, workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_runs(seed)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
