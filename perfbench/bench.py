"""gasplab benchmark: seeded closed-loop `gasplab solve` / `verify` workloads.

    python3 perfbench/run.py --workload sweep-no --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds `src/gasplab`.  Set-up
writes the workload's instance files under `.perfbench_work/` at the root
of the checkout.  One client, one process, one thread: each operation is
one in-process `gasplab.cli.main([...])` call, and the next starts only
after it returns.  An untimed warm-up pass runs every operation once and
its outputs are checked in full; every later output must repeat them.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every
operation twice in a row, untraced and traced (alternating which goes
first), and prints the per-layer metrics (see layers.py) plus the
tracing overhead.  Spans and a copy of the result go to
`.perfbench_work/results/`.  The last line of standard output is one JSON
object; a wrong verdict or an output that changes between repetitions
sets "correct" to false and the exit code to 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import gasplab.cli
import layers
from gasplab.errors import GasplabError
from tracing import Tracer
from verdicts import check_first, disagreements, normalize
from workloads import build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("sweep-no", "random-yes", "oracle-check")
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
MIN_OPS = 200   # so that at least 10 timed ops lie beyond the 95th percentile

_clock = time.perf_counter


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _fingerprint(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
    }


class Session:
    """One workload's ops, their canonical outputs and the checks on them."""

    def __init__(self, seed, wl):
        self.seed = seed
        self.ops = wl.ops
        self.instances = wl.instances
        self.canon = {}       # op index -> normalized first output
        self.verdicts = {}    # path -> {alg: exists}
        self.errors = []      # wrong verdicts and outputs that changed
        self.failed_ops = set()
        self.attempted = 0
        self.failed = 0

    def call(self, argv):
        """(seconds, exit code or None on a crash, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = _clock()
            try:
                code = gasplab.cli.main(list(argv))
            except SystemExit as exc:   # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:   # a crash is a failed op, reported below
                code = None
                err.write(traceback.format_exc())
            end = _clock()
        return end - start, code, out.getvalue(), err.getvalue()

    def call_traced(self, tracer, i):
        """`call` of op i with the layer wrappers installed; also returns
        the op's aggregates and counters."""
        tracer.begin(i)
        tracer.install()
        try:
            result = self.call(self.ops[i].argv)
        finally:
            tracer.uninstall()
        return result + tracer.end()

    def _name(self, i):
        op = self.ops[i]
        return f"alg={op.alg} file={os.path.relpath(op.path, ROOT)} seed={self.seed}"

    def record(self, i, code, stdout, stderr, timed):
        """Count and check one op's outcome; the checks are not timed."""
        if timed:
            self.attempted += 1
        if code is None or code in (2, 3):
            if timed:
                self.failed += 1
            if i not in self.failed_ops:
                self.failed_ops.add(i)
                last = (stderr.strip().splitlines() or ["no message"])[-1]
                print(f"perfbench: op failed: {self._name(i)} exit={code}: {last}",
                      file=sys.stderr)
            return
        norm = normalize(stdout)
        first = self.canon.get(i)
        if first is not None:
            if norm != first:
                self.errors.append(f"output changed between repetitions: {self._name(i)}")
            return
        self.canon[i] = norm
        op = self.ops[i]
        try:
            if op.alg != "verify" and code != 0:
                raise ValueError(f"exit code {code}")
            exists = check_first(op, self.instances[op.path], code, stdout)
        except (ValueError, KeyError, TypeError, GasplabError) as exc:
            self.errors.append(f"wrong verdict: {self._name(i)}: {exc}")
            return
        if op.alg != "verify":
            self.verdicts.setdefault(op.path, {})[op.alg] = exists

    def warm_up(self):
        for i, op in enumerate(self.ops):
            _, code, out, err = self.call(op.argv)
            self.record(i, code, out, err, timed=False)

    def passes(self, rng, seconds, elapsed, full_pass=False):
        """Op indices in a fresh seeded order per pass until `elapsed()`
        reaches `seconds` and MIN_OPS were timed; with full_pass, not
        before one whole pass is done.  Yields (pass number, op index)."""
        order = list(range(len(self.ops)))
        n = 0
        while True:
            rng.shuffle(order)
            for i in order:
                yield n, i
                if (elapsed() >= seconds and self.attempted >= MIN_OPS
                        and not (full_pass and n == 0)):
                    return
            n += 1


def _untraced(session, rng, seconds):
    durations = []
    paused = 0.0
    t0 = _clock()
    for _, i in session.passes(rng, seconds, lambda: _clock() - t0 - paused):
        dur, code, out, err = session.call(session.ops[i].argv)
        durations.append(dur)
        t = _clock()
        session.record(i, code, out, err, timed=True)
        paused += _clock() - t
    loop_s = _clock() - t0 - paused
    done = session.attempted - session.failed
    return {
        "op_ms_p50": statistics.median(durations) * 1000,
        "op_ms_p95": statistics.quantiles(durations, n=20)[18] * 1000,
        "ops_per_s": done / loop_s,
        "failed_share": session.failed / session.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(session, rng, seconds):
    tracer = Tracer()
    records = {}
    plain = traced = 0.0
    pairs = 0
    t0 = _clock()
    for n, i in session.passes(rng, seconds, lambda: _clock() - t0, full_pass=True):
        for run_traced in ((False, True) if n % 2 == 0 else (True, False)):
            if run_traced:
                dur, code, out, err, agg, counts = session.call_traced(tracer, i)
                traced += dur
                if code == 0 or (code == 1 and session.ops[i].alg == "verify"):
                    records.setdefault(i, []).append((layers.exact(agg, counts),
                                                      layers.times(agg)))
            else:
                dur, code, out, err = session.call(session.ops[i].argv)
                plain += dur
            session.record(i, code, out, err, timed=True)
        pairs += 1
    metrics, unsteady = layers.per_pass(records)
    for i in unsteady:
        session.errors.append(f"work counters changed between repetitions: {session._name(i)}")
    metrics["trace.ops_per_s"] = pairs / traced
    metrics["trace.untraced_ops_per_s"] = pairs / plain
    metrics["trace.overhead_share"] = traced / plain - 1
    spans = [(op, name, (start - t0) * 1000, (end - t0) * 1000, sid, parent)
             for op, name, start, end, sid, parent in tracer.spans]
    return metrics, spans


def _setup(workload, seed, workdir):
    """Build the workload into `workdir`, over and over until SETUP_MIN_REPS
    builds and SETUP_MIN_S seconds are done; the last build, and the median
    time of one.  Set-up is timed in CPU time of this (single-threaded)
    process: its few ms of writes to a shared disk otherwise wait for
    periods that vary by half between runs, with no change to the work."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        start = time.process_time()
        wl = build(workload, seed, workdir)
        times.append(time.process_time() - start)
    return wl, statistics.median(times)


END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p95": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    args = _parse(argv)
    fingerprint = _fingerprint(args)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, setup_s = _setup(args.workload, args.seed, workdir)
        session = Session(args.seed, wl)
        session.warm_up()
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        if args.trace:
            metrics, spans = _traced(session, rng, args.seconds)
            units = {name: unit for name, (unit, _) in layers.UNITS.items()}
        else:
            metrics = _untraced(session, rng, args.seconds)
            metrics["setup_s"] = setup_s
            spans = None
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = session.errors + [f"algorithms disagree on {d}"
                               for d in disagreements(session.verdicts)]
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint, "ops_per_pass": len(session.ops),
                   "errors": errors, **result}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(results_dir, stem + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fingerprint": fingerprint,
                       "columns": ["op", "name", "start_ms", "end_ms", "id", "parent"],
                       "spans": spans}, fh)

    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"{args.workload}: {len(session.ops)} ops per pass, {session.attempted} timed ops, "
          f"{session.failed} failed")
    if not args.trace:
        print(f"  {'failed_share':48s} {session.failed / session.attempted:14.6g} ratio")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if not errors else 1
