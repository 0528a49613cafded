"""Command line front end.

Four subcommands: ``solve`` dispatches an instance file to a solver and
prints a one-document JSON report, ``verify`` checks a witness file
against an instance, ``gen`` writes generator output as instance files,
and ``bench`` times algorithms over a suite and cross-checks answers.

Exit codes: 0 decided / stable / done, 1 verification failure or
cross-algorithm disagreement, 2 input error, 3 budget or timeout.  Every
algorithm caps its work at ``--budget N`` if given, else at the
GASPLAB_BUDGET environment variable (either an integer >= 1), else at its
default (10**6 branches for the exact solvers, 2,000,000 matrices for the
oracles, 10**7 steps for the subset-sum and clique checkers).
``--timeout S`` runs the algorithm under `budget.deadline`, checked at its
branch points, in any thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import formats
from .budget import deadline, parse_budget
from .errors import (BudgetError, DeadlineError, InvalidAssignmentError, InvalidInstanceError,
                     InvalidSettingError)
from .generators import (
    PartitionedCliqueInstance,
    SMPSSInstance,
    find_clique,
    pc_to_gasp,
    pc_to_ggasp,
    pc_to_smpss,
    random_instance,
    random_partitioned_clique,
    sidon,
    smpss_to_sgasp,
)
from .model import (
    AgentAssignment,
    NetworkInstance,
    TypeCountAssignment,
    verify_gasp,
    verify_ggasp,
    verify_sgasp,
)
from .oracle import oracle_gasp, oracle_ggasp, oracle_sgasp
from .solver_gasp import solve_xp_gasp
from .solvers_sgasp import SolveResult, solve_fpt_n, solve_fpt_ta, solve_xp_t
from .subsetsum import brute_mpss


def _brute(inst, budget):
    kind = formats.instance_kind(inst)
    if kind == "smpss":
        res = brute_mpss(inst.family(), budget=budget, target=inst.target)
        hit = inst.target in res.targets
        return SolveResult(hit, res.witness(inst.target) if hit else None)
    if kind == "pclique":
        combo = find_clique(inst, budget)
        return SolveResult(combo is not None, combo)
    oracle = {"sgasp": oracle_sgasp, "gasp": oracle_gasp, "ggasp": oracle_ggasp}[kind]
    res = oracle(inst, budget=budget)
    return SolveResult(res.exists, res.witnesses[0] if res.exists else None,
                       {"branches": res.explored})


# name -> (instance kinds it decides, run(inst, budget) returning a
# SolveResult); solvers are looked up by name at call time, so rebinding
# them in this module takes effect
ALGORITHMS = {
    "fpt-ta": ({"sgasp"}, lambda inst, budget: solve_fpt_ta(inst, budget)),
    "xp-t": ({"sgasp"}, lambda inst, budget: solve_xp_t(inst, budget)),
    "fpt-n": ({"sgasp"}, lambda inst, budget: solve_fpt_n(inst, budget)),
    "xp-gasp": ({"gasp"}, lambda inst, budget: solve_xp_gasp(inst, budget)),
    "brute": ({"sgasp", "gasp", "ggasp", "smpss", "pclique"}, _brute),
}


def _run_alg(alg, inst, budget=None):
    """Returns (exists, witness or None, stats dict)."""
    r = ALGORITHMS[alg][1](inst, budget)
    return r.exists, r.witness, dict(r.stats)


def _check_alg_kind(alg, inst):
    kind = formats.instance_kind(inst)
    if kind not in ALGORITHMS[alg][0]:
        raise InvalidInstanceError(f"algorithm {alg!r} does not handle {kind} instances")
    return kind


def _positive_int(text):
    """An integer >= 1, by the rule of `budget.parse_budget`."""
    try:
        return parse_budget(text, "value")
    except InvalidSettingError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _timeout(text):
    """Seconds for `budget.deadline`: a number in [0, 1e9], 0 meaning no cap."""
    try:
        if 0 <= float(text) <= 1e9:  # refuses nan and inf too
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a number of seconds in [0, 1e9] (0: no cap), got {text!r}")


def _render_witness(inst, witness):
    if witness is None:
        return None
    if isinstance(witness, TypeCountAssignment):
        return formats.witness_to_doc(inst, witness)["counts"]
    if isinstance(witness, AgentAssignment):
        return formats.witness_to_doc(inst, witness)["assignment"]
    return formats.jsonable(witness)  # smpss vector choice / pclique vertices


def _err(msg):
    print(f"gasplab: {msg}", file=sys.stderr)


# ------------------------------------------------------------------------ solve

def cmd_solve(args) -> int:
    inst = formats.load_instance(args.input)
    kind = _check_alg_kind(args.alg, inst)
    if args.witness and kind not in ("sgasp", "gasp", "ggasp"):
        raise InvalidInstanceError(f"witness files are not defined for {kind} instances")
    start = time.perf_counter()
    with deadline(args.timeout):
        exists, witness, stats = _run_alg(args.alg, inst, args.budget)
    wall_ms = (time.perf_counter() - start) * 1000
    report = {
        "algorithm": args.alg,
        "kind": kind,
        "exists": exists,
        "witness": _render_witness(inst, witness),
        "stats": stats,
        "wall_ms": round(wall_ms, 3),
    }
    print(json.dumps(report, indent=2))
    if args.witness and exists:
        formats.save_witness(inst, witness, args.witness,
                             solver={"algorithm": args.alg, "stats": stats,
                                     "wall_ms": round(wall_ms, 3)})
    return 0


# ----------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    inst = formats.load_instance(args.input)
    kind = formats.instance_kind(inst)
    if kind not in ("sgasp", "gasp", "ggasp"):
        raise InvalidInstanceError(f"no verifier for {kind} instances")
    witness = formats.load_witness(args.assignment, inst)
    verify = {"sgasp": verify_sgasp, "gasp": verify_gasp, "ggasp": verify_ggasp}[kind]
    report = verify(inst, witness)
    print(json.dumps({
        "kind": kind,
        "stable": report.stable,
        "violations": [{"kind": v.kind, "subject": v.subject,
                        "activity": v.activity, "detail": v.detail}
                       for v in report.violations],
    }, indent=2))
    return 0 if report.stable else 1


# -------------------------------------------------------------------------- gen

def _pc_source(args) -> PartitionedCliqueInstance:
    if args.input:
        pc = formats.load_instance(args.input)
        if not isinstance(pc, PartitionedCliqueInstance):
            raise InvalidInstanceError(f"{args.input} is not a pclique instance")
        return pc
    if args.k is None or args.n is None or args.m is None:
        raise InvalidInstanceError("need either --in FILE or all of --k/--n/--m")
    return random_partitioned_clique(args.k, args.n, args.m,
                                     seed=args.seed, planted=args.planted)


def _planted_witness(inst):
    """Proof-constructed assignment attached by the pc_to_gasp/pc_to_ggasp
    generators on planted inputs."""
    meta = inst.meta or {}
    if isinstance(inst, NetworkInstance):
        pairs = meta.get("witness_assignment")
        if pairs is None:
            raise InvalidInstanceError("instance has no planted witness (generate with --planted)")
        return AgentAssignment(dict((a, x) for a, x in pairs))
    rows = meta.get("witness_counts")
    if rows is None:
        raise InvalidInstanceError("instance has no planted witness (generate with --planted)")
    return TypeCountAssignment(rows)


def cmd_gen(args) -> int:
    sub = args.generator
    if sub == "sidon":
        text = json.dumps(sidon(args.length)) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if sub == "pc-smpss":
        out = pc_to_smpss(_pc_source(args))
    elif sub == "smpss-sgasp":
        src = formats.load_instance(args.input)
        if not isinstance(src, SMPSSInstance):
            raise InvalidInstanceError(f"{args.input} is not an smpss instance")
        out = smpss_to_sgasp(src)
    elif sub == "pc-gasp":
        out = pc_to_gasp(_pc_source(args))
    elif sub == "pc-ggasp":
        out = pc_to_ggasp(_pc_source(args))
    else:
        kind = sub.split("-", 1)[1]  # random-sgasp etc.
        out = random_instance(kind, types=args.types, activities=args.activities,
                              agents=args.agents, density=args.density, seed=args.seed)
    formats.save_instance(out, args.out)
    if getattr(args, "witness", None):
        formats.save_witness(out, _planted_witness(out), args.witness,
                             solver={"algorithm": "planted"})
    return 0


# ------------------------------------------------------------------------ bench

def _suite_paths(path):
    base = os.path.dirname(os.path.abspath(path))
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append((line, line if os.path.isabs(line) else os.path.join(base, line)))
    return out


def cmd_bench(args) -> int:
    algs = [a.strip() for a in args.alg.split(",") if a.strip()]
    for a in algs:
        if a not in ALGORITHMS:
            raise InvalidInstanceError(f"unknown algorithm {a!r}")
    if not algs:
        raise InvalidInstanceError("no algorithms given")
    rows = []
    disagree = starved = False
    for name, path in _suite_paths(args.suite):
        inst = formats.load_instance(path)
        answers = set()
        for alg in algs:
            _check_alg_kind(alg, inst)
            start = time.perf_counter()
            branches = ""
            try:
                with deadline(args.timeout):
                    exists, _, stats = _run_alg(alg, inst, args.budget)
                answer = "yes" if exists else "no"
                answers.add(answer)
                branches = stats.get("branches", "")
            except DeadlineError:
                answer = "timeout"
                starved = True
            except BudgetError:
                answer = "budget"
                starved = True
            wall_ms = (time.perf_counter() - start) * 1000
            rows.append((name, alg, answer, f"{wall_ms:.3f}", branches))
        if {"yes", "no"} <= answers:
            disagree = True
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["instance", "algorithm", "answer", "wall_ms", "branches"])
        w.writerows(rows)
    finally:
        if args.out:
            out.close()
    if disagree:
        return 1
    if starved:
        return 3
    return 0


# ------------------------------------------------------------------------- main

def _add_pc_args(p):
    p.add_argument("--in", dest="input", help="pclique instance file")
    p.add_argument("--k", type=int, help="parts (with --n/--m instead of --in)")
    p.add_argument("--n", type=int, help="vertices per part")
    p.add_argument("--m", type=int, help="edges per part pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", action="store_true", help="wire a clique in")


BUDGET_HELP = "work cap for any algorithm: branches, matrices or steps (see README)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gasplab",
                                     description="Exact solvers for group activity selection.")
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("solve", help="decide one instance file")
    p.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--in", dest="input", required=True, help="instance file")
    p.add_argument("--witness", help="write the YES witness here")
    p.add_argument("--timeout", type=_timeout, help="wall clock cap in seconds (0: none)")
    p.add_argument("--budget", type=_positive_int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="check a witness file")
    p.add_argument("--in", dest="input", required=True, help="instance file")
    p.add_argument("--assignment", required=True, help="witness file")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("gen", help="write generator output")
    gsubs = p.add_subparsers(dest="generator", metavar="generator", required=True)

    g = gsubs.add_parser("sidon", help="greedy sequence with distinct pairwise sums")
    g.add_argument("--length", type=_positive_int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    for name, helptext, witness in (
            ("pc-smpss", "multidimensional subset sums from a partitioned clique", False),
            ("pc-gasp", "rank instance from a partitioned clique", True),
            ("pc-ggasp", "network instance from a partitioned clique", True)):
        g = gsubs.add_parser(name, help=helptext)
        _add_pc_args(g)
        g.add_argument("--out", required=True)
        if witness:
            g.add_argument("--witness", help="also write the planted witness file")
        g.set_defaults(func=cmd_gen)

    g = gsubs.add_parser("smpss-sgasp", help="size-approval instance from subset sums")
    g.add_argument("--in", dest="input", required=True, help="smpss instance file")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    for name in ("random-sgasp", "random-gasp", "random-ggasp"):
        g = gsubs.add_parser(name, help=f"seeded random {name.split('-')[1]} instance")
        g.add_argument("--types", type=int, required=True)
        g.add_argument("--activities", type=int, required=True)
        g.add_argument("--agents", type=int, required=True)
        g.add_argument("--density", type=float, default=0.5)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", required=True)
        g.set_defaults(func=cmd_gen)

    p = subs.add_parser("bench", help="time algorithms over a suite of instance files")
    p.add_argument("--suite", required=True, help="text file, one instance path per line")
    p.add_argument("--alg", required=True, help="comma-separated algorithm list")
    p.add_argument("--out", help="CSV path (stdout if omitted)")
    p.add_argument("--timeout", type=_timeout, help="per-cell wall clock cap in seconds (0: none)")
    p.add_argument("--budget", type=_positive_int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (InvalidInstanceError, InvalidAssignmentError, InvalidSettingError, OSError) as exc:
        _err(exc)
        return 2
    except DeadlineError as exc:
        _err(f"timed out: {exc}")
        return 3
    except BudgetError as exc:
        _err(f"work budget exhausted: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
