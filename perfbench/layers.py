"""Per-layer metrics of a traced run.

Every value is per pass, that is per run of each of the workload's
distinct operations once: counters are summed over the operations (and
must repeat exactly on every repetition of an operation), times are the
per-operation medians over its traced repetitions, summed.  So neither
depends on how many repetitions fit into the run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

ORACLES = ("oracle.oracle_sgasp", "oracle.oracle_gasp", "oracle.oracle_ggasp")
VERIFIERS = ("model.verify_sgasp", "model.verify_gasp", "model.verify_ggasp")

# time metric -> (traced names, field): field 1 sums total time, 2 self time
TIMES = {
    "cli.self_ms": (("cli.main",), 2),
    "formats.load_instance.ms": (("formats.load_instance",), 1),
    "formats.load_witness.ms": (("formats.load_witness",), 1),
    "model.gamma_preprocess.ms": (("model.gamma_preprocess",), 1),
    "model.verify_sgasp.ms": (("model.verify_sgasp",), 1),
    "model.verify_gasp.ms": (("model.verify_gasp",), 1),
    "model.verify_ggasp.ms": (("model.verify_ggasp",), 1),
    "subsetsum.LabeledTree.ms": (("subsetsum.LabeledTree",), 1),
    "subsetsum.solve_tss.ms": (("subsetsum.solve_tss",), 1),
    "subsetsum.solve_mpss.ms": (("subsetsum.solve_mpss",), 1),
    "subsetsum.mpss_witness.ms": (("subsetsum.mpss_witness",), 1),
    "subsetsum.brute_mpss.ms": (("subsetsum.brute_mpss",), 1),
    "solvers_sgasp.enumerate_acyclic_patterns.ms": (("solvers_sgasp.enumerate_acyclic_patterns",), 1),
    "solvers_sgasp.find_ir_assignment.ms": (("solvers_sgasp.find_ir_assignment",), 1),
    "solve_fpt_ta.self_ms": (("solve_fpt_ta",), 2),
    "solve_xp_t.self_ms": (("solve_xp_t",), 2),
    "solve_fpt_n.self_ms": (("solve_fpt_n",), 2),
    "solver_gasp.gtosg_reduce.ms": (("solver_gasp.gtosg_reduce",), 1),
    "solver_gasp.pull_back.ms": (("solver_gasp.pull_back",), 1),
    "solve_xp_gasp.self_ms": (("solve_xp_gasp",), 2),
    "oracle.self_ms": (ORACLES, 2),
    "generators.find_clique.ms": (("generators.find_clique",), 1),
}

# call-count metric -> traced name
CALLS = {
    "model.gamma_preprocess.calls": "model.gamma_preprocess",
    "model.verify_sgasp.calls": "model.verify_sgasp",
    "model.verify_gasp.calls": "model.verify_gasp",
    "model.verify_ggasp.calls": "model.verify_ggasp",
    "subsetsum.LabeledTree.calls": "subsetsum.LabeledTree",
    "subsetsum.solve_tss.calls": "subsetsum.solve_tss",
    "subsetsum.solve_mpss.calls": "subsetsum.solve_mpss",
    "solvers_sgasp.find_ir_assignment.calls": "solvers_sgasp.find_ir_assignment",
}

# work counters read off return values (see tracing.FUNCTIONS)
COUNTERS = (
    "solvers_sgasp.patterns",
    "solve_fpt_ta.branches",
    "solve_xp_t.branches",
    "solve_fpt_n.branches",
    "solver_gasp.guesses",
    "solver_gasp.inconsistent",
    "oracle.explored",
    "model.verify.stable",
    "subsetsum.solve_tss.feasible",
    "solvers_sgasp.find_ir_assignment.found",
)

# share metric -> (numerator, denominators summed)
SHARES = {
    "model.verify.stable_share": ("model.verify.stable", tuple(v + ".calls" for v in VERIFIERS)),
    "subsetsum.solve_tss.feasible_share": ("subsetsum.solve_tss.feasible",
                                           ("subsetsum.solve_tss.calls",)),
    "solvers_sgasp.find_ir_assignment.found_share": ("solvers_sgasp.find_ir_assignment.found",
                                                     ("solvers_sgasp.find_ir_assignment.calls",)),
    "solver_gasp.inconsistent_share": ("solver_gasp.inconsistent", ("solver_gasp.guesses",)),
}

# traced-run overhead, filled in by the run itself
OVERHEAD = ("trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_share")


# useful outcomes: more of them per attempt means less wasted work
_USEFUL = ("model.verify.stable", "subsetsum.solve_tss.feasible",
           "solvers_sgasp.find_ir_assignment.found")


def _unit(name: str) -> Tuple[str, str]:
    if name.endswith("ops_per_s"):
        return "1/s", "higher"
    if name.endswith("_share"):
        return "ratio", "higher" if name.startswith(_USEFUL) else "lower"
    if name.endswith(("ms", "ms_per_explored")):
        return "ms", "lower"
    return "count", "higher" if name in _USEFUL else "lower"


NAMES = (tuple(TIMES) + tuple(CALLS) + COUNTERS + tuple(SHARES)
         + ("oracle.ms_per_explored",) + OVERHEAD)
UNITS = {name: _unit(name) for name in NAMES}


def exact(agg, counts) -> Dict[str, int]:
    """Deterministic counts of one traced op."""
    out = {name: agg[traced][0] if traced in agg else 0 for name, traced in CALLS.items()}
    out.update((key, counts.get(key, 0)) for key in COUNTERS)
    return out


def _ms(agg, traced, field) -> float:
    return sum(agg[t][field] for t in traced if t in agg) * 1000


def times(agg) -> Dict[str, float]:
    """Milliseconds of one traced op."""
    out = {name: _ms(agg, traced, field) for name, (traced, field) in TIMES.items()}
    out["oracle.ms"] = _ms(agg, ORACLES, 1)   # for oracle.ms_per_explored
    return out


def per_pass(records: Dict[int, List[tuple]]) -> Tuple[Dict[str, float], List[int]]:
    """Metrics per pass from {op index: [(exact, times), ...]}, plus the ops
    whose exact counts differed between repetitions."""
    counts = dict.fromkeys(tuple(CALLS) + COUNTERS, 0)
    ms = dict.fromkeys(tuple(TIMES) + ("oracle.ms",), 0.0)
    unsteady = []
    for op, recs in sorted(records.items()):
        first = recs[0][0]
        if any(r[0] != first for r in recs[1:]):
            unsteady.append(op)
        for key, value in first.items():
            counts[key] += value
        for key in ms:
            ms[key] += statistics.median(r[1][key] for r in recs)
    out: Dict[str, float] = {}
    out.update(ms)
    out.update(counts)
    for name, (num, dens) in SHARES.items():
        den = sum(counts[d] for d in dens)
        out[name] = counts[num] / den if den else 0.0
    out["oracle.ms_per_explored"] = (ms["oracle.ms"] / counts["oracle.explored"]
                                     if counts["oracle.explored"] else 0.0)
    del out["oracle.ms"]
    return out, unsteady
