"""Layer tracing from outside the package.

`Tracer.install()` rebinds the public functions of each layer (module) of
`gasplab` to timing wrappers, under every name a gasplab module imports
them by (`gasplab.solvers_sgasp.solve_tss` and `gasplab.subsetsum.solve_tss`
are the same function object and both get the wrapper); `uninstall()`
puts the originals back.  The package's own files are never edited.

A wrapped call pushes a frame, and on return adds its duration to the
enclosing frame's child time, so a name's self time is its duration minus
the time its traced callees took.  Every name keeps one aggregate per
operation (calls, total seconds, self seconds), which is all the hot
functions (verifiers inside an oracle, the subset-sum kernels) record.
The coarse entry points also append a span: (op, name, start, end,
enclosing span).  Work counters are read off return values.  Everything
stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import gasplab.cli
import gasplab.formats
import gasplab.generators
import gasplab.model
import gasplab.oracle
import gasplab.solver_gasp
import gasplab.solvers_sgasp
import gasplab.subsetsum

_clock = time.perf_counter


def _count(key, value_of):
    def observe(counts, result):
        counts[key] += value_of(result)
    return observe


def _stats(*pairs):
    def observe(counts, result):
        for key, stat in pairs:
            counts[key] += result.stats.get(stat, 0)
    return observe


_stable = _count("model.verify.stable", lambda r: int(r.stable))
_explored = _count("oracle.explored", lambda r: r.explored)

# (metric name, module, attribute, records a span, counter hook)
FUNCTIONS = (
    ("cli.main", gasplab.cli, "main", True, None),
    ("formats.load_instance", gasplab.formats, "load_instance", True, None),
    ("formats.load_witness", gasplab.formats, "load_witness", True, None),
    ("model.gamma_preprocess", gasplab.model, "gamma_preprocess", False, None),
    ("model.verify_sgasp", gasplab.model, "verify_sgasp", False, _stable),
    ("model.verify_gasp", gasplab.model, "verify_gasp", False, _stable),
    ("model.verify_ggasp", gasplab.model, "verify_ggasp", False, _stable),
    ("subsetsum.solve_tss", gasplab.subsetsum, "solve_tss", False,
     _count("subsetsum.solve_tss.feasible", lambda r: int(r.feasible))),
    ("subsetsum.solve_mpss", gasplab.subsetsum, "solve_mpss", False, None),
    ("subsetsum.brute_mpss", gasplab.subsetsum, "brute_mpss", True, None),
    ("solvers_sgasp.find_ir_assignment", gasplab.solvers_sgasp, "find_ir_assignment", False,
     _count("solvers_sgasp.find_ir_assignment.found", lambda r: int(r is not None))),
    ("solve_fpt_ta", gasplab.solvers_sgasp, "solve_fpt_ta", True,
     _stats(("solve_fpt_ta.branches", "branches"))),
    ("solve_xp_t", gasplab.solvers_sgasp, "solve_xp_t", True,
     _stats(("solve_xp_t.branches", "branches"))),
    ("solve_fpt_n", gasplab.solvers_sgasp, "solve_fpt_n", True,
     _stats(("solve_fpt_n.branches", "branches"))),
    ("solver_gasp.gtosg_reduce", gasplab.solver_gasp, "gtosg_reduce", False, None),
    ("solver_gasp.pull_back", gasplab.solver_gasp, "pull_back", False, None),
    ("solve_xp_gasp", gasplab.solver_gasp, "solve_xp_gasp", True,
     _stats(("solver_gasp.guesses", "branches"), ("solver_gasp.inconsistent", "skipped"))),
    ("oracle.oracle_sgasp", gasplab.oracle, "oracle_sgasp", True, _explored),
    ("oracle.oracle_gasp", gasplab.oracle, "oracle_gasp", True, _explored),
    ("oracle.oracle_ggasp", gasplab.oracle, "oracle_ggasp", True, _explored),
    ("generators.find_clique", gasplab.generators, "find_clique", True, None),
)

# (metric name, class, method): wrapped on the class itself, so every
# instance and every importer sees the wrapper
METHODS = (
    ("subsetsum.LabeledTree", gasplab.subsetsum.LabeledTree, "__init__"),
    ("subsetsum.mpss_witness", gasplab.subsetsum.MPSSResult, "witness"),
)

# generator function: time spent inside each next() and the items yielded
PATTERNS = ("solvers_sgasp.enumerate_acyclic_patterns", gasplab.solvers_sgasp,
            "enumerate_acyclic_patterns", "solvers_sgasp.patterns")


class Tracer:
    def __init__(self):
        self._stack = []        # frames: [start, child seconds, span id or None]
        self._span_ids = []     # ids of the open spans, innermost last
        self._next_id = 0
        self.op = None
        self.agg = {}           # name -> [calls, total s, self s] for the current op
        self.counts = Counter()
        self.spans = []         # (op, name, start, end, id, enclosing id)
        self._bindings = self._bind()

    # -- per-operation records

    def begin(self, op):
        self.op = op
        self.agg = {}
        self.counts = Counter()
        # frames a timeout signal may have left open in the previous op
        self._stack.clear()
        self._span_ids.clear()

    def end(self):
        """The current op's aggregates and counters."""
        return self.agg, self.counts

    # -- frames

    def _enter(self, span):
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
        self._stack.append([_clock(), 0.0, sid])
        if span:
            self._span_ids.append(sid)

    def _exit(self, name):
        end = _clock()
        start, child, sid = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if sid is not None:
            self._span_ids.pop()
            parent = self._span_ids[-1] if self._span_ids else None
            self.spans.append((self.op, name, start, end, sid, parent))

    # -- wrappers

    def _wrap(self, name, fn, span, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    def _wrap_generator(self, name, fn, item_key):
        tracer = self

        class Timed:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                tracer._enter(False)
                try:
                    item = next(self.it)
                finally:
                    tracer._exit(name)
                tracer.counts[item_key] += 1
                return item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return Timed(fn(*args, **kwargs))
        return traced

    def _bind(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "gasplab" or k.startswith("gasplab.")]
        wrapped = []
        for name, module, attr, span, observe in FUNCTIONS:
            fn = getattr(module, attr)
            wrapped.append((fn, self._wrap(name, fn, span, observe)))
        name, module, attr, item_key = PATTERNS
        fn = getattr(module, attr)
        wrapped.append((fn, self._wrap_generator(name, fn, item_key)))
        out = []
        for fn, wrapper in wrapped:
            for m in modules:
                for key, value in vars(m).items():
                    if value is fn:
                        out.append((m, key, fn, wrapper))
        for name, cls, attr in METHODS:
            fn = vars(cls)[attr]
            out.append((cls, attr, fn, self._wrap(name, fn, False, None)))
        return out

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)
