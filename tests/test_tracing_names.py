"""The benchmark's layer tracer looks up every traced function by name;
constructing it here makes a renamed or deleted entry point fail the test
suite instead of a `--trace 1` benchmark run."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_tracer_binds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    bound = {original for _, _, original, _ in tracer._bindings}
    for _, module, attr, _, _ in tracing.FUNCTIONS:
        assert getattr(module, attr) in bound
    for _, cls, attr in tracing.METHODS:
        assert vars(cls)[attr] in bound
