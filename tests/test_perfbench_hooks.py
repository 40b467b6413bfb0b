"""Guard for the mvsde names that the benchmark harness looks up.

``perfbench/tracing.py`` patches public functions of every module by name
and ``perfbench/workloads.py`` calls ``experiments.lipschitz_audit``, so a
rename that breaks a traced benchmark run breaks this test first.
"""

import importlib.util

from mvsde import experiments
from conftest import REPO


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    original = experiments.shared_grid_tv
    try:
        tracing.install(tracer)
        assert experiments.shared_grid_tv is not original
    finally:
        tracer.unpatch()
    assert experiments.shared_grid_tv is original
    assert callable(experiments.lipschitz_audit)  # called by perfbench/workloads.py
