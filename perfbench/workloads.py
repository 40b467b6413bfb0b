"""Workload definitions and one closed-loop workload run.

A workload is a fixed list of shipped configs, each taken through
``parse_config`` -> ``run_experiment`` -> ``emit_report``.  This module
imports nothing from ``mvsde`` at import time, so the driving process can
read the workload table without paying the package's import cost.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

# Shipped particle counts (1e4 to 1e5) make one run of a config take 6 to
# 35 s on 2 cores, which leaves too few samples inside one benchmark run.
# The benchmark therefore passes a particle override (the CLI's --particles)
# per config; every other config value stays as shipped.
#
# The four shipped experiments are grouped into two workloads so that each
# benchmark run can measure for long enough on a host whose CPU throughput
# drifts by up to 1.7x over tens of seconds (see README.md).
WORKLOADS = {
    # Dominated by fixed_point and metrics: solve_arctan is
    # sigma_measure_free and solve_tanh drift_measure_free (65 law CSVs per
    # solve); stability_mixed runs 16 same-seed simulations whose W_1 calls
    # re-sort the same base measures, plus a mixed_mean_field solve.
    "solve_stability": {"solve_arctan": 10_000, "solve_tanh": 10_000,
                        "stability_mixed": 3_000},
    # Dominated by sde_engine and duhamel: regularity_arctan (dt=2.5e-4) runs
    # a law1/law2 pair on a shared seed and schedule; duhamel_arctan is the
    # only config that reaches duhamel.solve_density.
    "regularity_duhamel": {"regularity_arctan": 10_000, "duhamel_arctan": 10_000},
}


def check_checkout() -> None:
    """Raise FileNotFoundError unless the package sources and configs are present."""
    for path in [os.path.join(SRC, "mvsde", "__init__.py")] + [
        os.path.join(CONFIGS, f"{name}.json")
        for configs in WORKLOADS.values() for name in configs
    ]:
        if not os.path.isfile(path):
            raise FileNotFoundError(f"benchmark input missing: {os.path.relpath(path, ROOT)}")


def import_package():
    """Import mvsde from this checkout's sources, never from site-packages."""
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mvsde.experiments as experiments

    if not os.path.abspath(experiments.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mvsde imported from {experiments.__file__}, not {SRC}")
    return experiments


def parse_workload(experiments, workload: str, seed=None, smoke=False):
    """Parse the workload's configs; ``seed`` overrides every config's seed."""
    return [
        experiments.parse_config(os.path.join(CONFIGS, f"{name}.json"), seed=seed,
                                 particles=None if smoke else particles,
                                 smoke=smoke)
        for name, particles in WORKLOADS[workload].items()
    ]


def pre_run_audit(experiments, cfgs) -> None:
    """The audit ``run_experiment`` makes before every run, done once at set-up."""
    for cfg in cfgs:
        experiments.lipschitz_audit(cfg.model, n_samples=100, seed=0)


def tree_digest(outdir: str):
    """(sha256 prefix, bytes) over every file under outdir, by relative path.

    The checkout's absolute path is replaced before hashing, because
    ``summary.json`` records the model file by absolute path; the digest
    then does not depend on where the checkout lives.
    """
    h = hashlib.sha256()
    total = 0
    root = ROOT.encode()
    for dirpath, dirnames, filenames in os.walk(outdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            data = data.replace(root, b"<root>")
            h.update(os.path.relpath(path, outdir).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    return h.hexdigest()[:16], total


class RunResult(NamedTuple):
    """Outcome of one workload run: wall time, pass flag, output digest."""

    wall_s: float
    passed: bool
    digest: str | None
    bytes_written: int
    error: str | None = None


def run_once(experiments, cfgs) -> RunResult:
    """Run every config of a workload into a fresh directory and digest it.

    Only ``run_experiment`` and ``emit_report`` are inside the timed region.
    An exception from the program is a failed run, not a harness error.
    """
    os.makedirs(WORKDIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        passed = True
        start = time.perf_counter()
        try:
            for i, cfg in enumerate(cfgs):
                sub = os.path.join(outdir, f"{i}_{cfg.kind}")
                report = experiments.run_experiment(cfg, outdir=sub)
                experiments.emit_report(report, sub)
                passed = passed and bool(report.passed)
        except Exception as exc:  # the program failed; count it and go on
            return RunResult(time.perf_counter() - start, False, None, 0,
                             error=f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        digest, nbytes = tree_digest(outdir)
        return RunResult(wall, passed, digest, nbytes)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
