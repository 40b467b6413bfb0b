"""Wall times of every shipped config and of the tier-1 suite, as one JSON object.

Usage::

    python3 scripts/bench.py > /tmp/bench.json && mv /tmp/bench.json BENCH_<n>.json

(written outside the checkout first, so that the file being written does
not make the recorded tree unclean).

Each ``configs/*.json`` runs through the CLI ``REPEATS`` times at full scale
and ``REPEATS`` times with ``--smoke``, each run in a fresh interpreter, the
repeats taken in rounds over all configs so that a drift in the host's speed
spreads over every config alike.  The tier-1 suite then runs once.  The
object records the median and every sample of each config's wall, the
suite's wall and its last line, the commit measured (``git rev-parse HEAD``,
and whether ``git status --porcelain`` printed nothing), and the
environment: Python, numpy, scipy, cores, CPU model, and numpy's SIMD
features and OpenBLAS core as CI prints them.  Run outputs and bytecode go
to a temporary directory that is removed afterwards; progress goes to
stderr.  A run that exits non-zero is recorded
with its exit code, not retried.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_cores() -> list:
    cores = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                              "*openblas*"))):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        cores.append(corename().decode())
    return cores


def _environment() -> dict:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "numpy_simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
        "openblas_core": _openblas_cores(),
    }


def _commit() -> dict:
    """The checkout's HEAD, and whether its working tree matches it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=REPO, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"), "clean": git("status", "--porcelain") == ""}


def _timed(cmd, env) -> tuple:
    """(wall seconds, exit code, stdout) of one subprocess run in the checkout."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _summary(samples, codes) -> dict:
    return {"median_s": round(statistics.median(samples), 3),
            "runs_s": [round(s, 3) for s in samples], "exit_codes": sorted(set(codes))}


def main() -> int:
    commit = _commit()  # before any run: the tree that was measured
    configs = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))
    modes = (("full", []), ("smoke", ["--smoke"]))
    walls = {(c, m): [] for c in configs for m, _ in modes}
    codes = {key: [] for key in walls}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
        for rep in range(REPEATS):
            for config in configs:
                with open(config, "r", encoding="utf-8") as fh:
                    kind = json.load(fh)["kind"]
                for mode, flags in modes:
                    out = os.path.join(tmp, "out")
                    wall, code, _ = _timed([sys.executable, "-m", "mvsde.cli", kind, "--config",
                                            config, "--out", out, *flags], env)
                    shutil.rmtree(out, ignore_errors=True)
                    walls[config, mode].append(wall)
                    codes[config, mode].append(code)
                    print(f"round {rep + 1}/{REPEATS} {os.path.basename(config)} {mode} "
                          f"{wall:.2f} s exit {code}", file=sys.stderr, flush=True)
        wall, code, stdout = _timed([sys.executable, *TIER1], env)
        lines = stdout.strip().splitlines()
        print(f"tier-1 {wall:.1f} s exit {code}", file=sys.stderr, flush=True)
    result = {
        "commit": commit,
        "environment": _environment(),
        "repeats": REPEATS,
        "configs": {
            os.path.splitext(os.path.basename(c))[0]: {
                m: _summary(walls[c, m], codes[c, m]) for m, _ in modes}
            for c in configs},
        "tier1": {"wall_s": round(wall, 1), "exit_code": code,
                  "last_line": lines[-1] if lines else ""},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
