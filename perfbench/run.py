"""mvsde benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload {solve_stability,regularity_duhamel}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from any directory; the benchmark uses the ``src/`` and ``configs/`` of
the checkout it lives in.  This process only drives: every measurement runs
in a fresh worker interpreter (``worker.py``), one at a time, with BLAS and
OpenMP threads capped at the core count.

``--trace 0`` starts one discarded worker that fills the bytecode cache, then
SETUP_WORKERS set-up-only workers, half before and half after one measuring
worker that also times its own set-up, makes one discarded warm-up run and
then closed-loop runs for ``--seconds``.  It reports

* ``wall_s``      median wall time of one workload run (run_experiment and
                  emit_report of each config), over the measured runs;
* ``setup_s``     median over the workers of import + parse_config + the
                  pre-run lipschitz_audit(n_samples=100);
* ``peak_rss_mb`` peak resident set of the measuring worker;

and the failed ratio: a run fails if it raises, if a report does not pass,
or if its output digest differs from the first run of the invocation.
``--trace 1`` runs the workload with spans around each module's public
functions (``tracing.py``) and reports the per-layer metrics.

``--seed`` overrides the seed of every config of the workload (the shipped
seeds are used without it).  ``--smoke`` runs the configs in smoke mode, for
``selfcheck.py`` only.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the benchmark
ran; it exits 1 without that line if it could not run.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_WORKERS = 6
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed program run)."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(cores: int) -> dict:
    env = {"nproc": cores, "cpu": _cpu_model(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    env.update({var: str(cores) for var in THREAD_VARS})
    return env


def _worker_env(cores: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(cores) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [workloads.SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Bytecode of every module, mvsde included, is read from one cache under
    # the work directory, which a discarded worker brings up to date before
    # set-up is timed: whatever __pycache__ the checkout holds is never read,
    # and set-up time never includes compiling.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workloads.WORKDIR, "pycache")
    return env


def _worker(mode, args, env, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError(f"{mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _baseline_digest(args):
    if args.smoke:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    key = "shipped" if args.seed is None else str(args.seed)
    return table.get(args.workload, {}).get(key)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    workloads.check_checkout()
    cores = len(os.sched_getaffinity(0))
    env = _worker_env(cores)
    deadline = time.monotonic() + DEADLINE_S
    for key, value in _environment(cores).items():
        print(f"env {key} = {value}")

    if args.trace:
        out = _worker("trace", args, env, deadline)
        if not out["metrics"]:
            raise HarnessError("no traced run succeeded")
        metrics = {name: _metric(out["metrics"][name], unit)
                   for name, unit in tracing.PER_LAYER.items()}
        print(f"traced runs = {out['traced_runs']}, traced minus untraced wall_s "
              f"per pair = {out['overhead_s']}")
    else:
        _worker("setup", args, env, deadline)  # fills the bytecode cache
        setups = [_worker("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUP_WORKERS // 2)]
        out = _worker("measure", args, env, deadline)
        setups.append(out["setup_s"])
        setups += [_worker("setup", args, env, deadline)["setup_s"]
                   for _ in range(SETUP_WORKERS - SETUP_WORKERS // 2)]
        if not out["wall_s"]:
            raise HarnessError("no measured run succeeded")
        metrics = {
            "wall_s": _metric(statistics.median(out["wall_s"]), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(out["peak_rss_mb"], "MB"),
        }
        print(f"wall_s samples = {len(out['wall_s'])}: {out['wall_s']}")
        print(f"setup_s samples = {len(setups)}: {setups}")

    attempted, failed = out["attempted"], out["failed"]
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"metric {args.workload} failed_ratio = {failed / attempted!r} ratio "
          f"({failed} of {attempted} runs)")
    baseline = _baseline_digest(args)
    match = "unrecorded" if baseline is None else str(baseline == out["digest"]).lower()
    print(f"digest {args.workload} = {out['digest']} (recorded baseline: {baseline}; "
          f"match: {match})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        result = run(args)
    except (HarnessError, FileNotFoundError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
