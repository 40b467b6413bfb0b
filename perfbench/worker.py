"""One fresh interpreter of the benchmark: set-up, measured runs or traced runs.

Started by ``run.py`` only; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py {setup|measure|trace} --workload W [--seed N]
        [--seconds S] [--smoke]

``setup`` times import, config parsing and the pre-run audit.  ``measure``
does the same, then one discarded warm-up run and closed-loop runs that fit
in ``--seconds`` (at least MIN_SAMPLES).  ``trace`` alternates untraced and
traced runs and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import workloads

STARTED = time.perf_counter()  # set-up time starts before mvsde is imported

MIN_SAMPLES = 3


def _setup(args):
    experiments = workloads.import_package()
    cfgs = workloads.parse_workload(experiments, args.workload, seed=args.seed,
                                    smoke=args.smoke)
    workloads.pre_run_audit(experiments, cfgs)
    return experiments, cfgs, time.perf_counter() - STARTED


class Loop:
    """Closed-loop runs of one workload, checked against the first digest.

    With a tracer set, each run starts from empty spans and its per-layer
    metrics are appended to ``traced``.
    """

    def __init__(self, experiments, cfgs):
        self.experiments = experiments
        self.cfgs = cfgs
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.bytes_written = 0
        self.tracer = None
        self.traced = []

    def run(self):
        if self.tracer is not None:
            self.tracer.reset()
        res = workloads.run_once(self.experiments, self.cfgs)
        self.attempted += 1
        if self.digest is None and res.digest is not None:
            self.digest = res.digest
            self.bytes_written = res.bytes_written
        if not (res.passed and res.digest == self.digest):
            self.failed += 1
            reason = res.error or ("assertions failed" if not res.passed else
                                   f"digest {res.digest} != first run {self.digest}")
            print(f"run {self.attempted} failed: {reason}", file=sys.stderr)
            return None
        if self.tracer is not None:
            import tracing

            m = tracing.layer_metrics(self.tracer, self.bytes_written)
            m["trace.wall_s"] = res.wall_s
            self.traced.append(m)
        return res.wall_s

    def run_for(self, seconds, step=None, min_samples=MIN_SAMPLES):
        """Samples of ``step`` (default: one run's wall time) in ``seconds``.

        A step starts only if, at the median step duration so far, it ends
        inside the window, so one benchmark run lasts about as long as asked.
        A step returns None when a run failed; a failing program is not held
        to the minimum sample count.
        """
        step = step or self.run
        samples, durations = [], []
        start = time.perf_counter()
        while True:
            expected_end = time.perf_counter() - start + (
                statistics.median(durations) if durations else 0.0)
            if expected_end > seconds and (len(samples) >= min_samples or self.failed):
                return samples
            t = time.perf_counter()
            sample = step()
            durations.append(time.perf_counter() - t)
            if sample is not None:
                samples.append(sample)

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "digest": self.digest}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    if args.mode == "setup":
        _, _, setup_s = _setup(args)
        out = {"setup_s": setup_s}
    elif args.mode == "measure":
        experiments, cfgs, setup_s = _setup(args)
        loop = Loop(experiments, cfgs)
        loop.run()  # warm-up, discarded (still checked)
        samples = loop.run_for(args.seconds)
        out = {"setup_s": setup_s, "wall_s": samples, "peak_rss_mb": _peak_rss_mb(),
               **loop.summary()}
    else:
        out = _trace(args)
    print(json.dumps(out))
    return 0


def _trace(args):
    import tracing

    experiments = workloads.import_package()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cfgs = workloads.parse_workload(experiments, args.workload, seed=args.seed,
                                    smoke=args.smoke)
    parse_s = tracing.layer_metrics(tracer, 0)["experiments.parse_config.busy_s"]
    tracer.unpatch()

    loop = Loop(experiments, cfgs)
    loop.run()  # warm-up, discarded (still checked)

    def pair():
        """An untraced run, then a traced one: traced minus untraced wall time."""
        untraced = loop.run()
        tracing.install(tracer)
        loop.tracer = tracer
        try:
            traced = loop.run()
        finally:
            tracer.unpatch()
            loop.tracer = None
        return None if untraced is None or traced is None else traced - untraced

    overheads = loop.run_for(args.seconds, step=pair, min_samples=1)
    metrics = {}
    if overheads:
        metrics = {key: statistics.median(m[key] for m in loop.traced)
                   for key in loop.traced[0]}
        metrics["experiments.parse_config.busy_s"] = parse_s
        metrics["trace.overhead_s"] = statistics.median(overheads)
    return {"metrics": metrics, "traced_runs": len(loop.traced),
            "overhead_s": overheads, **loop.summary()}


if __name__ == "__main__":
    sys.exit(main())
