"""Traced full-scale runs of single shipped configs, for the ROADMAP cross-check.

    python3 perfbench/crosscheck.py [solve_arctan solve_tanh stability_mixed]

Runs each named config once at its shipped particle count and shipped seed
(no outputs written) with the tracer of ``tracing.py`` installed, and prints
the figures README.md compares with the ROADMAP's profiles.  Takes about a
minute on 2 cores for the default configs.
"""

import os
import sys
import time

import tracing
import workloads

DEFAULT = ("solve_arctan", "solve_tanh", "stability_mixed")


def main(names) -> int:
    experiments = workloads.import_package()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for name in names or DEFAULT:
        cfg = experiments.parse_config(os.path.join(workloads.CONFIGS, f"{name}.json"))
        tracer.reset()
        start = time.perf_counter()
        report = experiments.run_experiment(cfg, outdir=None)
        wall = time.perf_counter() - start
        m = tracing.layer_metrics(tracer, 0)
        w1d = m["metrics.wasserstein_1d.busy_s"]
        print(f"{name}: N={cfg.sim.n_particles} passed={report.passed} "
              f"traced wall {wall:.2f} s")
        print(f"  sims_per_solve {m['fixed_point.sims_per_solve']:.2f}, "
              f"distinct simulation outputs {len(tracer.sim_outputs)} of "
              f"{m['sde_engine.simulate_frozen.calls']}")
        print(f"  wasserstein_1d busy {w1d:.2f} s ({w1d / wall:.0%} of the run), "
              f"coverage warnings {m['measures.to_density.coverage_warnings']} of "
              f"{m['measures.to_density.calls']} densities", flush=True)
    tracer.unpatch()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
