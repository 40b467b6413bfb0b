"""Record each workload's output digest per seed, and whether it passes.

    python3 perfbench/record_digests.py

Runs every workload once at benchmark scale for the shipped seeds and for
each seed in SEEDS, prints PASS/FAIL per run and writes the digests
to ``digests.json``.  ``run.py`` prints whether a run's digest matches the
recorded one.  Run it on the commit whose outputs are the baseline.
"""

import json
import os

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(0, 13)


def main() -> int:
    experiments = workloads.import_package()
    table, failures = {}, 0
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in [None, *SEEDS]:
            cfgs = workloads.parse_workload(experiments, workload, seed=seed)
            res = workloads.run_once(experiments, cfgs)
            key = "shipped" if seed is None else str(seed)
            status = "PASS" if res.passed else f"FAIL {res.error or 'assertions failed'}"
            failures += not res.passed
            print(f"{workload} seed={key} {status} digest={res.digest}", flush=True)
            if res.digest is not None:
                table[workload][key] = res.digest
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{failures} failing runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
