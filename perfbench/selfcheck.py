"""Fast self-check of the benchmark harness, on smoke-mode configs.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with ``--smoke`` and
checks that

* BENCHMARK.json, the workload table, the printed metrics and
  ``interactions.json`` name the same metrics with the same units;
* every metric is printed by name with its unit, and the failed ratio too;
* each per-layer metric reads 0 on the workloads ``interactions.json``
  predicts zero for, and each ``.calls`` metric reads > 0 everywhere else.
  A wrapper that missed a re-bound name (``from .x import f``) reads 0 where
  calls were predicted.

Exits 1 and lists the problems if any check fails.  It is not a pytest
module, so the tier-1 suite does not collect it.
"""

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def check_printed(workload, spec, lines, result, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{workload}: metrics/units {got} != BENCHMARK.json {expected}")
    for name, unit in expected.items():
        prefix = f"metric {workload} {name} = "
        if not any(l.startswith(prefix) and l.split()[5] == unit for l in lines):
            problems.append(f"{workload}: no printed line for {name} in {unit}")
    if not any(l.startswith(f"metric {workload} failed_ratio = ") for l in lines):
        problems.append(f"{workload}: failed_ratio not printed")


def check_predictions(workload, metrics, table, problems):
    for name, pred in table.items():
        value = metrics[name]["value"]
        if workload in pred["zero_on"] and value != 0:
            problems.append(f"{workload}: {name} = {value}, predicted 0")
        if name.endswith(".calls") and workload not in pred["zero_on"] and value <= 0:
            problems.append(f"{workload}: {name} = {value}, predicted > 0 "
                            "(a wrapper may miss a re-bound name)")


def main() -> int:
    bench = _load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    table = _load(os.path.join(HERE, "interactions.json"))["metrics"]
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    if set(table) != {m["name"] for m in bench["per_layer"]}:
        problems.append("interactions.json and BENCHMARK.json per_layer name different metrics")
    for name, pred in table.items():
        for pair in pred["moves"]:
            metric, _, workload = pair.partition(":")
            if metric not in e2e or workload not in names:
                problems.append(f"interactions.json: {name} moves unknown {pair}")
        for workload in pred["zero_on"] + pred["unchanged_on"]:
            if workload not in names:
                problems.append(f"interactions.json: {name} names unknown workload {workload}")

    for workload in names:
        lines, result = _run(workload, 0)
        check_printed(workload, bench["end_to_end"], lines, result, problems)
        lines, result = _run(workload, 1)
        check_printed(workload, bench["per_layer"], lines, result, problems)
        if set(result["metrics"]) >= set(table):
            check_predictions(workload, result["metrics"], table, problems)
        print(f"checked {workload}", flush=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
