"""Run every shipped config in --smoke mode and print one digest per output tree.

Usage::

    python3 scripts/smoke_digests.py

Each line reads ``<config> <exit code> <digest>``; the script exits 1 if
any config exits non-zero.  The digest is
``tree_digest`` from ``perfbench/workloads.py``, which hashes every file an
experiment writes with the checkout path replaced, so two checkouts that
compute the same outputs print the same lines.  Outputs go to a temporary
directory that is removed afterwards.

``scripts/smoke_digests.txt`` holds the lines this script prints with
numpy 2.4.6 and scipy 1.17.1, and CI compares its output with that file; a
change that moves outputs on purpose updates the file and says so::

    python3 scripts/smoke_digests.py | diff scripts/smoke_digests.txt -
"""

from __future__ import annotations

import contextlib
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from mvsde.cli import main as cli_main

    tree_digest = _load_workloads().tree_digest
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(glob.glob(os.path.join(REPO, "configs", "*.json"))):
            name = os.path.splitext(os.path.basename(config))[0]
            with open(config, "r", encoding="utf-8") as fh:
                kind = json.load(fh)["kind"]
            outdir = os.path.join(tmp, name)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main([kind, "--config", config, "--out", outdir, "--smoke"])
            print(f"{name} {code} {tree_digest(outdir)[0]}", flush=True)
            failed |= code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
