"""What a process loads: the LP stack only once it solves an LP.

Other tests solve LPs in the pytest process, so the check runs in a fresh
interpreter.
"""

import json
import math
import os
import subprocess
import sys

from conftest import CONFIGS, REPO

_SCRIPT = """
import json, sys
from mvsde import cli, metrics
from mvsde.measures import Measure

LP = ("scipy.optimize", "scipy.sparse")
rc = cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2], "--smoke"])
before = [m for m in LP if m in sys.modules]
# Concave cost: the shared atom at 0 stays put and 1 -> 4 costs 0.5 * 3**0.5.
value = metrics.ot_lp(Measure.from_points([[0.0], [1.0]]),
                      Measure.from_points([[0.0], [4.0]]), 0.5).value
after = [m for m in LP if m in sys.modules]
print(json.dumps({"rc": rc, "before": before, "value": value, "after": after}))
"""


def test_the_lp_stack_loads_at_the_first_lp(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(CONFIGS / "solve_arctan.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rc"] == 0
    assert got["before"] == []
    assert math.isclose(got["value"], 0.5 * math.sqrt(3.0), rel_tol=0, abs_tol=1e-9)
    assert got["after"] == ["scipy.optimize", "scipy.sparse"]
