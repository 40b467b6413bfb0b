"""What a process loads: no scipy module until it solves an LP, then the LP stack.

Other tests import scipy in the pytest process, so the check runs in a fresh
interpreter.
"""

import json
import math
import os
import subprocess
import sys

from conftest import CONFIGS, REPO

_SCRIPT = """
import json, pathlib, sys
from mvsde import cli, metrics
from mvsde.measures import Measure

LP = ("scipy.optimize", "scipy.sparse")
out, paths = sys.argv[1], sys.argv[2:]
rcs = [cli.main([json.loads(pathlib.Path(p).read_text())["kind"], "--config", p,
                  "--out", f"{out}/{i}", "--smoke"])
       for i, p in enumerate(paths)]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
# Concave cost: the shared atom at 0 stays put and 1 -> 4 costs 0.5 * 3**0.5.
value = metrics.ot_lp(Measure.from_points([[0.0], [1.0]]),
                      Measure.from_points([[0.0], [4.0]]), 0.5).value
after = [m for m in LP if m in sys.modules]
print(json.dumps({"rcs": rcs, "scipy": scipy, "value": value, "after": after}))
"""

# Every shipped kind that solves no LP: the KDE smoother, the Duhamel FFT,
# the fixed point and the stacked simulations all run without scipy.
_RUNS = ("solve_arctan", "regularity_arctan", "stability_mixed", "duhamel_arctan")


def test_the_lp_stack_loads_at_the_first_lp(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    configs = [str(CONFIGS / f"{name}.json") for name in _RUNS]
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path), *configs],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rcs"] == [0] * len(_RUNS)
    assert got["scipy"] == []
    assert math.isclose(got["value"], 0.5 * math.sqrt(3.0), rel_tol=0, abs_tol=1e-9)
    assert got["after"] == ["scipy.optimize", "scipy.sparse"]
