"""The per-run stability loop that ``run_stability`` replaced, kept as its oracle.

``reference_stability`` is ``experiments.run_stability`` as it stood before
each perturbation size's runs were stepped in one stack: one
``simulate_frozen`` call for the unperturbed law and one per (driver,
delta), 16 in all, each drawing its own copy of the common noise.  It is
copied verbatim except for its name and the module prefixes of what it
calls.  ``run_stability`` must give the same series, assertions and
findings bit for bit.
"""

import math

import numpy as np

from mvsde import metrics
from mvsde.experiments import (DESIGN, Assertion, ExperimentConfig, ExperimentReport, Series,
                               _report, _sup_wk, fit_loglog, shared_grid_tv)
from mvsde.fixed_point import solve_mvsde
from mvsde.sde_engine import simulate_frozen


def reference_stability(cfg: ExperimentConfig) -> ExperimentReport:
    """Linear response of sup_t W_k to each driver of the stability bound."""
    k = cfg.model.constants.k
    eta = cfg.model.constants.eta
    deltas = np.asarray(DESIGN["stability"]["deltas"])
    sim = cfg.sim
    t0, t1 = sim.t0, sim.t1
    base_flow = solve_mvsde(cfg.model, cfg.gamma1, sim).solution
    nodes = base_flow.times
    e1 = np.zeros(cfg.model.dim)
    e1[0] = 1.0

    law_base = simulate_frozen(cfg.model, base_flow, base_flow, cfg.gamma1, sim,
                               record_times=nodes)

    drivers = {
        "initial": lambda d: (cfg.gamma1.shift(d * e1), base_flow, base_flow),
        "diffusion_flow": lambda d: (cfg.gamma1, base_flow, base_flow.shift(d * e1)),
        "drift_flow": lambda d: (cfg.gamma1, base_flow.shift(d * e1), base_flow),
    }
    assertions = []
    series = []
    findings = {}
    for name, make in drivers.items():
        responses = []
        driver_vals = []
        for d in deltas:
            gamma, mu_f, nu_f = make(float(d))
            law = simulate_frozen(cfg.model, mu_f, nu_f, gamma, sim, record_times=nodes)
            responses.append(_sup_wk(law_base, law, k))
            if name == "initial":
                driver_vals.append(metrics.wasserstein(cfg.gamma1, gamma, k).value)
            elif name == "diffusion_flow":
                vals = metrics.node_distances(base_flow, nu_f,
                                              lambda a, b: metrics.transport(a, b, k, eta) ** 2)
                driver_vals.append(math.sqrt(metrics.segment_integral(nodes, vals, t0, t1)))
            else:
                vals = metrics.node_distances(base_flow, mu_f, lambda a, b: (
                    metrics.wasserstein(a, b, k).value + shared_grid_tv(a, b, k)))
                driver_vals.append(metrics.segment_integral(nodes, vals, t0, t1))
        slope, _ = fit_loglog(deltas, responses, drop_ends=False)
        assertions.append(Assertion(
            f"{name}_response_linear", abs(slope - 1.0) <= 0.2, slope,
            "log-log slope of sup_t W_k against the perturbation size within 1 +- 0.2"))
        findings[f"{name}_slope"] = slope
        series.append(Series(
            f"stability_{name}", ("delta", "response", "driver"),
            tuple((float(d), float(r), float(v))
                  for d, r, v in zip(deltas, responses, driver_vals)),
            logx=True, logy=True))
    return _report(cfg, assertions, series, **findings)
