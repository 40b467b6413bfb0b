"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every quantitative
tolerance here is fixed from the shipped configuration, not calibrated at
runtime; unspecified theory constants are fitted and only exponents and
stability are asserted.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from mvsde import cli, metrics
from mvsde.duhamel import solve_density
from mvsde.fixed_point import solve_mvsde
from mvsde.gaussian_kernel import (
    FrozenCovariance,
    exponent_scan,
    moment_integral_g1,
    perturbation_integral_g2,
    q_density,
    q_derivatives,
)
from mvsde.measures import Flow, Measure
from mvsde.sde_engine import SimConfig, simulate_frozen
from mvsde.experiments import (
    parse_config,
    run_gradient,
    run_regularity,
    run_stability,
)
from conftest import (
    CONFIGS,
    MODELS,
    arctan_mean_oracle,
    tv_centered_normals,
)


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_ot_oracle_equivalence():
    rng = np.random.default_rng(20250809)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n, m = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        m1 = Measure.from_points(rng.normal(size=(n, 1)) * 2, rng.uniform(0.1, 1, n))
        m2 = Measure.from_points(rng.normal(size=(m, 1)) * 2, rng.uniform(0.1, 1, m))
        k = float(rng.choice([1.0, 2.0, 3.0]))
        a = metrics.wasserstein_1d(m1, m2, k).value
        b = metrics.ot_lp(m1, m2, k).value
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    _verdict(1, "OT oracle equivalence", worst <= 1e-9 and elapsed < 10.0,
             f"max |exact_1d - lp| = {worst:.2e} over 500 instances in {elapsed:.1f}s")


def test_criterion_02_kernel_correctness():
    start = time.perf_counter()
    # normalization on the quadrature window
    norm_err = abs(moment_integral_g1(
        FrozenCovariance(np.array([[0.7]]), 0.0, 0.7, np.zeros(1)), 0, 0.0) - 1.0)
    norm2_err = abs(moment_integral_g1(
        FrozenCovariance(np.eye(2) * 0.4, 0.0, 0.4, np.zeros(2)), 0, 0.0) - 1.0)
    # analytic derivatives against central finite differences
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([1, 2]))
        mmat = rng.normal(size=(d, d))
        a = mmat @ mmat.T + 0.3 * np.eye(d)
        cov = FrozenCovariance(a, 0.0, 1.0, np.zeros(d))
        x = rng.normal(size=d)
        y = x + rng.normal(size=d) * math.sqrt(np.max(np.linalg.eigvalsh(a)))
        grad, hess = q_derivatives(cov, x, y)
        lam_min = float(np.min(np.linalg.eigvalsh(a)))
        scale = math.sqrt(lam_min)
        h = 1e-5 * scale
        q = q_density(cov, x, y)
        # Relative to the derivative's curvature scale: entries at a zero
        # crossing cannot carry a meaningful entrywise relative error.
        gn = max(np.abs(grad).max(), q / scale)
        hn = max(np.abs(hess).max(), q / lam_min)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (q_density(cov, x + e, y) - q_density(cov, x - e, y)) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / gn)
            for j in range(d):
                e2 = np.zeros(d)
                e2[j] = h
                fd2 = (q_density(cov, x + e + e2, y) - q_density(cov, x + e - e2, y)
                       - q_density(cov, x - e + e2, y)
                       + q_density(cov, x - e - e2, y)) / (4 * h * h)
                worst = max(worst, abs(fd2 - hess[i, j]) / hn)
    elapsed = time.perf_counter() - start
    ok = norm_err <= 1e-6 and norm2_err <= 1e-6 and worst <= 1e-5 and elapsed < 5.0
    _verdict(2, "kernel correctness", ok,
             f"norm err {norm_err:.1e}/{norm2_err:.1e}, FD rel err {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_03_exponent_laws_g1(tmp_path):
    start = time.perf_counter()
    results = {}
    ok = True
    for i, eps in ((1, 0.0), (2, 0.0), (1, 1.0), (0, 2.0)):
        slope, rows = exponent_scan(i, eps, np.geomspace(1e-3, 1.0, 9),
                                    csv_path=tmp_path / f"g1_{i}_{eps}.csv")
        results[(i, eps)] = slope
        ok = ok and abs(slope - (-i + eps) / 2.0) <= 0.05
        # fitted constants are stable when the exponent law holds
        cs = [r[2] for r in rows]
        ok = ok and max(cs) / min(cs) < 1.5
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(3, "exponent laws", ok,
             f"slopes {{(i,eps): s}} = { {k: round(v, 4) for k, v in results.items()} } "
             f"in {elapsed:.1f}s")


def test_criterion_04_perturbation_law_g2(mean_sigma_model):
    tau = 0.5
    deltas = np.geomspace(1e-3, 1e-1, 5)
    vals = []
    for d in deltas:
        f1 = Flow.constant(Measure.dirac([1.0]), [0.0])
        f2 = Flow.constant(Measure.dirac([1.0 + d]), [0.0])
        vals.append(perturbation_integral_g2(mean_sigma_model, f1, f2, [0.0],
                                             0.0, tau, 0, 0.0))
    slope = float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])
    d0 = 0.05
    f1 = Flow.constant(Measure.dirac([1.0]), [0.0])
    f2 = Flow.constant(Measure.dirac([1.0 + d0]), [0.0])
    got = perturbation_integral_g2(mean_sigma_model, f1, f2, [0.0], 0.0, tau, 0, 0.0)
    oracle = tv_centered_normals(tau, (1 + d0) ** 2 * tau)
    ok = abs(slope - 1.0) <= 0.1 and abs(got - oracle) <= 1e-3
    _verdict(4, "perturbation law", ok,
             f"slope {slope:.4f}, closed-form TV diff {abs(got - oracle):.2e}")


def test_criterion_05_duhamel_solver(brownian_model, const_drift_model, arctan_model):
    start = time.perf_counter()
    flow0 = Flow.constant(Measure.dirac([0.0]), [0.0])

    g0 = solve_density(brownian_model, flow0, flow0, 0.0, 0.0, 0.25, cells=1024)
    xs = g0.centers()
    err0 = float(np.abs(g0.final_density() - norm.pdf(xs, scale=0.5)).max())
    zero_ok = g0.iterations == 1 and err0 <= 1e-10

    g1 = solve_density(const_drift_model, flow0, flow0, 0.0, 0.0, 0.25,
                       tol=1e-6, cells=1024)
    err1 = float(np.abs(g1.final_density()
                        - norm.pdf(g1.centers(), loc=0.25, scale=0.5)).max())
    drift_ok = err1 <= 1e-3

    # mean-field case: true flow plugged in, Monte Carlo histogram oracle
    gamma = Measure.dirac([1.0])
    flow_cfg = SimConfig(20_000, 1e-3, 0.0, 0.25, seed=7, crn=True)
    flows = solve_mvsde(arctan_model, gamma, flow_cfg, tol=0.05).solution
    g2 = solve_density(arctan_model, flows, flows, 1.0, 0.0, 0.25, tol=1e-5, cells=1024)
    n_mc = 100_000
    mc_cfg = SimConfig(n_mc, 1e-3, 0.0, 0.25, seed=24, crn=True)
    mc = simulate_frozen(arctan_model, flows, flows, gamma, mc_cfg,
                         record_times=[0.0, 0.25])
    hist, _ = np.histogram(mc.measures[-1].points[:, 0], bins=g2.edges())
    tv = float(np.abs((g2.final_density() * g2.h).reshape(64, -1).sum(axis=1)
                      - (hist / n_mc).reshape(64, -1).sum(axis=1)).sum())
    tv += 1.0 - hist.sum() / n_mc
    mf_ok = tv <= 0.05
    elapsed = time.perf_counter() - start
    ok = zero_ok and drift_ok and mf_ok and elapsed < 300.0
    _verdict(5, "Duhamel solver", ok,
             f"p=q err {err0:.1e} ({g0.iterations} iter), drift sup err {err1:.2e}, "
             f"mean-field TV {tv:.4f}, {elapsed:.0f}s")


def test_criterion_06_two_step_fixed_point(arctan_model, tanh_model):
    start = time.perf_counter()
    all_ratios = {}
    reports = {}
    for model, gamma, seed in ((arctan_model, Measure.dirac([1.0]), 11),
                               (tanh_model, Measure.dirac([0.0]), 13)):
        cfg = SimConfig(100_000, 1e-3, 0.0, 0.25, seed=seed, crn=True)
        rep = solve_mvsde(model, gamma, cfg, tol=0.05)
        ratios = list(rep.contraction_history["outer_ratios"])
        for info in rep.contraction_history["inner"]:
            ratios.extend(info["ratios"])
        all_ratios[model.name] = ratios
        reports[model.name] = rep
    contraction_ok = all(r < 1.0 for rs in all_ratios.values() for r in rs)

    rep = reports["arctan_drift"]
    oracle = arctan_mean_oracle(0.25, 1.0)
    errs = [abs(float(m.points.mean()) - oracle(t))
            for t, m in zip(rep.solution.times, rep.solution.measures)]
    se = 0.5 / math.sqrt(100_000)
    node_gap = float(rep.solution.times[1] - rep.solution.times[0])
    tol = 3 * se + 1e-3 + node_gap
    ode_ok = max(errs) <= tol
    elapsed = time.perf_counter() - start
    ok = contraction_ok and ode_ok and elapsed < 600.0
    _verdict(6, "two-step fixed point", ok,
             f"ratios {all_ratios}, ODE max err {max(errs):.4f} (tol {tol:.4f}), "
             f"{elapsed:.0f}s")


def test_criterion_07_regularity():
    cfg_b = parse_config(CONFIGS / "regularity_brownian.json")
    rep_b = run_regularity(cfg_b)
    slope_b = rep_b.metadata["tv_slope"]
    brownian_ok = abs(slope_b + 0.5) <= 0.05

    cfg_a = parse_config(CONFIGS / "regularity_arctan.json")
    rep_a = run_regularity(cfg_a)
    slope_a = rep_a.metadata["tv_slope"]
    lo, hi = rep_a.metadata["wk_ratio_range"]
    shipped_ok = -0.65 <= slope_a <= -0.35 and hi / lo < 2.0
    ok = brownian_ok and shipped_ok and rep_b.passed and rep_a.passed
    _verdict(7, "regularity estimate", ok,
             f"brownian slope {slope_b:.4f}, shipped slope {slope_a:.4f}, "
             f"W_k ratio spread {hi / lo:.3f}")


def test_criterion_08_gradient_estimate():
    cfg = parse_config(CONFIGS / "gradient_brownian.json")
    rep = run_gradient(cfg)
    tv_slope = rep.metadata["tv_slope"]
    details = {"tv": round(tv_slope, 4)}
    ok = abs(tv_slope + 0.5) <= 0.15
    for e in (0.25, 0.5, 1.0):
        slope = rep.metadata[f"weps_slope_{e}"]
        ceiling = (-1 + e) / 2
        details[f"w{e}"] = round(slope, 4)
        ok = ok and (ceiling - 0.15 <= slope <= 0.15)
    ok = ok and rep.passed
    _verdict(8, "gradient estimate", ok, f"slopes {details}")


def test_criterion_09_stability():
    cfg = parse_config(CONFIGS / "stability_mixed.json")
    rep = run_stability(cfg)
    slopes = {k.replace("_slope", ""): round(v, 4)
              for k, v in rep.metadata.items() if k.endswith("_slope")}
    ok = rep.passed and all(abs(v - 1.0) <= 0.2 for v in slopes.values())
    _verdict(9, "stability bound", ok, f"driver response slopes {slopes}")


def test_criterion_10_determinism_smoke(tmp_path):
    start = time.perf_counter()
    pairs = [
        ("audit", "audit_mixed"),
        ("solve", "solve_arctan"),
        ("regularity", "regularity_brownian"),
        ("gradient", "gradient_brownian"),
        ("stability", "stability_mixed"),
        ("duhamel", "duhamel_arctan"),
    ]
    identical = True
    for kind, name in pairs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{kind}_{tag}"
            rc = cli.main([kind, "--config", str(CONFIGS / f"{name}.json"),
                           "--out", str(out), "--smoke"])
            assert rc == 0, f"{kind} smoke run failed with exit {rc}"
            outs.append(out)
        for f in sorted(outs[0].rglob("*")):
            if f.is_file():
                twin = outs[1] / f.relative_to(outs[0])
                if not (twin.exists() and f.read_bytes() == twin.read_bytes()):
                    identical = False
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 180.0
    _verdict(10, "determinism + smoke suite", ok,
             f"bit-identical={identical}, full smoke suite twice in {elapsed:.0f}s")
