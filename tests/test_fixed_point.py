import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from mvsde import fixed_point, measures, metrics
from mvsde.coefficients import Model, ModelConstants
from mvsde.errors import ConvergenceError, DomainError
from mvsde.fixed_point import (
    OT_ATOMS,
    _iterate,
    _MetricContext,
    gamma_weight,
    inner_solve,
    lambda_schedule,
    psi_map,
    solve_mvsde,
    solver_grid,
)
from mvsde.measures import Flow, Measure, to_density
from mvsde.sde_engine import SimConfig
from conftest import arctan_mean_oracle, tanh_variance_oracle


def _cfg(n=20_000, dt=1e-3, t1=0.25, seed=11):
    return SimConfig(n, dt, 0.0, t1, seed=seed, crn=True)


def _record_simulations(monkeypatch) -> list:
    """Digests of the outputs of every simulation the fixed point runs, in order."""
    digests = []
    simulate = fixed_point.simulate_frozen

    def recording(*args, **kwargs):
        flow = simulate(*args, **kwargs)
        h = hashlib.blake2b(flow.times.tobytes(), digest_size=16)
        for m in flow.measures:
            h.update(np.ascontiguousarray(m.points).tobytes())
        digests.append(h.hexdigest())
        return flow

    monkeypatch.setattr(fixed_point, "simulate_frozen", recording)
    return digests


def test_lambda_schedule_formula():
    c = ModelConstants(K=1.5, k=1.0, eta=1.0, beta=1.0, b_sup=0.0)
    lam = lambda_schedule(c, gamma_moment=1.0)
    assert lam == pytest.approx(4.0 * math.pi, rel=1e-12)
    # monotone in the initial moment weight
    lams = [lambda_schedule(c, gamma_moment=g) for g in (1.0, 2.0, 5.0)]
    assert lams[0] <= lams[1] <= lams[2]
    # doubling escalation, capped
    assert lambda_schedule(c, 1.0, escalations=3) == pytest.approx(lam * 8)
    assert lambda_schedule(c, 1.0, escalations=99) == pytest.approx(lam * 2**10)
    with pytest.raises(DomainError):
        lambda_schedule(c, gamma_moment=0.0)


def test_gamma_weight():
    assert gamma_weight(Measure.dirac([0.0]), 1.0) == pytest.approx(1.0)
    assert gamma_weight(Measure.dirac([1.0]), 1.0) == pytest.approx(2.0)


def test_solver_grid_properties():
    cfg = _cfg(dt=1e-3, t1=0.25)
    grid = solver_grid(cfg)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.25)
    assert len(grid) <= 66
    steps = np.round(np.diff(grid) / cfg.dt).astype(int)
    assert np.all(steps >= 1)


def test_solve_ragged_horizon_ends_at_t1(arctan_model):
    # dt does not divide t1: the iteration flows still reach t1.
    cfg = SimConfig(500, 1e-3, 0.0, 0.0625, 3)
    assert solver_grid(cfg)[-1] == 0.0625
    rep = solve_mvsde(arctan_model, Measure.dirac([1.0]), cfg)
    assert rep.solution.times[-1] == 0.0625


def test_psi_nu_independent_for_distribution_free_sigma(arctan_model):
    cfg = _cfg(n=2000)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([1.0])
    mu = Flow.constant(gamma, nodes)
    nu_a = Flow.constant(gamma, nodes)
    nu_b = Flow.constant(Measure.dirac([-3.0]), nodes)
    out_a = psi_map(arctan_model, gamma, mu, nu_a, cfg)
    out_b = psi_map(arctan_model, gamma, mu, nu_b, cfg)
    assert all(np.array_equal(x.points, y.points)
               for x, y in zip(out_a.measures, out_b.measures))


def test_inner_solve_distribution_free_converges_fast(arctan_model, monkeypatch):
    digests = _record_simulations(monkeypatch)
    cfg = _cfg(n=2000)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([1.0])
    mu = Flow.constant(gamma, nodes)
    flow, info = inner_solve(arctan_model, gamma, mu, cfg, lam=12.0, tol=1e-6)
    # psi ignores nu, so the second sweep reproduces the first exactly: it
    # is the first sweep's flow, not a second simulation
    assert info["iterations"] == 2
    assert info["distances"][-1] == 0.0
    assert len(digests) == 1


def test_inner_solve_tanh_variance_oracle(tanh_model):
    # Self-consistent variance path solves v(t) = int (1 + tanh(Eh)/2)^2 du;
    # an independent deterministic iteration provides the expected value.
    cfg = _cfg(n=50_000, seed=13)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([0.0])
    mu = Flow.constant(gamma, nodes)
    lam = lambda_schedule(tanh_model.constants, gamma_weight(gamma, 1.0))
    flow, info = inner_solve(tanh_model, gamma, mu, cfg, lam=lam, tol=0.02)
    ts, v = tanh_variance_oracle(0.25)
    v_end = float(np.interp(0.25, ts, v))
    emp = float(flow.measures[-1].points.var())
    se = v_end * math.sqrt(2.0 / cfg.n_particles)
    node_gap = float(nodes[1] - nodes[0])
    assert abs(emp - v_end) <= 3 * se + cfg.dt + node_gap
    assert all(r < 1.0 for r in info["ratios"])


def test_inner_tol_halving_cauchy(tanh_model):
    cfg = _cfg(n=5000, seed=13)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([0.0])
    mu = Flow.constant(gamma, nodes)
    metric = _MetricContext(k=1.0, eta=1.0, lam=4.0)
    f1, _ = inner_solve(tanh_model, gamma, mu, cfg, lam=4.0, tol=0.04, metric=metric)
    f2, _ = inner_solve(tanh_model, gamma, mu, cfg, lam=4.0, tol=0.02, metric=metric)
    assert metric.rho(f1, f2) <= 0.04 + 1e-12


def test_phi_map_mu_independent_for_drift_free_models(tanh_model):
    # With no drift the intermediate SDE ignores its mu argument entirely.
    cfg = _cfg(n=2000, seed=13)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([0.0])
    metric = _MetricContext(k=1.0, eta=1.0, lam=4.0)
    mu_a = Flow.constant(gamma, nodes)
    mu_b = Flow.constant(Measure.dirac([5.0]), nodes)
    fa, _ = inner_solve(tanh_model, gamma, mu_a, cfg, 4.0, 0.05, metric=metric)
    fb, _ = inner_solve(tanh_model, gamma, mu_b, cfg, 4.0, 0.05, metric=metric)
    assert all(np.array_equal(x.points, y.points)
               for x, y in zip(fa.measures, fb.measures))


def test_solve_brownian_trivial(brownian_model):
    cfg = _cfg(n=5000)
    rep = solve_mvsde(brownian_model, Measure.dirac([0.0]), cfg, tol=0.05)
    assert rep.outer_iterations <= 2
    # law at the terminal node is N(0, t1)
    x = rep.solution.measures[-1].points[:, 0]
    assert abs(x.var() - 0.25) <= 3 * 0.25 * math.sqrt(2 / cfg.n_particles)
    assert rep.contraction_history["outer_distances"][-1] <= rep.tol_used


def test_solve_determinism(arctan_model):
    cfg = _cfg(n=3000)
    r1 = solve_mvsde(arctan_model, Measure.dirac([1.0]), cfg, tol=0.1)
    r2 = solve_mvsde(arctan_model, Measure.dirac([1.0]), cfg, tol=0.1)
    assert r1.to_json() == r2.to_json()
    assert all(np.array_equal(a.points, b.points)
               for a, b in zip(r1.solution.measures, r2.solution.measures))


def test_solve_arctan_matches_ode(arctan_model):
    cfg = _cfg(n=20_000)
    rep = solve_mvsde(arctan_model, Measure.dirac([1.0]), cfg, tol=0.05)
    oracle = arctan_mean_oracle(0.25, 1.0)
    errs = [abs(float(m.points.mean()) - oracle(t))
            for t, m in zip(rep.solution.times, rep.solution.measures)]
    se = 0.5 / math.sqrt(cfg.n_particles)
    node_gap = float(rep.solution.times[1] - rep.solution.times[0])
    assert max(errs) <= 3 * se + cfg.dt + node_gap


def test_fixed_point_residual(tanh_model):
    # phi applied to the returned solution moves it by at most the effective
    # tolerance plus the metric noise floor.
    cfg = _cfg(n=10_000, seed=13)
    rep = solve_mvsde(tanh_model, Measure.dirac([0.0]), cfg, tol=0.05)
    metric = _MetricContext(k=1.0, eta=1.0, lam=rep.lambda_used)
    again, _ = inner_solve(tanh_model, Measure.dirac([0.0]), rep.solution, cfg,
                           rep.lambda_used, rep.tol_used, metric=metric)
    d = metric.rho_tilde(rep.solution, again)
    assert d <= 2 * rep.tol_used + rep.noise_floor


def test_contraction_monotone_in_lambda(tanh_model):
    # Measured inner ratios do not increase when lambda grows (the weighted
    # metric discounts late-time discrepancies harder).
    cfg = _cfg(n=10_000, seed=13)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([0.0])
    mu = Flow.constant(gamma, nodes)
    history = [Flow.constant(gamma, nodes)]
    for _ in range(3):
        history.append(psi_map(tanh_model, gamma, mu, history[-1], cfg))
    lam_hat = lambda_schedule(tanh_model.constants, 1.0)
    thin = [f.resampled(256, 411) for f in history]
    ratios = []
    for lam in (lam_hat, 2 * lam_hat, 4 * lam_hat):
        d01 = metrics.rho_lambda(thin[0], thin[1], lam, 1.0, 1.0)
        d12 = metrics.rho_lambda(thin[1], thin[2], lam, 1.0, 1.0)
        ratios.append(d12 / d01)
    assert ratios[1] <= ratios[0] * 1.1
    assert ratios[2] <= ratios[1] * 1.1


def test_solve_rejects_dim_mismatch(brownian_model):
    with pytest.raises(DomainError):
        solve_mvsde(brownian_model, Measure.dirac([0.0, 0.0]), _cfg(n=100), tol=0.1)


def _dist(a, b):
    return abs(a - b)


def test_iterate_contraction_stops_under_tol():
    x, distances, ratios, failure = _iterate(lambda x: x / 2, _dist, 1.0, 1e-3, 50, -math.inf)
    assert failure is None
    assert distances == [2.0 ** -i for i in range(1, 11)]
    assert distances[-1] < 1e-3 <= distances[-2]
    assert ratios == [0.5] * 9
    assert x == 2.0 ** -10


def test_iterate_expansion_fails_after_three_strikes():
    x, distances, ratios, failure = _iterate(lambda x: 2 * x, _dist, 1.0, 1e-3, 50, -math.inf)
    assert failure is not None and "contract" in failure
    assert distances == [1.0, 2.0, 4.0, 8.0]
    assert ratios == [2.0, 2.0, 2.0]


def test_iterate_contracting_ratio_resets_strikes():
    # Distances 1, 2, 4, 1, 2, 4, 8: the ratio 0.25 clears two strikes, so
    # only the three ratios >= 1 after it end the loop, at sweep 7.
    steps = iter([1.0, 2.0, 4.0, 1.0, 2.0, 4.0, 8.0])
    _, distances, ratios, failure = _iterate(lambda x: x + next(steps), _dist, 0.0, 1e-3,
                                             50, -math.inf)
    assert failure is not None
    assert len(distances) == 7
    assert ratios == [2.0, 2.0, 0.25, 2.0, 2.0, 2.0]


def test_iterate_sweep_limit():
    _, distances, _, failure = _iterate(lambda x: x / 2, _dist, 1.0, 1e-12, 5, -math.inf)
    assert failure is not None and "5 sweeps" in failure
    assert len(distances) == 5


def test_iterate_ratios_skip_distances_at_or_below_floor():
    # Distances 0.5, 0.25, 0.125, ...: a ratio needs both distances above the floor.
    for floor, expected in ((0.2, [0.5]), (0.25, []), (-math.inf, [0.5] * 9)):
        _, _, ratios, failure = _iterate(lambda x: x / 2, _dist, 1.0, 1e-3, 50, floor)
        assert failure is None
        assert ratios == expected


def test_iterate_rejects_nonpositive_tol():
    with pytest.raises(DomainError):
        _iterate(lambda x: x / 2, _dist, 1.0, 0.0, 50, -math.inf)


def test_inner_failure_history_is_distances(tanh_model, monkeypatch):
    # A psi that moves a Dirac flow from x to 2x + 1 doubles every distance:
    # the error carries the four increasing distances, not the ratios.  The
    # model's sigma reads its measure, so every sweep calls psi.
    def doubling_psi(model, gamma, mu_flow, nu_flow, cfg):
        x = nu_flow.measures[0].points[0, 0]
        return Flow.constant(Measure.dirac([2 * x + 1]), nu_flow.times)

    monkeypatch.setattr(fixed_point, "psi_map", doubling_psi)
    cfg = _cfg(n=100)
    nodes = solver_grid(cfg)
    gamma = Measure.dirac([0.0])
    with pytest.raises(ConvergenceError) as err:
        inner_solve(tanh_model, gamma, Flow.constant(gamma, nodes), cfg, lam=1.0, tol=1e-6)
    history = err.value.history
    assert len(history) == 4
    assert all(b > a for a, b in zip(history, history[1:]))
    assert history == pytest.approx([2.0, 4.0, 8.0, 16.0])


def test_outer_failure_escalates_lambda_then_raises_distances(arctan_model, monkeypatch):
    # An outer map that doubles every distance fails at each lambda; after
    # the last doubling the error carries that attempt's outer distances.
    lams = []

    def floor(model, gamma, cfg, metric, nodes):
        lams.append(metric.lam)
        return 0.0, None

    def doubling_phi(model, gamma, mu_flow, cfg, lam, tol, metric=None, first_sweep=None):
        x = mu_flow.measures[0].points[0, 0]
        return Flow.constant(Measure.dirac([2 * x + 1]), mu_flow.times), {"iterations": 1}

    def point_distance(self, f1, f2):
        return abs(f1.measures[0].points[0, 0] - f2.measures[0].points[0, 0])

    monkeypatch.setattr(fixed_point, "estimate_noise_floor", floor)
    monkeypatch.setattr(fixed_point, "inner_solve", doubling_phi)
    monkeypatch.setattr(_MetricContext, "rho_tilde", point_distance)
    with pytest.raises(ConvergenceError) as err:
        solve_mvsde(arctan_model, Measure.dirac([0.0]), _cfg(n=100), tol=1e-6)
    assert err.value.history == [1.0, 2.0, 4.0, 8.0]
    assert lams == [lams[0] * 2.0**e for e in range(11)]


# Simulations per solve at 2000 particles, where every inner solve takes one
# sweep and the outer loop two iterates: the floor's two runs, then one
# simulated sweep per outer iterate, except under a measure-free drift.
SOLVE_CASES = [("arctan_model", 1.0, 3), ("tanh_model", 0.0, 2), ("mixed_model", 1.0, 3)]


@pytest.mark.parametrize("name, x0, calls", SOLVE_CASES)
def test_solve_reuses_known_simulations(request, monkeypatch, name, x0, calls):
    # Under common random numbers no simulation reproduces an earlier one:
    # the noise floor's first run is the first inner sweep, and a
    # measure-free drift (tanh) repeats the first inner solve.
    digests = _record_simulations(monkeypatch)
    solve_mvsde(request.getfixturevalue(name), Measure.dirac([x0]), _cfg(n=2000), tol=0.05)
    assert len(digests) == calls
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("name, x0, calls", SOLVE_CASES)
def test_reuse_leaves_the_solve_unchanged(request, monkeypatch, name, x0, calls):
    model = request.getfixturevalue(name)
    gamma = Measure.dirac([x0])
    cfg = _cfg(n=2000)
    fast = solve_mvsde(model, gamma, cfg, tol=0.05)
    # Take every reuse away: no floor run handed over, no structural flags.
    floor = fixed_point.estimate_noise_floor
    monkeypatch.setattr(fixed_point, "estimate_noise_floor", lambda *a: (floor(*a)[0], None))
    monkeypatch.setattr(Model, "sigma_measure_free", False)
    monkeypatch.setattr(Model, "drift_measure_free", False)
    # and no metric memo: every distance thins and smooths its flows afresh
    monkeypatch.setattr(_MetricContext, "_thin",
                        lambda self, flow: flow.resampled(OT_ATOMS, fixed_point._METRIC_SEED))
    monkeypatch.setattr(_MetricContext, "_smooth", lambda self, m: to_density(
        m, grid=self.grid, bandwidth=self.bandwidth))
    digests = _record_simulations(monkeypatch)
    slow = solve_mvsde(model, gamma, cfg, tol=0.05)
    assert len(digests) > calls
    assert fast.to_json() == slow.to_json()
    assert all(np.array_equal(a.points, b.points)
               for a, b in zip(fast.solution.measures, slow.solution.measures))


def test_decoupled_noise_simulates_every_sweep(arctan_model, monkeypatch):
    # With crn off each sweep's noise is keyed by its inputs, so the first
    # sweep differs from the floor's first run and measure-free sigma does
    # not make sweeps repeat: every sweep is simulated.
    digests = _record_simulations(monkeypatch)
    rep = solve_mvsde(arctan_model, Measure.dirac([1.0]), replace(_cfg(n=2000), crn=False),
                      tol=0.05)
    assert len(digests) == 2 + sum(rep.inner_iterations)
    assert len(set(digests)) == len(digests)


def _random_flow(rng, nodes=5, n=500):
    return Flow(np.linspace(0.0, 0.1, nodes),
                tuple(Measure.from_points(rng.normal(0.1 * i, 1.0, (n, 1))) for i in range(nodes)))


def test_distance_of_a_flow_to_itself_does_no_work(monkeypatch):
    # A repeated sweep hands the metric one flow object twice; it used to
    # resample both sides at every node and run W_1 on each pair to get 0.0.
    rng = np.random.default_rng(5)
    f1, f2 = _random_flow(rng), _random_flow(rng)
    metric = _MetricContext(k=1.0, eta=1.0, lam=2.0)
    calls = {"resample": 0, "to_density": 0}
    for module, fn in ((measures, "resample"), (fixed_point, "resample"),
                       (fixed_point, "to_density")):
        original = getattr(module, fn)

        def counting(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, fn, counting)
    assert metric.rho(f1, f2) > 0.0
    assert metric.rho_tilde(f1, f2) > 0.0
    before = dict(calls)
    assert metric.rho(f2, f2) == 0.0
    assert metric.rho_tilde(f2, f2) == 0.0
    assert calls == before
