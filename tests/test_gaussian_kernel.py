import math

import numpy as np
import pytest

from mvsde.errors import DomainError, QuadratureError
from mvsde.gaussian_kernel import (
    FrozenCovariance,
    comparison_kernel,
    frozen_covariance,
    moment_integral_g1,
    perturbation_integral_g2,
    q_density,
    q_derivatives,
    q_values,
    variance_profile,
)
from mvsde.coefficients import Model
from mvsde.measures import Flow, Measure
from mvsde import metrics
from conftest import tv_centered_normals


def _cov(var, dt=None, d=1):
    a = np.eye(d) * var
    return FrozenCovariance(a, 0.0, dt if dt is not None else var, np.zeros(d))


def _const_flow():
    return Flow.constant(Measure.dirac([0.0]), [0.0])


def test_frozen_covariance_constant(brownian_model):
    cov = frozen_covariance(brownian_model, _const_flow(), [0.0], 0.0, 0.7)
    assert cov.a[0, 0] == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(DomainError):
        frozen_covariance(brownian_model, _const_flow(), [0.0], 0.5, 0.5)


def test_frozen_covariance_scaled():
    model = Model.from_json({
        "name": "c_sigma", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.3}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    cov = frozen_covariance(model, _const_flow(), [0.0], 0.0, 0.5)
    assert cov.a[0, 0] == pytest.approx(1.3**2 * 0.5, abs=1e-12)


def test_frozen_covariance_time_varying_oracle():
    # sigma_u = 1 + u/2 on [0,1]: closed form integral of (1+u/2)^2 is 19/12.
    model = Model.from_json({
        "name": "timevar", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [
            {"op": "lincomb", "const": 1.0,
             "terms": [{"coef": 0.5, "arg": {"op": "time"}}]}]},
        "constants": {"K": 2.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    cov = frozen_covariance(model, _const_flow(), [0.0], 0.0, 1.0)
    assert cov.a[0, 0] == pytest.approx(19.0 / 12.0, abs=1e-4)


def test_frozen_covariance_flow_coverage():
    model = Model.from_json({
        "name": "cov", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
        "constants": {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    flow = Flow([0.0, 0.5], (Measure.dirac([0.0]), Measure.dirac([1.0])))
    with pytest.raises(DomainError):
        frozen_covariance(model, flow, [0.0], 0.0, 1.0)  # two-node flow ends at 0.5


def test_variance_profile_shape_and_values():
    # diag sigma = (1.2, 1 + tanh(x_0)/4): a constant and a state-dependent axis.
    model = Model.from_json({
        "name": "diag2", "dim": 2,
        "drift": [{"op": "const", "value": 0.0}] * 2,
        "diffusion": {"kind": "diag", "exprs": [
            {"op": "const", "value": 1.2},
            {"op": "lincomb", "const": 1.0, "terms": [
                {"coef": 0.25, "arg": {"op": "tanh", "arg": {"op": "coord", "index": 0}}}]}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    flow = Flow.constant(Measure.dirac([0.0, 0.0]), [0.0])
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]])
    prof = variance_profile(model, flow, pts, 0.0, [0.25, 0.5])
    assert prof.shape == (3, 3, 2)
    assert np.all(prof[0] == 0.0)
    for j, t in ((1, 0.25), (2, 0.5)):
        assert prof[j, :, 0] == pytest.approx(1.44 * t, rel=1e-12)
        assert prof[j, :, 1] == pytest.approx((1 + np.tanh(pts[:, 0]) / 4) ** 2 * t, rel=1e-12)
    for z, row in zip(pts, prof[-1]):
        cov = frozen_covariance(model, flow, z, 0.0, 0.5)
        assert np.diag(cov.a) == pytest.approx(row, rel=1e-12)


def test_q_density_values():
    assert q_density(_cov(1.0), [0.0], [0.0]) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-12)
    assert q_density(_cov(1.0), [0.0], [0.0]) == pytest.approx(0.39894, abs=1e-5)
    got = q_density(_cov(2.0, dt=1.0), [0.0], [2.0])
    assert got == pytest.approx((4 * math.pi) ** -0.5 * math.exp(-1.0), abs=1e-12)
    assert got == pytest.approx(0.10378, abs=1e-5)


def test_q_normalization_and_gradient_zero_mean():
    for d, cells in ((1, 4096), (2, 256)):
        cov = _cov(0.8, dt=0.8, d=d)
        val = moment_integral_g1(cov, 0, 0.0, cells=cells)
        assert val == pytest.approx(1.0, abs=1e-6)
    # integral of grad q over y vanishes componentwise (differentiated
    # normalization); the Hessian integral vanishes entrywise too.
    cov = _cov(0.6, dt=0.6)
    xs = np.linspace(-8 * math.sqrt(0.6), 8 * math.sqrt(0.6), 8192)[:, None]
    h = xs[1, 0] - xs[0, 0]
    q = q_values(cov, [0.0], xs)
    grad = q * (xs[:, 0] / 0.6)
    hess = q * ((xs[:, 0] / 0.6) ** 2 - 1 / 0.6)
    assert abs(np.sum(grad) * h) <= 1e-6
    assert abs(np.sum(hess) * h) <= 1e-6


def test_q_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        d = int(rng.choice([1, 2]))
        m = rng.normal(size=(d, d))
        a = m @ m.T + 0.3 * np.eye(d)
        cov = FrozenCovariance(a, 0.0, 1.0, np.zeros(d))
        x = rng.normal(size=d)
        y = x + rng.normal(size=d) * math.sqrt(np.max(np.linalg.eigvalsh(a)))
        grad, hess = q_derivatives(cov, x, y)
        assert np.allclose(hess, hess.T, atol=1e-12)
        lam_min = float(np.min(np.linalg.eigvalsh(a)))
        scale = math.sqrt(lam_min)
        h = 1e-5 * scale
        q0 = q_density(cov, x, y)
        gnorm = max(np.abs(grad).max(), q0 / scale)
        hnorm = max(np.abs(hess).max(), q0 / lam_min)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (q_density(cov, x + e, y) - q_density(cov, x - e, y)) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / gnorm)
            for j in range(d):
                e2 = np.zeros(d)
                e2[j] = h
                fd2 = (q_density(cov, x + e + e2, y) - q_density(cov, x + e - e2, y)
                       - q_density(cov, x - e + e2, y) + q_density(cov, x - e - e2, y)) / (4 * h * h)
                worst = max(worst, abs(fd2 - hess[i, j]) / hnorm)
    assert worst <= 1e-5


def test_gradient_zero_at_center():
    grad, _ = q_derivatives(_cov(1.0), [0.3], [0.3])
    assert np.allclose(grad, 0.0)
    # spec example: d=1, a=1, y-x=1 -> dq = q(1)*1 = pdf(1)
    grad1, _ = q_derivatives(_cov(1.0), [0.0], [1.0])
    assert grad1[0] == pytest.approx(0.24197, abs=1e-5)


def test_comparison_kernel():
    got = comparison_kernel(1.0, 0.0, 1.0, [0.0], [0.0])
    assert got == pytest.approx((4 * math.pi) ** -0.5, abs=1e-12)
    assert got == pytest.approx(0.28209, abs=1e-5)
    # normalization on a wide grid
    xs = np.linspace(-10, 10, 8001)
    h = xs[1] - xs[0]
    vals = [comparison_kernel(1.2, 0.0, 0.5, [0.0], [x]) for x in xs]
    assert np.sum(vals) * h == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        comparison_kernel(1.0, 1.0, 0.5, [0.0], [0.0])


def test_domination_constant_stable():
    # |grad^i q| <= c (t-s)^(-i/2) qtilde: the fitted c moves by less than a
    # factor 2 across the tested horizons.
    K = 1.5
    for i in (0, 1, 2):
        cs = []
        for dt in (1e-3, 1e-2, 1e-1):
            var = 1.2 * dt  # inside [dt/K, dt*K]
            cov = _cov(var, dt=dt)
            xs = np.linspace(-6 * math.sqrt(var), 6 * math.sqrt(var), 2001)[:, None]
            q = q_values(cov, [0.0], xs)
            if i == 0:
                mag = q
            elif i == 1:
                mag = q * np.abs(xs[:, 0]) / var
            else:
                mag = q * np.abs((xs[:, 0] / var) ** 2 - 1 / var)
            tilde = np.array([comparison_kernel(K, 0.0, dt, [0.0], [x]) for x in xs[:, 0]])
            cs.append(float(np.max(mag / (dt ** (-i / 2) * tilde))))
        assert max(cs) / min(cs) < 2.0, f"i={i}: fitted constants {cs}"


def test_g1_examples():
    for tau in (0.3, 1.0):
        cov = _cov(tau, dt=tau)
        assert moment_integral_g1(cov, 0, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert moment_integral_g1(cov, 0, 2.0) == pytest.approx(tau, rel=1e-6)
        got = moment_integral_g1(cov, 1, 0.0)
        assert got == pytest.approx(math.sqrt(2.0 / (math.pi * tau)), rel=1e-4)
    with pytest.raises(DomainError):
        moment_integral_g1(_cov(1.0), 3, 0.0)
    with pytest.raises(DomainError):
        moment_integral_g1(_cov(1.0), 0, -1.0)
    with pytest.raises(DomainError):
        moment_integral_g1(_cov(1.0, d=3), 0, 0.0)


def test_g1_quadrature_mass_guard():
    cov = _cov(1.0, d=2)
    with pytest.raises(QuadratureError):
        moment_integral_g1(cov, 0, 0.0, cells=4)


def test_g1_exponent_slopes_quick():
    for i, eps in ((1, 0.0), (0, 2.0)):
        ts = np.geomspace(1e-3, 1.0, 5)
        vals = [moment_integral_g1(_cov(t, dt=t), i, eps) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope - (-i + eps) / 2.0) <= 0.05


def test_g2_zero_for_identical_flows(mean_sigma_model):
    f = Flow.constant(Measure.dirac([1.0]), [0.0])
    assert perturbation_integral_g2(mean_sigma_model, f, f, [0.0], 0.0, 0.5, 0, 0.0) == 0.0


def test_g2_variance_tv_oracle(mean_sigma_model):
    # sigma(mu) = mu(id): Dirac flows at 1 and 1+d give centered normals with
    # variances tau and (1+d)^2 tau whose TV has a closed form.
    tau = 0.5
    for d in (1e-2, 1e-1):
        f1 = Flow.constant(Measure.dirac([1.0]), [0.0])
        f2 = Flow.constant(Measure.dirac([1.0 + d]), [0.0])
        got = perturbation_integral_g2(mean_sigma_model, f1, f2, [0.0], 0.0, tau, 0, 0.0)
        oracle = tv_centered_normals(tau, (1 + d) ** 2 * tau)
        assert got == pytest.approx(oracle, abs=1e-3)


def test_g2_linear_in_perturbation(mean_sigma_model):
    tau = 0.5
    vals = {}
    for d in (1e-3, 1e-2):
        f1 = Flow.constant(Measure.dirac([1.0]), [0.0])
        f2 = Flow.constant(Measure.dirac([1.0 + d]), [0.0])
        vals[d] = perturbation_integral_g2(mean_sigma_model, f1, f2, [0.0], 0.0, tau, 0, 0.0)
    ratio = (vals[1e-2] / 1e-2) / (vals[1e-3] / 1e-3)
    assert abs(ratio - 1.0) <= 0.10


def test_g2_bounded_by_flow_distance_driver(mean_sigma_model):
    # The perturbation integral stays below a stable multiple of
    # (t-s)^((eps-i)/2) times the average flow distance, which for constant
    # flows is the distance W_1 + W_eta between their measures.
    tau = 0.25
    m1, m2 = Measure.dirac([1.0]), Measure.dirac([1.05])
    f1, f2 = Flow.constant(m1, [0.0]), Flow.constant(m2, [0.0])
    driver = metrics.transport(m1, m2, 1.0, 1.0)
    for i in (0, 1):
        val = perturbation_integral_g2(mean_sigma_model, f1, f2, [0.0], 0.0, tau, i, 0.0)
        bound_shape = tau ** ((-i) / 2.0) * driver
        assert val <= 10.0 * bound_shape
