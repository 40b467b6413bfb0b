import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.stats import norm

from mvsde import duhamel
from mvsde.duhamel import remainder_R, solve_density
from mvsde.errors import DomainError, NumericsError, QuadratureError
from mvsde.gaussian_kernel import variance_profile
from mvsde.measures import Flow, Measure
from mvsde.sde_engine import SimConfig, simulate_frozen
from mvsde.coefficients import Model


def _flow(x=0.0):
    return Flow.constant(Measure.dirac([x]), [0.0])


@pytest.fixture(scope="module")
def const_drift_grid(const_drift_model):
    f = _flow()
    return solve_density(const_drift_model, f, f, 0.0, 0.0, 0.25, tol=1e-6, cells=1024)


@pytest.fixture(scope="module")
def space_sigma_grid(space_sigma_model):
    f = _flow()
    return solve_density(space_sigma_model, f, f, 0.0, 0.0, 0.25, tol=1e-6,
                         cells=512, time_nodes=24)


def test_zero_remainder_p_equals_q(brownian_model):
    f = _flow()
    grid = solve_density(brownian_model, f, f, 0.0, 0.0, 0.25, tol=1e-6, cells=1024)
    assert grid.iterations == 1
    xs = grid.centers()
    exact = norm.pdf(xs, scale=math.sqrt(0.25))
    assert np.abs(grid.final_density() - exact).max() <= 1e-10


def test_constant_drift_closed_form(const_drift_grid):
    xs = const_drift_grid.centers()
    exact = norm.pdf(xs, loc=0.25, scale=math.sqrt(0.25))
    assert np.abs(const_drift_grid.final_density() - exact).max() <= 1e-3
    # intermediate slices track N(b0 r, r) as well
    for ti, row in zip(const_drift_grid.times[::6], const_drift_grid.p[::6]):
        ex = norm.pdf(xs, loc=ti, scale=math.sqrt(ti))
        assert np.abs(row - ex).max() <= 2e-3


def test_mass_conservation_and_negativity(const_drift_grid, space_sigma_grid):
    assert const_drift_grid.mass_errors.max() <= 1e-4
    assert space_sigma_grid.mass_errors.max() <= 1e-4
    assert const_drift_grid.max_negative <= 1e-8
    # clamped mass is logged
    assert const_drift_grid.clamped_mass >= 0.0


def test_geometric_residual_decay(const_drift_grid):
    res = [r for r in const_drift_grid.residuals if r > 0]
    assert len(res) >= 4
    tail = res[-3:]
    heads = res[-4:-1]
    assert all(b / a < 1.0 for a, b in zip(heads, tail))


def test_horizon_refusal(const_drift_model):
    # The kernel width sqrt((t-s)/K) must span at least two cells; with the
    # auto-fitted window this caps the cell width, so a coarse grid refuses.
    f = _flow()
    with pytest.raises(DomainError):
        solve_density(const_drift_model, f, f, 0.0, 0.0, 1e-4, cells=16)
    with pytest.raises(DomainError):
        solve_density(const_drift_model, f, f, 0.0, 0.5, 0.5)


def test_dimension_guard():
    model2d = Model.from_json({
        "name": "m2", "dim": 2,
        "drift": [{"op": "const", "value": 0.0}, {"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
        "constants": {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    f = Flow.constant(Measure.dirac([0.0, 0.0]), [0.0])
    with pytest.raises(DomainError):
        solve_density(model2d, f, f, [0.0, 0.0], 0.0, 0.25)


def test_remainder_zero_without_drift_or_trace(brownian_model):
    f = _flow()
    grid = solve_density(brownian_model, f, f, 0.0, 0.0, 0.25, cells=512)
    assert remainder_R(brownian_model, f, f, grid, lambda z: z, 0.0, 0.25) == 0.0
    assert remainder_R(brownian_model, f, f, grid, lambda z: np.ones_like(z), 0.0, 0.25) == 0.0


def test_remainder_constant_drift_mean_shift(const_drift_model, const_drift_grid):
    # Against f(z) = z the remainder carries exactly the mean displacement.
    f = _flow()
    val = remainder_R(const_drift_model, f, f, const_drift_grid, lambda z: z, 0.0, 0.25)
    assert val == pytest.approx(0.25, abs=1e-5)
    val_half = remainder_R(const_drift_model, f, f, const_drift_grid,
                           lambda z: z, 0.0, 0.125)
    assert val_half == pytest.approx(0.125, abs=1e-5)


def test_remainder_test_function_errors_propagate(const_drift_model, const_drift_grid):
    f = _flow()
    # A scalar-only test function (TypeError on arrays) is evaluated point by point.
    vec = remainder_R(const_drift_model, f, f, const_drift_grid, lambda z: z, 0.0, 0.25)
    pointwise = remainder_R(const_drift_model, f, f, const_drift_grid,
                            lambda z: float(z), 0.0, 0.25)
    assert pointwise == vec
    # Any other exception propagates from the first call, without a retry.
    calls = []

    def broken(z):
        calls.append(z)
        raise RuntimeError("broken test function")

    with pytest.raises(RuntimeError, match="broken test function"):
        remainder_R(const_drift_model, f, f, const_drift_grid, broken, 0.0, 0.25)
    assert len(calls) == 1


def test_remainder_rejects_non_finite_test_function(const_drift_model, const_drift_grid):
    f = _flow()
    with pytest.raises(NumericsError):
        remainder_R(const_drift_model, f, f, const_drift_grid,
                    lambda z: np.where(z > 0.5, np.inf, z), 0.0, 0.25)
    # The point-by-point path is checked too (the comparison is scalar-only).
    with pytest.raises(NumericsError):
        remainder_R(const_drift_model, f, f, const_drift_grid,
                    lambda z: math.nan if z > 0.5 else z, 0.0, 0.25)


def test_remainder_trace_term_small_against_one(space_sigma_model, space_sigma_grid):
    # With b = 0 only the trace term remains; against f = 1 it nearly cancels
    # by the differentiated normalization (small residue from the
    # cell-frozen covariances).
    f = _flow()
    val = remainder_R(space_sigma_model, f, f, space_sigma_grid,
                      lambda z: np.ones_like(z), 0.0, 0.25, atol=1e-5)
    assert abs(val) <= 5e-3


def test_remainder_quadrature_guard(const_drift_model, const_drift_grid):
    f = _flow()
    with pytest.raises(QuadratureError):
        remainder_R(const_drift_model, f, f, const_drift_grid,
                    lambda z: np.sin(3 * z), 0.0, 0.25, u_nodes=3, rtol=1e-12, atol=1e-15)
    with pytest.raises(DomainError):
        remainder_R(const_drift_model, f, f, const_drift_grid, lambda z: z, 0.0, 0.5)


def test_remainder_response_linear_in_flow_perturbation(arctan_model):
    # One flow is perturbed at a time; the remainder difference responds
    # linearly (structure of the distance-driver decomposition).  The
    # diffusion-flow response runs through the kernel perturbation, which
    # needs a drift to integrate against; the drift-flow response runs
    # through the drift difference itself.
    drift_mean_sigma = Model.from_json({
        "name": "drift_mean_sigma", "dim": 1,
        "drift": [{"op": "const", "value": 1.0}],
        "diffusion": {"kind": "scalar",
                      "exprs": [{"op": "integral", "arg": {"op": "coord", "index": 0}}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1.0},
    })
    base = _flow(1.0)
    grid = solve_density(drift_mean_sigma, base, base, 1.0, 0.0, 0.25, cells=512,
                         time_nodes=20)
    f_test = lambda z: np.tanh(z)
    r0 = remainder_R(drift_mean_sigma, base, base, grid, f_test, 0.0, 0.25, check=False)
    deltas = [1e-2, 3.16e-2, 1e-1]
    resp = []
    for d in deltas:
        nu2 = _flow(1.0 + d)
        r = remainder_R(drift_mean_sigma, base, nu2, grid, f_test, 0.0, 0.25, check=False)
        resp.append(abs(r - r0))
    slope = np.polyfit(np.log(deltas), np.log(resp), 1)[0]
    assert abs(slope - 1.0) <= 0.2

    base0 = _flow(1.0)
    grid_a = solve_density(arctan_model, base0, base0, 1.0, 0.0, 0.25, cells=512,
                           time_nodes=20)
    r0 = remainder_R(arctan_model, base0, base0, grid_a, f_test, 0.0, 0.25, check=False)
    resp = []
    for d in deltas:
        mu2 = _flow(1.0 + d)
        r = remainder_R(arctan_model, mu2, base0, grid_a, f_test, 0.0, 0.25, check=False)
        resp.append(abs(r - r0))
    slope = np.polyfit(np.log(deltas), np.log(resp), 1)[0]
    assert abs(slope - 1.0) <= 0.2


def test_space_sigma_solver_matches_monte_carlo(space_sigma_model, space_sigma_grid):
    f = _flow()
    n = 50_000
    cfg = SimConfig(n, 1e-3, 0.0, 0.25, seed=21)
    mc = simulate_frozen(space_sigma_model, f, f, Measure.dirac([0.0]), cfg,
                         record_times=[0.0, 0.25])
    sample = mc.measures[-1].points[:, 0]
    edges = space_sigma_grid.edges()
    hist, _ = np.histogram(sample, bins=edges)
    mass_mc = hist / n
    mass_solver = space_sigma_grid.final_density() * space_sigma_grid.h
    tv = np.abs(mass_solver.reshape(64, -1).sum(axis=1)
                - mass_mc.reshape(64, -1).sum(axis=1)).sum() + (1 - mass_mc.sum())
    assert tv <= 0.05


def test_density_and_residual_csv(tmp_path, const_drift_grid):
    p1 = tmp_path / "density.csv"
    p2 = tmp_path / "residuals.csv"
    const_drift_grid.density_csv(p1)
    const_drift_grid.residuals_csv(p2)
    assert p1.read_text().splitlines()[0] == "t,x,p"
    assert p2.read_text().splitlines()[0] == "iter,residual"
    assert len(p2.read_text().splitlines()) == len(const_drift_grid.residuals) + 1


def _fftconvolve_density(model, flow, x0, s, t, cells, tol=1e-6, time_nodes=28):
    """State-free-sigma Picard loop with one fftconvolve per time pair and sweep."""
    K, b_sup = model.constants.K, model.constants.b_sup
    half = 8.0 * math.sqrt(K * (t - s)) + b_sup * (t - s)
    x_lo, x_hi = x0 - half, x0 + half
    h = (x_hi - x_lo) / cells
    centers = x_lo + (np.arange(cells) + 0.5) * h
    times = duhamel._graded_times(s, t, time_nodes)
    A = variance_profile(model, flow, centers[:, None], s, times)[:, :, 0]
    b_cells, _ = duhamel._coefficient_tables(model, flow, flow, centers,
                                             np.concatenate([[s], times]))
    (b_x0,), _ = duhamel._coefficient_tables(model, flow, flow, np.array([x0]), [s])
    dev = centers - x0
    Q = np.stack([duhamel._phi(dev, A[1 + j]) for j in range(time_nodes)])
    offsets = np.arange(-(cells - 1), cells) * h
    P = Q.copy()
    for _ in range(duhamel.MAX_PICARD_ITER):
        newP = np.empty_like(P)
        for j in range(time_nodes):
            vals = np.zeros((j + 2, cells))
            vals[0] = b_x0[0] * (dev / A[1 + j]) * duhamel._phi(dev, A[1 + j])
            for l in range(j):
                vs = float(A[1 + j, 0] - A[1 + l, 0])
                gker = duhamel._phi(offsets - 0.5 * h, vs) - duhamel._phi(offsets + 0.5 * h, vs)
                conv = fftconvolve(P[l] * b_cells[1 + l], gker, mode="full")
                vals[1 + l] = conv[cells - 1: 2 * cells - 1]
            vals[j + 1] = -np.gradient(b_cells[1 + j] * P[j], h)
            newP[j] = Q[j] + np.trapezoid(vals, np.concatenate([[s], times[: j + 1]]), axis=0)
        done = float(np.max(np.abs(newP - P))) < tol
        P = newP
        if done:
            return np.maximum(P, 0.0)
    raise AssertionError("reference loop did not converge")


def test_state_free_path_matches_fftconvolve_bit_for_bit(arctan_model):
    # Kernel spectra computed once per horizon give the same bits as one
    # fftconvolve per time pair and sweep.
    flow = Flow(np.array([0.0, 0.03, 0.0625]),
                tuple(Measure.dirac([x]) for x in (1.0, 1.2, 1.3)))
    grid = solve_density(arctan_model, flow, flow, 1.0, 0.0, 0.0625, cells=128)
    assert grid.iterations > 1
    assert np.array_equal(grid.p, _fftconvolve_density(arctan_model, flow, 1.0, 0.0, 0.0625, 128))


def test_fft_lengths_are_scipys():
    # 3 * cells - 2 for every grid up to 4096 cells.
    ns = range(1, 3 * 4096 + 1)
    assert [duhamel._next_fast_len(n) for n in ns] == [next_fast_len(n, True) for n in ns]
