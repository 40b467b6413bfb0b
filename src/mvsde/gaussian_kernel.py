"""Frozen-coefficient Gaussian transition kernels and their verified integrals.

The kernel q has covariance a = integral over [s,t] of (sigma sigma*) at a
frozen space point z along a measure flow nu, with the drift removed.  The
module provides the density, its first two space derivatives, the heat-type
comparison kernel with diffusivity 2K, and grid quadratures of the moment
and flow-perturbation integrals whose exponents the test suite verifies.

The unspecified constants in the domination and moment bounds are always
fitted from data, never assumed; every quantitative claim in the tests is an
exponent or stability check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Model, diffusion_matrix_batch
from .errors import AuditError, DomainError, NumericsError, QuadratureError
from .measures import Flow, GridSpec, write_csv

QUAD_CELLS = {1: 2**10, 2: 2**8}
MASS_COVERAGE = 1.0 - 1e-8
WINDOW_STDS = 8.0
_EIG_SLACK = 1e-9
SUBSTEPS = 64             # midpoint panels across a variance_profile span
SCAN_VARIANCE_RATIO = 1.1  # a / (t - s) of the synthetic exponent_scan kernels


@dataclass(frozen=True, eq=False)
class FrozenCovariance:
    """Covariance of the frozen Gaussian kernel on [s, t] at freeze point z."""

    a: np.ndarray
    s: float
    t: float
    z: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        z = np.asarray(self.z, dtype=float).ravel()
        if self.s >= self.t:
            raise DomainError(f"need s < t, got s={self.s}, t={self.t}")
        if a.shape[0] != a.shape[1] or a.shape[0] != z.shape[0]:
            raise DomainError("covariance must be square and match the freeze point dimension")
        if not np.allclose(a, a.T, atol=1e-12):
            raise DomainError("covariance must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0:
            raise NumericsError("covariance must be positive definite")
        a.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def variance_profile(model: Model, flow: Flow, points, s: float, times) -> np.ndarray:
    """Cumulative time integral of (sigma sigma*)(z, nu_u) from s, per row z of ``points``.

    Composite midpoint on the union of ``times`` and the flow nodes: the
    flow is piecewise constant between nodes, so subdividing each segment
    (``SUBSTEPS`` panels across [s, times[-1]]) leaves only the explicit
    time dependence of sigma to the midpoint rule.  Returns the diagonal of
    the integral with shape (1 + len(times), n, d): zeros at s, then one
    slice per entry of ``times``.
    """
    points = np.asarray(points, dtype=float)
    times = np.asarray(times, dtype=float)
    t_end = float(times[-1])
    inner = flow.times[(flow.times > s) & (flow.times < t_end)]
    knots = np.unique(np.concatenate([[s], times, inner]))
    acc = np.zeros((points.shape[0], model.dim))
    table = {float(s): acc}
    for a0, a1 in zip(knots[:-1], knots[1:]):
        nu = flow.at(a0)
        n_sub = max(1, int(math.ceil(SUBSTEPS * (a1 - a0) / (t_end - s))))
        h = (a1 - a0) / n_sub
        for u in a0 + (np.arange(n_sub) + 0.5) * h:
            acc = acc + diffusion_matrix_batch(model, float(u), points, nu) * h
        table[float(a1)] = acc
    return np.stack([table[float(s)]] + [table[float(ti)] for ti in times])


def frozen_covariance(model: Model, flow: Flow, z, s: float, t: float) -> FrozenCovariance:
    """Time quadrature of (sigma sigma*)(z, nu_u) over [s, t] by :func:`variance_profile`.

    The result must have eigenvalues in [(t-s)/K, (t-s) K] by the declared
    ellipticity.
    """
    if s >= t:
        raise DomainError(f"need s < t, got s={s}, t={t}")
    if not flow.covers(s, t):
        raise DomainError(f"flow on [{flow.times[0]}, {flow.times[-1]}] does not cover [{s}, {t}]")
    z = np.asarray(z, dtype=float).ravel()
    eigs = variance_profile(model, flow, z.reshape(1, -1), s, [t])[-1, 0]
    K = model.constants.K
    lo, hi = (t - s) / K, (t - s) * K
    if eigs.min() < lo * (1 - _EIG_SLACK) - _EIG_SLACK or eigs.max() > hi * (1 + _EIG_SLACK) + _EIG_SLACK:
        raise AuditError(
            f"frozen covariance spectrum [{eigs.min():.6g}, {eigs.max():.6g}] leaves "
            f"[(t-s)/K, (t-s)K] = [{lo:.6g}, {hi:.6g}]"
        )
    return FrozenCovariance(np.diag(eigs), s, t, z)


def q_density(cov: FrozenCovariance, x, y) -> float:
    """Gaussian transition density q(x, y) with covariance cov.a."""
    return float(q_values(cov, x, np.asarray(y, dtype=float).reshape(1, -1))[0])


def q_values(cov: FrozenCovariance, x, ys: np.ndarray) -> np.ndarray:
    """Vectorized q(x, y_i) over rows of ``ys``."""
    x = np.asarray(x, dtype=float).ravel()
    d = cov.dim
    diff = np.atleast_2d(ys) - x
    try:
        sol = np.linalg.solve(cov.a, diff.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"singular covariance: {exc}") from exc
    det = float(np.linalg.det(cov.a))
    if det <= 0:
        raise NumericsError("covariance determinant not positive")
    quad = np.sum(diff * sol, axis=1)
    return np.exp(-0.5 * quad) / ((2 * math.pi) ** (d / 2) * math.sqrt(det))


def q_derivatives(cov: FrozenCovariance, x, y):
    """Gradient and Hessian of q(., y) in the first argument, at x.

    grad = q * a^{-1}(y - x);  hess = q * (a^{-1}(y-x)(y-x)^T a^{-1} - a^{-1}).
    """
    x = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).reshape(1, -1)
    grad, hess = (_derivative_tensor(cov, x, ys, i)[0] for i in (1, 2))
    return grad, hess.reshape(cov.dim, cov.dim)


def comparison_kernel(K: float, s: float, t: float, x, y) -> float:
    """Heat kernel with diffusivity 2K dominating the frozen kernels."""
    if s >= t:
        raise DomainError(f"need s < t, got s={s}, t={t}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    d = x.shape[0]
    r2 = float(np.sum((y - x) ** 2))
    return math.exp(-r2 / (4 * K * (t - s))) / (4 * K * math.pi * (t - s)) ** (d / 2)


def _quad_grid(cov: FrozenCovariance, center: np.ndarray, cells: int | None):
    d = cov.dim
    if d > 2:
        raise DomainError("grid quadrature supports dimension <= 2")
    half = WINDOW_STDS * math.sqrt(float(np.linalg.eigvalsh(cov.a).max()))
    grid = GridSpec(center - half, center + half, (QUAD_CELLS[d] if cells is None else cells,) * d)
    return grid.centers(), grid.cell_volume()


def _derivative_tensor(cov: FrozenCovariance, x: np.ndarray, ys: np.ndarray, i: int):
    """grad^i q(x, .) over rows of ys, one flattened tensor per row."""
    q = q_values(cov, x, ys)
    if i == 0:
        return q[:, None]
    diff = ys - x
    sol = np.linalg.solve(cov.a, diff.T).T
    if i == 1:
        return q[:, None] * sol
    ainv = np.linalg.inv(cov.a)
    outer = sol[:, :, None] * sol[:, None, :] - ainv[None, :, :]
    return (q[:, None, None] * outer).reshape(ys.shape[0], -1)


def _kernel_quadrature(covs, i: int, eps: float, cells: int | None) -> float:
    """Grid quadrature of integral |grad^i q_1(x, y) [- grad^i q_2(x, y)]| |y - x|^eps dy.

    One kernel, or the difference of two frozen at one x = z, on the widest's
    window (the first on ties); each kernel's mass on it must reach 1 - 1e-8.
    """
    if i not in (0, 1, 2):
        raise DomainError("derivative order i must be 0, 1, or 2")
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    x = covs[0].z
    ys, vol = _quad_grid(max(covs, key=lambda c: np.linalg.eigvalsh(c.a).max()), x, cells)
    for cov in covs:
        mass = float(np.sum(q_values(cov, x, ys)) * vol)
        if mass < MASS_COVERAGE:
            raise QuadratureError(f"quadrature window captured mass {mass}, need {MASS_COVERAGE}")
    tensors = [_derivative_tensor(cov, x, ys, i) for cov in covs]
    mag = np.linalg.norm(tensors[0] if len(tensors) == 1 else tensors[0] - tensors[1], axis=1)
    r = np.linalg.norm(ys - x, axis=1)
    return float(np.sum(mag * r**eps) * vol)


def moment_integral_g1(cov: FrozenCovariance, i: int, eps: float,
                       cells: int | None = None) -> float:
    """Grid quadrature of integral |grad^i q(x, y)| |y - x|^eps dy.

    The integral is translation invariant, so it is evaluated at x = z.  The
    quadrature window spans ±8 standard deviations per axis and the kernel
    mass on the window must reach 1 - 1e-8.
    """
    return _kernel_quadrature([cov], i, eps, cells)


def exponent_scan(i: int, eps: float, horizons, csv_path=None):
    """Moment integrals across horizons with the fitted constant per row.

    Evaluates the (i, eps) moment integral for synthetic covariances
    a = SCAN_VARIANCE_RATIO * (t-s) over the given horizons, fits the scaling
    exponent, and returns (slope, rows) with rows of (t-s, value, fitted_c)
    where fitted_c = value / (t-s)^((eps - i)/2).  Optionally emits the rows
    as CSV.
    """
    horizons = np.asarray(horizons, dtype=float)
    expo = (-i + eps) / 2.0
    rows = []
    for dt in horizons:
        cov = FrozenCovariance(np.array([[SCAN_VARIANCE_RATIO * dt]]), 0.0, dt, np.zeros(1))
        val = moment_integral_g1(cov, i, eps)
        rows.append((float(dt), float(val), float(val / dt**expo)))
    slope = float(np.polyfit(np.log(horizons), np.log([r[1] for r in rows]), 1)[0])
    if csv_path is not None:
        write_csv(csv_path, ["t_s", "value", "fitted_c"], np.array(rows).T)
    return slope, rows


def perturbation_integral_g2(model: Model, flow1: Flow, flow2: Flow, z,
                             s: float, t: float, i: int, eps: float,
                             cells: int | None = None) -> float:
    """Quadrature of integral |grad^i q^{z,nu1} - grad^i q^{z,nu2}| |y-x|^eps dy.

    Componentwise kernel difference before taking norms (Euclidean for the
    gradient, Frobenius for the Hessian).  The verification compares it
    against the time average over [s, t] of W_k + W_eta between the two flows
    (:func:`mvsde.metrics.transport` at each node).
    """
    if not flow1.same_grid(flow2):
        raise DomainError("flows must share one time grid")
    covs = [frozen_covariance(model, flow, z, s, t) for flow in (flow1, flow2)]
    return _kernel_quadrature(covs, i, eps, cells)
