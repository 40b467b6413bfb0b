"""Duhamel density identity: remainder operator and 1D grid fixed-point solver.

The transition density p of the drifted SDE equals the drift-free frozen
Gaussian kernel q plus a space-time remainder coupling p, the drift, and the
spatial variation of the diffusion matrix.  The solver iterates this
identity (Picard) on a 1D :class:`~mvsde.measures.GridSpec`, whose cell
centres, edges and width it reads; the remainder operator integrates the
same two terms against a test function on the solver's grid.

Numerical scheme
----------------
* Time nodes are graded toward the terminal time, r_j = t - (t-s)(j/J)^2,
  so the (t-r)^(-1/2)-type integrable singularities are resolved where the
  kernels narrow; the remainder operator additionally substitutes
  r = t - (t-s) u^2 and integrates smoothly in u.
* For every output cell z a fresh frozen variance is used (the kernel is
  frozen at its own evaluation point); variances come from a cumulative
  profile of sigma^2(z, nu_u) in time, exact between flow nodes.
* Inner space integrals use exact per-cell antiderivatives of the kernel
  derivatives against cellwise-constant data, which stays accurate when the
  kernel width drops toward the cell size near the singular end.
* With a state-free diffusion those integrals are convolutions by numpy's FFT
  (with the bits of SciPy's); kernel spectra depend on the time pair only and
  are computed once per horizon, so a sweep transforms one row per time node.
* The quadrature endpoint r -> t is the analytic limit of the inner
  integral, evaluated by central differences of the current iterate:
  -(b p)' for the drift term and p' a' + p a''/2 for the trace term.
* The initial condition is an exact Dirac at x0: the node r = s contributes
  through the kernel evaluated at x0, never through a gridded delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .coefficients import Model, diffusion_matrix_batch, drift_batch
from .errors import ConvergenceError, DomainError, NumericsError, QuadratureError
from .gaussian_kernel import variance_profile
from .measures import TIME_TOL, Flow, GridSpec, write_csv

MAX_PICARD_ITER = 50


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, as SciPy's ``fft.next_fast_len(n, real=True)``."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)  # m 2^k, the least >= n


def _phi(dev, var):
    return np.exp(-0.5 * dev * dev / var) / np.sqrt(2.0 * math.pi * var)


@dataclass(frozen=True, eq=False)
class DuhamelGrid:
    """Converged (or iterating) density table on a 1D space grid.

    ``times`` excludes the start time s, where the density is an exact Dirac
    at x0.  ``p`` has one row per time node, values at the cell centers of
    ``grid``.
    """

    grid: GridSpec
    s: float
    t: float
    x0: float
    times: np.ndarray
    p: np.ndarray
    iterations: int
    residuals: tuple
    mass_errors: np.ndarray
    clamped_mass: float
    max_negative: float

    @property
    def h(self) -> float:
        """The cell width."""
        return self.grid.cell_volume()

    def centers(self) -> np.ndarray:
        return self.grid.axes()[0]

    def edges(self) -> np.ndarray:
        return self.grid.edges()[0]

    def final_density(self) -> np.ndarray:
        return self.p[-1]

    def density_csv(self, path) -> None:
        xs = self.centers()
        # One block per time node: the text of all cells at once would cost
        # ~150 B per cell.
        write_csv(path, ["t", "x", "p"],
                  *([np.full(len(xs), ti), xs, row] for ti, row in zip(self.times, self.p)))

    def residuals_csv(self, path) -> None:
        write_csv(path, ["iter", "residual"],
                  [range(1, len(self.residuals) + 1), self.residuals])


def _require_1d_scalar(model: Model) -> None:
    if model.dim != 1:
        raise DomainError("the Duhamel solver supports dimension 1 only")
    if model.diffusion.kind != "scalar":
        raise DomainError("the Duhamel solver requires a scalar diffusion spec")


def _graded_times(s: float, t: float, nodes: int) -> np.ndarray:
    js = np.arange(nodes - 1, -1, -1, dtype=float)
    return t - (t - s) * (js / nodes) ** 2


def _coefficient_tables(model: Model, mu_flow: Flow, nu_flow: Flow,
                        centers: np.ndarray, x0: float, knot_times: np.ndarray):
    """Drift and sigma^2 values on the centers and at x0, per knot time."""
    zcol = centers[:, None]
    x0row = np.array([[x0]])
    nk = len(knot_times)
    has_b = model.constants.b_sup > 0
    b_cells = np.zeros((nk, len(centers)))
    b_x0 = np.zeros(nk)
    a_cells = np.zeros((nk, len(centers)))
    a_x0 = np.zeros(nk)
    for i, u in enumerate(knot_times):
        u = float(u)
        nu = nu_flow.at(u)
        a_cells[i] = diffusion_matrix_batch(model, u, zcol, nu)[:, 0]
        a_x0[i] = diffusion_matrix_batch(model, u, x0row, nu)[0, 0]
        if has_b:
            mu = mu_flow.at(u)
            b_cells[i] = drift_batch(model, u, zcol, mu)[:, 0]
            b_x0[i] = drift_batch(model, u, x0row, mu)[0, 0]
    return b_cells, b_x0, a_cells, a_x0


def _d1(f: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(f, h)


def _d2(f: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def solve_density(model: Model, mu_flow: Flow, nu_flow: Flow, x0, s: float, t: float,
                  tol: float = 1e-6, cells: int = 1024,
                  time_nodes: int = 28) -> DuhamelGrid:
    """Picard iteration p^(0) = q, p^(n+1) = q + remainder[p^(n)] on a 1D grid.

    Iterates until the sup-norm change between sweeps falls below ``tol``;
    raises :class:`ConvergenceError` with the residual history after
    ``MAX_PICARD_ITER`` sweeps.  Refuses horizons the grid cannot resolve
    (t - s < 4 K h^2 with h the cell width).
    """
    _require_1d_scalar(model)
    if s >= t:
        raise DomainError("need s < t")
    for name, fl in (("mu", mu_flow), ("nu", nu_flow)):
        if not fl.covers(s, t):
            raise DomainError(f"{name} flow does not cover [{s}, {t}]")
    x0 = float(np.asarray(x0, dtype=float).ravel()[0])
    K = model.constants.K
    b_sup = model.constants.b_sup

    half = 8.0 * math.sqrt(K * (t - s)) + b_sup * (t - s)
    grid = GridSpec([x0 - half], [x0 + half], (cells,))
    h = grid.cell_volume()  # the cell width
    if t - s < 4.0 * K * h * h:
        raise DomainError(
            f"horizon t-s={t - s:.3g} below the grid resolution floor "
            f"4*K*h^2={4 * K * h * h:.3g}; enlarge t-s or the cell count"
        )

    (centers,), (edges,) = grid.axes(), grid.edges()
    times = _graded_times(s, t, time_nodes)
    knot_times = np.concatenate([[s], times])

    A = variance_profile(model, nu_flow, centers[:, None], s, times)[:, :, 0]
    b_cells, b_x0, a_cells, a_x0 = _coefficient_tables(
        model, mu_flow, nu_flow, centers, x0, knot_times
    )
    has_drift = b_sup > 0
    has_trace = not model.sigma_space_free

    dev_x0 = centers - x0
    Q = np.stack([_phi(dev_x0, A[1 + j]) for j in range(time_nodes)])

    if not has_drift and not has_trace:
        # Zero remainder: p = q exactly after one sweep.
        return _finalize(grid, s, t, x0, times, Q.copy(), 1, (0.0,))

    if has_trace:
        dev_ce = centers[:, None] - edges[None, :]   # rows: output z, cols: edges in y
    else:
        # Toeplitz path: when the diffusion ignores the state variable, the
        # frozen variance is one scalar per time pair and the exact per-cell
        # kernel integrals become a convolution kernel in z - c (offsets m*h).
        # No sweep changes a kernel, so each is transformed once, at the
        # length and with the calls SciPy's signal.fftconvolve(mode="full") uses.
        offsets = np.arange(-(cells - 1), cells) * h
        nfft = _next_fast_len(3 * cells - 2)
        kernel_spectra = {}
        for j in range(time_nodes):
            for l in range(j):
                vs = float(A[1 + j, 0] - A[1 + l, 0])
                gker = _phi(offsets - 0.5 * h, vs) - _phi(offsets + 0.5 * h, vs)
                kernel_spectra[j, l] = rfft(gker, nfft)

    P = Q.copy()
    residuals = []
    for sweep in range(MAX_PICARD_ITER):
        newP = np.empty_like(P)
        if not has_trace:
            pb_spectra = [rfft(P[l] * b_cells[1 + l], nfft) for l in range(time_nodes - 1)]
        for j in range(time_nodes):
            vals = np.zeros((j + 2, cells))  # quadrature nodes: s, times[0..j]

            # Node r = s: exact Dirac initial condition.
            v = A[1 + j]
            phi0 = _phi(dev_x0, v)
            if has_drift:
                vals[0] += b_x0[0] * (dev_x0 / v) * phi0
            if has_trace:
                vals[0] += 0.5 * (a_x0[0] - a_cells[0]) * (dev_x0**2 / v**2 - 1.0 / v) * phi0

            # Interior nodes: per-cell exact kernel integrals against the
            # cellwise-constant data of the previous iterate.
            for l in range(j):
                if not has_trace:
                    # State-free diffusion: scalar variance, convolution form.
                    conv = irfft(pb_spectra[l] * kernel_spectra[j, l], nfft)
                    vals[1 + l] = conv[cells - 1: 2 * cells - 1]
                    continue
                v = A[1 + j] - A[1 + l]
                phi = _phi(dev_ce, v[:, None])
                row = np.zeros(cells)
                if has_drift:
                    dphi = phi[:, 1:] - phi[:, :-1]
                    row += dphi @ (P[l] * b_cells[1 + l])
                psi = (dev_ce / v[:, None]) * phi
                dpsi = psi[:, 1:] - psi[:, :-1]
                row += 0.5 * (dpsi @ (P[l] * a_cells[1 + l])
                              - a_cells[1 + l] * (dpsi @ P[l]))
                vals[1 + l] = row

            # Node r = tau: analytic limit of the inner integral.
            end = np.zeros(cells)
            if has_drift:
                end += -_d1(b_cells[1 + j] * P[j], h)
            if has_trace:
                end += _d1(P[j], h) * _d1(a_cells[1 + j], h) + 0.5 * P[j] * _d2(a_cells[1 + j], h)
            vals[j + 1] = end

            tk = np.concatenate([[s], times[: j + 1]])
            newP[j] = Q[j] + np.trapezoid(vals, tk, axis=0)

        residual = float(np.max(np.abs(newP - P)))
        residuals.append(residual)
        P = newP
        if residual < tol:
            return _finalize(grid, s, t, x0, times, P, sweep + 1, tuple(residuals))

    raise ConvergenceError(
        f"Picard iteration did not reach tol={tol} in {MAX_PICARD_ITER} sweeps "
        f"(last residual {residuals[-1]:.3g})",
        history=residuals,
    )


def _finalize(grid, s, t, x0, times, P, iterations, residuals):
    h = grid.cell_volume()
    neg = np.minimum(P, 0.0)
    max_negative = float(-neg.min()) if neg.size else 0.0
    clamped = float(-neg.sum() * h)
    P = np.maximum(P, 0.0)
    mass_errors = np.abs(P.sum(axis=1) * h - 1.0)
    return DuhamelGrid(
        grid=grid, s=s, t=t, x0=x0, times=times, p=P, iterations=iterations,
        residuals=residuals, mass_errors=mass_errors,
        clamped_mass=clamped, max_negative=max_negative,
    )


def _interp_rows(times: np.ndarray, table: np.ndarray, r: float):
    """Linear time interpolation of table rows; None when r precedes the grid."""
    if r < times[0]:
        return None
    i = int(np.searchsorted(times, r, side="right")) - 1
    if i >= len(times) - 1:
        return table[-1]
    w = (r - times[i]) / (times[i + 1] - times[i])
    return (1 - w) * table[i] + w * table[i + 1]


def _remainder_quadrature(model, mu_flow, nu_flow, p_table, f_cells, s, t,
                          u_nodes, include_trace):
    centers = p_table.centers()
    edges = p_table.edges()
    h = p_table.h
    x0 = p_table.x0
    times = p_table.times
    # Variance profile knots over [s, t]; exact at knots, linear between.
    prof_times = np.concatenate([[s], times[times <= t + 1e-15]])
    if prof_times[-1] < t - 1e-15:
        prof_times = np.append(prof_times, t)
    A_full = variance_profile(model, nu_flow, centers[:, None], s, prof_times[1:])[:, :, 0]

    has_drift = model.constants.b_sup > 0
    dev_ec = edges[None, :] - centers[:, None]   # rows: y (centers), cols: edges in z

    def a_interp(r):
        return _interp_rows(prof_times, A_full, r)

    g = np.zeros(u_nodes + 1)
    for mth in range(1, u_nodes + 1):
        u = mth / u_nodes
        r = t - (t - s) * u * u
        v = a_interp(t) - a_interp(r)
        v = np.maximum(v, 1e-300)
        phiL = _phi(dev_ec[:, :-1], v[None, :])
        phiR = _phi(dev_ec[:, 1:], v[None, :])
        g1 = (phiL - phiR) @ f_cells if has_drift else None
        if include_trace:
            a_r = diffusion_matrix_batch(model, r, centers[:, None], nu_flow.at(r))[:, 0]
            psiL = (dev_ec[:, :-1] / v[None, :]) * phiL
            psiR = (dev_ec[:, 1:] / v[None, :]) * phiR
            dpsi = psiL - psiR
            t1 = a_r * (dpsi @ f_cells) - dpsi @ (f_cells * a_r)
        p_row = _interp_rows(times, p_table.p, r)
        if p_row is None:
            # Before the first table node the density is still an almost
            # exact Dirac at x0; evaluate the inner integral there.
            yi = int(np.clip(round((x0 - p_table.grid.lo[0]) / h - 0.5), 0, len(centers) - 1))
            inner = 0.0
            if has_drift:
                b_r = drift_batch(model, r, np.array([[x0]]), mu_flow.at(r))[0, 0]
                inner += b_r * g1[yi]
            if include_trace:
                inner += 0.5 * t1[yi]
            val = inner
        else:
            integrand = np.zeros(len(centers))
            if has_drift:
                b_r = drift_batch(model, r, centers[:, None], mu_flow.at(r))[:, 0]
                integrand += b_r * g1
            if include_trace:
                integrand += 0.5 * t1
            val = float(np.sum(p_row * integrand) * h)
        g[mth] = 2.0 * (t - s) * u * val
    return float(np.trapezoid(g, dx=1.0 / u_nodes))


def _eval_f(f, centers: np.ndarray) -> np.ndarray:
    """f on the cell centers: vectorized, or point by point if f takes scalars only."""
    try:
        vals = np.asarray(f(centers), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != centers.shape:
        vals = np.array([float(f(z)) for z in centers])
    if not np.all(np.isfinite(vals)):
        bad = centers[~np.isfinite(vals)][0]
        raise NumericsError(f"test function returned a non-finite value at {bad}")
    return vals


def remainder_R(model: Model, mu_flow: Flow, nu_flow: Flow, p_table: DuhamelGrid,
                f, s: float, t: float, u_nodes: int = 28, check: bool = True,
                rtol: float = 1e-3, atol: float = 1e-9) -> float:
    """Space-time quadrature of the two Duhamel remainder terms against f.

    Convergence is checked by a second pass at doubled time resolution
    (Richardson); disagreement beyond rtol*|R| + atol raises
    :class:`QuadratureError`.  The refined value is returned.
    """
    _require_1d_scalar(model)
    if not (abs(p_table.s - s) < TIME_TOL and s < t <= p_table.t + TIME_TOL):
        raise DomainError("p_table must cover [s, t] starting at its own s")
    f_cells = _eval_f(f, p_table.centers())
    include_trace = not model.sigma_space_free
    r1 = _remainder_quadrature(model, mu_flow, nu_flow, p_table, f_cells, s, t,
                               u_nodes, include_trace)
    if not check:
        return r1
    r2 = _remainder_quadrature(model, mu_flow, nu_flow, p_table, f_cells, s, t,
                               2 * u_nodes, include_trace)
    if abs(r2 - r1) > rtol * abs(r2) + atol:
        raise QuadratureError(
            f"remainder quadrature did not converge: |{r2:.6g} - {r1:.6g}| "
            f"> {rtol} * |R| + {atol}"
        )
    return r2
