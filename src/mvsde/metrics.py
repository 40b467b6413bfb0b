"""Distances between measures, densities, and flows.

Covers the transport distances W_p for any p > 0 (exact in 1D via the
monotone coupling when p >= 1, exact LP otherwise; W_eta is the case eta in
(0,1]), the theta-weighted variation distance in atom-exact and grid-L1
forms, and the exponentially time-weighted sup metrics on flows under which
the fixed-point maps contract.

The LP stack (``scipy.optimize``, ``scipy.sparse``) loads at the first LP a
process solves, inside :func:`ot_lp`; runs that solve none never import it.

Total variation convention: ||mu - nu||_var = sup_{|f|<=1} |mu(f) - nu(f)|,
which equals the L1 distance of densities (range [0, 2]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, SizeError
from .measures import (Density, Flow, LawRows, Measure, left_node, quantile_form, resample,
                       sorted_cumulative)

METHOD_EXACT_1D = "exact_1d"
METHOD_LP = "lp_oracle"
METHOD_GRID = "grid_l1"

LP_BUDGET = 10_000          # max n*m for the exact LP solver
ETA_SUBSAMPLE = 100         # atoms per side after documented subsampling
_SUBSAMPLE_SEED = 13  # fixed so that subsampled distances are deterministic


@dataclass(frozen=True)
class DistanceReport:
    """A distance value with its computation method and primal-dual gap."""

    value: float
    method: str
    gap: float = 0.0
    subsample: int | None = None

    def __post_init__(self):
        if self.value < 0 or self.gap < 0:
            raise DomainError("distance value and gap must be nonnegative")


def _zero(method: str) -> DistanceReport:
    return DistanceReport(0.0, method, 0.0)


def wasserstein_1d(m1: Measure, m2: Measure, k: float) -> DistanceReport:
    """Exact W_k in one dimension via the monotone (quantile) coupling.

    Reads both measures' memoised quantile forms, so each law is sorted once.
    Valid for k >= 1 because |x-y|^k is convex; :func:`wasserstein` takes
    concave exponents to the LP.
    """
    if m1.dim != 1 or m2.dim != 1:
        raise DomainError("wasserstein_1d requires dimension 1")
    if k < 1:
        raise DomainError(f"wasserstein_1d needs k >= 1 (got {k}); use wasserstein")
    if m1 is m2:
        return _zero(METHOD_EXACT_1D)

    f1, f2 = quantile_form(m1), quantile_form(m2)
    if f1.separated and _same_bits(f1.levels, f2.levels):
        # The union of two equal separated level sets is either one, and the
        # midpoint of level i finds level i: the lookups are the identity.
        levels, q1, q2 = f1.levels, f1.x, f2.x
        prev = _left_ends(levels)
    else:
        both, first = _level_union(f1.levels, f2.levels)
        levels = both[first]
        prev = _left_ends(levels)
        mids = 0.5 * (levels + prev)
        q1 = f1.x[np.searchsorted(f1.levels, mids, side="left")]
        q2 = f2.x[np.searchsorted(f2.levels, mids, side="left")]
    cost = float(_coupling_cost(levels, prev, q1, q2, k))
    return DistanceReport(cost ** (1.0 / k), METHOD_EXACT_1D, 0.0)


def _level_union(l1: np.ndarray, l2: np.ndarray) -> tuple:
    """Both level sets sorted together along the last axis, and where each
    value first appears there: ``np.union1d`` of each row is ``both[first]``."""
    both = np.sort(np.concatenate((l1, l2), axis=-1), axis=-1)
    first = np.ones(both.shape, dtype=bool)
    first[..., 1:] = both[..., 1:] != both[..., :-1]
    return both, first


def _left_ends(levels: np.ndarray) -> np.ndarray:
    """The level below each level along the last axis, 0 below the first."""
    return np.concatenate((np.zeros_like(levels[..., :1]), levels[..., :-1]), axis=-1)


def _coupling_cost(levels, prev, q1, q2, k: float):
    """sum over the level intervals (prev, levels] of their mass times |q1 - q2|^k,
    the monotone coupling's cost, along the last axis."""
    return np.sum((levels - prev) * np.abs(q1 - q2) ** k, axis=-1)


def wasserstein_rows(a: LawRows, b: LawRows, p: float) -> np.ndarray:
    """:func:`wasserstein` between the laws of each row pair, with its bits.

    1D rows with p >= 1 take one monotone coupling over all rows: each row
    is sorted and summed once, and rows whose level unions have one size
    share one sum, which gives each row the bits of :func:`wasserstein_1d`.
    The lookups count the levels below each midpoint, as ``searchsorted``
    does on nondecreasing levels.  Every other pair takes
    :func:`wasserstein` on its two measures, row by row.
    """
    if p <= 0:
        raise DomainError(f"cost exponent must be positive, got {p}")
    n, _, d = a.points.shape
    if d != 1 or p < 1:
        return np.array([wasserstein(Measure(a.points[i], a.weights[i], d),
                                     Measure(b.points[i], b.weights[i], d), p).value
                         for i in range(n)])
    (x1, l1), (x2, l2) = (sorted_cumulative(r.points[..., 0], r.weights) for r in (a, b))
    l1[:, -1] = l2[:, -1] = 1.0  # as quantile_form pins them
    both, first = _level_union(l1, l2)
    sizes = first.sum(axis=1)
    cost = np.empty(n)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        levels = both[rows][first[rows]].reshape(rows.size, size)
        prev = _left_ends(levels)
        mids = 0.5 * (levels + prev)
        q1, q2 = (np.take_along_axis(x[rows], (lv[rows, None, :] < mids[:, :, None]).sum(axis=2),
                                     axis=1)
                  for x, lv in ((x1, l1), (x2, l2)))
        cost[rows] = _coupling_cost(levels, prev, q1, q2, p)
    return powers(cost, 1.0 / p)


def powers(v: np.ndarray, e: float) -> np.ndarray:
    """``a ** e`` for each entry a of v by Python's float power, as a loop over
    floats takes it; numpy's power differs from it in the last bit of about
    5% of entries."""
    return np.array([a ** e for a in v.ravel().tolist()]).reshape(v.shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.shape == b.shape
                      and bool((a.view(np.uint64) == b.view(np.uint64)).all()))


def ot_lp(m1: Measure, m2: Measure, exponent: float) -> DistanceReport:
    """Exact optimal transport value with cost |x-y|^exponent by linear programming.

    Returns (optimal cost)^(1/(exponent v 1)).  Serves as the oracle for the
    other transport routines; the reported gap is the primal-dual gap of the
    LP on the raw cost scale.
    """
    if exponent <= 0:
        raise DomainError(f"cost exponent must be positive, got {exponent}")
    if m1.dim != m2.dim:
        raise DomainError("measures must share a dimension")
    n, m = m1.n, m2.n
    if n * m > LP_BUDGET:
        raise SizeError(
            f"support product {n}*{m} exceeds the exact-LP budget {LP_BUDGET}; "
            "subsample the measures first (see wasserstein)"
        )
    if m1 is m2:
        return _zero(METHOD_LP)
    # Only LP paths need these, and loading them costs about 22 MB.
    from scipy import sparse
    from scipy.optimize import linprog

    diff = m1.points[:, None, :] - m2.points[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** exponent
    c = cost.ravel()
    rows = sparse.kron(sparse.eye(n, format="csr"), np.ones((1, m)), format="csr")
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m, format="csr"), format="csr")
    a_eq = sparse.vstack([rows, cols], format="csr")
    b_eq = np.concatenate([m1.weights, m2.weights])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericsError(f"transport LP failed: {res.message}")
    primal = max(float(res.fun), 0.0)
    dual = float(np.dot(res.eqlin.marginals, b_eq))
    gap = abs(primal - dual)
    value = primal ** (1.0 / max(exponent, 1.0))
    return DistanceReport(value, METHOD_LP, gap)


def wasserstein_eta(m1: Measure, m2: Measure, eta: float) -> DistanceReport:
    """W_eta for eta in (0, 1]: :func:`wasserstein` with the concave cost |x-y|^eta.

    |x-y|^eta is itself a metric, so the transport value equals the dual sup
    over eta-Hoelder functions with seminorm <= 1 and carries no outer root.
    """
    if not 0 < eta <= 1:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    return wasserstein(m1, m2, eta)


def wasserstein(m1: Measure, m2: Measure, p: float) -> DistanceReport:
    """Transport value with cost |x-y|^p for any p > 0, the one solver choice.

    1D measures with p >= 1 take the exact quantile coupling (|x-y|^p is
    convex); everything else takes the exact LP.  Above the LP budget both
    measures are subsampled (systematic, fixed seed) and the report records
    the subsample size.
    """
    if p <= 0:
        raise DomainError(f"cost exponent must be positive, got {p}")
    if m1.dim == 1 and p >= 1:
        return wasserstein_1d(m1, m2, p)
    if m1 is m2:
        return _zero(METHOD_LP)
    sub = None
    if m1.n * m2.n > LP_BUDGET:
        # One shared seed: systematic resampling then picks matching indices
        # on coupled ensembles, preserving common-random-numbers pairings.
        sub = ETA_SUBSAMPLE
        m1 = resample(m1, sub, _SUBSAMPLE_SEED)
        m2 = resample(m2, sub, _SUBSAMPLE_SEED)
    rep = ot_lp(m1, m2, p)
    return DistanceReport(rep.value, METHOD_LP, rep.gap, subsample=sub)


def _variation_weight(r: np.ndarray, theta: float) -> np.ndarray:
    # theta = 0 is plain total variation, sup over |f| <= 1 with range [0, 2];
    # for theta > 0 the test-function envelope is 1 + |x|^theta.
    if theta == 0:
        return np.ones_like(r)
    return 1.0 + r**theta


def weighted_variation(d1: Density, d2: Density, theta: float = 0.0) -> DistanceReport:
    """Grid quadrature of integral (1+|x|^theta) |p(x) - q(x)| dx on a shared grid."""
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    if not d1.grid.same_as(d2.grid):
        raise DomainError("weighted_variation requires densities on one shared grid")
    if d1 is d2:
        return _zero(METHOD_GRID)
    r = np.linalg.norm(d1.grid.centers(), axis=1).reshape(d1.grid.shape)
    weight = _variation_weight(r, theta)
    val = float(np.sum(weight * np.abs(d1.values - d2.values)) * d1.grid.cell_volume())
    return DistanceReport(val, METHOD_GRID, 0.0)


def weighted_variation_rows(a: LawRows, b: LawRows, theta: float = 0.0) -> np.ndarray:
    """Exact sup over |f| <= 1+|.|^theta of a - b on atomic laws, row by row.

    Atoms are matched by exact coordinate equality (inputs are constructed,
    not measured, so fuzzy matching would hide bugs).  Each row adds the
    signed weights of equal atoms in order, a's atoms before b's, and sums
    its distinct atoms in order of first appearance.
    """
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    pts = np.concatenate((a.points, b.points), axis=1)
    signed = np.concatenate((a.weights, -b.weights), axis=1)
    n, m, d = pts.shape
    first = (pts[:, :, None, :] == pts[:, None, :, :]).all(axis=3).argmax(axis=2)
    dw = np.zeros((n, m))
    rows = np.arange(n)
    for j in range(m):
        dw[rows, first[:, j]] += signed[:, j]
    if theta == 0:
        envelope = 1.0
    else:
        sq = pts[..., 0] * pts[..., 0]
        for c in range(1, d):
            sq = sq + pts[..., c] * pts[..., c]
        envelope = 1.0 + powers(np.sqrt(sq), theta)
    # Later copies of an atom hold dw = 0, and adding 0 leaves the sum's bits.
    return np.cumsum(np.abs(dw) * envelope, axis=1)[:, -1]


def transport(a: Measure, b: Measure, k: float, eta: float) -> float:
    """W_k + W_eta between two measures, the node distance of rho_lambda."""
    wk = wasserstein(a, b, k).value
    # eta == k <= 1: both terms are one distance, computed once.
    return wk + (wk if eta == k <= 1 else wasserstein_eta(a, b, eta).value)


def node_distances(f1: Flow, f2: Flow, dist) -> list:
    """dist(a, b) between the measures at each node of two flows on one time grid."""
    if not f1.same_grid(f2):
        raise DomainError("flows must share one time grid")
    return [dist(a, b) for a, b in zip(f1.measures, f2.measures)]


def sup_discounted(times, values, lam: float) -> float:
    """sup over time nodes of e^(-lambda t) value, the sup of the flow metrics."""
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    best = 0.0
    for t, v in zip(times, values):
        best = max(best, math.exp(-lam * t) * v)
    return best


def segment_integral(times, values, s: float, t: float) -> float:
    """integral over [s, t] of node values, each held up to the next node as in Flow.at."""
    if t <= s:
        raise DomainError("need s < t")
    times = np.asarray(times, dtype=float)
    knots = np.unique(np.concatenate([[s], times[(times > s) & (times < t)], [t]]))
    held = np.asarray(values, dtype=float)[[left_node(times, u) for u in knots[:-1]]]
    return float(np.sum(held * np.diff(knots)))


def rho_lambda(f1: Flow, f2: Flow, lam: float, k: float, eta: float) -> float:
    """sup over time nodes of e^(-lambda t) (W_k + W_eta) between node measures."""
    values = node_distances(f1, f2, lambda a, b: transport(a, b, k, eta))
    return sup_discounted(f1.times, values, lam)
