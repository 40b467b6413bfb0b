"""Probability measures as weighted particle ensembles and grid densities.

A :class:`Measure` is a finite weighted particle ensemble on R^d with unit
total mass; a :class:`Density` holds values of a probability density at the
cell centers of a :class:`GridSpec`, the package's one cell-centred grid
(d <= 2); a :class:`Flow` is a time-indexed path of measures on a strictly
increasing time grid.  All are immutable after construction and every
operation here is a pure function of its inputs (plus an explicit seed), so
concurrent use is safe.

Each 1D measure is sorted at most once: :func:`quantile_form` memoises its
sorted coordinates and cumulative weights, holding the measure weakly.  A KDE
takes its grid and bandwidth from the caller, bins by one corner loop in
every dimension, and is smoothed by numpy code with the bits of SciPy's
``ndimage.gaussian_filter``."""

from __future__ import annotations

import csv
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericsError

WEIGHT_TOL = 1e-12
MASS_TOL = 1e-6
TIME_TOL = 1e-12  # times closer than this are one node

DEFAULT_CELLS = {1: 1024, 2: 128}

# Fixed internal seed offset for the equal-weight resampling performed by
# consumers that need a deterministic sub-stream (kept distinct from user
# seeds so that seed=0 draws differ between contexts).
_RESAMPLE_STREAM = 0x9E3779B9


@contextmanager
def _opened(path_or_buf, mode: str):
    """Open a path (UTF-8, no newline translation) or pass an open buffer through."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, mode, newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield path_or_buf


def write_csv(path_or_buf, header, *blocks) -> None:
    """Write a header, then the rows of each block, as ``csv.writer`` would.

    A block is a sequence of equal-length columns, each an array or list of
    numbers of one type; its rows are read across them.  Each value prints
    by the ``repr`` of its Python number, and every line ends in ``\\r\\n``.
    """
    with _opened(path_or_buf, "w") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            cells = [_column_text(c) for c in columns]
            if cells and cells[0]:
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _column_text(column) -> list:
    """The text of each value of a column; a column constant to its bits is formatted once."""
    values = np.asarray(column)
    if values.dtype.kind in "fiu" and len(values) > 1:
        bits = values.view(f"u{values.itemsize}")  # 0.0 and -0.0 differ here, not under ==
        if np.all(bits == bits[0]):
            return [repr(values[0].item())] * len(values)
    return list(map(repr, values.tolist()))


def read_csv(path_or_buf):
    """Read a file written by :func:`write_csv`: (header, float array of rows)."""
    with _opened(path_or_buf, "r") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2:
        raise DomainError(f"points must be a (n, d) array, got ndim={pts.ndim}")
    return pts


@dataclass(frozen=True, eq=False)
class Measure:
    """Weighted particle ensemble representing a probability law on R^d."""

    points: np.ndarray
    weights: np.ndarray
    dim: int

    def __post_init__(self):
        pts = _as_points(self.points)
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] == 0:
            raise DomainError("a Measure needs at least one particle")
        if pts.shape != (w.shape[0], self.dim):
            raise DomainError(
                f"points shape {pts.shape} incompatible with "
                f"{w.shape[0]} weights in dimension {self.dim}"
            )
        if not np.all(np.isfinite(pts)):
            raise NumericsError("non-finite particle position")
        with np.errstate(invalid="ignore"):  # inf - inf, a NaN caught below
            total = w.sum()
        if not np.isfinite(total):  # any NaN or infinite weight
            raise NumericsError("non-finite weight")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_points(cls, points, weights=None) -> "Measure":
        pts = _as_points(points)
        n, d = pts.shape
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float)
            if not np.isfinite(w).all():  # before the sum and the division, which would warn
                raise NumericsError("non-finite weight")
            s = w.sum()
            if s <= 0:
                raise DomainError("weights must have positive total mass")
            w = w / s
        return cls(pts, w, d)

    @classmethod
    def dirac(cls, x) -> "Measure":
        pts = np.asarray(x, dtype=float).ravel()[None, :]
        return cls(pts, np.array([1.0]), pts.shape[1])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def shift(self, v) -> "Measure":
        """Translate every particle by the vector ``v``."""
        v = np.asarray(v, dtype=float).ravel()
        if v.shape != (self.dim,):
            raise DomainError(f"shift vector must have length {self.dim}")
        return Measure(self.points + v, self.weights, self.dim)

    def to_csv(self, path_or_buf) -> None:
        """Write ``w,x1[,x2]`` rows (UTF-8, '.' decimal separator)."""
        header = ["w"] + [f"x{j + 1}" for j in range(self.dim)]
        write_csv(path_or_buf, header, [self.weights, *self.points.T])

    @classmethod
    def from_csv(cls, path_or_buf) -> "Measure":
        header, data = read_csv(path_or_buf)
        if not header or header[0] != "w":
            raise DomainError(f"expected header starting with 'w', got {header!r}")
        if abs(data[:, 0].sum() - 1.0) <= WEIGHT_TOL:
            # Normalized as to_csv writes them; dividing by the float sum again moves bits.
            return cls(data[:, 1:], data[:, 0], data.shape[1] - 1)
        return cls.from_points(data[:, 1:], data[:, 0])


class LawRows(NamedTuple):
    """n atomic laws of m atoms each, one per row: ``points`` (n, m, d) and
    ``weights`` (n, m).

    The batch form of :class:`Measure`, for code that evaluates many small
    laws at once.  Rows are not checked: build a row's :class:`Measure` for
    that.
    """

    points: np.ndarray
    weights: np.ndarray


class QuantileForm(NamedTuple):
    """A 1D measure sorted once: the input of its quantiles and 1D transport."""

    x: np.ndarray        # coordinates in ascending (stable-argsort) order
    levels: np.ndarray   # cumulative weights in that order, last entry pinned to 1
    total: float         # the last cumulative weight before pinning
    separated: bool      # levels[i-1] < (levels[i-1] + levels[i]) / 2 for every i,
                         # so the midpoint of each level interval finds that level


# The memo holds its measures weakly, so a form lives as long as its law.
_FORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def quantile_form(m: Measure) -> QuantileForm:
    """The sorted form of a 1D measure, computed at most once per measure.

    Threads racing on one measure may each compute its form; all compute
    the same one.
    """
    form = _FORMS.get(m)
    if form is None:
        form = _FORMS[m] = _sorted_form(m)
        form.x.setflags(write=False)
    return form


def _sorted_form(m: Measure) -> QuantileForm:
    if m.dim != 1:
        raise DomainError("quantile forms need dimension 1")
    w = m.weights
    if (w == w[0]).all():
        # Equal weights make the order among ties immaterial: tied values
        # differ at most in the sign of a zero, which neither a quantile nor
        # |x - y| sees.  So the default sort, ~10x faster, serves here.
        return QuantileForm(np.sort(m.points[:, 0]), *_uniform_levels(m.n, w[0]))
    x, cum = sorted_cumulative(m.points[:, 0], w)
    return QuantileForm(x, *_levels(cum))


def sorted_cumulative(x: np.ndarray, w: np.ndarray) -> tuple:
    """Coordinates in stable ascending order along the last axis, and the
    cumulative weights in that order (one law per row)."""
    order = np.argsort(x, axis=-1, kind="stable")
    return (np.take_along_axis(x, order, axis=-1),
            np.cumsum(np.take_along_axis(w, order, axis=-1), axis=-1))


@lru_cache(maxsize=8)
def _uniform_levels(n: int, w: float) -> tuple:
    """The levels of n equal weights w, shared by every measure of that size."""
    return _levels(np.cumsum(np.full(n, w)))


def _levels(cum: np.ndarray) -> tuple:
    total = float(cum[-1])
    cum[-1] = 1.0
    cum.setflags(write=False)
    separated = bool((0.5 * (cum[1:] + cum[:-1]) > cum[:-1]).all())
    return cum, total, separated


def moment_k(m: Measure, k: float) -> float:
    """k-th moment norm: (sum w_i |x_i|^k)^(1/k) for k >= 1.

    For k = 0 returns 1; for 0 < k < 1 the outer root is omitted, matching
    the k-vee-1 exponent convention of the transport distances.
    """
    if k < 0:
        raise DomainError(f"moment order must be nonnegative, got {k}")
    if k == 0:
        return 1.0
    r = np.linalg.norm(m.points, axis=1)
    s = float(np.sum(m.weights * r**k))
    return s ** (1.0 / k) if k >= 1 else s


def resample(m: Measure, n: int, seed: int) -> Measure:
    """Systematic (low-variance) resampling to n equal-weight particles."""
    if n < 1:
        raise DomainError(f"resample size must be >= 1, got {n}")
    positions = (np.arange(n) + _systematic_offset(seed)) / n
    cum = np.cumsum(m.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, positions, side="left")
    return Measure(m.points[idx], np.full(n, 1.0 / n), m.dim)


@lru_cache(maxsize=256)
def _systematic_offset(seed: int) -> float:
    """The one uniform draw of :func:`resample`, a function of the seed alone."""
    return np.random.default_rng(seed).random()


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid: per-axis bounds and cell counts; values live at centers."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if not (len(lo) == len(hi) == len(shape)):
            raise DomainError("grid lo/hi/shape must share one length per axis")
        if len(lo) not in (1, 2):
            raise DomainError("grids support dimension 1 or 2 only")
        if np.any(hi <= lo) or any(s < 2 for s in shape):
            raise DomainError("grid needs hi > lo and at least 2 cells per axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    def widths(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape)

    def cell_volume(self) -> float:
        return float(np.prod(self.widths()))

    def axes(self):
        """Per-axis cell-center coordinates."""
        w = self.widths()
        return [
            self.lo[j] + (np.arange(self.shape[j]) + 0.5) * w[j]
            for j in range(self.dim)
        ]

    def edges(self):
        """Per-axis cell-edge coordinates, one more than the cells."""
        w = self.widths()
        return [self.lo[j] + np.arange(self.shape[j] + 1) * w[j] for j in range(self.dim)]

    def centers(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array (C order)."""
        ax = self.axes()
        if self.dim == 1:
            return ax[0][:, None]
        g = np.meshgrid(*ax, indexing="ij")
        return np.stack([a.ravel() for a in g], axis=1)

    def same_as(self, other: "GridSpec", tol: float = 1e-12) -> bool:
        return self is other or (
            self.shape == other.shape
            and np.allclose(self.lo, other.lo, atol=tol, rtol=0)
            and np.allclose(self.hi, other.hi, atol=tol, rtol=0)
        )


@dataclass(frozen=True, eq=False)
class Density:
    """Probability density values at the cell centers of a grid (d <= 2)."""

    grid: GridSpec
    values: np.ndarray
    coverage_warning: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if np.any(vals < 0):
            raise DomainError("density values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if abs(self.mass - 1.0) > MASS_TOL:
            raise DomainError(f"density mass {self.mass!r} not within {MASS_TOL} of 1")

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume())


def silverman_bandwidth(m: Measure) -> np.ndarray:
    """Silverman's rule-of-thumb bandwidth, per axis, for a weighted sample.

    Uses the effective sample size 1 / sum(w^2).  In 1D applies the classic
    0.9 * min(std, IQR/1.34) * n^(-1/5); in 2D the normal-reference factor
    (4/(d+2))^(1/(d+4)) * std * n^(-1/(d+4)).
    """
    n_eff = 1.0 / float(np.sum(m.weights**2))
    mean = np.average(m.points, axis=0, weights=m.weights)
    var = np.average((m.points - mean) ** 2, axis=0, weights=m.weights)
    std = np.sqrt(var)
    d = m.dim
    if d == 1:
        iqr = _weighted_quantile(m, 0.75) - _weighted_quantile(m, 0.25)
        scale = np.where(iqr > 0, np.minimum(std, iqr / 1.34), std)
        bw = 0.9 * scale * n_eff ** (-1.0 / 5.0)
    else:
        factor = (4.0 / (d + 2)) ** (1.0 / (d + 4))
        bw = factor * std * n_eff ** (-1.0 / (d + 4))
    bw = np.atleast_1d(np.asarray(bw, dtype=float))
    if np.any(bw <= 0):
        raise DomainError(
            "Silverman bandwidth degenerated to 0 (zero spread); pass an explicit bandwidth"
        )
    return bw


def _weighted_quantile(m: Measure, q: float) -> float:
    """Lower weighted q-quantile of a 1D measure, read off its quantile form."""
    form = quantile_form(m)
    pos = np.searchsorted(form.levels, q * form.total, side="left")
    return form.x[min(pos, m.n - 1)]


def auto_grid(m: Measure, bandwidth) -> GridSpec:
    """Grid of DEFAULT_CELLS per axis over the particle range extended by 4 bandwidths."""
    bw = np.broadcast_to(np.atleast_1d(np.asarray(bandwidth, dtype=float)), (m.dim,))
    lo = m.points.min(axis=0) - 4.0 * bw
    hi = m.points.max(axis=0) + 4.0 * bw
    return GridSpec(lo, hi, (DEFAULT_CELLS[m.dim],) * m.dim)


def pooled_grid(measures):
    """Shared grid (and pooled Silverman bandwidth) for comparing several laws.

    Pools all particles with their weights (renormalized) so that symmetric
    distances are evaluated with one grid and one bandwidth.
    """
    measures = list(measures)
    pts = np.concatenate([m.points for m in measures], axis=0)
    w = np.concatenate([m.weights for m in measures])
    pooled = Measure.from_points(pts, w)
    bw = silverman_bandwidth(pooled)
    return auto_grid(pooled, bw), bw


def to_density(m: Measure, grid: GridSpec, bandwidth) -> Density:
    """Gaussian kernel density estimate on a grid, renormalized to unit mass.

    The estimate is computed by binning particles into grid cells and
    convolving with a Gaussian of the given bandwidth (binned KDE); the
    binning error is O((cell width / bandwidth)^2) and negligible on the
    grids of :func:`pooled_grid`.  If the grid fails to cover the particle
    range extended by 4 bandwidths per axis (a 99.9%-mass proxy), the output
    carries ``coverage_warning=True``.
    """
    if m.dim > 2:
        raise DomainError("grid densities support dimension <= 2")
    bw = np.broadcast_to(np.atleast_1d(np.asarray(bandwidth, dtype=float)), (m.dim,)).copy()
    if np.any(bw <= 0):
        raise DomainError("bandwidth must be positive")

    warn = bool(
        np.any(m.points.min(axis=0) - 4.0 * bw < grid.lo)
        or np.any(m.points.max(axis=0) + 4.0 * bw > grid.hi)
    )

    hist = _linear_binning(m, grid)
    sigma_cells = bw / grid.widths()
    smooth = _gaussian_filter(hist, sigma_cells)
    vals = smooth / grid.cell_volume()
    mass = float(vals.sum() * grid.cell_volume())
    if mass <= 0:
        raise NumericsError("all mass fell outside the grid")
    vals = vals / mass
    return Density(grid, vals, coverage_warning=warn)


def _gaussian_filter(hist: np.ndarray, sigma_cells) -> np.ndarray:
    """``ndimage.gaussian_filter(hist, sigma_cells, mode="constant", truncate=10.0)``, bit for
    bit on a histogram: per axis, x[i] w[r] plus (x[i-j] + x[i+j]) w[r+j] for j = r, ..., 1."""
    for axis, sigma in enumerate(sigma_cells):
        if sigma > 1e-15:  # ndimage leaves an axis of smaller sigma as it is
            r = int(10.0 * sigma + 0.5)
            phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
            w = phi / phi.sum()
            x = np.moveaxis(hist, axis, 0)
            xp = np.zeros((len(x) + 2 * r,) + x.shape[1:])
            xp[r:r + len(x)] = x  # rows[s] below views xp[s:s + len(x)]
            rows = np.ndarray((2 * r + 1,) + x.shape, float, xp, 0, xp.strides[:1] + xp.strides)
            acc = x * w[r]
            scratch = np.empty((min(r, 64) + 1,) + x.shape)
            for hi in range(r, 0, -64):  # 64 taps a block: 65 rows of scratch at any radius
                lo = max(hi - 64, 0)
                block = scratch[:hi - lo + 1]
                block[0] = acc
                np.add(rows[r - hi:r - lo], rows[r + hi:r + lo:-1], out=block[1:])
                # einsum adds row after row, each times its weight, onto zeros: acc, then the taps.
                acc = np.einsum("j...,j->...", block, np.concatenate(([1.0], w[r + hi:r + lo:-1])))
            hist = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(hist)  # C order, as the sum of the mass expects


def _linear_binning(m: Measure, grid: GridSpec) -> np.ndarray:
    """Assign particle mass to the one or two nearest cell centers per axis.

    Second-order accurate and symmetry-preserving (an atom on a cell edge
    splits evenly).  Particles outside the grid are dropped; the caller
    renormalizes.  Corner c takes, on axis j, the upper neighbour when bit j
    of c is set; each corner adds its particles in input order.
    """
    pos = (m.points - grid.lo) / grid.widths() - 0.5  # in cell-center coordinates
    base = np.floor(pos).astype(int)
    frac = pos - base
    hist = np.zeros(grid.shape)
    axes = range(grid.dim)
    for corner in range(2**grid.dim):
        up = [(corner >> j) & 1 for j in axes]
        index = [base[:, j] + 1 if up[j] else base[:, j] for j in axes]
        factor = reduce(np.multiply, [frac[:, j] if up[j] else 1.0 - frac[:, j] for j in axes])
        ok = reduce(np.logical_and, [(i >= 0) & (i < n) for i, n in zip(index, grid.shape)])
        np.add.at(hist, tuple(i[ok] for i in index), (factor * m.weights)[ok])
    return hist


def left_node(times: np.ndarray, u: float) -> int:
    """Index of the node governing time u under left-constant interpolation."""
    if u < times[0] - TIME_TOL:
        raise DomainError(f"time {u} precedes the flow start {times[0]}")
    i = int(np.searchsorted(times, u + TIME_TOL, side="right") - 1)
    return min(max(i, 0), len(times) - 1)


@dataclass(frozen=True, eq=False)
class Flow:
    """Time-indexed path of measures on a strictly increasing time grid."""

    times: np.ndarray
    measures: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        ms = tuple(self.measures)
        if len(ms) == 0 or len(t) != len(ms):
            raise DomainError("a Flow needs one measure per time node (>= 1)")
        if np.any(np.diff(t) <= 0):
            raise DomainError("flow times must be strictly increasing")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise DomainError("all flow measures must share one dimension")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "measures", ms)

    @classmethod
    def constant(cls, m: Measure, times) -> "Flow":
        times = np.asarray(times, dtype=float).ravel()
        return cls(times, tuple(m for _ in times))

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def at(self, u: float) -> Measure:
        """Measure at time u (piecewise constant, left node)."""
        return self.measures[left_node(self.times, u)]

    def covers(self, t0: float, t1: float) -> bool:
        """Whether [t0, t1] is inside the flow's reach.

        Single-node flows are treated as constant in time and cover any
        interval starting at or after their node.
        """
        if self.times[0] > t0 + TIME_TOL:
            return False
        if len(self.measures) == 1:
            return True
        return self.times[-1] >= t1 - TIME_TOL

    def shift(self, v) -> "Flow":
        return Flow(self.times, tuple(m.shift(v) for m in self.measures))

    def resampled(self, n: int, seed: int) -> "Flow":
        return Flow(
            self.times,
            tuple(resample(m, n, seed + _RESAMPLE_STREAM + i) for i, m in enumerate(self.measures)),
        )

    def same_grid(self, other: "Flow", tol: float = 1e-9) -> bool:
        return len(self.times) == len(other.times) and np.allclose(
            self.times, other.times, atol=tol, rtol=0
        )
