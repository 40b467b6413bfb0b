import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.stats import norm

from mvsde import fixed_point, measures, metrics
from mvsde.errors import DomainError, NumericsError
from mvsde.measures import (
    Flow,
    GridSpec,
    Measure,
    auto_grid,
    moment_k,
    pooled_grid,
    resample,
    silverman_bandwidth,
    to_density,
)


def test_measure_invariants():
    with pytest.raises(DomainError):
        Measure(np.zeros((0, 1)), np.zeros(0), 1)
    with pytest.raises(DomainError):
        Measure(np.zeros((2, 1)), np.array([0.6, 0.5]), 1)  # mass 1.1
    with pytest.raises(DomainError):
        Measure(np.zeros((2, 1)), np.array([-0.5, 1.5]), 1)
    with pytest.raises(DomainError):
        Measure(np.zeros((2, 2)), np.array([0.5, 0.5]), 1)  # dim mismatch
    m = Measure.from_points([[0.0], [1.0]], [3.0, 1.0])  # renormalizes
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises((ValueError, NumericsError)):
        Measure.dirac([np.nan])


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 0.5], [-np.inf, np.inf]])
def test_a_non_finite_weight_is_rejected(weights):
    # NaN compares False with 0 and with the tolerance, so it used to pass.
    with pytest.raises(NumericsError, match="non-finite weight"):
        Measure(np.zeros((2, 1)), np.array(weights), 1)
    with pytest.raises(NumericsError, match="non-finite weight"):
        Measure.from_points([[0.0], [1.0]], weights)


def test_moment_examples():
    assert moment_k(Measure.dirac([0.0]), 2.0) == 0.0
    sym = Measure.from_points([[-1.0], [1.0]])
    assert moment_k(sym, 2.0) == pytest.approx(1.0, abs=1e-15)
    two = Measure.from_points([[0.0], [2.0]])
    assert moment_k(two, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert moment_k(two, 0.0) == 1.0
    # below 1 the outer root is omitted: 0.5 * 2^0.5
    assert moment_k(two, 0.5) == pytest.approx(0.5 * math.sqrt(2.0), abs=1e-15)
    with pytest.raises(DomainError):
        moment_k(two, -1.0)


def test_resample_examples():
    d = Measure.dirac([2.0])
    r = resample(d, 5, seed=1)
    assert r.n == 5 and np.all(r.points == 2.0) and np.allclose(r.weights, 0.2)
    rng = np.random.default_rng(42)
    m = Measure.from_points(rng.normal(size=(200, 1)), rng.uniform(0.01, 1, 200))
    a = resample(m, 50, seed=9)
    b = resample(m, 50, seed=9)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(DomainError):
        resample(m, 0, seed=1)


def test_resample_moment_oracle():
    # Monte Carlo oracle: RMS of a resampled N(0,1) sample stays near 1.
    rng = np.random.default_rng(7)
    parent = Measure.from_points(rng.standard_normal((200_000, 1)))
    r = resample(parent, 100_000, seed=3)
    se = 0.5 * math.sqrt(2.0) * math.sqrt(1 / 200_000 + 1 / 100_000)
    assert abs(moment_k(r, 2.0) - 1.0) <= 3.0 * se


def test_resample_moment_convergence():
    rng = np.random.default_rng(11)
    m = Measure.from_points(rng.uniform(-2, 2, size=(500, 1)), rng.uniform(0.1, 1, 500))
    big = resample(m, 100_000, seed=5)
    assert abs(moment_k(big, 2.0) - moment_k(m, 2.0)) / moment_k(m, 2.0) <= 0.05


def test_to_density_symmetry_and_mass():
    d0 = Measure.dirac([0.0])
    grid = GridSpec([-1.0], [1.0], (64,))
    dens = to_density(d0, grid=grid, bandwidth=0.1)
    assert np.allclose(dens.values, dens.values[::-1], atol=1e-15)
    assert dens.mass == pytest.approx(1.0, abs=1e-6)
    assert not dens.coverage_warning
    # a grid narrower than the particle range + 4 bandwidths flags a warning
    off = to_density(Measure.dirac([0.9]), grid=grid, bandwidth=0.1)
    assert off.coverage_warning


def test_to_density_normal_l1_oracle():
    rng = np.random.default_rng(2)
    m = Measure.from_points(rng.standard_normal((100_000, 1)))
    bw = silverman_bandwidth(m)
    dens = to_density(m, auto_grid(m, bw), bw)
    xs = dens.grid.centers()[:, 0]
    exact = norm.pdf(xs)
    l1 = float(np.abs(dens.values - exact).sum() * dens.grid.cell_volume())
    assert l1 <= 0.02


def test_to_density_validity_property():
    rng = np.random.default_rng(3)
    for trial in range(10):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 200))
        m = Measure.from_points(rng.normal(size=(n, d)) * rng.uniform(0.1, 3),
                                rng.uniform(0.01, 1, n))
        bw = rng.uniform(0.05, 0.5)
        dens = to_density(m, auto_grid(m, bw), bw)
        assert dens.mass == pytest.approx(1.0, abs=1e-6)
        assert np.all(dens.values >= 0)
    with pytest.raises(DomainError):
        to_density(Measure.dirac([0.0, 0.0, 0.0]), GridSpec([-1.0], [1.0], (8,)), 0.1)
    with pytest.raises(DomainError):
        silverman_bandwidth(Measure.dirac([0.0]))  # zero spread


def test_to_density_2d_normal_oracle():
    rng = np.random.default_rng(6)
    m = Measure.from_points(rng.standard_normal((50_000, 2)))
    bw = silverman_bandwidth(m)
    dens = to_density(m, auto_grid(m, bw), bw)
    assert dens.grid.dim == 2
    assert dens.mass == pytest.approx(1.0, abs=1e-6)
    centers = dens.grid.centers()
    exact = (norm.pdf(centers[:, 0]) * norm.pdf(centers[:, 1])).reshape(dens.grid.shape)
    l1 = float(np.abs(dens.values - exact).sum() * dens.grid.cell_volume())
    assert l1 <= 0.1


def test_silverman_weighted():
    rng = np.random.default_rng(4)
    m = Measure.from_points(rng.standard_normal((5000, 1)))
    bw = silverman_bandwidth(m)
    assert 0.9 * 1.0 * 5000 ** (-0.2) * 0.5 < bw[0] < 0.9 * 1.1 * 5000 ** (-0.2) * 1.5


def test_measure_csv_roundtrip(tmp_path):
    m = Measure.from_points([[0.5, -1.0], [2.0, 3.0]], [0.25, 0.75])
    p = tmp_path / "m.csv"
    m.to_csv(p)
    header = p.read_text().splitlines()[0]
    assert header == "w,x1,x2"
    back = Measure.from_csv(p)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_flow_validation_and_lookup():
    m = Measure.dirac([0.0])
    with pytest.raises(DomainError):
        Flow([0.0, 0.0], (m, m))
    f = Flow([0.0, 0.5, 1.0], (m, Measure.dirac([1.0]), Measure.dirac([2.0])))
    assert f.at(0.0).points[0, 0] == 0.0
    assert f.at(0.49).points[0, 0] == 0.0
    assert f.at(0.5).points[0, 0] == 1.0
    assert f.at(2.0).points[0, 0] == 2.0  # constant after the last node
    assert f.covers(0.0, 1.0) and not f.covers(0.0, 1.5)
    assert Flow.constant(m, [0.0]).covers(0.0, 100.0)
    with pytest.raises(DomainError):
        f.at(-0.1)
    g = f.shift([1.0])
    assert g.at(0.0).points[0, 0] == 1.0


def test_pooled_grid_shared():
    rng = np.random.default_rng(5)
    m1 = Measure.from_points(rng.normal(size=(500, 1)))
    m2 = Measure.from_points(rng.normal(size=(500, 1)) + 2.0)
    grid, bw = pooled_grid([m1, m2])
    d1 = to_density(m1, grid=grid, bandwidth=bw)
    d2 = to_density(m2, grid=grid, bandwidth=bw)
    assert d1.grid.same_as(d2.grid)
    assert not d1.coverage_warning and not d2.coverage_warning


_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _weighted_points(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 20))
    pts = draw(st.lists(st.lists(_finite, min_size=dim, max_size=dim), min_size=n, max_size=n))
    w = draw(st.lists(_positive, min_size=n, max_size=n))
    return np.array(pts), np.array(w)


@settings(deadline=None)
@given(_weighted_points())
def test_measure_csv_roundtrip_bit_identical(data):
    pts, w = data
    m = Measure.from_points(pts, w)
    buf = io.StringIO()
    m.to_csv(buf)
    buf.seek(0)
    back = Measure.from_csv(buf)
    assert back.points.tobytes() == m.points.tobytes()
    assert back.weights.tobytes() == m.weights.tobytes()


def _per_particle_binning(m, grid):
    # Linear binning one particle at a time: for each corner in order, each
    # particle in input order adds its share when that corner lies inside.
    hist = np.zeros(grid.shape)
    for corner in range(2**grid.dim):
        for x, w in zip(m.points, m.weights):
            pos = (x - grid.lo) / grid.widths() - 0.5
            index, factor = [], 1.0
            for j in range(grid.dim):
                up = (corner >> j) & 1
                base = math.floor(pos[j])
                index.append(base + up)
                factor *= pos[j] - base if up else 1.0 - (pos[j] - base)
            if all(0 <= i < n for i, n in zip(index, grid.shape)):
                hist[tuple(index)] += factor * w
    return hist


@st.composite
def _binning_case(draw):
    # Dyadic bounds and widths put cell centres and edges on exact floats;
    # the width 0.3 puts them a rounding away.
    dim = draw(st.sampled_from([1, 2]))
    axes = [(draw(st.integers(-8, 8)) * 0.5, draw(st.sampled_from([0.125, 0.5, 1.0, 0.3])),
             draw(st.integers(2, 12))) for _ in range(dim)]
    kinds = st.sampled_from(["centre", "edge", "below", "above", "free"])

    def coordinate(lo, width, cells):
        kind = draw(kinds)
        if kind == "free":
            return draw(st.floats(lo - 2 * width, lo + (cells + 2) * width))
        j, off = draw(st.integers(0, cells)), draw(st.floats(0.0, 3.0))
        return {"centre": lo + (j + 0.5) * width, "edge": lo + j * width,
                "below": lo - width - off, "above": lo + (cells + 1) * width + off}[kind]

    n = draw(st.integers(1, 25))
    atoms = [[coordinate(*axis) for axis in axes] for _ in range(n)]
    weights = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 10.0),
                            min_size=n, max_size=n).filter(any))
    return axes, atoms, weights


@settings(deadline=None, max_examples=300)
@given(_binning_case())
@example(([(0.0, 0.25, 4)], [[0.375]], [1.0]))                   # a single atom on a centre
@example(([(0.0, 0.25, 4)], [[0.5]], [1.0]))                     # a single atom on an edge
@example(([(0.0, 0.25, 4)], [[-0.5], [0.125], [0.25], [0.5], [1.0], [1.5]],
          [0.1, 2.0, 0.0, 4.0, 0.5, 6.0]))                      # off both ends, a zero weight
@example(([(0.0, 0.25, 4), (-1.0, 0.5, 3)], [[0.5, -0.5], [0.3, 0.25], [2.0, 0.0]],
          [0.3, 2.0, 0.7]))                                      # on an edge in both axes
def test_binning_adds_as_a_per_particle_loop(case):
    axes, atoms, weights = case
    lo, width, cells = zip(*axes)
    grid = GridSpec(lo, np.add(lo, np.multiply(width, cells)), cells)
    m = Measure.from_points(atoms, weights)
    want = _per_particle_binning(m, grid)
    assert measures._linear_binning(m, grid).tobytes() == want.tobytes()


@st.composite
def _smoothing_case(draw):
    # The KDE grids: 1024 cells in 1D, 128 x 128 in 2D.  Sigmas span radius 0
    # (sigma < 0.05), axes skipped as ndimage skips them (sigma <= 1e-15), and
    # radii beyond the grid, each axis drawn on its own.
    shape = draw(st.sampled_from([(1024,), (128, 128)]))
    hist = np.zeros(shape)
    for _ in range(draw(st.integers(1, 30))):
        cell = tuple(draw(st.integers(0, n - 1)) for n in shape)
        hist[cell] += draw(st.floats(1e-6, 10.0))
    if draw(st.booleans()):  # a dense run of unequal masses, zeros around it
        start, stop = sorted(draw(st.integers(0, shape[0])) for _ in range(2))
        seed = draw(st.integers(0, 2**32 - 1))
        hist[start:stop] += np.random.default_rng(seed).exponential(size=hist[start:stop].shape)
    sigma = st.one_of(st.floats(0.0, 0.05), st.floats(0.05, 20.0), st.floats(20.0, 130.0),
                      st.sampled_from([0.0, 1e-15, 0.049999, 0.05]))
    return hist, np.array([draw(sigma) for _ in shape])


@settings(deadline=None, max_examples=80)
@given(_smoothing_case())
@example((np.eye(1, 1024, 511)[0], np.array([0.04])))       # radius 0
@example((np.eye(1, 1024, 3)[0], np.array([110.0])))        # radius 1100 > 1024 cells
@example((np.eye(128, 128, 5), np.array([0.0, 13.5])))       # one axis skipped, radius 135 > 128
@example((np.eye(128, 128, 5) * np.arange(128.0), np.array([0.7, 30.0])))  # unequal sigmas
def test_the_smoother_is_ndimage_bit_for_bit(case):
    hist, sigma = case
    got = measures._gaussian_filter(hist, sigma)
    want = ndimage.gaussian_filter(hist, sigma, mode="constant", truncate=10.0)
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous  # to_density's mass sum adds in C order


def test_a_memoised_offset_is_a_fresh_generators_draw():
    seeds = ([fixed_point._METRIC_SEED, metrics._SUBSAMPLE_SEED]
             + [fixed_point._METRIC_SEED + measures._RESAMPLE_STREAM + i for i in range(100)])
    measures._systematic_offset.cache_clear()
    for _ in range(2):  # computed, then memoised
        for seed in seeds:
            assert measures._systematic_offset(seed) == np.random.default_rng(seed).random()
    assert measures._systematic_offset.cache_info().hits == len(seeds)
