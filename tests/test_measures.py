import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    dens = to_density(m)  # Silverman default
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
        dens = to_density(m, bandwidth=rng.uniform(0.05, 0.5))
        assert dens.mass == pytest.approx(1.0, abs=1e-6)
        assert np.all(dens.values >= 0)
    with pytest.raises(DomainError):
        to_density(Measure.dirac([0.0, 0.0, 0.0]), bandwidth=0.1)
    with pytest.raises(DomainError):
        to_density(Measure.dirac([0.0]))  # zero spread, no bandwidth given


def test_to_density_2d_normal_oracle():
    rng = np.random.default_rng(6)
    m = Measure.from_points(rng.standard_normal((50_000, 2)))
    dens = to_density(m)
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


def _corner_loop(m, grid):
    # The general corner loop of measures._linear_binning, kept here as the
    # reference its 1D path must match bit for bit.
    w = grid.widths()
    pos = (m.points - grid.lo) / w - 0.5
    base = np.floor(pos).astype(int)
    frac = pos - base
    hist = np.zeros(grid.shape)
    shape = np.asarray(grid.shape)
    for corner in range(2**grid.dim):
        offs = np.array([(corner >> j) & 1 for j in range(grid.dim)])
        idx = base + offs
        weight = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=1) * m.weights
        ok = np.all((idx >= 0) & (idx < shape), axis=1)
        if not np.any(ok):
            continue
        np.add.at(hist, tuple(idx[ok].T), weight[ok])
    return hist


@st.composite
def _binning_case(draw):
    # Dyadic bounds and widths put cell centres and edges on exact floats;
    # the width 0.3 puts them a rounding away.
    lo = draw(st.integers(-8, 8)) * 0.5
    width = draw(st.sampled_from([0.125, 0.5, 1.0, 0.3]))
    cells = draw(st.integers(2, 12))
    kinds = st.sampled_from(["centre", "edge", "below", "above", "free"])
    atoms = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=25)):
        if kind == "free":
            atoms.append(draw(st.floats(lo - 2 * width, lo + (cells + 2) * width)))
            continue
        j, off = draw(st.integers(0, cells)), draw(st.floats(0.0, 3.0))
        atoms.append({"centre": lo + (j + 0.5) * width, "edge": lo + j * width,
                      "below": lo - width - off, "above": lo + (cells + 1) * width + off}[kind])
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(atoms), max_size=len(atoms)))
    return (lo, lo + cells * width, cells), atoms, weights


@settings(deadline=None, max_examples=300)
@given(_binning_case())
@example(((0.0, 1.0, 4), [0.375], [1.0]))                    # a single atom on a centre
@example(((0.0, 1.0, 4), [0.5], [1.0]))                      # a single atom on an edge
@example(((0.0, 1.0, 4), [-0.5, 0.125, 0.25, 0.5, 1.0, 1.5],
          [0.1, 2.0, 0.3, 4.0, 0.5, 6.0]))                   # off both ends, unequal weights
def test_1d_binning_adds_as_the_corner_loop(case):
    (lo, hi, cells), atoms, weights = case
    grid = GridSpec([lo], [hi], (cells,))
    m = Measure.from_points(np.array(atoms)[:, None], weights)
    assert measures._linear_binning(m, grid).tobytes() == _corner_loop(m, grid).tobytes()


def test_a_memoised_offset_is_a_fresh_generators_draw():
    seeds = ([fixed_point._METRIC_SEED, metrics._SUBSAMPLE_SEED]
             + [fixed_point._METRIC_SEED + measures._RESAMPLE_STREAM + i for i in range(100)])
    measures._systematic_offset.cache_clear()
    for _ in range(2):  # computed, then memoised
        for seed in seeds:
            assert measures._systematic_offset(seed) == np.random.default_rng(seed).random()
    assert measures._systematic_offset.cache_info().hits == len(seeds)
