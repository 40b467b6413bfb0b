import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mvsde import metrics
from mvsde.errors import DomainError, SizeError
from mvsde.measures import Density, Flow, GridSpec, Measure
from audit_reference import reference_variation
from conftest import tv_shifted_normals, variation


def _rand_measure(rng, n, d=1, scale=2.0):
    return Measure.from_points(rng.normal(size=(n, d)) * scale, rng.uniform(0.1, 1, n))


# ---------------------------------------------------------------------------
# wasserstein_1d


def test_w1d_identity_and_diracs():
    m = Measure.from_points([[0.0], [1.0]])
    assert metrics.wasserstein_1d(m, m, 2.0).value == 0.0
    for k in (1.0, 2.0, 3.5):
        rep = metrics.wasserstein_1d(Measure.dirac([0.0]), Measure.dirac([-1.7]), k)
        assert rep.value == pytest.approx(1.7, abs=1e-12)
        assert rep.method == "exact_1d"
    with pytest.raises(DomainError):
        metrics.wasserstein_1d(m, m, 0.5)


def test_w1d_two_atom_lp_oracle():
    # Brute force over the single free coupling mass a in [max(0, .5+.5-1), .5]:
    # cost(a) is linear, so the optimum sits at an endpoint.
    m1 = Measure.from_points([[0.0], [1.0]])
    m2 = Measure.from_points([[0.0], [2.0]])
    costs = []
    for a in (0.0, 0.5):  # pi(0,0) = a
        pi = np.array([[a, 0.5 - a], [0.5 - a, a]])
        c = np.array([[0.0, 2.0], [1.0, 1.0]])
        costs.append(float((pi * c).sum()))
    oracle = min(costs)
    assert oracle == 0.5
    assert metrics.wasserstein_1d(m1, m2, 1.0).value == pytest.approx(oracle, abs=1e-12)


def test_w1d_matches_lp_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m1 = _rand_measure(rng, int(rng.integers(2, 13)))
        m2 = _rand_measure(rng, int(rng.integers(2, 13)))
        k = float(rng.choice([1, 2, 3]))
        a = metrics.wasserstein_1d(m1, m2, k).value
        b = metrics.ot_lp(m1, m2, k).value
        assert abs(a - b) <= 1e-9


def test_w1d_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ms = [_rand_measure(rng, int(rng.integers(2, 10))) for _ in range(3)]
        for k in (1.0, 2.0):
            d01 = metrics.wasserstein_1d(ms[0], ms[1], k).value
            d12 = metrics.wasserstein_1d(ms[1], ms[2], k).value
            d02 = metrics.wasserstein_1d(ms[0], ms[2], k).value
            assert d02 <= d01 + d12 + 1e-9


# ---------------------------------------------------------------------------
# ot_lp / wasserstein_eta


def test_ot_lp_identity_and_budget():
    m = Measure.from_points([[0.0], [1.0]])
    assert metrics.ot_lp(m, m, 2.0).value == 0.0
    rep = metrics.ot_lp(Measure.dirac([1.0, 0.0]), Measure.dirac([0.0, 0.0]), 0.5)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.gap <= 1e-8
    rng = np.random.default_rng(2)
    big = _rand_measure(rng, 200)
    with pytest.raises(SizeError):
        metrics.ot_lp(big, _rand_measure(rng, 200), 1.0)
    with pytest.raises(DomainError):
        metrics.ot_lp(m, m, 0.0)


def test_weta_examples():
    m1 = Measure.from_points([[0.0], [1.0]])
    m2 = Measure.from_points([[0.0], [2.0]])
    assert metrics.wasserstein_eta(m1, m1, 0.5).value == 0.0
    assert metrics.wasserstein_eta(Measure.dirac([0.0]), Measure.dirac([4.0]), 0.5).value \
        == pytest.approx(2.0, abs=1e-9)
    # Brute force over the free coupling parameter of the 2x2 plan.
    grid = np.linspace(0.0, 0.5, 2001)
    c = np.array([[0.0, math.sqrt(2.0)], [1.0, 1.0]])
    oracle = min(float((np.array([[a, 0.5 - a], [0.5 - a, a]]) * c).sum()) for a in grid)
    got = metrics.wasserstein_eta(m1, m2, 0.5).value
    assert got == pytest.approx(oracle, abs=1e-9)
    with pytest.raises(DomainError):
        metrics.wasserstein_eta(m1, m2, 1.5)
    with pytest.raises(DomainError):
        metrics.wasserstein_eta(m1, m2, 0.0)


def test_ot_lp_two_dimensional_oracle():
    # Two equal-weight pairs on a rectangle: the optimal matching is forced
    # by exclusion, so W_2^2 = mean of the two squared matched distances.
    m1 = Measure.from_points([[0.0, 0.0], [1.0, 0.0]])
    m2 = Measure.from_points([[0.0, 1.0], [1.0, 1.0]])
    got = metrics.ot_lp(m1, m2, 2.0).value
    assert got == pytest.approx(1.0, abs=1e-9)
    m3 = Measure.from_points([[0.0, 2.0], [1.0, 2.0]], [0.25, 0.75])
    d13 = metrics.ot_lp(m1, m3, 2.0).value
    d12 = metrics.ot_lp(m1, m2, 2.0).value
    d23 = metrics.ot_lp(m2, m3, 2.0).value
    assert d13 <= d12 + d23 + 1e-9


def test_weta_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(25):
        ms = [_rand_measure(rng, int(rng.integers(2, 8))) for _ in range(3)]
        d01 = metrics.wasserstein_eta(ms[0], ms[1], 0.7).value
        d12 = metrics.wasserstein_eta(ms[1], ms[2], 0.7).value
        d02 = metrics.wasserstein_eta(ms[0], ms[2], 0.7).value
        assert d02 <= d01 + d12 + 1e-9


def test_weta_subsample_documented_and_deterministic():
    rng = np.random.default_rng(5)
    m1 = Measure.from_points(rng.normal(size=(500, 1)))
    m2 = Measure.from_points(rng.normal(size=(500, 1)) + 0.3)
    r1 = metrics.wasserstein_eta(m1, m2, 0.5)
    r2 = metrics.wasserstein_eta(m1, m2, 0.5)
    assert r1.subsample == 100 and r1.value == r2.value


# ---------------------------------------------------------------------------
# weighted variation


def _normal_density_pair(shift, cells=4096, half=12.0):
    grid = GridSpec([-half], [half], (cells,))
    xs = grid.centers()[:, 0]
    h = grid.widths()[0]
    p = norm.pdf(xs)
    q = norm.pdf(xs - shift)
    d1 = Density(grid, p / (p.sum() * h))
    d2 = Density(grid, q / (q.sum() * h))
    return d1, d2


def test_weighted_variation_examples():
    d1, d2 = _normal_density_pair(0.0)
    assert metrics.weighted_variation(d1, d1, 0.0).value == 0.0
    # disjoint unit masses reach the extremal value 2
    grid = GridSpec([0.0], [2.0], (200,))
    xs = grid.centers()[:, 0]
    h = grid.widths()[0]
    a = np.where(xs < 1.0, 1.0, 0.0)
    b = np.where(xs >= 1.0, 1.0, 0.0)
    da = Density(grid, a / (a.sum() * h))
    db = Density(grid, b / (b.sum() * h))
    assert metrics.weighted_variation(da, db, 0.0).value == pytest.approx(2.0, abs=1e-9)
    # shifted-normal closed form
    for shift in (0.5, 1.0, 2.0):
        d1, d2 = _normal_density_pair(shift)
        got = metrics.weighted_variation(d1, d2, 0.0).value
        assert got == pytest.approx(tv_shifted_normals(shift, 1.0), abs=1e-5)
    with pytest.raises(DomainError):
        metrics.weighted_variation(da, _normal_density_pair(0.0)[0], 0.0)


def test_weighted_variation_symmetry_and_triangle():
    d1, d2 = _normal_density_pair(0.7)
    _, d3 = _normal_density_pair(1.4)
    v12 = metrics.weighted_variation(d1, d2, 0.0).value
    v21 = metrics.weighted_variation(d2, d1, 0.0).value
    v13 = metrics.weighted_variation(d1, d3, 0.0).value
    v23 = metrics.weighted_variation(d2, d3, 0.0).value
    assert v12 == pytest.approx(v21, abs=1e-12)
    assert v13 <= v12 + v23 + 1e-9


@settings(deadline=None)
@given(st.data())
def test_weighted_variation_on_one_grid_object_matches_equal_grids(data):
    # Densities on one GridSpec object skip the grid comparison; the value
    # must not depend on whether the grid is shared or merely equal.
    dim = data.draw(st.sampled_from([1, 2]))
    shape = tuple(data.draw(st.integers(2, 12)) for _ in range(dim))
    lo = [data.draw(st.floats(-5.0, 0.0)) for _ in range(dim)]
    hi = [a + data.draw(st.floats(0.5, 5.0)) for a in lo]
    grid = GridSpec(lo, hi, shape)

    def raw():
        return np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=math.prod(shape),
                                           max_size=math.prod(shape)))).reshape(shape)

    def density(g, r):
        return Density(g, r / (r.sum() * g.cell_volume()))

    r1, r2 = raw(), raw()
    theta = data.draw(st.floats(0.0, 3.0))
    shared = metrics.weighted_variation(density(grid, r1), density(grid, r2), theta).value
    twins = [GridSpec(grid.lo.copy(), grid.hi.copy(), shape) for _ in range(2)]
    equal = metrics.weighted_variation(density(twins[0], r1), density(twins[1], r2), theta).value
    assert np.float64(shared).tobytes() == np.float64(equal).tobytes()
    d1, d2 = density(grid, r1), density(GridSpec(grid.lo, grid.hi + 0.25, shape), r2)
    with pytest.raises(DomainError):
        metrics.weighted_variation(d1, d2, theta)


def test_variation_atoms_examples():
    m1 = Measure.from_points([[0.0], [1.0]])
    m2 = Measure.from_points([[0.0], [2.0]])
    assert variation(m1, m1, 1.0) == 0.0
    v = variation(Measure.dirac([1.0]), Measure.dirac([-2.0]), 2.0)
    assert v == pytest.approx((1 + 1.0) + (1 + 4.0), abs=1e-12)
    assert variation(m1, m2, 1.0) == pytest.approx(2.5, abs=1e-12)


def test_w1_dominated_by_variation():
    # With theta = 1 the transport distance never exceeds the weighted
    # variation; the minimal fitted constant is reported, not asserted.
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        m1 = _rand_measure(rng, int(rng.integers(2, 9)))
        m2 = _rand_measure(rng, int(rng.integers(2, 9)))
        w1 = metrics.wasserstein_1d(m1, m2, 1.0).value
        var = variation(m1, m2, 1.0)
        assert w1 <= var + 1e-9
        if var > 0:
            worst = max(worst, w1 / var)
    print(f"fitted minimal c in W_1 <= c * ||.||_1,var over tested instances: {worst:.4f}")


# ---------------------------------------------------------------------------
# flow metrics


def test_rho_lambda_examples():
    f1 = Flow.constant(Measure.dirac([0.0]), [0.0, 1.0])
    f2 = Flow.constant(Measure.dirac([1.0]), [0.0, 1.0])
    assert metrics.rho_lambda(f1, f1, 1.0, 1.0, 1.0) == 0.0
    assert metrics.rho_lambda(f1, f2, 1.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    # monotone nonincreasing in lambda
    vals = [metrics.rho_lambda(f1, f2, lam, 1.0, 1.0) for lam in (0.5, 1.0, 2.0, 8.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        metrics.rho_lambda(f1, Flow.constant(Measure.dirac([1.0]), [0.0, 2.0]), 1.0, 1.0, 1.0)


def test_flow_distance_average_piecewise():
    m0, m1 = Measure.dirac([0.0]), Measure.dirac([1.0])
    f1 = Flow([0.0, 0.5], (m0, m0))
    f2 = Flow([0.0, 0.5], (m0, m1))
    # distance 0 on [0, .5), 2 on [.5, 1]: average over [0,1] = 1
    values = metrics.node_distances(f1, f2, lambda a, b: metrics.transport(a, b, 1.0, 1.0))
    avg = metrics.segment_integral(f1.times, values, 0.0, 1.0)
    assert avg == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# properties on random weighted measures


@st.composite
def _weighted_measure(draw, dim=1):
    n = draw(st.integers(1, 12))
    pts = draw(st.lists(st.lists(st.floats(-100, 100), min_size=dim, max_size=dim),
                        min_size=n, max_size=n))
    w = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return Measure.from_points(np.array(pts), w)


@settings(deadline=None)
@given(_weighted_measure(), _weighted_measure())
def test_w1_equals_cdf_l1_distance(m1, m2):
    # In 1D, W_1 is the integral of |F - G|; both are step functions that
    # jump only on the merged support.
    xs = np.union1d(m1.points[:, 0], m2.points[:, 0])
    F = np.array([m1.weights[m1.points[:, 0] <= x].sum() for x in xs[:-1]])
    G = np.array([m2.weights[m2.points[:, 0] <= x].sum() for x in xs[:-1]])
    ref = float(np.sum(np.abs(F - G) * np.diff(xs)))
    got = metrics.wasserstein_1d(m1, m2, 1.0).value
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


@st.composite
def _lattice_measure(draw, dim):
    # Atoms on a quarter lattice with integer weights.  ot_lp is only as exact
    # as HiGHS's feasibility tolerance: on near-degenerate float atoms its
    # cost is off by up to ~1e-8, which a square root lifts far above 1e-9.
    n = draw(st.integers(1, 8))
    pts = draw(st.lists(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim),
                        min_size=n, max_size=n))
    w = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    return Measure.from_points(np.array(pts) / 4.0, w)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_wasserstein_agrees_with_the_lp_oracle(data):
    # One dispatch picks the solver; whichever it picks matches the exact LP.
    dim = data.draw(st.sampled_from([1, 2]))
    m1, m2 = data.draw(_lattice_measure(dim)), data.draw(_lattice_measure(dim))
    p = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    assert abs(metrics.wasserstein(m1, m2, p).value - metrics.ot_lp(m1, m2, p).value) <= 1e-9


def test_transport_computes_a_shared_exponent_once_in_2d():
    rng = np.random.default_rng(8)
    a, b = _rand_measure(rng, 30, d=2), _rand_measure(rng, 40, d=2)
    assert metrics.transport(a, b, 1.0, 1.0) == 2 * metrics.wasserstein(a, b, 1.0).value


def test_wasserstein_needs_a_positive_exponent():
    m = Measure.from_points([[0.0], [1.0]])
    for p in (0.0, -1.0):
        with pytest.raises(DomainError):
            metrics.wasserstein(m, m, p)


@settings(deadline=None)
@given(st.data())
def test_transport_distances_symmetric(data):
    dim = data.draw(st.sampled_from([1, 2]))
    m1 = data.draw(_weighted_measure(dim))
    m2 = data.draw(_weighted_measure(dim))
    k = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    eta = data.draw(st.floats(0.1, 1.0))
    for dist, p in ((metrics.wasserstein, k), (metrics.wasserstein_eta, eta)):
        d12 = dist(m1, m2, p).value
        d21 = dist(m2, m1, p).value
        assert d12 == pytest.approx(d21, rel=1e-7, abs=1e-9)


@settings(deadline=None)
@given(st.data())
def test_weighted_variation_atoms_symmetric_and_bounded(data):
    # Atoms from a small lattice, so the two measures share some points and
    # their weights partly cancel.
    dim = data.draw(st.sampled_from([1, 2]))
    coord = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0])

    def measure():
        n = data.draw(st.integers(1, 6))
        pts = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n))
        w = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        return Measure.from_points(np.array(pts), w)

    m1, m2 = measure(), measure()
    theta = data.draw(st.floats(0.0, 3.0))
    d12, d21 = variation(m1, m2, theta), variation(m2, m1, theta)
    assert d12 == pytest.approx(d21, rel=1e-12, abs=1e-15)
    # Shared atoms merge as the per-atom table of the former dict version did.
    assert d12 == reference_variation(m1, m2, theta)
    assert d21 == reference_variation(m2, m1, theta)

    def moment(m):
        return float(np.sum(m.weights * np.linalg.norm(m.points, axis=1) ** theta))

    assert d12 <= (2.0 + moment(m1) + moment(m2)) * (1 + 1e-12)
