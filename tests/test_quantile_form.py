"""The memoised quantile form: each 1D law sorted once, with the same results.

``wasserstein_1d`` and ``_weighted_quantile`` read ``quantile_form``; the
references below are the bodies that sorted on every call, and every result
must equal theirs exactly.
"""

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import measures, metrics
from mvsde.measures import Measure, quantile_form, resample


def _reference_w1d(m1, m2, k):
    """W_k as computed before the memo: both measures sorted on every call."""
    if m1 is m2:
        return 0.0
    o1 = np.argsort(m1.points[:, 0], kind="stable")
    o2 = np.argsort(m2.points[:, 0], kind="stable")
    x1, w1 = m1.points[o1, 0], m1.weights[o1]
    x2, w2 = m2.points[o2, 0], m2.weights[o2]
    c1, c2 = np.cumsum(w1), np.cumsum(w2)
    c1[-1] = c2[-1] = 1.0
    levels = np.union1d(c1, c2)
    prev = np.concatenate(([0.0], levels[:-1]))
    masses = levels - prev
    mids = 0.5 * (levels + prev)
    q1 = x1[np.searchsorted(c1, mids, side="left")]
    q2 = x2[np.searchsorted(c2, mids, side="left")]
    cost = float(np.sum(masses * np.abs(q1 - q2) ** k))
    return cost ** (1.0 / k)


def _reference_quantile(m, q):
    """The lower weighted quantile as computed before the memo."""
    idx = np.argsort(m.points[:, 0])
    cum = np.cumsum(m.weights[idx])
    pos = np.searchsorted(cum, q * cum[-1], side="left")
    return m.points[idx[min(pos, m.n - 1)], 0]


# Coordinates with ties, signed zeros and neighbours one ulp apart, which a
# large shift merges.
_coords = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, float(np.nextafter(1.0, 2.0)), 3.0]),
    st.floats(-100, 100),
)
_weights = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
_shifts = st.one_of(st.sampled_from([0.0, -0.0, 1e16, -3.0, 0.1]), st.floats(-1e3, 1e3))
_exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0])


@st.composite
def _measure(draw, n=None, uniform=None):
    n = draw(st.integers(1, 12)) if n is None else n
    pts = np.array(draw(st.lists(_coords, min_size=n, max_size=n)))
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform:
        return Measure.from_points(pts)
    w = draw(st.lists(_weights, min_size=n, max_size=n).filter(lambda w: sum(w) > 0))
    return Measure.from_points(pts, w)


def _check(m1, m2, k):
    assert metrics.wasserstein_1d(m1, m2, k).value == _reference_w1d(m1, m2, k)


@settings(deadline=None, max_examples=300)
@given(_measure(), _measure(), _exponents)
def test_w1d_equals_the_sorting_reference(m1, m2, k):
    _check(m1, m2, k)
    _check(m2, m1, k)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_w1d_equals_the_reference_on_equal_size_uniform_pairs(data):
    n = data.draw(st.integers(1, 40))
    m1, m2 = data.draw(_measure(n, True)), data.draw(_measure(n, True))
    assert quantile_form(m1).levels is quantile_form(m2).levels  # one array per size
    _check(m1, m2, data.draw(_exponents))


@settings(deadline=None, max_examples=300)
@given(_measure(), _shifts, _exponents, st.booleans())
def test_w1d_against_a_shift_equals_the_reference(parent, v, k, parent_sorted_first):
    if parent_sorted_first:
        quantile_form(parent)
    child = parent.shift([v])
    grandchild = child.shift([-v])
    _check(child, parent, k)
    _check(grandchild, child, k)
    _check(grandchild, parent, k)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_weighted_quantile_equals_the_sorting_reference(data):
    # Exact wherever the order of tied atoms cannot move the cumulative
    # weights: equal weights, or no ties.
    n = data.draw(st.integers(1, 30))
    if data.draw(st.booleans()):
        m = data.draw(_measure(n, True))
    else:
        pts = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n, unique=True))
        w = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        m = Measure.from_points(np.array(pts), w)
    for q in (0.25, 0.75):
        assert measures._weighted_quantile(m, q) == _reference_quantile(m, q)


def test_a_resampled_law_shares_the_uniform_levels():
    m = Measure.from_points(np.random.default_rng(0).normal(size=(500, 1)))
    a, b = resample(m, 64, 1), resample(m, 64, 2)
    assert quantile_form(a).levels is quantile_form(b).levels
    assert quantile_form(a).separated


def test_the_memo_holds_its_measures_weakly():
    rng = np.random.default_rng(3)
    m = Measure.from_points(rng.normal(size=(50, 1)), rng.uniform(0.1, 1.0, 50))
    child = m.shift([2.0])
    quantile_form(m)
    keys = [key for key in measures._FORMS.data if key() in (m, child)]
    assert len(keys) == 1  # m's form; the unsorted shift adds no entry
    del m, child
    gc.collect()
    assert not any(key in measures._FORMS.data for key in keys)


def test_a_shift_outliving_its_parent_sorts_itself():
    rng = np.random.default_rng(4)
    parent = Measure.from_points(rng.normal(size=(40, 1)), rng.uniform(0.1, 1.0, 40))
    child = parent.shift([1.0])
    expected = _reference_w1d(child, Measure.dirac([0.0]), 2.0)
    del parent
    gc.collect()
    assert metrics.wasserstein_1d(child, Measure.dirac([0.0]), 2.0).value == expected
