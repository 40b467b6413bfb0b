"""Shared fixtures: model builders and closed-form oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from mvsde import metrics
from mvsde.coefficients import Model, load_model
from mvsde.measures import LawRows

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"
CONFIGS = REPO / "configs"


def variation(m1, m2, theta):
    """``metrics.weighted_variation_rows`` between two measures, as one row pair."""
    a, b = (LawRows(m.points[None], m.weights[None]) for m in (m1, m2))
    return float(metrics.weighted_variation_rows(a, b, theta)[0])


def _scalar_model(name, drift, sigma_expr, K, b_sup, k=1.0, eta=1.0, beta=1.0):
    return Model.from_json({
        "name": name, "dim": 1,
        "drift": [drift],
        "diffusion": {"kind": "scalar", "exprs": [sigma_expr]},
        "constants": {"K": K, "k": k, "eta": eta, "beta": beta, "b_sup": b_sup},
    })


@pytest.fixture(scope="session")
def brownian_model():
    return load_model(MODELS / "brownian.json")


@pytest.fixture(scope="session")
def arctan_model():
    return load_model(MODELS / "arctan_drift.json")


@pytest.fixture(scope="session")
def tanh_model():
    return load_model(MODELS / "tanh_diffusion.json")


@pytest.fixture(scope="session")
def mixed_model():
    return load_model(MODELS / "mixed_mean_field.json")


@pytest.fixture(scope="session")
def const_drift_model():
    return _scalar_model(
        "const_drift",
        {"op": "const", "value": 1.0},
        {"op": "const", "value": 1.0},
        K=1.5, b_sup=1.0)


@pytest.fixture(scope="session")
def space_sigma_model():
    # sigma(x) = 1 + 0.2 tanh(x): state-dependent diffusion for trace-term paths
    return _scalar_model(
        "space_sigma",
        {"op": "const", "value": 0.0},
        {"op": "lincomb", "const": 1.0,
         "terms": [{"coef": 0.2, "arg": {"op": "tanh", "arg": {"op": "coord", "index": 0}}}]},
        K=1.7, b_sup=0.0)


@pytest.fixture(scope="session")
def mean_sigma_model():
    # sigma(mu) = mu(id): flows of Diracs dial the frozen variance directly
    return _scalar_model(
        "mean_sigma",
        {"op": "const", "value": 0.0},
        {"op": "integral", "arg": {"op": "coord", "index": 0}},
        K=2.0, b_sup=0.0)


@pytest.fixture(scope="session")
def tanh_drift_model():
    # b(x) = tanh(2x): space-dependent drift whose first weak-order Euler
    # bias coefficient b'b + b''/2 does not cancel (it does for tanh(x)).
    return _scalar_model(
        "tanh_drift",
        {"op": "tanh", "arg": {"op": "lincomb", "const": 0.0,
                               "terms": [{"coef": 2.0, "arg": {"op": "coord", "index": 0}}]}},
        {"op": "const", "value": 1.0},
        K=1.5, b_sup=1.0)


# ---------------------------------------------------------------------------
# Closed-form oracles


def tv_shifted_normals(eps: float, var: float) -> float:
    """TV between N(0, var) and N(eps, var) in the sup_{|f|<=1} convention."""
    return 2.0 * (2.0 * norm.cdf(abs(eps) / (2.0 * math.sqrt(var))) - 1.0)


def tv_centered_normals(v1: float, v2: float) -> float:
    """TV between N(0, v1) and N(0, v2)."""
    if v1 == v2:
        return 0.0
    if v1 > v2:
        v1, v2 = v2, v1
    xstar = math.sqrt(math.log(v2 / v1) * v1 * v2 / (v2 - v1))
    return 4.0 * (norm.cdf(xstar / math.sqrt(v1)) - norm.cdf(xstar / math.sqrt(v2)))


def e_clamped_abs_normal(v: float) -> float:
    """E min(|X|, 1) for X ~ N(0, v)."""
    if v <= 0:
        return 0.0
    s = math.sqrt(v)
    return (math.sqrt(2.0 * v / math.pi) * (1.0 - math.exp(-1.0 / (2.0 * v)))
            + 2.0 * (1.0 - norm.cdf(1.0 / s)))


def tanh_variance_oracle(T: float, steps: int = 4000) -> tuple:
    """Deterministic self-consistency iteration for the variance path of the
    zero-drift model with sigma = 1 + tanh(E min(|X|,1))/2, started at delta_0:
    v(t) = integral_0^t (1 + tanh(E_h(v(u)))/2)^2 du."""
    ts = np.linspace(0.0, T, steps + 1)
    v = np.zeros_like(ts)
    for _ in range(80):
        integrand = (1.0 + 0.5 * np.tanh([e_clamped_abs_normal(x) for x in v])) ** 2
        v_new = np.concatenate(
            [[0.0], np.cumsum((integrand[:-1] + integrand[1:]) / 2.0 * np.diff(ts))]
        )
        if np.max(np.abs(v_new - v)) < 1e-13:
            v = v_new
            break
        v = v_new
    return ts, v


def arctan_mean_oracle(T: float, m0: float):
    """High-order solution of m' = arctan(m), m(0) = m0."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, m: np.arctan(m), (0.0, T), [m0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    return lambda t: float(sol.sol(t)[0])
