import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import cli, metrics
from mvsde.coefficients import (
    Model,
    drift_batch,
    lipschitz_audit,
    load_model,
    sigma_batch,
)
from mvsde.errors import AuditError, ConfigError, NumericsError
from mvsde.measures import Measure
from audit_reference import reference_audit
from conftest import MODELS, variation


def test_eval_drift_examples(brownian_model, arctan_model):
    mu = Measure.dirac([2.0])
    assert np.allclose(drift_batch(brownian_model, 0.0, [[0.3]], mu)[0], 0.0)
    b = drift_batch(arctan_model, 0.1, [[0.0]], mu)[0]
    assert b[0] == pytest.approx(math.atan(2.0), abs=1e-12)
    assert b[0] == pytest.approx(1.10715, abs=1e-5)


def test_eval_sigma_examples(brownian_model, tanh_model):
    mu0 = Measure.dirac([0.0])
    assert np.allclose(sigma_batch(brownian_model, 0.0, [[0.0]], mu0)[0], 1.0)
    # h(0) = 0, tanh 0 = 0 -> identity
    assert np.allclose(sigma_batch(tanh_model, 0.0, [[0.0]], mu0)[0], 1.0)
    s3 = sigma_batch(tanh_model, 0.0, [[0.0]], Measure.dirac([3.0]))[0]
    assert s3[0] == pytest.approx(1.0 + 0.5 * math.tanh(1.0), abs=1e-12)
    assert s3[0] == pytest.approx(1.3808, abs=1e-4)


def test_drift_measure_lipschitz_bound(arctan_model):
    # |arctan'| <= 1 and |mu(id) - nu(id)| <= ||mu - nu||_{1,var}, so the
    # audited ratio against the combined right side stays below 1.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        m1 = Measure.from_points(rng.uniform(-3, 3, (8, 1)), rng.uniform(0.2, 1, 8))
        m2 = Measure.from_points(rng.uniform(-3, 3, (8, 1)), rng.uniform(0.2, 1, 8))
        num = abs(drift_batch(arctan_model, 0.0, [[0.0]], m1)[0, 0]
                  - drift_batch(arctan_model, 0.0, [[0.0]], m2)[0, 0])
        den = variation(m1, m2, 1.0) + metrics.wasserstein(m1, m2, 1.0).value
        worst = max(worst, num / den)
    assert worst <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["brownian", "arctan_drift", "tanh_diffusion",
                                  "mixed_mean_field"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shipped_models_pass_audit(name, seed):
    model = load_model(MODELS / f"{name}.json")
    report = lipschitz_audit(model, n_samples=1000, seed=seed)
    assert report.passed
    assert max(report.ratios.values()) <= model.constants.K
    lo, hi = report.ellipticity
    assert lo >= 1.0 / model.constants.K - 1e-9
    assert hi <= model.constants.K + 1e-9


def test_constant_model_ratios_zero(brownian_model):
    report = lipschitz_audit(brownian_model, n_samples=50, seed=0)
    assert all(v == 0.0 for v in report.ratios.values())


def test_the_audit_computes_one_distance_when_eta_equals_k(brownian_model, monkeypatch):
    calls = []
    real = metrics.wasserstein_rows
    monkeypatch.setattr(metrics, "wasserstein_rows",
                        lambda a, b, p: calls.append((p, len(a.points))) or real(a, b, p))
    lipschitz_audit(brownian_model, n_samples=20, seed=0)
    assert calls == [(1.0, 20)]
    half = Model.from_json({
        "name": "brownian_eta_half", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
        "constants": {"K": 1.5, "k": 1.0, "eta": 0.5, "beta": 1.0, "b_sup": 0.0},
    })
    calls.clear()
    lipschitz_audit(half, n_samples=20, seed=0)
    assert calls == [(0.5, 20), (1.0, 20)]


def test_structural_flags(tanh_model, space_sigma_model):
    rep = lipschitz_audit(tanh_model, n_samples=20, seed=0)
    assert rep.flags["sigma_space_free"]
    assert not rep.flags["sigma_measure_free"]
    rep2 = lipschitz_audit(space_sigma_model, n_samples=20, seed=0)
    assert not rep2.flags["sigma_space_free"]


def test_spectrum_violation_raises():
    bad = Model.from_json({
        "name": "bad_sigma", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 2.5}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    with pytest.raises(AuditError):
        sigma_batch(bad, 0.0, [[0.0]], Measure.dirac([0.0]))


def test_b_sup_violation_raises():
    bad = Model.from_json({
        "name": "bad_drift", "dim": 1,
        "drift": [{"op": "const", "value": 1.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
        "constants": {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.5},
    })
    with pytest.raises(AuditError):
        drift_batch(bad, 0.0, [[0.0]], Measure.dirac([0.0]))


def _state_drift(b_sup):
    x, y = {"op": "coord", "index": 0}, {"op": "coord", "index": 1}
    return Model.from_json({
        "name": "state_drift", "dim": 2, "drift": [x, y],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
        "constants": {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": b_sup},
    })


def test_b_sup_violation_names_the_worst_row():
    # The message is the one the per-row np.linalg.norm check wrote.
    model = _state_drift(1.0)
    points = np.array([[0.3, 0.4], [3.0, -4.0], [-4.0, 3.0], [0.0, 1.0]])
    norms = np.linalg.norm(points, axis=1)
    i = int(norms.argmax())
    expected = (f"|b|={float(norms.max()):.6g} exceeds declared b_sup=1.0 "
                f"at t=0.25, x={points[i]}")
    with pytest.raises(AuditError) as err:
        drift_batch(model, 0.25, points, Measure.dirac([0.0, 0.0]))
    assert str(err.value) == expected and i == 1


def test_b_sup_slack_is_inclusive():
    from mvsde.coefficients import _BSUP_SLACK

    edge = 0.5 + _BSUP_SLACK
    model = _state_drift(0.5)
    m = Measure.dirac([0.0, 0.0])
    b = drift_batch(model, 0.0, [[edge, 0.0], [0.0, -edge], [0.1, 0.2]], m)
    assert np.array_equal(b[:, 0], [edge, 0.0, 0.1])
    with pytest.raises(AuditError):
        drift_batch(model, 0.0, [[0.0, np.nextafter(edge, 1.0)]], m)


def test_audit_failure_reports_witness():
    # Declared K understates the true ellipticity bound: sigma^2 = 2.25 > 2.
    understated = Model.from_json({
        "name": "understated", "dim": 1,
        "drift": [{"op": "const", "value": 0.0}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.5}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    with pytest.raises(AuditError):
        lipschitz_audit(understated, n_samples=50, seed=0)
    report = lipschitz_audit(understated, n_samples=50, seed=0, raise_on_failure=False)
    assert not report.passed
    assert report.witness is not None and "evaluation" in report.witness


# ---------------------------------------------------------------------------
# The one-pass audit against the per-sample loop it replaced


def _outcome(audit, model, n, seed):
    """The report's JSON bytes, or the exception's type and message."""
    try:
        return json.dumps(audit(model, n_samples=n, seed=seed, raise_on_failure=False).to_json())
    except Exception as exc:  # noqa: BLE001 -- both audits must raise alike
        return f"{type(exc).__name__}: {exc}"


def _same_as_loop(model, n, seed):
    got = _outcome(lipschitz_audit, model, n, seed)
    assert got == _outcome(reference_audit, model, n, seed)
    return got


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["brownian", "arctan_drift", "tanh_diffusion",
                                  "mixed_mean_field"])
def test_audit_equals_the_per_sample_loop_on_shipped_models(name, seed, n):
    assert json.loads(_same_as_loop(load_model(MODELS / f"{name}.json"), n, seed))["passed"]


def _model(drift, sigma, dim=1, kind="scalar", **constants):
    return Model.from_json({
        "name": "probe", "dim": dim, "drift": drift,
        "diffusion": {"kind": kind, "exprs": sigma},
        "constants": {**{"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1e12},
                      **constants},
    })


def _op(op, arg):
    return {"op": op, "arg": arg}


def _lin(const, *terms):
    return {"op": "lincomb", "const": const,
            "terms": [{"coef": c, "arg": a} for c, a in terms]}


_X0, _X1, _NORM = {"op": "coord", "index": 0}, {"op": "coord", "index": 1}, {"op": "norm"}


def test_audit_equals_the_loop_under_hoelder_exponents():
    # beta < 1 and k > 1 reach every power the audit takes: dx^beta, the
    # k-variation's |y|^k and W_k's root.  Python's ** and numpy's power
    # differ in about 5% of such draws, so each must stay Python's.  A report
    # keeps only maxima, so short audits over many seeds expose every sample.
    model = _model([_op("arctan", _lin(0.0, (1.0, _X0), (2.0, _op("integral", _X0))))],
                   [_lin(1.0, (0.2, _op("tanh", _X0)), (0.1, _op("integral", _op("abs", _X0))))],
                   k=1.7, beta=0.37)
    for seed in range(200):
        _same_as_loop(model, 1 + seed % 3, seed)


def test_audit_equals_the_loop_in_two_dimensions():
    # Every norm of one vector is a BLAS dot, which norm(axis=1) does not
    # reproduce in about 8% of 2D draws.
    model = _model([_op("tanh", _lin(0.0, (1.5, _X0), (1.0, _op("integral", _X1)))),
                    _op("arctan", _lin(0.0, (1.0, _X1), (-1.0, _op("integral", _NORM))))],
                   [_lin(1.0, (0.2, _op("tanh", _NORM))), _lin(1.0, (0.2, _op("tanh", _X1)))],
                   dim=2, kind="diag")
    for seed in range(100):
        _same_as_loop(model, 1, seed)


def test_audit_evaluation_failures_equal_the_loop():
    spectrum_at_0 = _model([{"op": "const", "value": 0.0}], [{"op": "const", "value": 1.5}])
    assert json.loads(_same_as_loop(spectrum_at_0, 50, 0))["witness"]["evaluation"]["sample"] == 0
    spectrum_later = _model([{"op": "const", "value": 0.0}], [_lin(1.0, (0.6, _op("tanh", _X0)))],
                            K=2.5)
    later = json.loads(_same_as_loop(spectrum_later, 200, 0))["witness"]["evaluation"]
    assert later["sample"] > 0 and "spectrum" in later["error"]
    b_sup = _model([_X0], [{"op": "const", "value": 1.0}], b_sup=5.0)
    late = json.loads(_same_as_loop(b_sup, 1000, 0))["witness"]["evaluation"]
    assert late["sample"] > 0 and "b_sup" in late["error"]


def test_audit_non_finite_integral_raises_as_the_loop():
    # 6e307 * y overflows on atoms beyond about 2.99, so a late sample fails.
    big = _op("integral", _lin(0.0, (6e307, _X0)))
    model = _model([_op("tanh", big)], [{"op": "const", "value": 1.0}])
    got = _same_as_loop(model, 1000, 0)
    assert got.startswith("NumericsError: integral functional")
    with pytest.raises(NumericsError, match="integral functional"):
        lipschitz_audit(model, n_samples=1000, seed=0)


def test_audit_ratio_failure_names_the_loop_witness():
    steep = _model([_lin(0.0, (10.0, _op("integral", _X0)))], [{"op": "const", "value": 1.0}],
                   b_sup=100.0)
    report = json.loads(_same_as_loop(steep, 300, 0))
    assert not report["passed"] and "a2" in report["witness"]


def test_failed_audit_writes_standard_json(tmp_path, capsys):
    # sigma^2 = 2.25 > K = 2 at the first sample: no sample is checked, so
    # no ellipticity is reported and ratios_within_K cannot pass.
    model = {"name": "understated", "dim": 1, "drift": [{"op": "const", "value": 0.0}],
             "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.5}]},
             "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({"kind": "audit", "model": "model.json", "sim": {"seed": 0}}))
    rc = cli.main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["metadata"]["audit"]["ellipticity"] is None
    within = next(a for a in summary["assertions"] if a["name"] == "ratios_within_K")
    assert within["passed"] is False
    assert within["detail"] == "declared K=2.0, 0 of 1000 samples checked"
    assert "[FAIL] ratios_within_K" in capsys.readouterr().err


def _spec_of(model):
    """A parsed model's fields in the layout of its JSON spec."""
    return {
        "name": model.name, "dim": model.dim,
        "drift": [e.to_json() for e in model.drift],
        "diffusion": {"kind": model.diffusion.kind,
                      "exprs": [e.to_json() for e in model.diffusion.exprs]},
        "constants": dataclasses.asdict(model.constants),
    }


def test_model_json_roundtrip(mixed_model):
    spec = json.loads((MODELS / "mixed_mean_field.json").read_text(encoding="utf-8"))
    assert _spec_of(mixed_model) == spec
    back = Model.from_json(json.loads(json.dumps(_spec_of(mixed_model))))
    assert _spec_of(back) == spec
    assert back.sigma_space_free == mixed_model.sigma_space_free


def test_config_errors_carry_pointers():
    with pytest.raises(ConfigError) as err:
        Model.from_json({"dim": 1, "drift": [{"op": "nope"}],
                         "diffusion": {"kind": "scalar", "exprs": []},
                         "constants": {"K": 2, "k": 1, "eta": 1, "beta": 1, "b_sup": 0}})
    assert "/drift/0/op" in str(err.value)
    with pytest.raises(ConfigError) as err2:
        Model.from_json({"dim": 1, "drift": [], "diffusion": {}, "constants": {"K": 2}})
    assert "/constants/" in str(err2.value)


def test_integral_nesting_rejected():
    with pytest.raises(ConfigError):
        Model.from_json({
            "name": "nested", "dim": 1,
            "drift": [{"op": "integral", "arg": {"op": "integral",
                                                 "arg": {"op": "coord", "index": 0}}}],
            "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
            "constants": {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1.0},
        })


def test_eval_determinism(mixed_model):
    rng = np.random.default_rng(1)
    mu = Measure.from_points(rng.normal(size=(20, 1)))
    x = [[0.3]]
    a = drift_batch(mixed_model, 0.2, x, mu)
    b = drift_batch(mixed_model, 0.2, x, mu)
    assert np.array_equal(a, b)
    s1 = sigma_batch(mixed_model, 0.2, x, mu)
    s2 = sigma_batch(mixed_model, 0.2, x, mu)
    assert np.array_equal(s1, s2)


# ---------------------------------------------------------------------------
# Load-time validation: every bad number or node fails with a JSON pointer


_CONSTANTS = {"K": 1.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1.0}


def _spec(drift, constants=None, dim=1):
    return {"name": "probe", "dim": dim, "drift": [drift] * dim,
            "diffusion": {"kind": "scalar", "exprs": [{"op": "const", "value": 1.0}]},
            "constants": dict(_CONSTANTS, **(constants or {}))}


def _pointer(spec):
    with pytest.raises(ConfigError) as err:
        Model.from_json(spec)
    return err.value.pointer


def test_coord_negative_index_rejected():
    assert _pointer(_spec({"op": "coord", "index": -1})) == "/drift/0/index"


def test_coord_index_beyond_dim_rejected():
    tanh_of = {"op": "tanh", "arg": {"op": "coord", "index": 2}}
    assert _pointer(_spec(tanh_of, dim=2)) == "/drift/0/arg/index"


@pytest.mark.parametrize("drift, constants, pointer", [
    ({"op": "const", "value": "abc"}, None, "/drift/0/value"),
    ({"op": "const", "value": 0.5}, {"b_sup": "abc"}, "/constants/b_sup"),
    ({"op": "lincomb", "const": [], "terms": []}, None, "/drift/0/const"),
])
def test_non_numeric_values_rejected(drift, constants, pointer):
    assert _pointer(_spec(drift, constants)) == pointer


def test_lincomb_term_must_be_object():
    spec = _spec({"op": "lincomb", "const": 0.0, "terms": [1.5]})
    assert _pointer(spec) == "/drift/0/terms/0"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("drift, constants, pointer", [
    ({"op": "const", "value": "BAD"}, None, "/drift/0/value"),
    ({"op": "lincomb", "const": "BAD", "terms": []}, None, "/drift/0/const"),
    ({"op": "lincomb", "const": 0.0,
      "terms": [{"coef": "BAD", "arg": {"op": "coord", "index": 0}}]}, None,
     "/drift/0/terms/0/coef"),
    ({"op": "const", "value": 0.5}, {"b_sup": "BAD"}, "/constants/b_sup"),
    ({"op": "const", "value": 0.5}, {"k": "BAD"}, "/constants/k"),
    ({"op": "const", "value": 0.5}, {"beta": "BAD"}, "/constants/beta"),
])
def test_non_finite_numbers_rejected(bad, drift, constants, pointer):
    spec = json.loads(json.dumps(_spec(drift, constants)).replace('"BAD"', json.dumps(bad)))
    assert _pointer(spec) == pointer


def _with(spec, pointer, key, value):
    """A copy of spec with ``key: value`` added to the object at ``pointer``."""
    spec = obj = json.loads(json.dumps(spec))
    for part in pointer.split("/")[1:]:
        obj = obj[int(part) if isinstance(obj, list) else part]
    obj[key] = value
    return spec


_LINCOMB = {"op": "lincomb", "const": 0.0,
            "terms": [{"coef": 0.5, "arg": {"op": "coord", "index": 0}}]}


@pytest.mark.parametrize("pointer, key", [
    ("", "colour"),                      # top level
    ("/diffusion", "kinds"),
    ("/diffusion/exprs/0", "cnst"),      # a node, by its op
    ("/constants", "b_suP"),
    ("/drift/0", "cnst"),                # lincomb: "cnst" used to load as const 0
    ("/drift/0/terms/0", "coeff"),       # a lincomb term
    ("/drift/0/terms/0/arg", "arg"),     # coord takes no arg
])
def test_unknown_model_keys_rejected(pointer, key):
    spec = _with(_spec(_LINCOMB), pointer, key, 1.0)
    assert _pointer(spec) == f"{pointer}/{key}"


def test_integral_nesting_pointer_names_the_node():
    nested = {"op": "integral", "arg": {"op": "integral", "arg": {"op": "coord", "index": 0}}}
    spec = _spec({"op": "lincomb", "const": 0.0, "terms": [{"coef": 0.5, "arg": nested}]})
    assert _pointer(spec) == "/drift/0/terms/0/arg/arg"


def test_cli_reports_bad_model_number_with_pointer(tmp_path, capsys):
    (tmp_path / "model.json").write_text(json.dumps(_spec({"op": "const", "value": "abc"})))
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({"kind": "audit", "model": "model.json", "sim": {"seed": 0}}))
    rc = cli.main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: /drift/0/value:" in capsys.readouterr().err


@pytest.mark.parametrize("pointer, key", [("/drift/0", "cnst"), ("", "colour")])
def test_cli_reports_unknown_model_key_with_pointer(tmp_path, capsys, pointer, key):
    (tmp_path / "model.json").write_text(json.dumps(_with(_spec(_LINCOMB), pointer, key, 1.0)))
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({"kind": "audit", "model": "model.json", "sim": {"seed": 0}}))
    rc = cli.main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}/{key}: unknown key") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Property test: round trip, structural flags and evaluation over the grammar


_coefs = st.floats(-2.0, 2.0, allow_nan=False)


def _exprs(leaves):
    def grow(children):
        unary = st.builds(lambda op, arg: {"op": op, "arg": arg},
                          st.sampled_from(["abs", "tanh", "arctan", "min1"]), children)
        term = st.builds(lambda c, a: {"coef": c, "arg": a}, _coefs, children)
        lincomb = st.builds(lambda c, ts: {"op": "lincomb", "const": c, "terms": ts},
                            _coefs, st.lists(term, max_size=3))
        return unary | lincomb
    return st.recursive(leaves, grow, max_leaves=8)


def _state_leaves(dim):
    return st.one_of(
        st.builds(lambda v: {"op": "const", "value": v}, _coefs),
        st.just({"op": "time"}),
        st.builds(lambda i: {"op": "coord", "index": i}, st.integers(0, dim - 1)),
        st.just({"op": "norm"}),
    )


def _any_expr(dim):
    # Integrals are leaves over state-only arguments, so they never nest.
    integral = st.builds(lambda a: {"op": "integral", "arg": a}, _exprs(_state_leaves(dim)))
    return _exprs(_state_leaves(dim) | integral)


def _nodes(node, inside=False):
    """(node, inside an integral argument) for every node of a JSON expression."""
    yield node, inside
    args = [t["arg"] for t in node.get("terms", [])] + ([node["arg"]] if "arg" in node else [])
    for arg in args:
        yield from _nodes(arg, inside or node["op"] == "integral")


@st.composite
def _model_specs(draw):
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["scalar", "diag"]))
    drift = [draw(_any_expr(dim)) for _ in range(dim)]
    # sigma = 1 + tanh(e)/10 keeps sigma^2 in [1/K, K] for any generated e.
    sigma = [{"op": "lincomb", "const": 1.0,
              "terms": [{"coef": 0.1, "arg": {"op": "tanh", "arg": draw(_any_expr(dim))}}]}
             for _ in range(1 if kind == "scalar" else dim)]
    return {"name": "generated", "dim": dim, "drift": drift,
            "diffusion": {"kind": kind, "exprs": sigma},
            "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1e12}}


@settings(deadline=None, max_examples=60)
@given(_model_specs())
def test_grammar_roundtrip_flags_and_evaluation(spec):
    model = Model.from_json(json.loads(json.dumps(spec)))
    assert _spec_of(model) == spec

    def uses_space(exprs):
        return any(n["op"] in ("coord", "norm") and not inside
                   for e in exprs for n, inside in _nodes(e))

    def uses_measure(exprs):
        return any(n["op"] == "integral" for e in exprs for n, _ in _nodes(e))

    def uses_time(exprs):
        # psi is evaluated at t too, so time inside an integral counts
        return any(n["op"] == "time" for e in exprs for n, _ in _nodes(e))

    sigma_specs = spec["diffusion"]["exprs"]
    assert model.sigma_space_free == (not uses_space(sigma_specs))
    assert model.sigma_measure_free == (not uses_measure(sigma_specs))
    assert model.drift_measure_free == (not uses_measure(spec["drift"]))
    for node, e in zip(spec["drift"] + sigma_specs, model.drift + model.diffusion.exprs):
        assert e.uses_time() == uses_time([node])

    rng = np.random.default_rng(0)
    dim = spec["dim"]
    points = rng.normal(size=(5, dim))
    mu = Measure.from_points(rng.normal(size=(4, dim)))
    b = drift_batch(model, 0.3, points, mu)
    s = sigma_batch(model, 0.3, points, mu)
    assert b.shape == (5, dim) and np.all(np.isfinite(b))
    assert s.shape == (5, 1 if spec["diffusion"]["kind"] == "scalar" else dim)
    assert np.all(np.isfinite(s))


@settings(deadline=None, max_examples=40)
@given(_model_specs(), st.data())
def test_audit_equals_the_loop_on_generated_models(spec, data):
    constants = {
        "beta": data.draw(st.floats(0.05, 1.0)),
        # eta = k = 1 often, as in every shipped model: one distance for both.
        "eta": data.draw(st.just(1.0) | st.floats(0.05, 1.0)),
        "k": data.draw(st.just(1.0) | st.floats(1.0, 3.0)),
        # A tight K or b_sup makes some samples fail their evaluation.
        "K": data.draw(st.sampled_from([2.0, 1.15])),
        "b_sup": data.draw(st.sampled_from([1e12, 1.0])),
    }
    model = Model.from_json(dict(spec, constants=constants))
    # The LP runs for each sample in 2D and for eta < 1: few samples there.
    n = 4 if model.dim == 2 or constants["eta"] < 1 else 60
    _same_as_loop(model, n, data.draw(st.integers(0, 2**16)))


def _object_pointers(value, pointer=""):
    """The JSON pointer of every object inside ``value``."""
    if isinstance(value, dict):
        yield pointer
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _object_pointers(child, f"{pointer}/{key}")


@settings(deadline=None, max_examples=60)
@given(_model_specs(), st.data())
def test_unknown_key_fails_at_its_pointer(spec, data):
    pointer = data.draw(st.sampled_from(list(_object_pointers(spec))))
    assert _pointer(_with(spec, pointer, "unexpected", 0.0)) == f"{pointer}/unexpected"
