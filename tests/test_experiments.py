import json
import math
import os
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from mvsde import cli, experiments, metrics, sde_engine
from mvsde.coefficients import Const, Model
from mvsde.errors import AuditError, ConfigError, ConvergenceError, DomainError, NumericsError
from mvsde.experiments import (
    ExperimentConfig,
    config_to_json,
    emit_report,
    fit_loglog,
    parse_config,
    run_experiment,
    run_gradient,
    shared_grid_tv,
)
from mvsde.fixed_point import SOLVE_TOL, SolveReport, solve_mvsde
from mvsde.measures import Flow, Measure
from mvsde.sde_engine import SimConfig, simulate_frozen
from conftest import CONFIGS, MODELS
from stability_reference import reference_stability

ALL_CONFIGS = sorted(p.name for p in CONFIGS.glob("*.json"))


def test_minimal_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "solve",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "dirac", "point": [0.0]},
        "sim": {"n_particles": 500, "dt": 0.01, "t1": 0.1, "seed": 4},
    }))
    cfg = parse_config(cfg_path)
    echo = config_to_json(cfg)
    assert echo["kind"] == "solve"
    assert echo["sim"]["seed"] == 4
    # reparse of the echo (with restored paths) gives an equal config
    again = parse_config(cfg_path)
    assert config_to_json(again) == echo


def test_missing_model_pointer(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "solve"}))
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.pointer == "/model"


def test_bad_kind_and_mismatch(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "nope", "model": "x.json"}))
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.pointer == "/kind"
    with pytest.raises(ConfigError):
        parse_config(CONFIGS / "solve_arctan.json", kind="audit")


def test_times_validation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "kind": "regularity",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "times": [0.1, 0.05],
    }))
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.pointer == "/times/1"


def test_measure_spec_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "kind": "solve",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "mystery"},
        "sim": {"t1": 0.1},
    }))
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert "/gamma1" in err.value.pointer


def test_fit_loglog_drops_endpoints():
    xs = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
    ys = xs.copy()
    ys[0] = 100.0  # corrupted endpoint must not matter
    slope, _ = fit_loglog(xs, ys)
    assert slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        fit_loglog([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -1.0, 1.0, 1.0, 1.0],
                   drop_ends=False)


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_shipped_configs_smoke(name, tmp_path):
    cfg = parse_config(CONFIGS / name, smoke=True)
    report = run_experiment(cfg, outdir=str(tmp_path))
    assert report.passed, [a.to_json() for a in report.assertions if not a.passed]
    files = emit_report(report, str(tmp_path))
    assert any(f.endswith("summary.json") for f in files)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    for s in summary["series"]:
        assert (tmp_path / s).exists()
        assert (tmp_path / f"plot_{s[len('series_'):-4]}.gp").exists()


def test_non_finite_summary_is_a_numerics_error(tmp_path, monkeypatch, capsys):
    # summary.json is standard JSON: NaN or infinity fails before it is written.
    report = experiments.ExperimentReport(
        kind="audit", model="probe", series=(), metadata={},
        assertions=(experiments.Assertion("probe", True, float("nan"), ""),))
    with pytest.raises(NumericsError, match="would not be standard JSON"):
        emit_report(report, str(tmp_path / "direct"))
    assert not (tmp_path / "direct" / "summary.json").exists()
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, outdir=None: report)
    rc = cli.main(["audit", "--config", str(CONFIGS / "audit_mixed.json"),
                   "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: summary.json would not be standard JSON")


def test_report_emission_reproducible(tmp_path):
    outs = []
    for run in ("a", "b"):
        cfg = parse_config(CONFIGS / "gradient_brownian.json", smoke=True)
        report = run_experiment(cfg)
        d = tmp_path / run
        emit_report(report, str(d))
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path):
    rc = cli.main(["audit", "--config", str(CONFIGS / "audit_mixed.json"),
                   "--out", str(tmp_path / "ok"), "--smoke"])
    assert rc == 0
    rc = cli.main(["audit", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "err")])
    assert rc == 1
    # an assertion failure exits 2: TV saturates for far-apart Dirac initials
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "kind": "gradient",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "dirac", "point": [0.0]},
        "gamma2": {"type": "dirac", "point": [2.5]},
        "times": [0.002, 0.004, 0.008, 0.016, 0.032],
        "sim": {"n_particles": 4000, "dt": 0.0005, "seed": 3},
    }))
    rc = cli.main(["gradient", "--config", str(failing),
                   "--out", str(tmp_path / "fail")])
    assert rc == 2


def _identical_initials(tmp_path):
    p = tmp_path / "same.json"
    p.write_text(json.dumps({
        "kind": "regularity",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "dirac", "point": [0.0]},
        "times": [0.01, 0.02, 0.04, 0.08],
        "sim": {"n_particles": 2000, "dt": 0.001, "seed": 5},
    }))
    return parse_config(p)


def test_regularity_identical_initials_at_noise_floor(tmp_path):
    cfg = _identical_initials(tmp_path)
    report = run_experiment(cfg)
    assert report.passed
    names = [a.name for a in report.assertions]
    assert names == ["distances_at_noise_floor"]  # slope fits skipped
    # The floor run, stacked beside the law pair, has the bits of its own run.
    flow = solve_mvsde(cfg.model, cfg.gamma1, cfg.sim).solution
    law1, law_b = (simulate_frozen(cfg.model, flow, flow, cfg.gamma1, sim, cfg.times)
                   for sim in (cfg.sim, replace(cfg.sim, seed=cfg.sim.seed + 1)))
    floor = max(shared_grid_tv(law1.measures[-1], law_b.measures[-1], 0.0), 1e-12)
    assert report.metadata["noise_floor"] == floor


def test_noise_floor_assertion_fails_when_the_second_law_starts_elsewhere(tmp_path,
                                                                           monkeypatch):
    real = experiments.simulate_many

    def shifted(model, runs):
        mu, nu, init, sim, times = runs[1]
        return real(model, [runs[0], (mu, nu, init.shift([0.3]), sim, times), *runs[2:]])

    monkeypatch.setattr(experiments, "simulate_many", shifted)
    report = run_experiment(_identical_initials(tmp_path))
    assert [a.name for a in report.assertions] == ["distances_at_noise_floor"]
    assert report.passed is False


def test_gradient_identical_diracs_zero_distances(tmp_path):
    p = tmp_path / "same.json"
    p.write_text(json.dumps({
        "kind": "gradient",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "dirac", "point": [0.3]},
        "gamma2": {"type": "dirac", "point": [0.3]},
        "times": [0.01, 0.02, 0.04],
        "sim": {"n_particles": 2000, "dt": 0.001, "seed": 5},
    }))
    cfg = parse_config(p)
    report = run_gradient(cfg)
    assert report.passed
    assert report.assertions[0].name == "zero_distances"


def test_gradient_refuses_unresolvable_separation(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({
        "kind": "gradient",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"),
                                 tmp_path),
        "gamma1": {"type": "dirac", "point": [0.0]},
        "gamma2": {"type": "dirac", "point": [1e-7]},
        "times": [0.01, 0.02, 0.04],
        "sim": {"n_particles": 1000, "dt": 0.001, "seed": 3},
    }))
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.pointer == "/gamma2"


def test_flow_property_restart(arctan_model):
    # Solving over [0, t] agrees with solving to s = t/2 and restarting from
    # the reached law, within a few multiples of the Monte Carlo floor.
    n, dt = 20_000, 1e-3
    gamma = Measure.dirac([1.0])
    full_cfg = SimConfig(n, dt, 0.0, 0.2, seed=11)
    full = solve_mvsde(arctan_model, gamma, full_cfg, tol=0.05)
    i_mid = int(np.searchsorted(full.solution.times, 0.1 - 1e-12))
    assert full.solution.times[i_mid] == pytest.approx(0.1, abs=1e-9)
    mid_law = full.solution.measures[i_mid]
    restart_cfg = SimConfig(n, dt, 0.1, 0.2, seed=23)
    restarted = solve_mvsde(arctan_model, mid_law, restart_cfg, tol=0.05)
    w = metrics.wasserstein(full.solution.measures[-1],
                            restarted.solution.measures[-1], 1.0).value
    # decoupled same-law floor at the terminal time
    probe_a = SimConfig(n, dt, 0.0, 0.2, seed=31)
    probe_b = SimConfig(n, dt, 0.0, 0.2, seed=37)
    fa = simulate_frozen(arctan_model, full.solution, full.solution, gamma, probe_a,
                         record_times=[0.0, 0.2])
    fb = simulate_frozen(arctan_model, full.solution, full.solution, gamma, probe_b,
                         record_times=[0.0, 0.2])
    floor = metrics.wasserstein(fa.measures[-1], fb.measures[-1], 1.0).value
    assert w <= 3 * floor + dt


def test_shared_grid_tv_between_ensembles():
    rng = np.random.default_rng(0)
    m1 = Measure.from_points(rng.standard_normal((50_000, 1)))
    m2 = Measure.from_points(rng.standard_normal((50_000, 1)) + 0.5)
    from conftest import tv_shifted_normals

    got = shared_grid_tv(m1, m2, 0.0)
    assert got == pytest.approx(tv_shifted_normals(0.5, 1.0), abs=0.02)


def test_solve_non_convergence_exits_2(tmp_path, monkeypatch):
    # Non-convergence is the solve experiment's finding: a failed assertion.
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("no contraction up to lambda=1", history=[0.3, 0.4])

    monkeypatch.setattr(experiments, "solve_mvsde", no_convergence)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(CONFIGS / "solve_arctan.json"),
                   "--out", str(out), "--smoke"])
    assert rc == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    [converged] = summary["assertions"]
    assert converged["name"] == "converged" and converged["passed"] is False
    assert converged["detail"] == "no contraction up to lambda=1"
    assert summary["metadata"]["history"] == [0.3, 0.4]


def test_run_experiment_audits_model_before_solving(tmp_path, monkeypatch, capsys):
    # sigma = 2 gives sigma^2 = 4 > K = 1.5: the declared K understates it.
    model = json.loads((CONFIGS.parent / "models" / "brownian.json").read_text())
    model["diffusion"]["exprs"][0]["value"] = 2.0
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "kind": "solve", "model": "model.json",
        "sim": {"n_particles": 100, "dt": 0.01, "t1": 0.1},
    }))
    calls = []
    monkeypatch.setattr(experiments, "solve_mvsde", lambda *a, **k: calls.append(a))
    rc = cli.main(["solve", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "failed audit" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("kind, extra, pointer", [
    ("solve", {"sim": {"n_particle": 100, "dt": 0.01, "t1": 0.1}}, "/sim/n_particle"),
    ("regularity", {"gamma_2": {"type": "dirac", "point": [0.1]},
                    "times": [0.02, 0.05, 0.1]}, "/gamma_2"),
    ("duhamel", {"options": {"tv_tool": 0.1}, "sim": {"t1": 0.1}}, "/options"),
    ("solve", {"gamma1": {"type": "atoms", "points": [[0.0], [1.0]], "weigths": [0.9, 0.1]}},
     "/gamma1/weigths"),
    ("solve", {"gamma1": {"type": "dirac", "point": [0.0], "points": [[1.0]]}}, "/gamma1/points"),
    ("regularity", {"gamma2": {"type": "normal", "mean": [0.0], "std": 1.0, "n": 10, "sed": 3},
                    "times": [0.02, 0.05, 0.1]}, "/gamma2/sed"),
    ("solve", {"gamma1": {"type": "csv", "path": "law.csv", "weights": [1.0]}}, "/gamma1/weights"),
    # Former option keys: a config has no options section, so each fails there.
    ("regularity", {"options": {"tol": 0.05}, "times": [0.02, 0.05, 0.1]}, "/options"),
    ("gradient", {"options": {"tol": 0.05}}, "/options"),
    ("stability", {"options": {"tol": 0.05}}, "/options"),
    ("duhamel", {"options": {"tol": 1e-6}}, "/options"),
    ("duhamel", {"options": {"tol_solve": 0.05}}, "/options"),
    ("duhamel", {"options": {"comparison_bins": 64}}, "/options"),
    ("duhamel", {"options": {"cells": 1024}}, "/options"),
    ("duhamel", {"options": {"mc_particles": 1000}}, "/options"),
])
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, kind, extra, pointer):
    # A misspelt key must not fall back to a default silently.
    cfg = {"kind": kind,
           "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"), tmp_path),
           "sim": {"t1": 0.1}}
    cfg.update(extra)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = cli.main([kind, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {pointer}: unknown key" in capsys.readouterr().err


def _brownian_config(tmp_path, kind="solve", **fields):
    cfg = {"kind": kind,
           "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"), tmp_path),
           "sim": {"t1": 0.1}}
    cfg.update(fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("fields, argv, pointer", [
    ({"sim": {"t1": 0.1, "crn": "false"}}, [], "/sim/crn"),
    ({"sim": {"t1": 0.1, "n_particles": 10.7}}, [], "/sim/n_particles"),
    ({"sim": {"t1": 0.1, "n_particles": True}}, [], "/sim/n_particles"),
    ({"sim": {"t1": 0.1, "seed": 2.9}}, [], "/sim/seed"),
    ({}, ["--seed", "-1"], "/sim/seed"),
    ({}, ["--particles", "0"], "/sim/n_particles"),
    ({"sim": {"t1": "0.1"}}, [], "/sim/t1"),
    ({"options": {"tol": "abc"}}, [], "/options"),  # no value under options is read
    ({"times": [0.05, "0.1"]}, [], "/times/1"),
    ({"gamma1": {"type": "dirac", "point": [True]}}, [], "/gamma1/point/0"),
    ({"model": 5}, [], "/model"),
    ({"gamma1": {"type": "csv", "path": ["law.csv"]}}, [], "/gamma1/path"),
    ({"gamma1": {"type": "atoms", "points": [[0.0], [1.0, 2.0]]}}, [], "/gamma1/points/1"),
    ({"gamma1": {"type": "dirac", "point": [0.0, 0.0]}}, [], "/gamma1"),
    ({"gamma2": {"type": "atoms", "points": [[0.0, 1.0]]}}, [], "/gamma2"),
    # every run uses common random numbers: the former switch is an unknown key
    ({"sim": {"t1": 0.1, "crn": True}}, [], "/sim/crn"),
])
def test_cli_rejects_bad_values_at_parse_time(tmp_path, capsys, fields, argv, pointer):
    # Each value used to be coerced, or to fail with a traceback once read.
    cfg = _brownian_config(tmp_path, **fields)
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")] + argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_times_closer_than_the_time_tolerance_fail_at_parse(tmp_path, capsys):
    # The simulation schedule merges such times into one node, so regularity
    # used to record one law fewer and end in an IndexError traceback.
    cfg = _brownian_config(tmp_path, kind="regularity",
                           times=[0.0031622777, 0.0031622777000001, 0.01, 0.1])
    rc = cli.main(["regularity", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /times/1: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_duhamel_needs_a_dirac_initial(tmp_path, capsys):
    # The solver starts from one point; a spread Monte Carlo start would fail
    # every horizon (exit 2) for what is a config error.
    raw = json.loads((CONFIGS / "duhamel_arctan.json").read_text())
    raw["model"] = str(CONFIGS.parent / "models" / "arctan_drift.json")
    raw["gamma1"] = {"type": "atoms", "points": [[1.0], [3.0]]}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    rc = cli.main(["duhamel", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out"), "--smoke"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: /gamma1: ")


@pytest.mark.parametrize("gamma2", [None, {"type": "atoms", "points": [[0.0], [0.05]]}])
def test_gradient_names_the_bad_second_initial(tmp_path, gamma2):
    fields = {"gamma1": {"type": "dirac", "point": [0.0]}, "times": [0.01, 0.02, 0.04]}
    if gamma2 is not None:
        fields["gamma2"] = gamma2
    with pytest.raises(ConfigError) as err:
        parse_config(_brownian_config(tmp_path, "gradient", **fields), smoke=True)
    assert err.value.pointer == "/gamma2"


def test_gradient_takes_every_epsilon_through_wasserstein(monkeypatch):
    # Every W_eps takes metrics.wasserstein's one solver choice, none a private LP.
    cfg = parse_config(CONFIGS / "gradient_brownian.json", smoke=True)
    real_wasserstein, real_ot_lp = metrics.wasserstein, metrics.ot_lp
    exponents, inside, direct_lps = [], [], []

    def wasserstein(m1, m2, p):
        exponents.append(p)
        inside.append(p)
        try:
            return real_wasserstein(m1, m2, p)
        finally:
            inside.pop()

    def ot_lp(m1, m2, p):
        if not inside:
            direct_lps.append(p)
        return real_ot_lp(m1, m2, p)

    monkeypatch.setattr(metrics, "wasserstein", wasserstein)
    monkeypatch.setattr(metrics, "ot_lp", ot_lp)
    run_gradient(cfg)
    n = len(cfg.times)
    assert [e for e in exponents if e != 1.0] == [0.25] * n + [0.5] * n
    assert exponents.count(1.0) >= n
    assert direct_lps == []


@pytest.mark.parametrize("fault", [False, True])
def test_tv_horizons_catch_a_drift_dropped_on_one_side(tmp_path, monkeypatch, fault):
    # Falsifier: a Monte Carlo reference that runs without the drift the
    # Duhamel solver keeps must fail every tv_horizon_* assertion.
    if fault:
        simulate = experiments.simulate_many

        def drift_free(model, *args, **kwargs):
            zero = replace(model, drift=tuple(Const(0.0) for _ in model.drift))
            return simulate(zero, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_many", drift_free)
    out = tmp_path / "out"
    rc = cli.main(["duhamel", "--config", str(CONFIGS / "duhamel_arctan.json"),
                   "--out", str(out), "--smoke"])
    assert rc == (2 if fault else 0)
    assertions = json.loads((out / "summary.json").read_text())["assertions"]
    horizons = [a for a in assertions if a["name"].startswith("tv_horizon_")]
    assert len(horizons) == 3
    assert all(a["passed"] is not fault for a in horizons)


def _gamma_config(tmp_path, gamma1):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "solve",
        "model": os.path.relpath(str(CONFIGS.parent / "models" / "brownian.json"), tmp_path),
        "gamma1": gamma1,
        "sim": {"t1": 0.1},
    }))
    return cfg_path


@pytest.mark.parametrize("key, value", [("n", 10.7), ("n", 0), ("n", True),
                                        ("seed", 1.5), ("seed", -1)])
def test_normal_spec_needs_integer_n_and_seed(tmp_path, key, value):
    spec = {"type": "normal", "mean": [0.0], "std": 1.0, "n": 10}
    spec[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(_gamma_config(tmp_path, spec))
    assert err.value.pointer == f"/gamma1/{key}"


def test_csv_spec_resolves_against_config_dir(tmp_path, monkeypatch):
    law = Measure.from_points([[0.0], [1.0], [3.0]], [0.5, 0.25, 0.25])
    law.to_csv(str(tmp_path / "law.csv"))
    monkeypatch.chdir(CONFIGS)  # the path is relative to the config, not to the cwd
    cfg = parse_config(_gamma_config(tmp_path, {"type": "csv", "path": "law.csv"}))
    assert np.array_equal(cfg.gamma1.points, law.points)
    assert np.array_equal(cfg.gamma1.weights, law.weights)


@pytest.mark.parametrize("rows", [
    "w,x1\nnan,0.0\n0.5,1.0\n",  # used to be accepted with NaN weights
    "w,x1\n0.5,inf\n0.5,1.0\n",  # used to fail without a pointer
], ids=["nan_weight", "inf_coordinate"])
@pytest.mark.parametrize("gamma", ["gamma1", "gamma2"])
def test_csv_law_with_a_non_finite_value_fails_at_its_path(tmp_path, capsys, rows, gamma):
    (tmp_path / "law.csv").write_text(rows)
    cfg = _brownian_config(tmp_path, **{gamma: {"type": "csv", "path": "law.csv"}})
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: /{gamma}/path: cannot read measure CSV") and "non-finite" in err
    assert not (tmp_path / "out").exists()


def test_readme_config_example_parses(tmp_path):
    # The README's schema example, its comments stripped and its model path
    # pointed at the shipped model, is a valid config.
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config schema", 1)[1]
    example = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    raw = json.loads(re.sub(r"//[^\n]*", "", example))
    raw["model"] = str(CONFIGS.parent / "models" / "brownian.json")
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    cfg = parse_config(tmp_path / "cfg.json")
    assert config_to_json(cfg)["sim"] == {**raw["sim"], "t0": 0.0, "crn": True}


def test_csv_spec_missing_file_exits_1(tmp_path, capsys):
    cfg_path = _gamma_config(tmp_path, {"type": "csv", "path": "missing.csv"})
    rc = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /gamma1/path: cannot read measure CSV")
    assert str(tmp_path / "missing.csv") in err


@pytest.mark.parametrize("outer_ratio, code", [(0.8, 0), (1.2, 2)])
def test_ratios_below_one_catches_an_expanding_sweep(tmp_path, monkeypatch, outer_ratio, code):
    # Falsifier: a solve whose outer iteration expanded once must fail
    # ratios_below_one (exit 2) even though it converged.
    def expanding_solve(model, gamma, sim, tol=SOLVE_TOL):
        history = {"outer_distances": [0.5, 0.01], "outer_ratios": [outer_ratio],
                   "inner": [{"iterations": 2, "ratios": [0.3]}]}
        return SolveReport(solution=Flow.constant(gamma, [0.0, sim.t1]),
                           contraction_history=history, lambda_used=1.0,
                           lambda_escalations=0, noise_floor=0.0, tol_requested=tol)

    monkeypatch.setattr(experiments, "solve_mvsde", expanding_solve)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(CONFIGS / "solve_arctan.json"),
                   "--out", str(out), "--smoke"])
    assert rc == code
    converged, below_one = json.loads((out / "summary.json").read_text())["assertions"]
    assert converged["name"] == "converged" and converged["passed"] is True
    assert below_one["name"] == "ratios_below_one"
    assert below_one["passed"] is (code == 0)
    assert below_one["value"] == max(outer_ratio, 0.3)


def test_every_kind_has_one_runner_and_one_design():
    assert set(experiments.DESIGN) == set(experiments.RUNNERS)


def _model_file(tmp_path, dim=1, kind="scalar"):
    model = json.loads((CONFIGS.parent / "models" / "brownian.json").read_text())
    model.update(dim=dim, drift=model["drift"] * dim)
    exprs = model["diffusion"]["exprs"] * (dim if kind == "diag" else 1)
    model["diffusion"] = {"kind": kind, "exprs": exprs}
    (tmp_path / "model.json").write_text(json.dumps(model))
    return "model.json"


_TIMES = [0.02, 0.05, 0.1]


@pytest.mark.parametrize("kind, fields, pointer", [
    # Each kind runs its fixed design: a config that sets one, even to the
    # values the runner uses, fails at /options.
    *[(kind, {"options": design}, "/options") for kind, design in experiments.DESIGN.items()],
    # the fixed horizons reach 0.25: this run of t1 = 0.1 solved its mean field first
    ("duhamel", {"model": "arctan"}, "/sim/t1"),
    ("solve", {"sim": {"t1": 0.1, "dt": -0.001}}, "/sim/dt"),
    ("solve", {"sim": {"t1": 0.1, "dt": 0.2}}, "/sim/dt"),
    ("regularity", {"gamma2": {"type": "dirac", "point": [0.05]},
                    "times": [0.02, 0.05, 0.2]}, "/times/2"),
    ("regularity", {"gamma2": {"type": "dirac", "point": [0.05]}, "times": _TIMES,
                    "sim": {"t0": 0.03, "t1": 0.1}}, "/times/0"),
    ("duhamel", {"model": "diag"}, "/model"),
])
def test_cli_rejects_bad_run_values_at_parse_time(tmp_path, capsys, kind, fields, pointer):
    # Each value used to pass, or to fail late without a pointer, or to be
    # overridden by the runner after summary.json had echoed it.
    if fields.get("model") == "diag":
        fields = dict(fields, model=_model_file(tmp_path, kind="diag"))
    if fields.get("model") == "arctan":
        fields = dict(fields, model=os.path.relpath(CONFIGS.parent / "models" / "arctan_drift.json",
                                                   tmp_path))
    cfg = _brownian_config(tmp_path, kind, **fields)
    rc = cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "out"), "--smoke"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, fields, pointer", [
    ("regularity", {"times": [0.05, 0.1]}, "/times"),
    ("gradient", {"gamma2": {"type": "dirac", "point": [0.05]}}, "/times"),
    ("gradient", {"gamma1": {"type": "atoms", "points": [[0.0], [0.1]]},
                  "gamma2": {"type": "dirac", "point": [0.05]}, "times": _TIMES}, "/gamma1"),
    ("duhamel", {"model": 2, "gamma1": {"type": "dirac", "point": [0.0, 0.0]}}, "/model"),
    ("duhamel", {"gamma1": {"type": "atoms", "points": [[1.0], [3.0]]}}, "/gamma1"),
    ("duhamel", {"sim": {"t0": 0.0625, "t1": 0.25}}, "/sim/t0"),  # the first horizon
])
def test_runner_inputs_fail_in_parse_config(tmp_path, kind, fields, pointer):
    if fields.get("model") == 2:
        fields = dict(fields, model=_model_file(tmp_path, dim=2))
    with pytest.raises(ConfigError) as err:
        parse_config(_brownian_config(tmp_path, kind, **fields), smoke=True)
    assert err.value.pointer == pointer


def _recording(monkeypatch, name, calls, module=experiments):
    real = getattr(module, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)


@pytest.fixture
def inline(monkeypatch):
    """Every half of a runner in this process: a recorder never sees a forked child's calls."""
    monkeypatch.setattr(experiments, "_spare_core", lambda: False)


@pytest.mark.usefixtures("inline")
def test_regularity_runs_the_sim_it_echoes(tmp_path, monkeypatch):
    # A t1 past the last time point used to be echoed in summary.json and
    # then replaced by t1 = times[-1].
    path = _brownian_config(tmp_path, "regularity", gamma2={"type": "dirac", "point": [0.05]},
                            times=_TIMES, sim={"n_particles": 500, "dt": 0.01, "t1": 0.2,
                                               "seed": 3})
    cfg = parse_config(path)
    sims = []
    _recording(monkeypatch, "simulate_many", sims)
    report = run_experiment(cfg)
    assert report.metadata["config"]["sim"] == cfg.sim.to_json()
    assert cfg.sim.t1 == 0.2
    assert [run[3] for args, _ in sims for run in args[1]] == [cfg.sim, cfg.sim]


@pytest.mark.usefixtures("inline")
@pytest.mark.parametrize("gamma2", [None, {"type": "dirac", "point": [0.05]}])
def test_regularity_solves_a_model_that_reads_the_measure(tmp_path, monkeypatch, gamma2):
    # Falsifier of the measure-free rule below: arctan's drift reads the
    # measure, so each distinct initial law gets its own solve with the run's sim.
    fields = {"gamma2": gamma2} if gamma2 else {}
    path = _brownian_config(tmp_path, "regularity", model=str(MODELS / "arctan_drift.json"),
                            times=_TIMES, sim={"n_particles": 500, "dt": 0.01, "t1": 0.2,
                                               "seed": 3}, **fields)
    cfg = parse_config(path)
    solves = []
    _recording(monkeypatch, "solve_mvsde", solves)
    run_experiment(cfg)
    initials = [cfg.gamma1, cfg.gamma2] if gamma2 else [cfg.gamma1]
    assert len(solves) == len(initials)
    for (args, _), gamma in zip(solves, initials):
        assert args[1] is gamma and args[2] == cfg.sim


def _tree(outdir):
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


@pytest.mark.usefixtures("inline")
@pytest.mark.parametrize("name", ["regularity_brownian", "gradient_brownian"])
def test_a_measure_free_model_runs_under_its_initial_law(tmp_path, monkeypatch, name):
    # No coefficient of brownian reads the measure, so no simulation reads
    # the law flow: the run skips the solve and writes the bytes of a run
    # forced through it.
    config = CONFIGS / f"{name}.json"
    kind = json.loads(config.read_text())["kind"]
    solves = []
    _recording(monkeypatch, "solve_mvsde", solves)

    def run(out):
        assert cli.main([kind, "--config", str(config), "--out", str(out), "--smoke"]) == 0
        return _tree(out)

    free = run(tmp_path / "free")
    assert solves == []
    monkeypatch.setattr(Model, "drift_measure_free", False)
    monkeypatch.setattr(Model, "sigma_measure_free", False)
    assert run(tmp_path / "solved") == free
    assert len(solves) == (2 if kind == "regularity" else 1)


def _no_diffusion(monkeypatch):
    sigma = sde_engine.sigma_batch
    monkeypatch.setattr(sde_engine, "sigma_batch", lambda *args: 0.0 * sigma(*args))


def _drift_on_one_side(monkeypatch):
    # The law from the second initial (off the origin) moves at unit speed,
    # the first does not.
    simulate = experiments.simulate_many

    def drifting(model, runs):
        return [Flow(law.times, tuple(m.shift([t]) for t, m in zip(law.times, law.measures)))
                if run[2].points.any() else law
                for run, law in zip(runs, simulate(model, runs))]

    monkeypatch.setattr(experiments, "simulate_many", drifting)


def _noise_by_elapsed_time(monkeypatch):
    # Each increment scaled by the square root of the time reached, not of
    # the step: the variance grows like t^2 and TV falls like 1/t.
    update = sde_engine._Run.update

    def faulty(self, step, z):
        h = self.grid[step + 1] - self.grid[step]
        return update(self, step, z * math.sqrt(self.grid[step + 1] / h))

    monkeypatch.setattr(sde_engine._Run, "update", faulty)


@pytest.mark.parametrize("fault, name", [(_no_diffusion, "tv_envelope"),
                                         (_drift_on_one_side, "wk_ratio_stable"),
                                         (_noise_by_elapsed_time, "tv_slope_floor")])
def test_each_regularity_assertion_catches_a_fault(monkeypatch, fault, name):
    cfg = parse_config(CONFIGS / "regularity_brownian.json", smoke=True)
    clean = {a.name: a.passed for a in run_experiment(cfg).assertions}
    fault(monkeypatch)
    faulty = {a.name: a.passed for a in run_experiment(cfg).assertions}
    assert clean[name] and not faulty[name]


def test_duhamel_runs_a_measure_free_model_under_its_initial_law(tmp_path, monkeypatch):
    raw = json.loads((CONFIGS / "duhamel_arctan.json").read_text())
    raw["model"] = str(MODELS / "brownian.json")
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    solves = []
    _recording(monkeypatch, "solve_mvsde", solves)
    report = run_experiment(parse_config(tmp_path / "cfg.json", smoke=True))
    assert solves == []
    assert report.metadata["mean_field"] is False


@pytest.mark.usefixtures("inline")
def test_duhamel_starts_at_t0(tmp_path, monkeypatch):
    # A t0 above 0 used to be echoed and then replaced by 0.
    raw = json.loads((CONFIGS / "duhamel_arctan.json").read_text())
    raw["model"] = str(CONFIGS.parent / "models" / "arctan_drift.json")
    raw["sim"].update(t0=0.05)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    cfg = parse_config(tmp_path / "cfg.json", smoke=True)
    solves, densities, sims = [], [], []
    _recording(monkeypatch, "solve_mvsde", solves)
    _recording(monkeypatch, "solve_density", densities)
    _recording(monkeypatch, "simulate_many", sims)
    run_experiment(cfg)
    [(args, _)] = solves
    assert args[2] == replace(cfg.sim, n_particles=min(cfg.sim.n_particles,
                                                       experiments.FLOW_PARTICLES))
    runs = [(0.05, 0.0625), (0.05, 0.125), (0.05, 0.25)]
    assert [args[4:6] for args, _ in densities] == runs
    [(args, _)] = sims
    assert [(run[3].t0, run[3].t1) for run in args[1]] == runs


@pytest.mark.parametrize("model, driver", [("arctan_drift", "diffusion_flow"),
                                           ("tanh_diffusion", "drift_flow")])
def test_stability_refuses_a_coefficient_that_ignores_the_measure(tmp_path, capsys, model,
                                                                   driver):
    # Under common random numbers that coefficient's flow driver responds
    # with exact zeros; the run used to end in "log-log fit needs positive data".
    raw = json.loads((CONFIGS / "stability_mixed.json").read_text())
    raw["model"] = str(CONFIGS.parent / "models" / f"{model}.json")
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    rc = cli.main(["stability", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out"), "--smoke"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /model: ") and err.count("\n") == 1
    assert f"the {driver} driver cannot respond" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_stability_has_the_per_run_loop_bits(seed):
    cfg = parse_config(CONFIGS / "stability_mixed.json", seed=seed, smoke=True)
    got, want = experiments.run_stability(cfg), reference_stability(cfg)
    assert [s.name for s in got.series] == [s.name for s in want.series]
    for a, b in zip(got.series, want.series):
        assert a.columns == b.columns
        assert np.array(a.rows).tobytes() == np.array(b.rows).tobytes()
    assert got.assertions == want.assertions
    assert json.dumps(got.metadata, sort_keys=True) == json.dumps(want.metadata, sort_keys=True)


@pytest.mark.usefixtures("inline")
def test_stability_draws_the_noise_once_per_delta(monkeypatch):
    # The solve simulates through fixed_point's own binding, uncounted here.
    cfg = parse_config(CONFIGS / "stability_mixed.json", smoke=True)
    stacks, singles = [], []
    _recording(monkeypatch, "simulate_many", stacks)
    _recording(monkeypatch, "simulate_frozen", singles, module=sde_engine)
    experiments.run_stability(cfg)
    assert [len(args[1]) for args, _ in stacks] == [4, 3, 3, 3, 3]
    assert singles == [] and not hasattr(experiments, "simulate_frozen")
    # One (seed, particle count) per stack: its runs read one noise stream.
    assert all({(run[3].seed, run[3].n_particles) for run in args[1]} == {(cfg.sim.seed, 1000)}
               for args, _ in stacks)


# ---------------------------------------------------------------------------
# A runner's second half in a forked child

_SPLIT = ["regularity_arctan", "duhamel_arctan", "stability_mixed", "solve_arctan"]


@pytest.fixture
def forks(monkeypatch):
    """The fork path, forced on one core too; lists the children started."""
    started, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(experiments, "_spare_core", lambda: True)
    monkeypatch.setattr(os, "fork", counting)
    return started


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", _SPLIT)
def test_the_forked_and_inline_paths_write_one_tree(tmp_path, monkeypatch, forks, name):
    config = CONFIGS / f"{name}.json"
    kind = json.loads(config.read_text())["kind"]

    def run(out):
        assert cli.main([kind, "--config", str(config), "--out", str(out), "--smoke"]) == 0
        _no_child_left()
        return _tree(out)

    forked = run(tmp_path / "forked")
    assert len(forks) == 1
    monkeypatch.setattr(experiments, "_spare_core", lambda: False)
    assert run(tmp_path / "inline") == forked
    assert len(forks) == 1


def _failing_in_parent(monkeypatch, owner, name, after):
    """``owner.name`` raises in this process from its call ``after + 1`` on."""
    parent, real, calls = os.getpid(), getattr(owner, name), []

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(args)
            if len(calls) > after:
                raise NumericsError("fault injected in the parent's half")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize("name, owner, attribute, after", [
    ("regularity_arctan", experiments, "simulate_many", 0),  # the first law's run
    ("duhamel_arctan", experiments, "solve_density", 0),
    ("stability_mixed", experiments, "simulate_many", 1),  # the second delta's stack
    ("solve_arctan", Measure, "to_csv", 0),
])
def test_a_fault_in_the_parents_half_leaves_no_child(tmp_path, monkeypatch, forks, name, owner,
                                                     attribute, after):
    cfg = parse_config(CONFIGS / f"{name}.json", smoke=True)
    _failing_in_parent(monkeypatch, owner, attribute, after)
    with pytest.raises(NumericsError, match="fault injected"):
        run_experiment(cfg, outdir=tmp_path / "out")
    assert len(forks) == 1
    _no_child_left()


_CHILD_ERRORS = [ConvergenceError("no contraction up to lambda=1", history=[0.3, 0.4]),
                 AuditError("model violates its declared K: witness x=0.5")]


@pytest.mark.parametrize("error", [*_CHILD_ERRORS, ConfigError("must be > 0", "/sim/dt")],
                         ids=type)
def test_an_error_in_the_child_arrives_whole(forks, error):
    def fail():
        raise error

    with pytest.raises(type(error)) as got:
        experiments._in_parallel(lambda: None, fail)
    assert len(forks) == 1
    _no_child_left()
    assert got.value is not error  # it crossed the pipe
    assert (str(got.value), vars(got.value)) == (str(error), vars(error))


def test_a_fault_in_here_kills_a_child_blocked_in_its_write(forks):
    # 1 MiB overfills the pipe's buffer: unread, the child waits in its write.
    def fail():
        time.sleep(0.1)  # time for the child to reach its write
        raise NumericsError("fault injected in the parent's half")

    def hung(signum, frame):
        raise TimeoutError("the parent waits on a child blocked in its write")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(NumericsError, match="fault injected"):
            experiments._in_parallel(fail, lambda: bytes(1 << 20))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    _no_child_left()


def test_without_a_spare_core_no_child_starts_and_here_runs_first(monkeypatch, forks):
    monkeypatch.setattr(experiments, "_spare_core", lambda: False)
    order = []
    assert experiments._in_parallel(lambda: order.append("here") or 1,
                                    lambda: order.append("there") or 2) == (1, 2)
    assert order == ["here", "there"]
    assert forks == []


def test_a_measure_free_regularity_pair_starts_no_child(tmp_path, monkeypatch, forks):
    # brownian reads no measure, so its two runs share one stack; arctan's
    # are two solves, one of them in the child.
    stacks = []
    _recording(monkeypatch, "simulate_many", stacks)
    for name, children in (("regularity_brownian", 0), ("regularity_arctan", 1)):
        config = str(CONFIGS / f"{name}.json")
        assert cli.main(["regularity", "--config", config, "--out", str(tmp_path / name),
                         "--smoke"]) == 0
        _no_child_left()
        assert len(forks) == children
        if not children:
            assert [len(args[1]) for args, _ in stacks] == [2]


@pytest.mark.parametrize("error", _CHILD_ERRORS, ids=type)
def test_the_cli_reports_an_error_in_the_child_as_inline(tmp_path, monkeypatch, capsys, forks,
                                                          error):
    # The regularity child solves the law flow of the second initial, at 0.1.
    solve = experiments.solve_mvsde

    def failing(model, gamma, sim, *args, **kwargs):
        if gamma.points[0, 0] == 0.1:
            raise error
        return solve(model, gamma, sim, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_mvsde", failing)
    config = str(CONFIGS / "regularity_arctan.json")
    results = []
    for spare in (True, False):
        monkeypatch.setattr(experiments, "_spare_core", lambda spare=spare: spare)
        rc = cli.main(["regularity", "--config", config, "--out", str(tmp_path / str(spare)),
                       "--smoke"])
        results.append((rc, capsys.readouterr().err))
        _no_child_left()
    assert len(forks) == 1
    assert results == [(1, f"error: {error}\n")] * 2
