"""Experiment harness: config ingestion, runners, and report emission.

Each runner reproduces one of the quantitative conclusions at desk scale
and returns an :class:`ExperimentReport` whose assertions decide the CLI
exit code.  Reports are reproducible bit-for-bit from (config, seed): no
wall-clock data enters the emitted files, all randomness flows from the
configured seed, and distance comparisons between simulated laws share one
grid and one bandwidth fixed from the pooled sample.

Each kind runs one fixed design, :data:`DESIGN`; a config sets the run
(model, initial laws, times, ``sim``), not the design.  Slope fits use
ordinary least squares on log-log points with the smallest and largest
abscissa dropped (endpoints carry discretization and noise-floor bias).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .coefficients import Model, lipschitz_audit, load_model
from .duhamel import solve_density
from .errors import (ConfigError, ConvergenceError, DomainError, NumericsError, check_integer,
                     check_list, check_number, check_object, check_string, check_tagged)
from .fixed_point import SOLVE_TOL, solve_mvsde
from .measures import TIME_TOL, Flow, Measure, pooled_grid, resample, to_density, write_csv
from .sde_engine import SimConfig, simulate_many

# Measure spec keys besides "type", per type: (required, optional).
MEASURE_KEYS = {
    "dirac": (("point",), ()),
    "atoms": (("points",), ("weights",)),
    "normal": (("mean", "std", "n"), ("seed",)),
    "csv": (("path",), ()),
}

SMOKE_PARTICLES = 1000
SMOKE_MC_PARTICLES = 10_000
SMOKE_CELLS = 256
EMIT_ATOMS = 4096  # per-node resample size for emitted law CSVs
COMPARISON_BINS = 64  # duhamel: solver vs Monte Carlo TV on this many merged cells
FLOW_PARTICLES = 20_000  # duhamel: particle cap of the solved mean-field flow

# The fixed design of each kind: the values its runner reads, echoed as
# "options" in summary.json.
DESIGN = {
    "audit": {"n_samples": 1000},
    "solve": {"tol": SOLVE_TOL},
    "regularity": {},
    "gradient": {"epsilons": (0.25, 0.5, 1.0)},
    "stability": {"deltas": (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)},
    "duhamel": {"horizons": (0.0625, 0.125, 0.25), "tv_tol": 0.05},
}
# The perturbed inputs of the stability bound, in report order.
STABILITY_DRIVERS = ("initial", "diffusion_flow", "drift_flow")


# ---------------------------------------------------------------------------
# Report containers


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    value: float
    detail: str

    def to_json(self):
        return {"name": self.name, "passed": bool(self.passed),
                "value": float(self.value), "detail": self.detail}


@dataclass(frozen=True)
class Series:
    name: str
    columns: tuple
    rows: tuple
    logx: bool = False
    logy: bool = False


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    model: str
    assertions: tuple
    series: tuple
    metadata: dict

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _json_default(obj):
    """json.dump hook for the numpy values in report metadata (np.float64 is a float)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit_report(report: ExperimentReport, outdir) -> list:
    """Write summary.json, one CSV per series, and one plot script per CSV."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    series_files = []
    for s in report.series:
        csv_name = f"series_{s.name}.csv"
        path = os.path.join(outdir, csv_name)
        write_csv(path, s.columns, np.array(s.rows, dtype=float).T)
        written.append(path)
        series_files.append(csv_name)
        gp_path = os.path.join(outdir, f"plot_{s.name}.gp")
        with open(gp_path, "w", encoding="utf-8") as fh:
            fh.write("set datafile separator ','\n")
            fh.write("set key autotitle columnhead\n")
            axes = "x" * s.logx + "y" * s.logy
            if axes:
                fh.write(f"set logscale {axes}\n")
            fh.write(f"set xlabel '{s.columns[0]}'\n")
            cols = ", ".join(
                f"'{csv_name}' using 1:{j + 2} with linespoints"
                for j in range(len(s.columns) - 1)
            )
            fh.write(f"plot {cols}\n")
        written.append(gp_path)
    summary = {
        "kind": report.kind,
        "model": report.model,
        "passed": bool(report.passed),
        "assertions": [a.to_json() for a in report.assertions],
        "metadata": report.metadata,
        "series": series_files,
    }
    try:
        # Standard JSON only: a non-finite number fails here, before any byte is written.
        text = json.dumps(summary, sort_keys=True, indent=2, default=_json_default,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"summary.json would not be standard JSON: {exc}") from exc
    path = os.path.join(outdir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# Config


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model_path: str
    model: Model
    gamma1: Measure
    gamma2: Measure | None
    times: np.ndarray | None
    sim: SimConfig
    smoke: bool = False


def _config_relative(config_path, path) -> str:
    """path itself if absolute, else resolved against the config file's directory."""
    if os.path.isabs(path):
        return path
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(config_path)), path))


def _numbers(value, pointer, above: float | None = None) -> list:
    """A JSON list of finite numbers, as floats, each greater than ``above`` if given."""
    return [check_number(v, f"{pointer}/{i}", above)
            for i, v in enumerate(check_list(value, pointer))]


def _check_runner_inputs(cfg: ExperimentConfig) -> None:
    """The inputs each runner needs beyond its design, checked before it runs."""
    if cfg.kind in ("regularity", "gradient") and (cfg.times is None or len(cfg.times) < 3):
        raise ConfigError(f"{cfg.kind} needs at least 3 time points", "/times")
    if cfg.kind == "gradient":
        for pointer, gamma in (("/gamma1", cfg.gamma1), ("/gamma2", cfg.gamma2)):
            if gamma is None or gamma.n != 1:
                raise ConfigError("gradient needs two Dirac initials", pointer)
        dxy = float(np.linalg.norm(cfg.gamma1.points[0] - cfg.gamma2.points[0]))
        t_min = float(cfg.times[0])
        bw_floor = 0.9 * math.sqrt(cfg.model.constants.K * t_min) * cfg.sim.n_particles ** -0.2
        if 0 < dxy < 0.5 * bw_floor:
            raise ConfigError(f"|x-y|={dxy:.3g} below the noise-resolvable threshold "
                              f"{0.5 * bw_floor:.3g} at the smallest time point", "/gamma2")
    if cfg.kind == "stability":
        # Under common random numbers a coefficient that ignores the measure
        # gives its flow driver a response of exactly 0, which no slope fits.
        inert = [name for name, free in (("diffusion_flow", cfg.model.sigma_measure_free),
                                         ("drift_flow", cfg.model.drift_measure_free)) if free]
        if inert:
            raise ConfigError(f"stability needs a model whose drift and diffusion both read "
                              f"the measure; the {' and '.join(inert)} "
                              f"{'drivers' if len(inert) > 1 else 'driver'} cannot respond",
                              "/model")
    if cfg.kind == "duhamel":
        if cfg.model.dim != 1:
            raise ConfigError("duhamel validation needs a 1D model", "/model")
        if cfg.model.diffusion.kind != "scalar":
            raise ConfigError("duhamel validation needs a scalar diffusion spec", "/model")
        if cfg.gamma1.n != 1:
            # The solver starts from a point; a wider Monte Carlo start would
            # report a theory failure for what is a config error.
            raise ConfigError("duhamel validation needs a Dirac initial", "/gamma1")
        horizons = DESIGN["duhamel"]["horizons"]
        if not cfg.sim.t0 < horizons[0]:
            raise ConfigError(f"t0 must lie below the first horizon {horizons[0]}", "/sim/t0")
        if cfg.sim.t1 < horizons[-1]:
            raise ConfigError(f"t1 must reach the last horizon {horizons[-1]}", "/sim/t1")


def _measure_from_spec(spec, pointer: str, config_path) -> Measure:
    kind = check_tagged(spec, pointer, "type", MEASURE_KEYS)
    if kind == "dirac":
        return Measure.dirac(_numbers(spec["point"], pointer + "/point"))
    if kind == "atoms":
        points = [_numbers(row, f"{pointer}/points/{i}")
                  for i, row in enumerate(check_list(spec["points"], pointer + "/points"))]
        for i, row in enumerate(points):
            if len(row) != len(points[0]):
                raise ConfigError(f"point has {len(row)} coordinates, the first has "
                                  f"{len(points[0])}", f"{pointer}/points/{i}")
        weights = _numbers(spec["weights"], pointer + "/weights") if "weights" in spec else None
        return Measure.from_points(points, weights)
    if kind == "normal":
        n = check_integer(spec["n"], pointer + "/n", 1)
        seed = check_integer(spec.get("seed", 0), pointer + "/seed", 0)
        rng = np.random.default_rng(seed)
        mean = np.asarray(_numbers(spec["mean"], pointer + "/mean"))
        std = check_number(spec["std"], pointer + "/std")
        pts = mean + std * rng.standard_normal((n, len(mean)))
        return Measure.from_points(pts)
    path = _config_relative(config_path, check_string(spec["path"], pointer + "/path"))
    try:
        return Measure.from_csv(path)
    except (OSError, ValueError, NumericsError) as exc:
        raise ConfigError(f"cannot read measure CSV {path}: {exc}", pointer + "/path") from exc


def parse_config(path, kind: str | None = None, seed: int | None = None,
                 particles: int | None = None, smoke: bool = False) -> ExperimentConfig:
    """Load and validate an experiment config; the ``seed`` and ``particles``
    overrides are checked like the ``sim`` values they replace."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    check_object(raw, "", ("kind", "model"),
                 ("gamma1", "gamma2", "times", "sim"))
    cfg_kind = raw["kind"]
    if cfg_kind not in KINDS:
        raise ConfigError(f"unknown kind {cfg_kind!r}; expected one of {KINDS}", "/kind")
    if kind is not None and cfg_kind != kind:
        raise ConfigError(f"config kind {cfg_kind!r} does not match subcommand {kind!r}",
                          "/kind")
    model_path = _config_relative(path, check_string(raw["model"], "/model"))
    if not os.path.exists(model_path):
        raise ConfigError(f"model file does not exist: {model_path}", "/model")
    model = load_model(model_path)

    gamma1 = _measure_from_spec(raw.get("gamma1", {"type": "dirac", "point": [0.0] * model.dim}),
                                "/gamma1", path)
    gamma2 = _measure_from_spec(raw["gamma2"], "/gamma2", path) if "gamma2" in raw else None
    for pointer, gamma in (("/gamma1", gamma1), ("/gamma2", gamma2)):
        if gamma is not None and gamma.dim != model.dim:
            raise ConfigError(f"law of dimension {gamma.dim} for a model of dimension "
                              f"{model.dim}", pointer)

    times = None
    if "times" in raw:
        times = np.asarray(_numbers(raw["times"], "/times"))
        if len(times) == 0:
            raise ConfigError("times must be a strictly increasing list", "/times")
        close = np.flatnonzero(np.diff(times) <= TIME_TOL)
        if close.size:
            raise ConfigError(f"times must increase by more than {TIME_TOL}",
                              f"/times/{close[0] + 1}")

    sim_raw = dict(check_object(raw.get("sim", {}), "/sim", (),
                                ("n_particles", "dt", "t0", "t1", "seed")))
    if seed is not None:
        sim_raw["seed"] = seed
    if particles is not None:
        sim_raw["n_particles"] = particles
    n = check_integer(sim_raw.get("n_particles", 10_000), "/sim/n_particles", 1)
    if smoke:
        n = min(n, SMOKE_PARTICLES)
    t0 = check_number(sim_raw.get("t0", 0.0), "/sim/t0")
    t1 = check_number(sim_raw.get("t1", times[-1] if times is not None else 0.0), "/sim/t1")
    if t1 <= t0:
        if cfg_kind == "audit":  # audit only consumes the seed
            t1 = t0 + 1.0
        else:
            raise ConfigError("sim needs t1 > t0 (set sim.t1 or times)", "/sim/t1")
    dt = check_number(sim_raw.get("dt", 1e-3), "/sim/dt", above=0.0)
    if dt > t1 - t0:
        raise ConfigError(f"dt {dt} exceeds the run length t1 - t0 = {t1 - t0}", "/sim/dt")
    if times is not None:
        for i, t in enumerate(times):
            if not t0 < t <= t1:
                raise ConfigError(f"time {t} lies outside the run interval ({t0}, {t1}]",
                                  f"/times/{i}")
    sim = SimConfig(
        n_particles=n,
        dt=dt,
        t0=t0,
        t1=t1,
        seed=check_integer(sim_raw.get("seed", 0), "/sim/seed", 0),
    )
    cfg = ExperimentConfig(
        kind=cfg_kind,
        model_path=model_path,
        model=model,
        gamma1=gamma1,
        gamma2=gamma2,
        times=times,
        sim=sim,
        smoke=smoke,
    )
    _check_runner_inputs(cfg)
    return cfg


def config_to_json(cfg: ExperimentConfig) -> dict:
    out = {
        "kind": cfg.kind,
        "model": cfg.model_path,
        "sim": cfg.sim.to_json(),
        "options": DESIGN[cfg.kind],
        "smoke": cfg.smoke,
    }
    if cfg.times is not None:
        out["times"] = cfg.times.tolist()
    return out


# ---------------------------------------------------------------------------
# Shared numerics


def fit_loglog(xs, ys, drop_ends: bool = True):
    """OLS slope/intercept of log y against log x, endpoints dropped."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if drop_ends and len(xs) >= 5:
        order = np.argsort(xs)
        keep = order[1:-1]
        xs, ys = xs[keep], ys[keep]
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise DomainError("log-log fit needs positive data")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)


def shared_grid_tv(m1: Measure, m2: Measure, theta: float = 0.0) -> float:
    """Weighted variation between ensembles via KDEs on one pooled grid/bandwidth."""
    grid, bw = pooled_grid([m1, m2])
    d1 = to_density(m1, grid=grid, bandwidth=bw)
    d2 = to_density(m2, grid=grid, bandwidth=bw)
    return metrics.weighted_variation(d1, d2, theta).value


def _sup_wk(flow1: Flow, flow2: Flow, k: float) -> float:
    return max(metrics.node_distances(flow1, flow2,
                                      lambda a, b: metrics.wasserstein(a, b, k).value))


def _law_flow(cfg: ExperimentConfig, gamma: Measure, sim: SimConfig) -> Flow:
    """The flow a run from ``gamma`` steps under: the solved fixed point, or,
    when no coefficient reads the measure, the initial law held constant."""
    if cfg.model.drift_measure_free and cfg.model.sigma_measure_free:
        return Flow.constant(gamma, [sim.t0])
    return solve_mvsde(cfg.model, gamma, sim).solution


def _report(cfg: ExperimentConfig, assertions, series=(), **findings) -> ExperimentReport:
    """The report of one run of ``cfg``: its findings beside the config echo."""
    return ExperimentReport(kind=cfg.kind, model=cfg.model.name, assertions=tuple(assertions),
                            series=tuple(series),
                            metadata={"config": config_to_json(cfg), **findings})


# ---------------------------------------------------------------------------
# Runners


def run_audit(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    report = lipschitz_audit(cfg.model, n_samples=DESIGN["audit"]["n_samples"], seed=cfg.sim.seed,
                             raise_on_failure=False)
    worst = max(report.ratios.values())
    detail = f"declared K={report.declared_K}"
    if report.checked < report.n_samples:
        detail += f", {report.checked} of {report.n_samples} samples checked"
    assertions = [
        Assertion("audit_passed", report.passed, 1.0 if report.passed else 0.0,
                  f"witness={report.witness}"),
        # No sample checked is no evidence that the ratios hold.
        Assertion("ratios_within_K", report.checked > 0 and worst <= report.declared_K,
                  worst, detail),
    ]
    return _report(cfg, assertions, audit=report.to_json())


def run_solve(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    try:
        report = solve_mvsde(cfg.model, cfg.gamma1, cfg.sim)
    except ConvergenceError as exc:
        # Non-convergence is what this experiment measures: a failed
        # assertion (exit 2), not a runtime error (exit 1).
        return _report(cfg, [Assertion("converged", False, len(exc.history), str(exc))],
                       history=exc.history)
    hist = report.contraction_history
    dists = hist["outer_distances"]
    ratios = hist["outer_ratios"] + [r for info in hist["inner"] for r in info["ratios"]]
    assertions = [
        Assertion("converged", dists[-1] < report.tol_used,
                  report.outer_iterations, f"tol_used={report.tol_used}"),
        Assertion("ratios_below_one", all(r < 1.0 for r in ratios),
                  max(ratios) if ratios else 0.0,
                  f"{len(ratios)} measured contraction ratios"),
    ]
    series = [
        Series("outer_distances", ("iteration", "rho_tilde"),
               tuple((i + 1, d) for i, d in enumerate(dists)), logy=True),
    ]
    if outdir is not None:
        laws_dir = os.path.join(outdir, "laws")
        os.makedirs(laws_dir, exist_ok=True)
        for i, (t, m) in enumerate(zip(report.solution.times, report.solution.measures)):
            thin = resample(m, min(EMIT_ATOMS, m.n), cfg.sim.seed) if m.n > EMIT_ATOMS else m
            thin.to_csv(os.path.join(laws_dir, f"node_{i:03d}_t{t:.6f}.csv"))
    return _report(cfg, assertions, series, solve=report.to_json())


def run_regularity(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    """Short-time total-variation decay and transport stability of the semigroup."""
    gamma1 = cfg.gamma1
    gamma2 = cfg.gamma2 if cfg.gamma2 is not None else gamma1
    k = cfg.model.constants.k
    sim = cfg.sim

    flow_mu1 = _law_flow(cfg, gamma1, sim)
    flow_mu2 = flow_mu1 if gamma2 is gamma1 else _law_flow(cfg, gamma2, sim)
    w0 = metrics.wasserstein(gamma1, gamma2, k).value
    runs = [(flow_mu1, flow_mu1, gamma1, sim, cfg.times),
            (flow_mu2, flow_mu2, gamma2, sim, cfg.times)]
    if w0 == 0.0:
        # Identical initials: a run on the next seed measures the noise floor.
        runs.append((flow_mu1, flow_mu1, gamma1, replace(sim, seed=sim.seed + 1), cfg.times))
    law1, law2, *law_b = simulate_many(cfg.model, runs)

    tvs = np.array(metrics.node_distances(law1, law2, lambda a, b: shared_grid_tv(a, b, 0.0)))
    wks = np.array(metrics.node_distances(law1, law2,
                                          lambda a, b: metrics.wasserstein(a, b, k).value))
    rows = [(float(t), tv, wk, wk / w0 if w0 > 0 else 0.0)
            for t, tv, wk in zip(cfg.times, tvs.tolist(), wks.tolist())]

    assertions = []
    findings = {"w0": w0}
    if w0 == 0.0:
        floor = max(shared_grid_tv(law1.measures[-1], law_b[0].measures[-1], 0.0), 1e-12)
        assertions.append(Assertion(
            "distances_at_noise_floor", bool(np.all(tvs <= 3.0 * floor)),
            float(tvs.max()), f"3x decoupled floor {3 * floor:.3g}; slope fit skipped"))
        findings["noise_floor"] = floor
    else:
        slope, _ = fit_loglog(cfg.times, tvs)
        interior = slice(1, -1) if len(cfg.times) >= 5 else slice(None)
        log_c = float(np.mean(np.log(tvs[interior]) + 0.5 * np.log(cfg.times[interior])))
        c_hat = math.exp(log_c)
        envelope_ok = bool(np.all(tvs <= 1.5 * c_hat * cfg.times ** -0.5))
        ratio = wks / w0
        assertions.extend([
            Assertion("tv_slope_floor", slope >= -0.65, slope,
                      "slope of log TV vs log t must be >= -0.5 - 0.15"),
            Assertion("tv_envelope", envelope_ok, c_hat,
                      "TV <= 1.5 * C_hat * t^(-1/2) at every time point"),
            Assertion("wk_ratio_stable", float(ratio.max() / ratio.min()) < 2.0,
                      float(ratio.max() / ratio.min()),
                      "fitted W_k contraction constant varies < 2x across t"),
        ])
        findings.update({"tv_slope": slope, "c_hat": c_hat,
                         "wk_ratio_range": [float(ratio.min()), float(ratio.max())]})

    series = [Series("regularity", ("t", "tv", "wk", "wk_ratio"),
                     tuple(rows), logx=True, logy=True)]
    return _report(cfg, assertions, series, **findings)


def run_gradient(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    """Smoothing estimates for Dirac initials under one frozen solution flow."""
    dxy = float(np.linalg.norm(cfg.gamma1.points[0] - cfg.gamma2.points[0]))
    epsilons = DESIGN["gradient"]["epsilons"]

    flow_mu = _law_flow(cfg, cfg.gamma1, cfg.sim)
    law1, law2 = simulate_many(cfg.model, [(flow_mu, flow_mu, cfg.gamma1, cfg.sim, cfg.times),
                                           (flow_mu, flow_mu, cfg.gamma2, cfg.sim, cfg.times)])

    tvs = metrics.node_distances(law1, law2, lambda a, b: shared_grid_tv(a, b, 0.0))
    weps = {e: metrics.node_distances(law1, law2,
                                      lambda a, b, e=e: metrics.wasserstein(a, b, e).value)
            for e in epsilons}
    rows = [(float(t), *vals) for t, *vals in zip(cfg.times, tvs, *weps.values())]

    assertions = []
    findings = {"dxy": dxy}
    if dxy == 0.0:
        assertions.append(Assertion("zero_distances", bool(np.max(tvs) <= 1e-12),
                                    float(np.max(tvs)), "identical initials"))
    else:
        tv_slope, _ = fit_loglog(cfg.times, tvs)
        assertions.append(Assertion(
            "tv_slope", abs(tv_slope + 0.5) <= 0.15, tv_slope,
            "TV decay exponent -1/2 within 0.15"))
        findings["tv_slope"] = tv_slope
        for e in epsilons:
            slope, _ = fit_loglog(cfg.times, weps[e])
            ceiling = (-1.0 + e) / 2.0
            ok = ceiling - 0.15 <= slope <= 0.15
            assertions.append(Assertion(
                f"weps_slope_{e}", ok, slope,
                f"W_eps exponent within [{ceiling - 0.15:.3g}, 0.15] "
                f"(ceiling {ceiling:.3g})"))
            findings[f"weps_slope_{e}"] = slope

    columns = ["t", "tv"] + [f"w_{e}" for e in epsilons]
    series = [Series("gradient", tuple(columns), tuple(rows), logx=True, logy=True)]
    return _report(cfg, assertions, series, **findings)


def run_stability(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    """Linear response of sup_t W_k to each driver of the stability bound.

    Each delta's three perturbed runs (initial law, diffusion flow, drift
    flow) step in one stack on one noise stream, the first delta's with the
    unperturbed run beside them; the diffusion and drift drivers read one
    shifted flow.
    """
    k = cfg.model.constants.k
    eta = cfg.model.constants.eta
    deltas = np.asarray(DESIGN["stability"]["deltas"])
    sim = cfg.sim
    t0, t1 = sim.t0, sim.t1
    base_flow = _law_flow(cfg, cfg.gamma1, sim)
    nodes = base_flow.times
    e1 = np.zeros(cfg.model.dim)
    e1[0] = 1.0

    law_base = None
    responses = {name: [] for name in STABILITY_DRIVERS}
    driver_vals = {name: [] for name in STABILITY_DRIVERS}
    for d in deltas.tolist():
        gamma = cfg.gamma1.shift(d * e1)
        shifted = base_flow.shift(d * e1)
        runs = [(base_flow, base_flow, gamma, sim, nodes),
                (base_flow, shifted, cfg.gamma1, sim, nodes),
                (shifted, base_flow, cfg.gamma1, sim, nodes)]
        if law_base is None:
            runs.insert(0, (base_flow, base_flow, cfg.gamma1, sim, nodes))
        laws = simulate_many(cfg.model, runs)
        if law_base is None:
            law_base = laws.pop(0)
        for name in STABILITY_DRIVERS:  # each law is released once read
            responses[name].append(_sup_wk(law_base, laws.pop(0), k))
        driver_vals["initial"].append(metrics.wasserstein(cfg.gamma1, gamma, k).value)
        vals = metrics.node_distances(base_flow, shifted,
                                      lambda a, b: metrics.transport(a, b, k, eta) ** 2)
        driver_vals["diffusion_flow"].append(
            math.sqrt(metrics.segment_integral(nodes, vals, t0, t1)))
        vals = metrics.node_distances(base_flow, shifted, lambda a, b: (
            metrics.wasserstein(a, b, k).value + shared_grid_tv(a, b, k)))
        driver_vals["drift_flow"].append(metrics.segment_integral(nodes, vals, t0, t1))

    assertions = []
    series = []
    findings = {}
    for name in STABILITY_DRIVERS:
        slope, _ = fit_loglog(deltas, responses[name], drop_ends=False)
        assertions.append(Assertion(
            f"{name}_response_linear", abs(slope - 1.0) <= 0.2, slope,
            "log-log slope of sup_t W_k against the perturbation size within 1 +- 0.2"))
        findings[f"{name}_slope"] = slope
        series.append(Series(
            f"stability_{name}", ("delta", "response", "driver"),
            tuple((float(d), float(r), float(v))
                  for d, r, v in zip(deltas, responses[name], driver_vals[name])),
            logx=True, logy=True))
    return _report(cfg, assertions, series, **findings)


def run_duhamel_validation(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    """Duhamel grid solver against a Monte Carlo histogram at several horizons."""
    horizons = DESIGN["duhamel"]["horizons"]
    cells = SMOKE_CELLS if cfg.smoke else 1024
    n_mc = SMOKE_MC_PARTICLES if cfg.smoke else 100_000
    tv_tol = DESIGN["duhamel"]["tv_tol"]
    x0 = cfg.gamma1.points[0]
    t0 = cfg.sim.t0

    flows = _law_flow(cfg, cfg.gamma1, replace(
        cfg.sim, n_particles=min(cfg.sim.n_particles, FLOW_PARTICLES)))

    grids = [solve_density(cfg.model, flows, flows, x0, t0, hz, cells=cells) for hz in horizons]
    # One stack: the horizons read one noise block per step.
    mcs = simulate_many(cfg.model, [
        (flows, flows, cfg.gamma1,
         replace(cfg.sim, n_particles=n_mc, t1=hz, seed=cfg.sim.seed + 17), [hz])
        for hz in horizons])
    assertions = []
    rows = []
    for hz, grid, mc in zip(horizons, grids, mcs):
        sample = mc.measures[-1].points[:, 0]
        edges = grid.edges()
        hist, _ = np.histogram(sample, bins=edges)
        mass_mc = hist / n_mc
        mass_solver = grid.final_density() * grid.h
        solver_bins, mc_bins = (m.reshape(COMPARISON_BINS, -1).sum(axis=1)
                                for m in (mass_solver, mass_mc))
        tv = float(np.abs(solver_bins - mc_bins).sum())
        outside = 1.0 - mass_mc.sum()
        tv += outside
        assertions.append(Assertion(
            f"tv_horizon_{hz}", tv <= tv_tol, tv,
            f"solver vs {n_mc}-sample histogram on {COMPARISON_BINS} bins, tol {tv_tol}"))
        rows.append((hz, tv, grid.iterations, grid.residuals[-1], grid.mass_errors.max()))
        if outdir is not None:
            os.makedirs(outdir, exist_ok=True)
            grid.density_csv(os.path.join(outdir, f"density_t{hz:.6f}.csv"))
            grid.residuals_csv(os.path.join(outdir, f"residuals_t{hz:.6f}.csv"))
    series = [Series("duhamel", ("horizon", "tv", "iterations", "last_residual",
                                 "max_mass_error"), tuple(rows))]
    mean_field = not (cfg.model.drift_measure_free and cfg.model.sigma_measure_free)
    return _report(cfg, assertions, series, mean_field=mean_field)


RUNNERS = {
    "audit": run_audit,
    "solve": run_solve,
    "regularity": run_regularity,
    "gradient": run_gradient,
    "stability": run_stability,
    "duhamel": run_duhamel_validation,
}
KINDS = tuple(RUNNERS)


def run_experiment(cfg: ExperimentConfig, outdir=None) -> ExperimentReport:
    if cfg.kind != "audit":
        # The one audit of a run: the library below trusts the model.
        lipschitz_audit(cfg.model, n_samples=100, seed=0)
    return RUNNERS[cfg.kind](cfg, outdir=outdir)
