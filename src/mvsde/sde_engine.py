"""Euler-Maruyama simulation of the frozen SDE driven by given measure flows.

The drift reads its measure argument from one flow (mu) and the diffusion
from another (nu); both are looked up piecewise-constantly at the left node.
Noise is generated from counter-based streams keyed by (seed, step index,
particle index), so two runs sharing a seed and a step schedule consume
bit-identical Brownian increments regardless of their flows or initials --
this is the common-random-numbers coupling used by every comparison
experiment.  With ``crn=False`` the key is additionally mixed with a digest
of the inputs, decoupling the noise while staying deterministic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Model, drift_batch, sigma_batch
from .errors import DomainError
from .measures import Flow, Measure, resample

_INIT_STREAM = 0x517CC1B727220A95  # sub-stream tag for initial-condition resampling
_TIME_TOL = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``crn`` couples noise across compared runs."""

    n_particles: int
    dt: float
    t0: float
    t1: float
    seed: int
    crn: bool = True

    def __post_init__(self):
        if self.n_particles < 1:
            raise DomainError("n_particles must be >= 1")
        if self.t1 <= self.t0:
            raise DomainError("need t1 > t0")
        if not 0 < self.dt <= self.t1 - self.t0:
            raise DomainError("need 0 < dt <= t1 - t0")

    def to_json(self) -> dict:
        return {
            "n_particles": self.n_particles, "dt": self.dt, "t0": self.t0,
            "t1": self.t1, "seed": self.seed, "crn": self.crn,
        }


def _content_digest(init: Measure, mu_flow: Flow, nu_flow: Flow) -> int:
    h = hashlib.blake2b(digest_size=8)
    for arr in (init.points, init.weights, mu_flow.times, nu_flow.times):
        h.update(np.ascontiguousarray(arr).tobytes())
    for fl in (mu_flow, nu_flow):
        for m in fl.measures:
            h.update(np.ascontiguousarray(m.points).tobytes())
    return int.from_bytes(h.digest(), "little")


def _step_noise(seed: int, extra: int, step: int, shape) -> np.ndarray:
    # Stream index lives in the most significant counter word, so streams
    # never collide however many draws one step consumes.
    key = np.array([seed % 2**64, extra % 2**64], dtype=np.uint64)
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.standard_normal(shape)


def _initial_ensemble(init: Measure, n: int, seed: int) -> Measure:
    equal = init.n == n and np.allclose(init.weights, 1.0 / n, atol=1e-15, rtol=0)
    if equal:
        return init
    return resample(init, n, seed ^ _INIT_STREAM)


def _schedule(cfg: SimConfig, record_times: np.ndarray) -> np.ndarray:
    n_steps = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    base = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    base[-1] = cfg.t1
    grid = np.union1d(base, record_times)
    # Collapse nodes closer than the time tolerance.
    keep = np.concatenate(([True], np.diff(grid) > _TIME_TOL))
    return grid[keep]


def simulate_frozen(model: Model, mu_flow: Flow, nu_flow: Flow, init: Measure,
                    cfg: SimConfig, record_times=None) -> Flow:
    """Euler-Maruyama for X' = b(X, mu_t) dt + sigma(X, nu_t) dW on [t0, t1].

    Returns the empirical law at every requested record time (default: the
    nu-flow nodes inside [t0, t1], always including t0).  Deterministic,
    and bit-identical across runs sharing (seed, schedule) when crn is set.
    """
    if init.dim != model.dim:
        raise DomainError(f"initial dimension {init.dim} != model dimension {model.dim}")
    for name, fl in (("mu", mu_flow), ("nu", nu_flow)):
        if fl.dim != model.dim:
            raise DomainError(f"{name} flow dimension {fl.dim} != model dimension {model.dim}")
        if not fl.covers(cfg.t0, cfg.t1):
            raise DomainError(
                f"{name} flow on [{fl.times[0]}, {fl.times[-1]}] does not cover "
                f"[{cfg.t0}, {cfg.t1}]"
            )

    if record_times is None:
        rt = nu_flow.times[(nu_flow.times >= cfg.t0 - _TIME_TOL) & (nu_flow.times <= cfg.t1 + _TIME_TOL)]
        rt = np.union1d(rt, [cfg.t0])
    else:
        rt = np.asarray(record_times, dtype=float).ravel()
        if rt.size == 0:
            raise DomainError("record_times must be non-empty")
        if rt.min() < cfg.t0 - _TIME_TOL or rt.max() > cfg.t1 + _TIME_TOL:
            raise DomainError("record_times must lie within [t0, t1]")
        rt = np.unique(rt)

    grid = _schedule(cfg, rt)
    extra = 0 if cfg.crn else _content_digest(init, mu_flow, nu_flow)
    ensemble = _initial_ensemble(init, cfg.n_particles, cfg.seed)
    X = ensemble.points.copy()
    w = ensemble.weights

    laws = {}
    rec_idx = 0
    if abs(grid[0] - rt[rec_idx]) <= _TIME_TOL:
        laws[rt[rec_idx]] = Measure(X.copy(), w, model.dim)
        rec_idx += 1

    has_drift = model.constants.b_sup > 0
    for step in range(len(grid) - 1):
        t, t_next = grid[step], grid[step + 1]
        h = t_next - t
        s = sigma_batch(model, t, X, nu_flow.at(t))
        dw = _step_noise(cfg.seed, extra, step, X.shape) * math.sqrt(h)
        noise = s * dw
        if has_drift:
            X = X + drift_batch(model, t, X, mu_flow.at(t)) * h + noise
        else:
            X = X + noise
        if rec_idx < len(rt) and abs(t_next - rt[rec_idx]) <= _TIME_TOL:
            laws[rt[rec_idx]] = Measure(X.copy(), w, model.dim)
            rec_idx += 1

    times = np.array(sorted(laws.keys()))
    return Flow(times, tuple(laws[t] for t in times))


@dataclass(frozen=True)
class MomentReport:
    """Fitted displacement-moment law E|X_t - X_{t0}|^p ~ C (t - t0)^alpha."""

    p: float
    times: np.ndarray
    moments: np.ndarray
    alpha: float
    C: float
    alpha_floor: float

    @property
    def passed(self) -> bool:
        return self.alpha >= self.alpha_floor

    def to_json(self) -> dict:
        return {
            "p": self.p, "times": self.times.tolist(), "moments": self.moments.tolist(),
            "alpha": self.alpha, "C": self.C, "alpha_floor": self.alpha_floor,
            "passed": self.passed,
        }


def moment_check_nnt(model: Model, mu_flow: Flow, nu_flow: Flow, init: Measure,
                     cfg: SimConfig, p: float, record_times=None,
                     tolerance: float = 0.1) -> MomentReport:
    """Fit C, alpha in E|X_{t0,t} - X_{t0}|^p <= C (t - t0)^alpha.

    The boundedness of the coefficients forces alpha >= p/2; the report
    flags whether the fitted exponent clears p/2 - tolerance.  Record times
    default to eight log-spaced horizons resolved by the step size.
    """
    if p <= 0:
        raise DomainError("moment order p must be positive")
    span = cfg.t1 - cfg.t0
    if record_times is None:
        lo = max(8 * cfg.dt, span * 1e-3)
        record_times = cfg.t0 + np.geomspace(lo, span, 8)
    rt = np.union1d(np.asarray(record_times, dtype=float), [cfg.t0])
    flow = simulate_frozen(model, mu_flow, nu_flow, init, cfg, record_times=rt)
    x0 = flow.measures[0].points
    times, moments = [], []
    for t, m in zip(flow.times, flow.measures):
        if t <= cfg.t0 + _TIME_TOL:
            continue
        disp = np.linalg.norm(m.points - x0, axis=1)
        times.append(t - cfg.t0)
        moments.append(float(np.mean(disp**p)))
    times = np.array(times)
    moments = np.array(moments)
    slope, intercept = np.polyfit(np.log(times), np.log(moments), 1)
    return MomentReport(
        p=p, times=times, moments=moments,
        alpha=float(slope), C=float(math.exp(intercept)),
        alpha_floor=p / 2 - tolerance,
    )
