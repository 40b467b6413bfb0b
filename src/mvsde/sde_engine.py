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
from .measures import TIME_TOL, Flow, Measure, left_node, resample

_INIT_STREAM = 0x517CC1B727220A95  # sub-stream tag for initial-condition resampling


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``crn`` couples noise across compared runs.

    The run takes ``round((t1 - t0) / dt)`` steps of size ``dt`` and pins the
    last node to ``t1``, so a ``dt`` that does not divide ``t1 - t0`` leaves a
    ragged last step (t1 = 0.0625, dt = 1e-3: 62 steps, the last 0.0015 long).
    """

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


def step_times(cfg: SimConfig) -> np.ndarray:
    """Step nodes t0 + i dt, the last pinned to t1 (see :class:`SimConfig`)."""
    n_steps = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    times[-1] = cfg.t1
    return times


def _schedule(cfg: SimConfig, record_times: np.ndarray) -> np.ndarray:
    grid = np.union1d(step_times(cfg), record_times)
    # Collapse nodes closer than the time tolerance.
    keep = np.concatenate(([True], np.diff(grid) > TIME_TOL))
    return grid[keep]


def _record_nodes(grid: np.ndarray, record_times: np.ndarray) -> list:
    """Schedule node index of each (sorted, distinct) record time.

    Raises :class:`DomainError` when the schedule merged a record time into
    another node, so that fewer laws than asked for would come back.
    """
    nodes = []
    for i, t in enumerate(grid):
        if len(nodes) < len(record_times) and abs(t - record_times[len(nodes)]) <= TIME_TOL:
            nodes.append(i)
    if len(nodes) < len(record_times):
        lost = record_times[len(nodes)]
        raise DomainError(
            f"record time {lost!r} lies within {TIME_TOL} of another record time "
            "or step node")
    return nodes


def _coefficient(batch, model: Model, exprs, flow: Flow, grid: np.ndarray):
    """Per-step evaluator ``(step, X) -> rows`` of one coefficient.

    Trees that read the state are evaluated on all of X at every step.  The
    others are evaluated on ``X[:1]``, whose one row equals every row and
    broadcasts in the Euler update: at every step if they read the time,
    else only when the step's flow measure changes.
    """
    measures = [flow.measures[left_node(flow.times, t)] for t in grid[:-1]]
    space = any(e.uses_space() for e in exprs)
    held = not space and not any(e.uses_time() for e in exprs)
    last = rows = None  # measure and rows of the last evaluation

    def at(step, X):
        nonlocal last, rows
        m = measures[step]
        if not (held and m is last):
            rows = batch(model, grid[step], X if space else X[:1], m)
            last = m
        return rows

    return at


def simulate_frozen(model: Model, mu_flow: Flow, nu_flow: Flow, init: Measure,
                    cfg: SimConfig, record_times) -> Flow:
    """Euler-Maruyama for X' = b(X, mu_t) dt + sigma(X, nu_t) dW on [t0, t1].

    Returns the empirical law at every record time, each in [t0, t1] and
    further than the time tolerance from the others.  Deterministic, and
    bit-identical across runs sharing (seed, schedule) when crn is set.
    Drift and diffusion are evaluated once per row, flow node or step,
    according to what their expression trees read.
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

    rt = np.asarray(record_times, dtype=float).ravel()
    if rt.size == 0:
        raise DomainError("record_times must be non-empty")
    if rt.min() < cfg.t0 - TIME_TOL or rt.max() > cfg.t1 + TIME_TOL:
        raise DomainError("record_times must lie within [t0, t1]")
    rt = np.unique(rt)

    grid = _schedule(cfg, rt)
    recorded = set(_record_nodes(grid, rt))
    sigma = _coefficient(sigma_batch, model, model.diffusion.exprs, nu_flow, grid)
    drift = (_coefficient(drift_batch, model, model.drift, mu_flow, grid)
             if model.constants.b_sup > 0 else None)
    extra = 0 if cfg.crn else _content_digest(init, mu_flow, nu_flow)
    ensemble = _initial_ensemble(init, cfg.n_particles, cfg.seed)
    X = ensemble.points.copy()
    w = ensemble.weights

    laws = [Measure(X.copy(), w, model.dim)] if 0 in recorded else []
    for step in range(len(grid) - 1):
        h = grid[step + 1] - grid[step]
        dw = _step_noise(cfg.seed, extra, step, X.shape) * math.sqrt(h)
        noise = sigma(step, X) * dw
        if drift is not None:
            X = X + drift(step, X) * h + noise
        else:
            X = X + noise
        if step + 1 in recorded:
            laws.append(Measure(X.copy(), w, model.dim))
    return Flow(rt, tuple(laws))
