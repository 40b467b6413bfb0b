"""Euler-Maruyama simulation of the frozen SDE driven by given measure flows.

The drift reads its measure argument from one flow (mu) and the diffusion
from another (nu); both are looked up piecewise-constantly at the left node.
Noise is generated from counter-based streams keyed by (seed, step index,
particle index) alone, so two runs sharing a seed and a step schedule
consume bit-identical Brownian increments regardless of their flows or
initials -- this is the common-random-numbers coupling used by every
comparison experiment.  Runs that need independent noise use different
seeds.

Because each block is keyed by its step, blocks can be drawn in any order
and on any thread.  A simulation call reads its blocks from one generator,
closed when the call ends: two worker threads draw the blocks ahead into a
ring of up to three buffers, each the size of the call's largest chunk; the
Euler update stays on the calling thread, and no thread outlives the call.
:func:`simulate_many` steps several runs side by side: runs sharing (seed,
particle shape) read one block per step, and runs whose inputs are the
same objects share one state until their step nodes differ.
:func:`simulate_frozen` is its one-run case.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .coefficients import Model, drift_batch, sigma_batch
from .errors import DomainError
from .measures import TIME_TOL, Flow, Measure, left_node, resample

_INIT_STREAM = 0x517CC1B727220A95  # sub-stream tag for initial-condition resampling
_CHUNK_FLOATS = 1 << 16  # normals per chunk: 512 KiB, or one block if larger
# Drawing threads per simulation call: the count measured on a 2-core host.
# The ring holds one buffer more, so it is at most three chunks.
_WORKERS = 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; runs with one ``seed`` share their noise.

    The run takes ``round((t1 - t0) / dt)`` steps of size ``dt`` and pins the
    last node to ``t1``, so a ``dt`` that does not divide ``t1 - t0`` leaves a
    ragged last step (t1 = 0.0625, dt = 1e-3: 62 steps, the last 0.0015 long).
    """

    n_particles: int
    dt: float
    t0: float
    t1: float
    seed: int

    def __post_init__(self):
        if self.n_particles < 1:
            raise DomainError("n_particles must be >= 1")
        if self.t1 <= self.t0:
            raise DomainError("need t1 > t0")
        if not 0 < self.dt <= self.t1 - self.t0:
            raise DomainError("need 0 < dt <= t1 - t0")

    def to_json(self) -> dict:
        # Every run uses common random numbers; the echo keeps summary.json's bytes.
        return {
            "n_particles": self.n_particles, "dt": self.dt, "t0": self.t0,
            "t1": self.t1, "seed": self.seed, "crn": True,
        }


def _draw(blocks) -> None:
    """Fill each ``(key, counter, out)`` block in place with Philox normals.

    Runs on a worker thread, so it calls nothing the benchmark tracer wraps
    and allocates no array of its own: ``out`` is a view into the ring.
    Each block starts from the state of a fresh generator at its key and
    counter, set on one generator per chunk: building a generator per block
    would hold the interpreter lock about seven times longer, and the
    Euler loop waits for that lock.
    """
    bitgen = np.random.Philox(key=blocks[0][0], counter=blocks[0][1])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for key, counter, out in blocks:
        state["state"] = {"counter": counter, "key": key}
        bitgen.state = state
        gen.standard_normal(out=out)


def _noise_ahead(blocks):
    """The noise blocks of one simulation call, drawn ahead on worker threads.

    ``blocks`` lists ``(seed, step, shape)`` in the order the Euler loop
    reads them, and the generator yields them in that order, each a view
    valid until the next one is asked for.  Block ``step`` of stream
    ``seed`` is the Philox stream with key (seed, 0) and the step in the
    most significant counter word, so streams never collide however many
    draws one step consumes.  Blocks are packed in reading order into
    chunks of about 512 KiB (one block if larger); up to ``_WORKERS + 1``
    buffers the size of the largest chunk, allocated here on the calling
    thread, are refilled in place while the caller reads the others.
    Closing the generator cancels what is queued and joins the workers.
    """
    cap = max(_CHUNK_FLOATS, max(math.prod(b[2]) for b in blocks))
    chunks = []  # [(seed, step, offset, shape)] per chunk
    used = cap
    for seed, step, shape in blocks:
        if used + math.prod(shape) > cap:
            chunks.append([])
            used = 0
        chunks[-1].append((seed, step, used, shape))
        used += math.prod(shape)
    size = max(b[2] + math.prod(b[3]) for chunk in chunks for b in chunk)
    ring = [np.empty(size) for _ in range(min(_WORKERS + 1, len(chunks)))]
    pool = ThreadPoolExecutor(max_workers=min(_WORKERS, len(chunks)))

    def submit(c):
        """Queue chunk ``c`` into its ring buffer; its future and block views."""
        buf, views, items = ring[c % len(ring)], [], []
        for seed, step, off, shape in chunks[c]:
            views.append(buf[off:off + math.prod(shape)].reshape(shape))
            items.append((np.array([seed % 2**64, 0], dtype=np.uint64),
                          np.array([0, 0, 0, step], dtype=np.uint64), views[-1]))
        return pool.submit(_draw, items), views

    try:
        queued = deque(submit(c) for c in range(len(ring)))
        for c in range(len(chunks)):
            future, views = queued.popleft()
            future.result()
            yield from views
            if c + len(ring) < len(chunks):  # the caller is done with chunk c
                queued.append(submit(c + len(ring)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _step_noise(stream) -> np.ndarray:
    """The next ``(N, d)`` block of ``stream``; valid until the next call.

    The one per-step noise call, made on the calling thread.
    """
    return next(stream)


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


class _Run:
    """One run of :func:`simulate_many`: its schedule, evaluators and state."""

    def __init__(self, model: Model, mu_flow: Flow, nu_flow: Flow, init: Measure,
                 cfg: SimConfig, record_times, ensembles: dict):
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
        self.times = np.unique(rt)

        self.grid = _schedule(cfg, self.times)
        self.steps = len(self.grid) - 1
        self.recorded = set(_record_nodes(self.grid, self.times))
        self.flows = (mu_flow, nu_flow)
        self.dim = model.dim
        self.sigma = _coefficient(sigma_batch, model, model.diffusion.exprs, nu_flow, self.grid)
        self.drift = (_coefficient(drift_batch, model, model.drift, mu_flow, self.grid)
                      if model.constants.b_sup > 0 else None)
        # Runs from the same initial object, count and seed start on one state.
        start = (id(init), cfg.n_particles, cfg.seed)
        if start not in ensembles:
            ensembles[start] = _initial_ensemble(init, cfg.n_particles, cfg.seed)
        ensemble = ensembles[start]
        self.X, self.w = ensemble.points, ensemble.weights
        self.noise = (cfg.seed, self.X.shape)
        self.laws = [Measure(self.X.copy(), self.w, self.dim)] if 0 in self.recorded else []

    def shares(self, step: int) -> tuple:
        """What the update at ``step`` reads besides the noise block."""
        return (id(self.X), *map(id, self.flows), self.grid[step], self.grid[step + 1])

    def update(self, step: int, z: np.ndarray) -> np.ndarray:
        """The state after ``step``, from the unit-variance noise block ``z``."""
        X = self.X
        h = self.grid[step + 1] - self.grid[step]
        noise = self.sigma(step, X) * (z * math.sqrt(h))
        if self.drift is not None:
            return X + self.drift(step, X) * h + noise
        return X + noise

    def take(self, step: int, X: np.ndarray) -> None:
        """Adopt the state after ``step``; record it, or release it at the end."""
        if step + 1 in self.recorded:
            self.laws.append(Measure(X.copy(), self.w, self.dim))
        self.X = X if step + 1 < self.steps else None


def simulate_many(model: Model, runs) -> list:
    """Euler-Maruyama for several runs of one model, stepped side by side.

    Each run is ``(mu_flow, nu_flow, init, cfg, record_times)``; the result
    lists, in run order, the flow :func:`simulate_frozen` returns for each,
    to the bit.  Each run keeps its own schedule.  Runs sharing (seed,
    particle shape) read one noise block per step index, each scaled by its
    own step.  Runs whose initial law, particle count and seed are
    the same objects and values share one state, and one update per step,
    while their flows and step nodes agree: runs up to different horizons
    fork where the shorter schedule's last step begins.
    """
    ensembles = {}
    runs = [_Run(model, *run, ensembles) for run in runs]
    del ensembles  # each state is released when its last run ends
    noises = list(dict.fromkeys(r.noise for r in runs))
    ends = {k: max(r.steps for r in runs if r.noise == k) for k in noises}
    reads = [[k for k in noises if step < ends[k]] for step in range(max(ends.values()))]
    blocks = [(seed, step, shape) for step, keys in enumerate(reads) for seed, shape in keys]
    with closing(_noise_ahead(blocks)) as stream:
        for step, keys in enumerate(reads):
            for key in keys:
                z = _step_noise(stream)
                shared = {}
                for r in runs:
                    if r.noise == key and step < r.steps:
                        shared.setdefault(r.shares(step), []).append(r)
                for group in shared.values():
                    X = group[0].update(step, z)
                    for r in group:
                        r.take(step, X)
    return [Flow(r.times, tuple(r.laws)) for r in runs]


def simulate_frozen(model: Model, mu_flow: Flow, nu_flow: Flow, init: Measure,
                    cfg: SimConfig, record_times) -> Flow:
    """Euler-Maruyama for X' = b(X, mu_t) dt + sigma(X, nu_t) dW on [t0, t1].

    Returns the empirical law at every record time, each in [t0, t1] and
    further than the time tolerance from the others.  Deterministic, and the
    noise is bit-identical across runs sharing (seed, schedule).
    Drift and diffusion are evaluated once per row, flow node or step,
    according to what their expression trees read.  The one-run case of
    :func:`simulate_many`.
    """
    [flow] = simulate_many(model, [(mu_flow, nu_flow, init, cfg, record_times)])
    return flow
