"""Spans and counters around the public calls into each mvsde module.

The tracer replaces a function by a timing wrapper in *every* module that
binds it: ``from .sde_engine import simulate_frozen`` leaves a separate
binding in ``fixed_point`` and ``experiments``, so patching only the home
module would miss those call sites.  Spans (name, start, end, parent) stay in
memory; :func:`layer_metrics` turns one workload run's spans and counters
into the per-layer metrics.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

import numpy as np

SIM = "sde_engine.simulate_frozen"
SOLVE = "fixed_point.solve_mvsde"


class Tracer:
    """Records nested spans and counters for the wrapped functions."""

    def __init__(self):
        self._patched = []     # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        """Drop spans and counters; start of one workload run."""
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = Counter()
        self.sim_outputs = set()
        self._sorted = {}      # id(Measure) -> weakref, measures sorted so far
        self._pairs = {}       # (id, id, k) -> (weakref, weakref)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute, name, after=None) -> int:
        """Wrap ``owner.attribute`` and every other mvsde binding of it.

        ``owner`` is a module or a class; for a module, every ``mvsde.*``
        module attribute that is the same function object is replaced too.
        Returns the number of bindings replaced.
        """
        original = getattr(owner, attribute)
        wrapped = self.wrap(name, original, after)
        targets = [(owner, attribute)]
        if isinstance(owner, types.ModuleType):
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "mvsde" or mod_name.startswith("mvsde.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for mod, key in targets:
            setattr(mod, key, wrapped)
            self._patched.append((mod, key, original))
        return len(targets)

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -- bookkeeping shared by the hooks ---------------------------------

    def seen_sorted(self, m) -> bool:
        """True if this Measure object was sorted earlier in the run; marks it."""
        ref = self._sorted.get(id(m))
        seen = ref is not None and ref() is m
        self._sorted[id(m)] = weakref.ref(m)
        return seen

    def seen_pair(self, m1, m2, k) -> bool:
        key = (id(m1), id(m2), float(k))
        refs = self._pairs.get(key)
        seen = refs is not None and refs[0]() is m1 and refs[1]() is m2
        self._pairs[key] = (weakref.ref(m1), weakref.ref(m2))
        return seen


# -- hooks run after a wrapped call returns ----------------------------------


def _after_noise(tracer, span, args, kwargs, result):
    tracer.counters["noise.draws"] += int(result.size)
    tracer.counters["particle_steps"] += int(result.shape[0])


def _after_simulate(tracer, span, args, kwargs, result):
    h = hashlib.blake2b(np.ascontiguousarray(result.times).tobytes(), digest_size=16)
    for m in result.measures:
        h.update(np.ascontiguousarray(m.points).tobytes())
        h.update(np.ascontiguousarray(m.weights).tobytes())
    tracer.sim_outputs.add(h.digest())


def _after_density(tracer, span, args, kwargs, result):
    tracer.counters["coverage_warnings"] += int(bool(result.coverage_warning))


def _after_w1d(tracer, span, args, kwargs, result):
    m1, m2, k = args[0], args[1], args[2] if len(args) > 2 else kwargs["k"]
    if tracer.seen_pair(m1, m2, k):
        tracer.counters["w.repeat_pairs"] += 1
    if m1 is m2:  # returns zero without sorting
        return
    for m in (m1, m2):
        tracer.counters["w1d.sorts"] += 1
        tracer.counters["w1d.atoms_sorted"] += int(m.n)
        tracer.counters["w1d.resorts"] += int(tracer.seen_sorted(m))


def _after_wasserstein(tracer, span, args, kwargs, result):
    # wasserstein() routes concave exponents to wasserstein_eta(); count the
    # outer call only.
    parent = tracer.spans[span[3]][0] if span[3] >= 0 else None
    if result.subsample is not None and parent not in ("metrics.wasserstein",
                                                       "metrics.wasserstein_eta"):
        tracer.counters["subsampled_calls"] += 1


def _after_solve(tracer, span, args, kwargs, result):
    tracer.counters["lambda_escalations"] += int(result.lambda_escalations)


def _after_solve_density(tracer, span, args, kwargs, result):
    tracer.counters["picard_sweeps"] += int(result.iterations)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured module."""
    from mvsde import (coefficients, duhamel, experiments, fixed_point, measures,
                       metrics, sde_engine)

    tracer.patch(sde_engine, "simulate_frozen", SIM, _after_simulate)
    tracer.patch(sde_engine, "_step_noise", "sde_engine.noise", _after_noise)
    tracer.patch(coefficients, "drift_batch", "coefficients.drift_batch")
    tracer.patch(coefficients, "sigma_batch", "coefficients.sigma_batch")
    tracer.patch(coefficients, "lipschitz_audit", "coefficients.lipschitz_audit")
    tracer.patch(measures, "to_density", "measures.to_density", _after_density)
    tracer.patch(measures, "resample", "measures.resample")
    tracer.patch(measures, "pooled_grid", "measures.pooled_grid")
    tracer.patch(metrics, "wasserstein_1d", "metrics.wasserstein_1d", _after_w1d)
    tracer.patch(metrics, "wasserstein", "metrics.wasserstein", _after_wasserstein)
    tracer.patch(metrics, "wasserstein_eta", "metrics.wasserstein_eta", _after_wasserstein)
    tracer.patch(metrics, "ot_lp", "metrics.ot_lp")
    tracer.patch(metrics, "weighted_variation", "metrics.weighted_variation")
    tracer.patch(fixed_point, "solve_mvsde", SOLVE, _after_solve)
    tracer.patch(fixed_point, "psi_map", "fixed_point.psi_map")
    tracer.patch(fixed_point, "inner_solve", "fixed_point.inner_solve")
    tracer.patch(fixed_point, "estimate_noise_floor", "fixed_point.noise_floor")
    tracer.patch(fixed_point._MetricContext, "rho", "fixed_point.rho")
    tracer.patch(fixed_point._MetricContext, "rho_tilde", "fixed_point.rho_tilde")
    tracer.patch(duhamel, "solve_density", "duhamel.solve_density", _after_solve_density)
    tracer.patch(experiments, "parse_config", "experiments.parse_config")
    tracer.patch(experiments, "shared_grid_tv", "experiments.shared_grid_tv")
    tracer.patch(experiments, "emit_report", "experiments.emit_report")


# -- per-layer metrics -------------------------------------------------------

# name -> unit; the order is the order of printing.
PER_LAYER = {
    "sde_engine.simulate_frozen.calls": "count",
    "sde_engine.simulate_frozen.busy_s": "s",
    "sde_engine.simulate_frozen.self_s": "s",
    "sde_engine.noise.calls": "count",
    "sde_engine.noise.busy_s": "s",
    "sde_engine.noise.draws": "count",
    "sde_engine.particle_steps": "count",
    "sde_engine.ns_per_particle_step": "ns",
    "sde_engine.distinct_output_ratio": "ratio",
    "coefficients.drift_batch.calls": "count",
    "coefficients.drift_batch.busy_s": "s",
    "coefficients.sigma_batch.calls": "count",
    "coefficients.sigma_batch.busy_s": "s",
    "coefficients.lipschitz_audit.calls": "count",
    "coefficients.lipschitz_audit.busy_s": "s",
    "measures.to_density.calls": "count",
    "measures.to_density.busy_s": "s",
    "measures.to_density.coverage_warnings": "count",
    "measures.resample.calls": "count",
    "measures.resample.busy_s": "s",
    "measures.pooled_grid.calls": "count",
    "measures.pooled_grid.busy_s": "s",
    "metrics.wasserstein_1d.calls": "count",
    "metrics.wasserstein_1d.busy_s": "s",
    "metrics.wasserstein_1d.atoms_sorted": "count",
    "metrics.wasserstein_1d.resort_ratio": "ratio",
    "metrics.repeat_pair_ratio": "ratio",
    "metrics.ot_lp.calls": "count",
    "metrics.ot_lp.busy_s": "s",
    "metrics.subsampled_calls": "count",
    "metrics.weighted_variation.calls": "count",
    "metrics.weighted_variation.busy_s": "s",
    "fixed_point.solve_mvsde.calls": "count",
    "fixed_point.solve_mvsde.busy_s": "s",
    "fixed_point.sims_per_solve": "count",
    "fixed_point.inner_sweeps": "count",
    "fixed_point.outer_sweeps": "count",
    "fixed_point.lambda_escalations": "count",
    "fixed_point.noise_floor.busy_s": "s",
    "fixed_point.rho.calls": "count",
    "fixed_point.rho.busy_s": "s",
    "fixed_point.rho_tilde.calls": "count",
    "fixed_point.rho_tilde.busy_s": "s",
    "duhamel.solve_density.calls": "count",
    "duhamel.solve_density.busy_s": "s",
    "duhamel.picard_sweeps": "count",
    "experiments.parse_config.busy_s": "s",
    "experiments.shared_grid_tv.calls": "count",
    "experiments.shared_grid_tv.busy_s": "s",
    "experiments.emit_report.busy_s": "s",
    "experiments.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer metrics of one traced workload run (without the trace.* ones)."""
    spans = tracer.spans
    calls = Counter()
    busy = defaultdict(float)
    covered = defaultdict(float)   # span index -> time covered by direct children
    sims_in_solve = 0
    for span in spans:
        name, start, end, parent = span
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start
        # Busy time counts the outermost span of a name once.
        outer, inside_solve = True, False
        p = parent
        while p >= 0:
            outer = outer and spans[p][0] != name
            inside_solve = inside_solve or spans[p][0] == SOLVE
            p = spans[p][3]
        if outer:
            busy[name] += end - start
        if name == SIM and inside_solve:
            sims_in_solve += 1
    sim_self = sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans) if s[0] == SIM)
    c = tracer.counters
    out = {}
    for key in PER_LAYER:
        if key.endswith(".calls"):
            out[key] = calls[key[: -len(".calls")]]
        elif key.endswith(".busy_s"):
            out[key] = busy[key[: -len(".busy_s")]]
    out.update({
        "sde_engine.simulate_frozen.self_s": sim_self,
        "sde_engine.noise.draws": c["noise.draws"],
        "sde_engine.particle_steps": c["particle_steps"],
        "sde_engine.ns_per_particle_step": 1e9 * _ratio(busy[SIM], c["particle_steps"]),
        "sde_engine.distinct_output_ratio": _ratio(len(tracer.sim_outputs), calls[SIM]),
        "measures.to_density.coverage_warnings": c["coverage_warnings"],
        "metrics.wasserstein_1d.atoms_sorted": c["w1d.atoms_sorted"],
        "metrics.wasserstein_1d.resort_ratio": _ratio(c["w1d.resorts"], c["w1d.sorts"]),
        "metrics.repeat_pair_ratio": _ratio(c["w.repeat_pairs"],
                                            calls["metrics.wasserstein_1d"]),
        "metrics.subsampled_calls": c["subsampled_calls"],
        "fixed_point.sims_per_solve": _ratio(sims_in_solve, calls[SOLVE]),
        "fixed_point.inner_sweeps": calls["fixed_point.psi_map"],
        "fixed_point.outer_sweeps": calls["fixed_point.inner_solve"],
        "fixed_point.lambda_escalations": c["lambda_escalations"],
        "duhamel.picard_sweeps": c["picard_sweeps"],
        "experiments.bytes_written": bytes_written,
    })
    return out
