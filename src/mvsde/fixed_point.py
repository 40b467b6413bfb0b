"""Two-step fixed point for the McKean-Vlasov SDE.

Inner map: for a fixed drift flow mu, iterate the diffusion's measure
argument nu -> Law(X^{gamma,mu,nu}) to the self-consistent flow (Banach
under the exponentially weighted transport metric rho_lambda).  Outer map:
iterate the drift flow mu -> law flow of the intermediate SDE (contractive
under rho-tilde_lambda, whose variation part is estimated from shared-grid
KDEs between simulated laws).

All simulations run with common random numbers, so successive iterates are
coupled and their distances carry little Monte Carlo noise.  Distances on
empirical flows resample each node to a fixed small support before the
exact transport solvers run; the resample seed is fixed per solve.  Each
flow is thinned once and each law smoothed once per solve, so a distance
between one flow and itself compares one object with itself and is 0.0
without further work.

Under common random numbers a simulation's output depends only on the
initial law, the seed, the step schedule and the flows its coefficients
read, so a solve never re-runs a simulation whose result it already holds:
the noise floor's first run is the first inner sweep, a diffusion that
ignores its measure makes every later inner sweep repeat the first, and a
drift that ignores its measure makes every later outer iterate repeat the
first.  The recorded distances, ratios and solution are those of the full
iteration.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import Model
from .errors import ConvergenceError, DomainError
from . import metrics
from .measures import Flow, Measure, moment_k, pooled_grid, resample, to_density
from .sde_engine import SimConfig, simulate_frozen, step_times

SOLVE_TOL = 0.05          # fixed-point tolerance of every solve no config overrides
OT_ATOMS = 256            # per-node resample size before exact OT
MAX_NODES = 65            # time nodes of an iteration flow
MAX_INNER_ITER = 30
MAX_OUTER_ITER = 25
MAX_LAMBDA_DOUBLINGS = 10
NONCONTRACTION_STRIKES = 3
_METRIC_SEED = 411


@dataclass
class _MetricContext:
    """Per-solve fixed choices making iteration distances comparable.

    Each flow is thinned once and each node law smoothed once per context;
    both memos hold their keys weakly, so no flow outlives the iteration.
    """

    k: float
    eta: float
    lam: float
    grid: object = field(default=None, init=False)
    bandwidth: object = field(default=None, init=False)
    _thinned: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)
    _smoothed: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def _thin(self, flow: Flow) -> Flow:
        thinned = self._thinned.get(flow)
        if thinned is None:
            thinned = self._thinned[flow] = flow.resampled(OT_ATOMS, _METRIC_SEED)
        return thinned

    def rho(self, f1: Flow, f2: Flow) -> float:
        return metrics.rho_lambda(self._thin(f1), self._thin(f2), self.lam, self.k, self.eta)

    def rho_tilde(self, f1: Flow, f2: Flow) -> float:
        """rho-tilde_lambda with W_k on resampled nodes and the variation on KDEs."""
        if self.grid is None:
            # Fix grid and bandwidth once, from the first pooled node sample.
            self.grid, self.bandwidth = pooled_grid(
                [resample(m, OT_ATOMS, _METRIC_SEED) for m in f1.measures + f2.measures])
        wk = metrics.node_distances(self._thin(f1), self._thin(f2),
                                    lambda a, b: metrics.wasserstein(a, b, self.k).value)
        var = metrics.node_distances(f1, f2, self._variation)
        return metrics.sup_discounted(f1.times, [w + v for w, v in zip(wk, var)], self.lam)

    def _smooth(self, m: Measure):
        density = self._smoothed.get(m)
        if density is None:
            density = self._smoothed[m] = to_density(m, grid=self.grid,
                                                     bandwidth=self.bandwidth)
        return density

    def _variation(self, a: Measure, b: Measure) -> float:
        return metrics.weighted_variation(self._smooth(a), self._smooth(b), self.k).value


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a fixed-point solve with its contraction diagnostics."""

    solution: Flow
    contraction_history: dict
    lambda_used: float
    lambda_escalations: int
    noise_floor: float
    tol_requested: float

    @property
    def inner_iterations(self) -> tuple:
        return tuple(info["iterations"] for info in self.contraction_history["inner"])

    @property
    def outer_iterations(self) -> int:
        return len(self.contraction_history["outer_distances"])

    @property
    def tol_used(self) -> float:
        return _effective_tol(self.tol_requested, self.noise_floor)

    def to_json(self) -> dict:
        return {
            "times": self.solution.times.tolist(),
            "inner_iterations": list(self.inner_iterations),
            "outer_iterations": self.outer_iterations,
            "contraction_history": self.contraction_history,
            "lambda_used": self.lambda_used,
            "lambda_escalations": self.lambda_escalations,
            "noise_floor": self.noise_floor,
            "tol_requested": self.tol_requested,
            "tol_used": self.tol_used,
        }


def _effective_tol(tol: float, floor: float) -> float:
    """The requested tolerance, raised to three times the metric noise floor."""
    return max(tol, 3.0 * floor)


def solver_grid(cfg: SimConfig) -> np.ndarray:
    """Node grid for iteration flows: the simulation steps at one stride, t1 included."""
    steps = step_times(cfg)
    n_steps = len(steps) - 1
    stride = max(1, int(math.ceil(n_steps / (MAX_NODES - 1))))
    idx = np.arange(0, n_steps + 1, stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return steps[idx]


def _iterate(step, dist, x, tol: float, max_iter: int, floor: float):
    """Picard iteration x <- step(x) until dist(x, step(x)) < tol.

    Returns (last iterate, distances, ratios, failure reason or None).  A
    ratio of successive distances is recorded when both exceed ``floor``;
    NONCONTRACTION_STRIKES ratios >= 1 in a row end the iteration.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    distances, ratios = [], []
    strikes = 0
    for _ in range(max_iter):
        x_next = step(x)
        d = dist(x, x_next)
        if distances and distances[-1] > floor and d > floor:
            ratios.append(d / distances[-1])
            strikes = strikes + 1 if ratios[-1] >= 1.0 else 0
        distances.append(d)
        x = x_next
        if strikes >= NONCONTRACTION_STRIKES:
            return x, distances, ratios, (
                f"failed to contract (ratios {ratios[-NONCONTRACTION_STRIKES:]})")
        if d < tol:
            return x, distances, ratios, None
    return x, distances, ratios, (
        f"exceeded {max_iter} sweeps (last distance {distances[-1]:.3g})")


def psi_map(model: Model, gamma: Measure, mu_flow: Flow, nu_flow: Flow,
            cfg: SimConfig) -> Flow:
    """One application of the inner map: the law flow of the frozen SDE."""
    return simulate_frozen(model, mu_flow, nu_flow, gamma, cfg,
                           record_times=nu_flow.times)


def inner_solve(model: Model, gamma: Measure, mu_flow: Flow, cfg: SimConfig,
                lam: float, tol: float, metric: _MetricContext | None = None,
                first_sweep: Flow | None = None):
    """Iterate nu <- psi(nu) from the constant-in-time initial law.

    Returns (fixed flow, info dict with distances/ratios/iterations).  Every
    two successive distances give a ratio (0.0 once a sweep reproduces its
    input); three ratios >= 1 in a row, or MAX_INNER_ITER sweeps, raise
    :class:`ConvergenceError` with the distances.  ``first_sweep``, when
    given, is psi of the constant initial flow, already simulated.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    c = model.constants
    metric = metric or _MetricContext(k=c.k, eta=c.eta, lam=lam)
    repeats = cfg.crn and model.sigma_measure_free

    def psi(nu):
        nonlocal first_sweep
        flow = first_sweep if first_sweep is not None else psi_map(
            model, gamma, mu_flow, nu, cfg)
        first_sweep = flow if repeats else None
        return flow

    nu, distances, ratios, failure = _iterate(
        psi, metric.rho, Flow.constant(gamma, mu_flow.times), tol, MAX_INNER_ITER, -math.inf)
    if failure is not None:
        raise ConvergenceError(f"inner iteration at lambda={lam} {failure}",
                               history=distances)
    return nu, {"iterations": len(distances), "distances": distances, "ratios": ratios}


def lambda_schedule(constants, gamma_moment: float = 1.0, escalations: int = 0) -> float:
    """Starting lambda mirroring the layered thresholds with fitted constants 1.

    lambda0 = 1 v (2 Gamma(beta/2))^(2/beta);
    lambda1 = lambda0 v (3 M)^(2/(beta ^ eta));
    lambda2 = lambda1 v (2 M^2)^(2/(beta ^ eta)),  M = gamma(1 + |.|^k).

    Doubles per observed non-contraction escalation, capped at 2^10.
    """
    if gamma_moment <= 0:
        raise DomainError("gamma moment must be positive")
    beta, eta = constants.beta, constants.eta
    be = min(beta, eta)
    lam0 = max(1.0, (2.0 * math.gamma(beta / 2.0)) ** (2.0 / beta))
    lam1 = max(lam0, (3.0 * gamma_moment) ** (2.0 / be))
    lam2 = max(lam1, (2.0 * gamma_moment**2) ** (2.0 / be))
    return lam2 * 2.0 ** min(escalations, MAX_LAMBDA_DOUBLINGS)


def gamma_weight(gamma: Measure, k: float) -> float:
    """gamma(1 + |.|^k), the moment weight entering the lambda thresholds."""
    return 1.0 + moment_k(gamma, k) ** max(k, 1.0)


def estimate_noise_floor(model: Model, gamma: Measure, cfg: SimConfig,
                         metric: _MetricContext, nodes: np.ndarray) -> tuple:
    """rho-tilde between two decoupled simulations of identical inputs.

    Captures the resample-OT and KDE estimation noise that iteration
    distances cannot fall below.  Returns (floor, first simulation); the
    first runs on the configured seed with constant-gamma flows.
    """
    base = Flow.constant(gamma, nodes)
    flows = []
    for seed_shift in (0, 1):
        cfg_i = replace(cfg, seed=cfg.seed + 7919 * seed_shift, crn=True)
        flows.append(simulate_frozen(model, base, base, gamma, cfg_i,
                                     record_times=nodes))
    return metric.rho_tilde(flows[0], flows[1]), flows[0]


def solve_mvsde(model: Model, gamma: Measure, cfg: SimConfig,
                tol: float = SOLVE_TOL) -> SolveReport:
    """Outer Picard iteration mu <- phi(mu) under rho-tilde_lambda.

    The effective tolerance is raised to three times the estimated metric
    noise floor when the request undercuts it (both are reported); ratios
    are recorded only between distances above that floor.  Observed
    non-contraction doubles lambda (up to 2^10) and restarts the outer loop.
    The model is trusted: callers audit it first (``run_experiment`` does).
    """
    if gamma.dim != model.dim:
        raise DomainError("initial law dimension does not match the model")
    c = model.constants
    nodes = solver_grid(cfg)
    weight = gamma_weight(gamma, c.k)
    for escalations in range(MAX_LAMBDA_DOUBLINGS + 1):
        lam = lambda_schedule(c, weight, escalations)
        metric = _MetricContext(k=c.k, eta=c.eta, lam=lam)
        floor, first_sweep = estimate_noise_floor(model, gamma, cfg, metric, nodes)
        tol_eff = _effective_tol(tol, floor)
        if not cfg.crn:
            first_sweep = None  # the sweeps' noise is keyed by their inputs
        repeats = cfg.crn and model.drift_measure_free
        known = None  # (flow, info) of the first inner solve, when phi ignores mu
        inner = []

        def phi(mu):
            # phi(mu) is the inner fixed point: the intermediate SDE's law drives its sigma.
            nonlocal first_sweep, known
            mu_next, info = known or inner_solve(model, gamma, mu, cfg, lam, tol_eff,
                                                 metric=metric, first_sweep=first_sweep)
            first_sweep = None
            known = (mu_next, info) if repeats else None
            inner.append(info)
            return mu_next

        mu, distances, ratios, failure = _iterate(
            phi, metric.rho_tilde, Flow.constant(gamma, nodes), tol_eff,
            MAX_OUTER_ITER, floor)
        if failure is None:
            history = {"outer_distances": distances, "outer_ratios": ratios, "inner": inner}
            return SolveReport(solution=mu, contraction_history=history, lambda_used=lam,
                               lambda_escalations=escalations, noise_floor=floor,
                               tol_requested=tol)
    raise ConvergenceError(
        f"no contraction up to lambda={lam} (outer iteration {failure}); "
        "reduce the horizon or increase the particle count",
        history=distances,
    )
