"""The per-sample audit loop that ``lipschitz_audit`` replaced, kept as its oracle.

``reference_audit`` is the loop as it stood before the audit became one
pass over all samples, and ``reference_variation`` the dict-based
k-variation it called (``metrics.weighted_variation_atoms``, which returned
this value in a ``DistanceReport``).  Both are copied verbatim except for
their names, that one call and the return type.  ``lipschitz_audit`` must
give the same ``AuditReport`` bit for bit, and raise the same exceptions.
"""

import math

import numpy as np

from mvsde import metrics
from mvsde.coefficients import AuditReport, Model, drift_batch, sigma_batch
from mvsde.errors import AuditError, DomainError
from mvsde.measures import Measure


def reference_variation(m1: Measure, m2: Measure, theta: float = 0.0) -> float:
    """Exact sup over |f| <= 1+|.|^theta on atomic measures.

    Atoms are matched by exact coordinate equality (inputs are constructed,
    not measured, so fuzzy matching would hide bugs).
    """
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    if m1 is m2:
        return 0.0
    table: dict = {}
    for pts, w, sign in ((m1.points, m1.weights, 1.0), (m2.points, m2.weights, -1.0)):
        for p, wi in zip(pts, w):
            key = tuple(p.tolist())
            table[key] = table.get(key, 0.0) + sign * wi
    val = 0.0
    for key, dw in table.items():
        r = math.sqrt(sum(c * c for c in key))
        val += abs(dw) * (1.0 if theta == 0 else 1.0 + r**theta)
    return val


def _random_measure(rng, dim: int, n_atoms: int = 8) -> Measure:
    pts = rng.uniform(-3.0, 3.0, size=(n_atoms, dim))
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return Measure.from_points(pts, w)


def reference_audit(model: Model, n_samples: int = 1000, seed: int = 0,
                    raise_on_failure: bool = True) -> AuditReport:
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    c = model.constants
    ratios = {"a1_space": 0.0, "a1_measure": 0.0, "a2": 0.0, "a3": 0.0}
    witnesses = {}
    eig_lo, eig_hi = math.inf, -math.inf
    b_max = 0.0

    def _sigma_vec(t, x, mu):
        return sigma_batch(model, t, x.reshape(1, -1), mu)[0]

    eval_failure = None
    for i in range(n_samples):
        t = rng.uniform(0.0, 1.0)
        x = rng.normal(scale=2.0, size=model.dim)
        y = rng.normal(scale=2.0, size=model.dim)
        mu1 = _random_measure(rng, model.dim)
        mu2 = _random_measure(rng, model.dim)

        w_eta = metrics.wasserstein_eta(mu1, mu2, c.eta).value
        # eta == k: both are one distance, computed once (as in metrics.transport).
        w_k = w_eta if c.k == c.eta else metrics.wasserstein(mu1, mu2, c.k).value
        kvar = reference_variation(mu1, mu2, c.k)

        try:
            s_x1 = _sigma_vec(t, x, mu1)
            s_y1 = _sigma_vec(t, y, mu1)
            s_x2 = _sigma_vec(t, x, mu2)
            s_y2 = _sigma_vec(t, y, mu2)
            b_x1 = drift_batch(model, t, x.reshape(1, -1), mu1)[0]
            b_x2 = drift_batch(model, t, x.reshape(1, -1), mu2)[0]
        except AuditError as exc:
            # A declared-constant violation at a sample point is itself an
            # audit failure, with the offending sample as witness.
            eval_failure = {"sample": i, "t": t, "x": x.tolist(), "error": str(exc)}
            break

        sq = np.concatenate([s_x1**2, s_y1**2, s_x2**2, s_y2**2])
        eig_lo = min(eig_lo, float(sq.min()))
        eig_hi = max(eig_hi, float(sq.max()))
        b_max = max(b_max, float(np.linalg.norm(b_x1)), float(np.linalg.norm(b_x2)))

        dx = float(np.linalg.norm(x - y))
        checks = []
        if dx > 1e-9:
            checks.append(("a1_space", float(np.max(np.abs(s_x1 - s_y1))), dx**c.beta))
        if w_eta + w_k > 1e-9:
            checks.append(("a1_measure", float(np.max(np.abs(s_x1 - s_x2))), w_eta + w_k))
            if dx > 1e-9:
                mixed = np.max(np.abs((s_x1**2 - s_y1**2) - (s_x2**2 - s_y2**2)))
                checks.append(("a3", float(mixed), dx**c.beta * (w_eta + w_k)))
        if kvar + w_k > 1e-9:
            checks.append(("a2", float(np.linalg.norm(b_x1 - b_x2)), kvar + w_k))
        for name, num, den in checks:
            r = num / den
            if r > ratios[name]:
                ratios[name] = r
                witnesses[name] = {
                    "sample": i, "t": t, "x": x.tolist(), "y": y.tolist(), "ratio": r,
                }

    flags = {
        "sigma_space_free": model.sigma_space_free,
        "sigma_measure_free": model.sigma_measure_free,
        "drift_measure_free": model.drift_measure_free,
    }
    failures = []
    if eval_failure is not None:
        failures.append(("evaluation", eval_failure))
    if max(ratios.values()) > c.K:
        worst = max(ratios, key=ratios.get)
        failures.append((worst, witnesses.get(worst)))

    report = AuditReport(
        model=model.name,
        n_samples=n_samples,
        seed=seed,
        ratios=ratios,
        ellipticity=(eig_lo, eig_hi),
        b_max=b_max,
        declared_K=c.K,
        flags=flags,
        passed=not failures,
        witness=None if not failures else {failures[0][0]: failures[0][1]},
    )
    if failures and raise_on_failure:
        raise AuditError(f"model {model.name!r} failed audit: {report.witness}")
    return report
