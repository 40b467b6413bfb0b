"""Declarative drift/diffusion models and the numerical audit of their constants.

A model declares drift components b_t(x, mu) and a diffusion sigma_t(x, mu)
as small composition trees over: constants, the time variable, coordinates,
the Euclidean norm, tanh / arctan, a min-with-1 clamp, linear combinations,
and integral functionals mu(psi) of the measure argument.  This is the
constructive class realizing the standing Lipschitz hypotheses: drift
functionals psi with growth <= 1+|y|^k give k-weighted-variation Lipschitz
drift, and diffusion functionals h that are Hoelder/growth-bounded give
transport-Lipschitz diffusion.

JSON schema (see ``Model.from_json``)::

    {"name": str, "dim": int,
     "drift": [<expr>, ...],                       # one expr per component
     "diffusion": {"kind": "scalar"|"diag", "exprs": [<expr>, ...]},
     "constants": {"K":, "k":, "eta":, "beta":, "b_sup":}}

    <expr> := {"op": "const", "value": float}
            | {"op": "time"} | {"op": "coord", "index": int} | {"op": "norm"}
            | {"op": "abs"|"tanh"|"arctan"|"min1", "arg": <expr>}
            | {"op": "lincomb", "const": float,
               "terms": [{"coef": float, "arg": <expr>}, ...]}
            | {"op": "integral", "arg": <expr>}    # arg is a function of y only

``name``, the diffusion ``kind`` (default scalar), the lincomb ``const``
(default 0) and ``terms`` (default none) are optional.  Loading rejects an
unknown or missing key in any object, a coord index outside [0, dim), a
number that is not a finite JSON number, and a nested integral, with a
:class:`ConfigError` carrying the JSON pointer of the offending field.

Each node lists its sub-expressions in x as ``children``; the base class
derives ``uses_space``, ``uses_measure`` and ``uses_time`` from one walk
over them.  Nodes override only where they differ: ``Coord`` and ``Norm``
read the state, ``TimeVar`` reads the time, and ``Integral`` reads the
measure and is a leaf, its argument being a function of the integration
variable, not of x; it reads the time when its argument does, since psi is
evaluated at t.
"""

from __future__ import annotations

import json
import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (AuditError, ConfigError, DomainError, NumericsError, check_integer,
                     check_list, check_number, check_object, check_tagged)
from .measures import Measure
from . import metrics

_SPECTRUM_SLACK = 1e-9
_BSUP_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    """Base class for composition nodes; subclasses are immutable.

    The structural queries walk ``children`` (see the module docstring).
    """

    children = ()

    def evaluate(self, t, points, measure):
        """Vectorized value over ``points`` of shape (n, d); returns (n,)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def uses_space(self) -> bool:
        return any(c.uses_space() for c in self.children)

    def uses_measure(self) -> bool:
        return any(c.uses_measure() for c in self.children)

    def uses_time(self) -> bool:
        return any(c.uses_time() for c in self.children)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, t, points, measure):
        return np.full(points.shape[0], float(self.value))

    def to_json(self):
        return {"op": "const", "value": self.value}


@dataclass(frozen=True)
class TimeVar(Expr):
    def evaluate(self, t, points, measure):
        return np.full(points.shape[0], float(t))

    def uses_time(self):
        return True

    def to_json(self):
        return {"op": "time"}


class _StateLeaf(Expr):
    """A read of the state variable."""

    def uses_space(self):
        return True


@dataclass(frozen=True)
class Coord(_StateLeaf):
    index: int

    def evaluate(self, t, points, measure):
        return points[:, self.index].astype(float)

    def to_json(self):
        return {"op": "coord", "index": self.index}


@dataclass(frozen=True)
class Norm(_StateLeaf):
    def evaluate(self, t, points, measure):
        return np.linalg.norm(points, axis=1)

    def to_json(self):
        return {"op": "norm"}


# min1 with abs or norm inside builds bounded 1-Lipschitz functionals.
_UNARY = {"abs": np.abs, "tanh": np.tanh, "arctan": np.arctan,
          "min1": lambda v: np.minimum(v, 1.0)}


@dataclass(frozen=True)
class Unary(Expr):
    """A 1-Lipschitz outer map from ``_UNARY`` applied to ``arg``."""

    op: str
    arg: Expr

    @property
    def children(self):
        return (self.arg,)

    def evaluate(self, t, points, measure):
        return _UNARY[self.op](self.arg.evaluate(t, points, measure))

    def to_json(self):
        return {"op": self.op, "arg": self.arg.to_json()}


@dataclass(frozen=True)
class LinComb(Expr):
    const: float
    terms: tuple  # of (coef, Expr)

    @property
    def children(self):
        return tuple(n for _, n in self.terms)

    def evaluate(self, t, points, measure):
        out = np.full(points.shape[0], float(self.const))
        for coef, node in self.terms:
            out = out + coef * node.evaluate(t, points, measure)
        return out

    def to_json(self):
        return {
            "op": "lincomb",
            "const": self.const,
            "terms": [{"coef": c, "arg": n.to_json()} for c, n in self.terms],
        }


@dataclass(frozen=True)
class Integral(Expr):
    """Mean-field functional mu(psi); a leaf to the walk, constant in x.

    ``arg`` (psi) is a function of the integration variable only.
    """

    arg: Expr

    def evaluate(self, t, points, measure):
        if measure is None:
            raise DomainError("integral functional evaluated without a measure")
        vals = self.arg.evaluate(t, measure.points, None)
        v = float(np.sum(measure.weights * vals))
        if not math.isfinite(v):
            raise NumericsError(
                f"integral functional {json.dumps(self.arg.to_json())} returned a non-finite value"
            )
        return np.full(points.shape[0], v)

    def uses_measure(self):
        return True

    def uses_time(self):
        return self.arg.uses_time()

    def to_json(self):
        return {"op": "integral", "arg": self.arg.to_json()}


# Keys of each expression node besides "op": (required, optional).
_NODE_KEYS = {
    "const": (("value",), ()),
    "time": ((), ()),
    "coord": (("index",), ()),
    "norm": ((), ()),
    **{op: (("arg",), ()) for op in _UNARY},
    "lincomb": ((), ("const", "terms")),
    "integral": (("arg",), ()),
}


def expr_from_json(spec, dim: int, pointer="") -> Expr:
    """Parse one expression node over a ``dim``-dimensional state.

    Every error names the offending node by its JSON pointer.
    """
    op = check_tagged(spec, pointer, "op", _NODE_KEYS)
    if op == "const":
        return Const(check_number(spec["value"], pointer + "/value"))
    if op == "time":
        return TimeVar()
    if op == "coord":
        return Coord(check_integer(spec["index"], pointer + "/index", 0, dim))
    if op == "norm":
        return Norm()
    if op == "lincomb":
        terms = []
        for i, term in enumerate(check_list(spec.get("terms", []), pointer + "/terms")):
            tp = f"{pointer}/terms/{i}"
            check_object(term, tp, ("coef", "arg"))
            terms.append((check_number(term["coef"], tp + "/coef"),
                          expr_from_json(term["arg"], dim, tp + "/arg")))
        return LinComb(check_number(spec.get("const", 0.0), pointer + "/const"), tuple(terms))
    arg = expr_from_json(spec["arg"], dim, pointer + "/arg")
    if op in _UNARY:
        return Unary(op, arg)
    if arg.uses_measure():
        raise ConfigError("integral functionals must not nest", pointer + "/arg")
    return Integral(arg)


# ---------------------------------------------------------------------------
# Model


_CONSTANT_KEYS = ("K", "k", "eta", "beta", "b_sup")


@dataclass(frozen=True)
class ModelConstants:
    """Declared constants matching the standing assumptions."""

    K: float
    k: float
    eta: float
    beta: float
    b_sup: float

    def __post_init__(self):
        if not self.K > 1:
            raise ConfigError(f"K must exceed 1, got {self.K}", "/constants/K")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}", "/constants/k")
        if not 0 < self.eta <= 1:
            raise ConfigError(f"eta must lie in (0,1], got {self.eta}", "/constants/eta")
        if not 0 < self.beta <= 1:
            raise ConfigError(f"beta must lie in (0,1], got {self.beta}", "/constants/beta")
        if self.b_sup < 0:
            raise ConfigError(f"b_sup must be nonnegative, got {self.b_sup}", "/constants/b_sup")


@dataclass(frozen=True)
class Diffusion:
    """Diffusion spec: sigma = s*I ('scalar', one expr) or diag(s_1..s_d) ('diag')."""

    kind: str
    exprs: tuple

    def __post_init__(self):
        if self.kind not in ("scalar", "diag"):
            raise ConfigError(f"diffusion kind must be 'scalar' or 'diag', got {self.kind!r}",
                              "/diffusion/kind")


@dataclass(frozen=True)
class Model:
    name: str
    dim: int
    drift: tuple  # of Expr, one per component
    diffusion: Diffusion
    constants: ModelConstants

    def __post_init__(self):
        if len(self.drift) != self.dim:
            raise ConfigError(f"drift needs {self.dim} components, got {len(self.drift)}",
                              "/drift")
        want = 1 if self.diffusion.kind == "scalar" else self.dim
        if len(self.diffusion.exprs) != want:
            raise ConfigError(
                f"diffusion kind {self.diffusion.kind!r} needs {want} exprs, "
                f"got {len(self.diffusion.exprs)}", "/diffusion/exprs")

    # Structural flags -----------------------------------------------------

    @property
    def sigma_space_free(self) -> bool:
        return not any(e.uses_space() for e in self.diffusion.exprs)

    @property
    def sigma_measure_free(self) -> bool:
        return not any(e.uses_measure() for e in self.diffusion.exprs)

    @property
    def drift_measure_free(self) -> bool:
        return not any(e.uses_measure() for e in self.drift)

    # Parsing ---------------------------------------------------------------

    @classmethod
    def from_json(cls, spec: dict) -> "Model":
        """Parse and validate a model spec; errors carry a JSON pointer."""
        check_object(spec, "", ("dim", "drift", "diffusion", "constants"), ("name",))
        dim = check_integer(spec["dim"], "/dim", 1)
        consts = check_object(spec["constants"], "/constants", _CONSTANT_KEYS)
        drift = tuple(
            expr_from_json(node, dim, f"/drift/{i}")
            for i, node in enumerate(check_list(spec["drift"], "/drift"))
        )
        diff_spec = check_object(spec["diffusion"], "/diffusion", ("exprs",), ("kind",))
        exprs = tuple(
            expr_from_json(node, dim, f"/diffusion/exprs/{i}")
            for i, node in enumerate(check_list(diff_spec["exprs"], "/diffusion/exprs"))
        )
        return cls(
            name=str(spec.get("name", "model")),
            dim=dim,
            drift=drift,
            diffusion=Diffusion(diff_spec.get("kind", "scalar"), exprs),
            constants=ModelConstants(**{k: check_number(consts[k], "/constants/" + k)
                                        for k in _CONSTANT_KEYS}),
        )


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file is not valid JSON: {exc}") from exc
    return Model.from_json(spec)


# ---------------------------------------------------------------------------
# Evaluation


def drift_batch(model: Model, t: float, points: np.ndarray, m: Measure) -> np.ndarray:
    """Drift at every row of ``points``; returns (n, d).  Checks |b| <= b_sup."""
    points = np.asarray(points, dtype=float)
    cols = [e.evaluate(t, points, m) for e in model.drift]
    b = np.stack(cols, axis=1)
    if not np.all(np.isfinite(b)):
        raise NumericsError("drift evaluation produced non-finite values")
    # np.linalg.norm's own sum of squares; sqrt is monotone, so the max of
    # the norms is the root of the largest sum, to the bit.
    squares = np.add.reduce(b * b, axis=1)
    worst = math.sqrt(squares.max())
    if worst > model.constants.b_sup + _BSUP_SLACK:
        i = int(np.sqrt(squares).argmax())
        raise AuditError(
            f"|b|={worst:.6g} exceeds declared b_sup={model.constants.b_sup} "
            f"at t={t}, x={points[i]}"
        )
    return b


def sigma_batch(model: Model, t: float, points: np.ndarray, m: Measure) -> np.ndarray:
    """Diffusion factors at every row of ``points``.

    Returns shape (n, 1) for a scalar diffusion and (n, d) for a diagonal
    one, so the result broadcasts against (n, d) noise.  Raises
    :class:`AuditError` when the spectrum of sigma sigma* leaves [1/K, K].
    """
    points = np.asarray(points, dtype=float)
    K = model.constants.K
    vals = np.stack(
        [e.evaluate(t, points, m) for e in model.diffusion.exprs], axis=1
    )
    if not np.all(np.isfinite(vals)):
        raise NumericsError("diffusion evaluation produced non-finite values")
    sq = vals**2
    lo, hi = float(sq.min()), float(sq.max())
    if lo < 1.0 / K - _SPECTRUM_SLACK or hi > K + _SPECTRUM_SLACK:
        raise AuditError(
            f"spectrum of sigma*sigma^T in [{lo:.6g}, {hi:.6g}] leaves "
            f"[1/K, K] = [{1.0 / K:.6g}, {K:.6g}] at t={t}"
        )
    return vals


def diffusion_matrix_batch(model: Model, t: float, points: np.ndarray, m: Measure) -> np.ndarray:
    """sigma sigma* diagonal entries at every row; returns (n, d)."""
    return sigma_batch(model, t, points, m) ** 2 * np.ones(model.dim)


# ---------------------------------------------------------------------------
# Audit


@dataclass(frozen=True)
class AuditReport:
    model: str
    n_samples: int
    seed: int
    ratios: dict          # max observed ratio per inequality
    ellipticity: tuple    # (min, max) eigenvalue of sigma sigma* over samples
    b_max: float
    declared_K: float
    flags: dict
    passed: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        return dict(dataclasses.asdict(self), ellipticity=list(self.ellipticity))


def _random_measure(rng, dim: int, n_atoms: int = 8) -> Measure:
    pts = rng.uniform(-3.0, 3.0, size=(n_atoms, dim))
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return Measure.from_points(pts, w)


def lipschitz_audit(model: Model, n_samples: int = 1000, seed: int = 0,
                    raise_on_failure: bool = True) -> AuditReport:
    """Sampled audit of the declared constants.

    Draws (t, x, y, mu1, mu2) with t ~ U(0, 1), x, y ~ N(0, 4I) and mu1, mu2
    random 8-atom measures supported in [-3, 3]^d, then estimates the worst
    ratio of each structural inequality against its declared right-hand side:

    * ``a1_space``:   |sigma(x,mu) - sigma(y,mu)| / |x-y|^beta
    * ``a1_measure``: |sigma(x,mu1) - sigma(x,mu2)| / (W_eta + W_k)
    * ``a2``:         |b(x,mu1) - b(x,mu2)| / (||mu1-mu2||_{k,var} + W_k)
    * ``a3``:         mixed second difference of sigma sigma* over
      |x-y|^beta (W_eta + W_k)

    Ellipticity and the drift bound are checked at every sample by
    :func:`sigma_batch` and :func:`drift_batch`; a violation ends the loop as
    the ``evaluation`` failure.  The report also records structural flags of
    the model, read off its expression trees rather than sampled:
    ``sigma_space_free``, ``sigma_measure_free`` and ``drift_measure_free``.
    """
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
        kvar = metrics.weighted_variation_atoms(mu1, mu2, c.k).value

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
