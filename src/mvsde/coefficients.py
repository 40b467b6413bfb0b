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
from .measures import WEIGHT_TOL, LawRows, Measure
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
        """Vectorized value over ``points`` of shape (n, d); returns (n,).

        ``t`` is one time, or one per row of ``points``; ``measure`` is a
        :class:`Measure`, or a :class:`LawRows` holding one law per row.
        """
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
        return np.full(points.shape[:-1], float(self.value))

    def to_json(self):
        return {"op": "const", "value": self.value}


@dataclass(frozen=True)
class TimeVar(Expr):
    def evaluate(self, t, points, measure):
        return np.full(points.shape[:-1], t, dtype=float)

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
        return points[..., self.index].astype(float)

    def to_json(self):
        return {"op": "coord", "index": self.index}


@dataclass(frozen=True)
class Norm(_StateLeaf):
    def evaluate(self, t, points, measure):
        return np.linalg.norm(points, axis=-1)

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
        out = np.full(points.shape[:-1], float(self.const))
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

    ``arg`` (psi) is a function of the integration variable only.  A
    non-finite value raises :class:`NumericsError`; over :class:`LawRows`,
    that row's value becomes NaN instead, which every outer map keeps, so
    the caller's per-row finiteness check sees it.  Each row sums with
    ``np.sum(..., axis=1)``, which gives it the bits of the 1-D sum.
    """

    arg: Expr

    def evaluate(self, t, points, measure):
        if measure is None:
            raise DomainError("integral functional evaluated without a measure")
        w = measure.weights
        if w.ndim == 1:
            v = float(np.sum(w * self.arg.evaluate(t, measure.points, None)))
            if not math.isfinite(v):
                raise NumericsError(f"integral functional {json.dumps(self.arg.to_json())} "
                                    "returned a non-finite value")
        else:  # one law per row, each at its row's time
            v = np.sum(w * self.arg.evaluate(t[:, None], measure.points, None), axis=1)
            v[~np.isfinite(v)] = np.nan
        return np.full(points.shape[:-1], v)

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


def _values(exprs, t, points, m) -> np.ndarray:
    """One column per expression, one row per row of ``points``."""
    return np.stack([e.evaluate(t, points, m) for e in exprs], axis=1)


def _within_spectrum(lo, hi, K: float):
    """Whether the eigenvalues [lo, hi] of sigma sigma* lie in [1/K, K] up to the slack."""
    return (lo >= 1.0 / K - _SPECTRUM_SLACK) & (hi <= K + _SPECTRUM_SLACK)


def _above_b_sup(norm, c: ModelConstants):
    """Where a drift norm exceeds the declared b_sup by more than the slack."""
    return norm > c.b_sup + _BSUP_SLACK


def drift_batch(model: Model, t: float, points: np.ndarray, m: Measure) -> np.ndarray:
    """Drift at every row of ``points``; returns (n, d).  Checks |b| <= b_sup."""
    points = np.asarray(points, dtype=float)
    b = _values(model.drift, t, points, m)
    if not np.all(np.isfinite(b)):
        raise NumericsError("drift evaluation produced non-finite values")
    # np.linalg.norm's own sum of squares; sqrt is monotone, so the max of
    # the norms is the root of the largest sum, to the bit.
    squares = np.add.reduce(b * b, axis=1)
    worst = math.sqrt(squares.max())
    if _above_b_sup(worst, model.constants):
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
    vals = _values(model.diffusion.exprs, t, points, m)
    if not np.all(np.isfinite(vals)):
        raise NumericsError("diffusion evaluation produced non-finite values")
    sq = vals**2
    lo, hi = float(sq.min()), float(sq.max())
    if not _within_spectrum(lo, hi, K):
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
    ellipticity: tuple    # (min, max) eigenvalue of sigma sigma* over the samples
                          # checked; (inf, -inf) when there were none
    b_max: float
    declared_K: float
    flags: dict
    passed: bool
    witness: dict | None = None

    @property
    def checked(self) -> int:
        """Samples whose inequalities were checked: those before an evaluation failure."""
        failure = (self.witness or {}).get("evaluation")
        return self.n_samples if failure is None else failure["sample"]

    def to_json(self) -> dict:
        lo, hi = self.ellipticity
        # JSON has no infinity: a range no sample reached is null.
        return dict(dataclasses.asdict(self), ellipticity=[lo, hi] if lo <= hi else None)


_ATOMS = 8  # atoms of each drawn measure


def _draw(rng, n: int, dim: int) -> tuple:
    """(t, x, y, atoms, weights) of n samples, drawn by the per-sample calls in
    their order: t, x, y, then mu1's atoms and weights, then mu2's.

    ``atoms`` is (2, n, 8, dim) and ``weights`` (2, n, 8), not yet normalised.
    """
    t = np.empty(n)
    x, y = np.empty((n, dim)), np.empty((n, dim))
    atoms, weights = np.empty((2, n, _ATOMS, dim)), np.empty((2, n, _ATOMS))
    for i in range(n):
        t[i] = rng.uniform(0.0, 1.0)
        x[i] = rng.normal(scale=2.0, size=dim)
        y[i] = rng.normal(scale=2.0, size=dim)
        for j in (0, 1):
            atoms[j, i] = rng.uniform(-3.0, 3.0, size=(_ATOMS, dim))
            weights[j, i] = rng.uniform(0.2, 1.0, size=_ATOMS)
    return t, x, y, atoms, weights


def _normalised(atoms: np.ndarray, weights: np.ndarray) -> tuple:
    """Each law's weights divided by their sum, as :meth:`Measure.from_points`
    does, and the samples whose two laws pass its checks and Measure's."""
    total = weights.sum(axis=-1, keepdims=True)
    w = weights / total
    mass = w.sum(axis=-1)
    ok = (np.isfinite(atoms).all(axis=(-2, -1)) & np.isfinite(weights).all(axis=-1)
          & (total[..., 0] > 0) & (w >= 0).all(axis=-1) & (np.abs(mass - 1.0) <= WEIGHT_TOL))
    return w, ok.all(axis=0)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, to the bit: it takes a BLAS dot of one vector,
    which ``norm(axis=1)`` does not reproduce and ``vecdot`` does."""
    return np.sqrt(np.vecdot(v, v))


def _replay(model: Model, i: int, t, x, y, atoms, weights) -> dict:
    """Sample i's measures and six calls, one by one, which raise as in a
    per-sample run; their AuditError becomes the evaluation witness."""
    mu1, mu2 = (Measure.from_points(atoms[j, i], weights[j, i]) for j in (0, 1))
    ti = float(t[i])
    try:
        for fn, pts, mu in ((sigma_batch, x, mu1), (sigma_batch, y, mu1), (sigma_batch, x, mu2),
                            (sigma_batch, y, mu2), (drift_batch, x, mu1), (drift_batch, x, mu2)):
            fn(model, ti, pts[i:i + 1], mu)
    except AuditError as exc:
        return {"sample": i, "t": ti, "x": x[i].tolist(), "error": str(exc)}
    raise NumericsError(f"audit sample {i} failed in the one pass but not on its own")


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

    Every sample is drawn first, by the generator calls of a per-sample loop
    in that loop's order; then all of them are checked in one pass: the
    four sigma and two drift evaluations, W_eta, W_k and the k-variation,
    over arrays with one row per sample.  The report equals that loop's bit
    for bit, which ``tests/audit_reference.py`` keeps as the oracle.

    Ellipticity and the drift bound are checked at every sample, as
    :func:`sigma_batch` and :func:`drift_batch` check them; the first sample
    that fails a check ends the audit as the ``evaluation`` failure, and
    only the samples before it count.  That sample's calls are made again
    one by one, so a violation carries their message and a non-finite value
    raises their :class:`NumericsError`.  The report also records structural
    flags of the model, read off its expression trees rather than sampled:
    ``sigma_space_free``, ``sigma_measure_free`` and ``drift_measure_free``.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    c = model.constants
    t, x, y, atoms, raw = _draw(np.random.default_rng(seed), n_samples, model.dim)
    w, laws_ok = _normalised(atoms, raw)
    mu1, mu2 = LawRows(atoms[0], w[0]), LawRows(atoms[1], w[1])
    sig = [_values(model.diffusion.exprs, t, pts, mu) for pts, mu in ((x, mu1), (y, mu1),
                                                                      (x, mu2), (y, mu2))]
    drift = [_values(model.drift, t, x, mu) for mu in (mu1, mu2)]
    bad = ~laws_ok
    for v in sig:
        sq = v**2
        bad |= ~np.isfinite(v).all(axis=1) | ~_within_spectrum(sq.min(axis=1), sq.max(axis=1), c.K)
    for b in drift:
        bad |= ~np.isfinite(b).all(axis=1) | _above_b_sup(np.sqrt(np.add.reduce(b * b, axis=1)), c)
    stop = int(bad.argmax()) if bad.any() else n_samples

    # In the per-sample order a sample's distances come before its calls, so
    # those of the failing sample are due too (an LP there may raise first).
    reach = stop + 1 if stop < n_samples and laws_ok[stop] else stop
    rows1, rows2 = (LawRows(atoms[j, :reach], w[j, :reach]) for j in (0, 1))
    w_eta = metrics.wasserstein_rows(rows1, rows2, c.eta)[:stop]
    # eta == k: both are one distance, computed once (as in metrics.transport).
    w_k = w_eta if c.k == c.eta else metrics.wasserstein_rows(rows1, rows2, c.k)[:stop]
    kvar = metrics.weighted_variation_rows(rows1, rows2, c.k)[:stop]
    eval_failure = None if stop == n_samples else _replay(model, stop, t, x, y, atoms, raw)

    s_x1, s_y1, s_x2, s_y2 = (v[:stop] for v in sig)
    b_x1, b_x2 = (b[:stop] for b in drift)
    eig_lo, eig_hi, b_max = math.inf, -math.inf, 0.0
    if stop:
        squares = np.concatenate([s_x1**2, s_y1**2, s_x2**2, s_y2**2], axis=1)
        eig_lo, eig_hi = float(squares.min()), float(squares.max())
        b_max = max(b_max, float(_norms(b_x1).max()), float(_norms(b_x2).max()))
    dx = _norms(x[:stop] - y[:stop])
    dx_beta = metrics.powers(dx, c.beta)
    w_sum = w_eta + w_k
    mixed = np.abs((s_x1**2 - s_y1**2) - (s_x2**2 - s_y2**2)).max(axis=1)
    checks = (
        ("a1_space", dx > 1e-9, np.abs(s_x1 - s_y1).max(axis=1), dx_beta),
        ("a1_measure", w_sum > 1e-9, np.abs(s_x1 - s_x2).max(axis=1), w_sum),
        ("a3", (dx > 1e-9) & (w_sum > 1e-9), mixed, dx_beta * w_sum),
        ("a2", kvar + w_k > 1e-9, _norms(b_x1 - b_x2), kvar + w_k),
    )
    ratios = {"a1_space": 0.0, "a1_measure": 0.0, "a2": 0.0, "a3": 0.0}
    witnesses = {}
    for name, valid, num, den in checks:
        rows = np.flatnonzero(valid)
        r = num[rows] / den[rows]
        # A running max with > keeps the first sample of the largest ratio.
        if r.size and r.max() > 0.0:
            i = int(rows[r.argmax()])
            ratios[name] = float(r.max())
            witnesses[name] = {"sample": i, "t": float(t[i]), "x": x[i].tolist(),
                               "y": y[i].tolist(), "ratio": ratios[name]}

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
