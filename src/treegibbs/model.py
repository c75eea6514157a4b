"""Nearest-neighbor lambda-models on trees: coupling tables, log-weights, model files.

A model is a q x q table lam[i][j] of pair couplings between the spin
values 0..q-1 (the paper's simplex spin vectors), together with a tree
order k and an inverse temperature beta.  The table may be exact (all
entries Fraction) or floating; exact tables enable exact commensurability
analysis downstream.  Edge terms are oriented parent -> child, i.e. an edge
<x, y> with x closer to the root contributes lam[sigma(x)][sigma(y)]; for
symmetric tables the orientation is immaterial.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

import numpy as np

Number = Union[Fraction, float]

ROW_SUM_TOL = 1e-12
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")   # ASCII digits only, unlike int()


class ModelError(ValueError):
    """Invalid model specification."""


def _check_tol(tol: float, max_den: int = 1) -> None:
    """The library's rule for a tolerance (finite and > 0) and a largest denominator (>= 1)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")


@dataclass(frozen=True)
class LambdaModel:
    """A lambda-model: tree order, inverse temperature, q x q coupling table.

    ``provenance`` records how the table was built ("generic", "potts",
    "markov"); ``P`` is kept for markov models so the classifier can work
    multiplicatively on the stochastic matrix itself.
    """

    k: int
    beta: Number
    lam: tuple[tuple[Number, ...], ...]
    provenance: str = "generic"
    J: Number | None = None
    P: tuple[tuple[Number, ...], ...] | None = None

    @property
    def q(self) -> int:
        return len(self.lam)

    @property
    def is_exact(self) -> bool:
        """True when beta and every table entry are exact rationals."""
        return isinstance(self.beta, Fraction) and all(isinstance(v, Fraction) for row in self.lam for v in row)

    @property
    def lam_float(self) -> np.ndarray:
        """The table in floating point, converted on first read and read-only: a property over the
        cached ``_lam_float``, so ``bench/tracer.py`` can wrap it to count reads."""
        return self._lam_float

    @cached_property
    def _lam_float(self) -> np.ndarray:
        a = np.array([[float(v) for v in row] for row in self.lam])
        a.flags.writeable = False
        return a

    @property
    def beta_float(self) -> float:
        return float(self.beta)

    @cached_property
    def log_weights(self) -> np.ndarray:
        """-beta*lam in floating point, computed once per model and read-only: the diagonal
        entries of the edge potential in block order."""
        a = -self.beta_float * self.lam_float
        a.flags.writeable = False
        return a


def _kind(model: LambdaModel) -> str:
    """The kind of a model's coupling differences: its classifier route and ``evidence["kind"]``."""
    if model.is_exact:
        return "exact-rational"
    if model.provenance == "markov" and all(isinstance(v, Fraction) for row in model.P for v in row):
        return "symbolic-log-rational"
    return "float"


def _coerce(x) -> tuple[Number, float]:
    """ints/Fractions as Fraction, floats kept floating, each with its float, which must be finite.
    Floats are tested first, so none meets the Fraction ABC's ``isinstance`` check; a Fraction's
    float is numerator / denominator, the correctly rounded division that ``float()`` does."""
    if isinstance(x, float):
        f = float(x)
    else:
        if isinstance(x, int):                   # bool and other int subclasses as well
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise ModelError(f"unsupported numeric value {x!r}")
        try:
            f = x.numerator / x.denominator
        except OverflowError:
            raise ModelError("numeric values must be finite, got a rational past the float range") from None
    if not math.isfinite(f):
        raise ModelError(f"numeric values must be finite, got {x!r}")
    return x, f


def _homogeneous_table(rows) -> tuple[tuple[tuple[Number, ...], ...], list[list[float]]]:
    """Coerce a table to one kind, all-Fraction if possible, else all-float; also its floats."""
    pairs = [[_coerce(v) for v in row] for row in rows]
    floats = [[f for _, f in row] for row in pairs]
    if any(isinstance(v, float) for row in pairs for v, _ in row):
        return tuple(map(tuple, floats)), floats
    return tuple(tuple(v for v, _ in row) for row in pairs), floats


def _checked_model(table, floats, k: int, beta, provenance: str = "generic", **extra) -> LambdaModel:
    """The model on a coerced q x q ``table`` with ``floats``, rows of its entries' floats; every
    constructor ends here, the one place that checks k and beta.  beta, -beta*lam and the spread
    beta*(max lam - min lam) must be finite floats, or the weights, transfer matrices and
    difference set would hold infinities or NaN."""
    q = len(table)
    if q < 2 or any(len(row) != q for row in table):
        raise ModelError("coupling table must be square with q >= 2")
    beta, b = _coerce(beta)
    if not beta > 0:
        raise ModelError(f"inverse temperature must be positive, got {beta}")
    if k < 1:
        raise ModelError(f"tree order k must be >= 1, got {k}")
    vals = [v for row in floats for v in row]
    hi, lo = max(vals), min(vals)                # b*v is monotone in v, so these bound every -b*v
    if not (math.isfinite(b * hi) and math.isfinite(b * lo) and math.isfinite(b * (hi - lo))):
        raise ModelError("beta*lambda and beta*(max lambda - min lambda) must be finite floats")
    return LambdaModel(k, beta, table, provenance, **extra)


def generic_model(lam, k: int, beta) -> LambdaModel:
    """Model from an explicit q x q coupling table, each entry coerced once (``_coerce``)."""
    return _checked_model(*_homogeneous_table(lam), k, beta)


def potts_model(q: int, J, beta, k: int) -> LambdaModel:
    """Potts coupling lam[i][j] = -J' * (eta_i, eta_j) with J' = (q-1)J/q.

    Equal spins get -J', unequal ones J'/(q-1); each of the two is coerced
    once.  Rational J and beta yield an exact table.
    """
    if q < 2:
        raise ModelError(f"need q >= 2, got {q}")
    J = _coerce(J)[0]
    jp = (q - 1) * J / q
    (diag, d), (off, o) = _coerce(-jp), _coerce(jp / (q - 1))
    if isinstance(diag, float):                  # a float table holds the Python floats
        diag, off = d, o
    lam = tuple(tuple(diag if i == j else off for j in range(q)) for i in range(q))
    return _checked_model(lam, [[d, o]], k, beta, "potts", J=J)   # the checks read max and min


def markov_model(P, k: int) -> LambdaModel:
    """Model driven by a strictly positive stochastic matrix: lam[i][j] = -log p_ij, beta = 1.

    P is coerced once, like a coupling table, and checked; its float log table is the model's
    as it is.  Rational entries are kept on the matrix so multiplicative commensurability can
    be decided exactly."""
    rows, floats = _homogeneous_table(P)
    q = len(rows)
    if q < 2 or any(len(row) != q for row in rows):
        raise ModelError("stochastic matrix must be square with q >= 2")
    exact = isinstance(rows[0][0], Fraction)
    errors = []
    for i, (row, frow) in enumerate(zip(rows, floats)):
        if any(not (p > 0) for p in frow):     # -log p must be finite
            errors.append(f"row {i}: entries must be strictly positive floats")
        if exact:
            # the row sums to 1 exactly when sum(num * L/den) == L, L the lcm of its denominators
            lcm = math.lcm(*[v.denominator for v in row])
            total = sum([v.numerator * (lcm // v.denominator) for v in row])
            if total != lcm:
                errors.append(f"row {i}: sums to {Fraction(total, lcm)}, expected 1")
        elif abs(sum(row) - 1.0) > ROW_SUM_TOL:
            errors.append(f"row {i}: sums to {sum(row)!r}, expected 1")
    if errors:
        raise ModelError("; ".join(errors))
    lam = [[-math.log(p) for p in row] for row in floats]
    return _checked_model(tuple(map(tuple, lam)), lam, k, 1, "markov", P=rows)


def potential_norm(model: LambdaModel, d: float) -> float:
    """Interaction norm k * e^{2d} * max |beta*lam|; ValueError unless d > 0, e^{2d} and it are finite."""
    try:
        norm = model.k * math.exp(2.0 * d) * float(np.max(np.abs(model.log_weights)))
    except OverflowError:
        norm = math.inf
    if not (math.isfinite(d) and d > 0 and math.isfinite(norm)):
        raise ValueError(f"need a finite norm weight d > 0 and a finite norm, got d = {d}")
    return norm


# --- model file (de)serialization -------------------------------------------

def _number_to_json(v: Number):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _number_from_json(v) -> Number | int:
    """A model-file number: a "p/q" string (optionally signed ASCII digits, a "/q" optional) as one
    Fraction; a JSON int or float as it is, after ``_coerce``'s finiteness check, whose error then
    joins the file's error list (the constructors coerce it)."""
    if isinstance(v, str):
        match = _RATIONAL.fullmatch(v)
        try:
            if match is None:
                raise ValueError("want an optionally signed run of ASCII digits, or two joined by '/'")
            num, den = match.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:      # int() caps its digits, q may be 0
            raise ModelError(f"bad rational string {v!r}: {exc}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ModelError(f"bad numeric value {v!r}")
    _coerce(v)
    return v


def model_to_dict(model: LambdaModel) -> dict:
    """JSON-ready model description; rational entries round-trip bit-exactly."""
    out: dict = {"kind": model.provenance, "q": model.q, "k": model.k,
                 "beta": _number_to_json(model.beta)}
    if model.provenance == "potts":
        out["J"] = _number_to_json(model.J)
    elif model.provenance == "markov":
        out["P"] = [[_number_to_json(v) for v in row] for row in model.P]
    else:
        out["lambda"] = [[_number_to_json(v) for v in row] for row in model.lam]
    return out


def model_from_dict(data: dict) -> LambdaModel:
    """Parse a model description, reporting every schema violation at once.

    Besides ``kind``, ``q``, ``k`` and ``beta`` a description holds only its
    kind's payload (``lambda``, ``J`` or ``P``); a markov model's beta is 1.
    """
    errors = []
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    kind = data.get("kind")
    if kind not in ("generic", "potts", "markov"):
        errors.append(f"kind must be one of generic/potts/markov, got {kind!r}")
    q = data.get("q")
    if type(q) is not int or q < 2:
        errors.append(f"q must be an integer >= 2, got {q!r}")
    k = data.get("k")
    if type(k) is not int or k < 1:
        errors.append(f"k must be an integer >= 1, got {k!r}")
    beta = Fraction(1)
    if "beta" in data:
        try:
            beta = _number_from_json(data["beta"])
            if kind == "markov" and beta != 1:
                raise ModelError(f"a markov model has beta 1, got {data['beta']!r}")
        except ModelError as exc:
            errors.append(str(exc))
    elif kind != "markov":
        errors.append("missing beta")
    payload = None
    key = {"generic": "lambda", "potts": "J", "markov": "P"}.get(kind) if isinstance(kind, str) else None
    unknown = [name for name in data if name not in ("kind", "q", "k", "beta", key)]
    if unknown:
        errors.append(f"keys not read for kind {kind!r}: {', '.join(map(repr, unknown))}")
    if key is not None:
        if key not in data:
            errors.append(f"missing {key!r} for kind {kind!r}")
        else:
            try:
                raw = data[key]
                if key == "J":
                    payload = _number_from_json(raw)
                elif not isinstance(raw, list) or len(raw) != q or any(
                    not isinstance(r, list) or len(r) != q for r in raw
                ):
                    errors.append(f"{key!r} must be a {q}x{q} matrix")
                else:
                    payload = [[_number_from_json(v) for v in row] for row in raw]
            except ModelError as exc:
                errors.append(str(exc))
    if errors:
        raise ModelError("; ".join(errors))
    try:
        if kind == "potts":
            return potts_model(q, payload, beta, k)
        if kind == "markov":
            return markov_model(payload, k)
        return generic_model(payload, k, beta)
    except ModelError:
        raise
    except ValueError as exc:
        raise ModelError(str(exc)) from None
