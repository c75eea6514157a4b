"""Nearest-neighbor lambda-models on trees: spin simplex, coupling tables, energies.

A model is a q x q table lam[i][j] of pair couplings between simplex spin
vectors, together with a tree order k and an inverse temperature beta.  The
table may be exact (all entries Fraction) or floating; exact tables enable
exact commensurability analysis downstream.  Edge terms are oriented
parent -> child, i.e. an edge <x, y> with x closer to the root contributes
lam[sigma(x)][sigma(y)]; for symmetric tables the orientation is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .topology import Ball

Number = Union[Fraction, float]

GRAM_TOL = 1e-12
ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model specification."""


@dataclass(frozen=True)
class SpinSet:
    """The q simplex spin vectors in R^{q-1}: unit norm, pairwise inner product -1/(q-1)."""

    q: int
    eta: np.ndarray          # (q, q-1) explicit coordinates
    gram: np.ndarray         # (q, q) pairwise inner products

    def gram_exact(self, i: int, j: int) -> Fraction:
        return Fraction(1) if i == j else Fraction(-1, self.q - 1)


def simplex_vectors(q: int) -> SpinSet:
    """Explicit coordinates of the q simplex spin vectors.

    Deterministic closed form: the centered standard-basis vectors of R^q,
    normalized, expressed in the Helmert orthonormal basis of the sum-zero
    hyperplane.  The resulting Gram matrix matches the defining relations
    to machine precision.
    """
    if q < 2:
        raise ModelError(f"need q >= 2 spin values, got {q}")
    # centered, normalized corners of the standard simplex in R^q
    v = np.eye(q) - 1.0 / q
    v /= math.sqrt(1.0 - 1.0 / q)
    # Helmert basis of the hyperplane {sum = 0}: rows m = 1..q-1
    h = np.zeros((q - 1, q))
    for m in range(1, q):
        h[m - 1, :m] = 1.0
        h[m - 1, m] = -m
        h[m - 1] /= math.sqrt(m * (m + 1))
    eta = v @ h.T                       # (q, q-1)
    return SpinSet(q=q, eta=eta, gram=eta @ eta.T)


@dataclass(frozen=True)
class LambdaModel:
    """A lambda-model: spin set, tree order, inverse temperature, coupling table.

    ``provenance`` records how the table was built ("generic", "potts",
    "markov"); ``P`` is kept for markov models so the classifier can work
    multiplicatively on the stochastic matrix itself.
    """

    spin: SpinSet
    k: int
    beta: Number
    lam: tuple[tuple[Number, ...], ...]
    provenance: str = "generic"
    J: Number | None = None
    P: tuple[tuple[Number, ...], ...] | None = None

    @property
    def q(self) -> int:
        return self.spin.q

    @property
    def is_exact(self) -> bool:
        """True when beta and every table entry are exact rationals."""
        return isinstance(self.beta, Fraction) and all(
            isinstance(v, Fraction) for row in self.lam for v in row
        )

    @property
    def lam_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.lam])

    @property
    def beta_float(self) -> float:
        return float(self.beta)

    @cached_property
    def log_weights(self) -> np.ndarray:
        """-beta*lam in floating point, computed once per model and read-only."""
        a = -self.beta_float * self.lam_float
        a.flags.writeable = False
        return a


def _as_number(x) -> Number:
    """Coerce ints/Fractions to Fraction, keep finite floats floating."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ModelError(f"numeric values must be finite, got {x!r}")
        return x
    raise ModelError(f"unsupported numeric value {x!r}")


def _homogeneous_table(rows) -> tuple[tuple[Number, ...], ...]:
    """Coerce a table to one kind: all-Fraction if possible, else all-float."""
    table = [[_as_number(v) for v in row] for row in rows]
    if any(isinstance(v, float) for row in table for v in row):
        table = [[float(v) for v in row] for row in table]
    return tuple(tuple(row) for row in table)


def generic_model(lam, k: int, beta) -> LambdaModel:
    """Model from an explicit q x q coupling table."""
    table = _homogeneous_table(lam)
    q = len(table)
    if q < 2 or any(len(row) != q for row in table):
        raise ModelError("coupling table must be square with q >= 2")
    beta = _as_number(beta)
    if not beta > 0:
        raise ModelError(f"inverse temperature must be positive, got {beta}")
    if k < 1:
        raise ModelError(f"tree order k must be >= 1, got {k}")
    return LambdaModel(spin=simplex_vectors(q), k=k, beta=beta, lam=table)


def potts_model(q: int, J, beta, k: int) -> LambdaModel:
    """Potts coupling lam[i][j] = -J' * (eta_i, eta_j) with J' = (q-1)J/q.

    Equal spins get -J', unequal ones J'/(q-1).  Rational J and beta yield
    an exact table.
    """
    if q < 2:
        raise ModelError(f"need q >= 2, got {q}")
    if k < 1:
        raise ModelError(f"tree order k must be >= 1, got {k}")
    J = _as_number(J)
    beta = _as_number(beta)
    if not beta > 0:
        raise ModelError(f"inverse temperature must be positive, got {beta}")
    if isinstance(J, Fraction):
        jp = Fraction(q - 1, q) * J
        off = jp / (q - 1)
    else:
        jp = (q - 1) * J / q
        off = jp / (q - 1)
    lam = [[(-jp if i == j else off) for j in range(q)] for i in range(q)]
    return LambdaModel(
        spin=simplex_vectors(q),
        k=k,
        beta=beta,
        lam=_homogeneous_table(lam),
        provenance="potts",
        J=J,
    )


def markov_model(P, k: int) -> LambdaModel:
    """Model driven by a strictly positive stochastic matrix: lam[i][j] = -log p_ij.

    Inverse temperature is fixed to 1.  Rational entries are kept on the
    matrix itself (the log table is necessarily floating) so multiplicative
    commensurability can be decided exactly.
    """
    if k < 1:
        raise ModelError(f"tree order k must be >= 1, got {k}")
    rows = [[_as_number(v) for v in row] for row in P]
    q = len(rows)
    if q < 2 or any(len(row) != q for row in rows):
        raise ModelError("stochastic matrix must be square with q >= 2")
    errors = []
    for i, row in enumerate(rows):
        if any(not (v > 0) for v in row):
            errors.append(f"row {i}: entries must be strictly positive")
        s = sum(row)
        if isinstance(s, Fraction):
            if s != 1:
                errors.append(f"row {i}: sums to {s}, expected 1")
        elif abs(float(s) - 1.0) > ROW_SUM_TOL:
            errors.append(f"row {i}: sums to {float(s)!r}, expected 1")
    if errors:
        raise ModelError("; ".join(errors))
    if any(isinstance(v, float) for row in rows for v in row):
        rows = [[float(v) for v in row] for row in rows]
    lam = tuple(tuple(-math.log(float(p)) for p in row) for row in rows)
    return LambdaModel(
        spin=simplex_vectors(q),
        k=k,
        beta=Fraction(1),
        lam=lam,
        provenance="markov",
        P=tuple(tuple(row) for row in rows),
    )


def _check_config(model: LambdaModel, ball: Ball, sigma: Sequence[int], what: str) -> None:
    if len(sigma) != ball.num_vertices:
        raise ValueError(
            f"{what} must assign a spin to each of the {ball.num_vertices} vertices, got {len(sigma)}"
        )
    q = model.q
    if any(not (0 <= s < q) for s in sigma):
        raise ValueError(f"{what} contains spin indices outside 0..{q - 1}")


def energy(model: LambdaModel, ball: Ball, sigma: Sequence[int]) -> Number:
    """Configuration energy: sum of lam over the ball's edges (parent -> child order)."""
    _check_config(model, ball, sigma, "configuration")
    total = Fraction(0) if model.is_exact else 0.0
    for u, v in ball.edges:
        total += model.lam[sigma[u]][sigma[v]]
    return total


def boundary_energy(
    model: LambdaModel, ball: Ball, sigma: Sequence[int], omega: Sequence[int]
) -> Number:
    """Interaction of a configuration on V_n with a boundary spin layer one shell out.

    ``ball`` must have radius n+1; ``sigma`` lives on its interior V_n and
    ``omega`` on the outermost shell (in shell order).
    """
    if ball.n < 1:
        raise ValueError("need a ball of radius >= 1 to have a boundary layer")
    outer = ball.shells[ball.n]
    inner_count = ball.num_vertices - len(outer)
    if len(sigma) != inner_count:
        raise ValueError(f"interior configuration must cover {inner_count} vertices, got {len(sigma)}")
    if len(omega) != len(outer):
        raise ValueError(f"boundary layer must cover {len(outer)} vertices, got {len(omega)}")
    q = model.q
    if any(not (0 <= s < q) for s in sigma) or any(not (0 <= s < q) for s in omega):
        raise ValueError(f"spin indices outside 0..{q - 1}")
    total = Fraction(0) if model.is_exact else 0.0
    for y in outer:
        x = ball.parent[y]
        total += model.lam[sigma[x]][omega[y - inner_count]]
    return total


def edge_potential_diagonal(model: LambdaModel) -> np.ndarray:
    """Diagonal entries of the edge potential in block order: entry [b][i] = -beta*lam[b][i].

    Returns the model's cached, read-only ``log_weights`` array.
    """
    return model.log_weights


def potential_norm(model: LambdaModel, d: float) -> float:
    """Weighted interaction norm k * e^{2d} * max |beta*lam|; finite for every model."""
    if not d > 0:
        raise ValueError(f"norm weight d must be positive, got {d}")
    return model.k * math.exp(2.0 * d) * float(np.max(np.abs(model.log_weights)))


# --- model file (de)serialization -------------------------------------------

def _number_to_json(v: Number):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _number_from_json(v) -> Number:
    if isinstance(v, str):
        try:
            num, _, den = v.partition("/")
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad rational string {v!r}: {exc}") from None
    if isinstance(v, bool):
        raise ModelError(f"bad numeric value {v!r}")
    if isinstance(v, (int, float)):
        return _as_number(v)
    raise ModelError(f"bad numeric value {v!r}")


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
    """Parse a model description, reporting every schema violation at once."""
    errors = []
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    kind = data.get("kind")
    if kind not in ("generic", "potts", "markov"):
        errors.append(f"kind must be one of generic/potts/markov, got {kind!r}")
    q = data.get("q")
    if not isinstance(q, int) or q < 2:
        errors.append(f"q must be an integer >= 2, got {q!r}")
    k = data.get("k")
    if not isinstance(k, int) or k < 1:
        errors.append(f"k must be an integer >= 1, got {k!r}")
    beta = Fraction(1)
    if "beta" in data:
        try:
            beta = _number_from_json(data["beta"])
        except ModelError as exc:
            errors.append(str(exc))
    elif kind != "markov":
        errors.append("missing beta")
    payload = None
    key = {"generic": "lambda", "potts": "J", "markov": "P"}.get(kind)
    if key is not None:
        if key not in data:
            errors.append(f"missing {key!r} for kind {kind!r}")
        else:
            try:
                raw = data[key]
                if key == "J":
                    payload = _number_from_json(raw)
                else:
                    if not isinstance(raw, list) or len(raw) != q or any(
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
