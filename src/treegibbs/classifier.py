"""Factor-type classification from the arithmetic of coupling differences.

The modular spectrum of the diagonal Markov state is generated by the
beta-scaled pairwise differences of coupling-table entries.  The state is
tracial exactly when that difference set is {0}; otherwise the factor type
is read off from whether the differences fit a one-generator lattice
m * g, m integer.  Three back-ends decide this:

  * exact-rational tables: gcd of rationals (always succeeds);
  * stochastic-matrix models with rational entries: multiplicative
    dependence of the entry ratios, decided exactly by prime factorization;
  * floating tables: continued-fraction rational reconstruction of the
    difference ratios.

A positive generator g corresponds to gamma = e^{-g} in (0, 1); the factor
belongs to the family {III_{gamma^d} : d >= 1} and the exponent d is not
determined by this computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

import numpy as np
import sympy

from .model import LambdaModel
from .topology import Ball

DEFAULT_MAX_DEN = 10**6
DEFAULT_FLOAT_TOL = 1e-9

CAVEAT_III_FAMILY = (
    "factor type III_{gamma^d} for some positive integer d >= 1; "
    "the exponent d is not determined by this computation"
)
CAVEAT_INCOMMENSURABLE = (
    "no common lattice generator found; this is the necessary-condition "
    "pattern for type III_1, not a proof of it"
)


@dataclass(frozen=True)
class DifferenceSet:
    """Sorted, deduplicated beta-scaled coupling differences.

    ``kind`` is "exact-rational" (deltas are Fractions), "symbolic-log-rational"
    (deltas are floats log(r) with the rational r kept in ``ratios``), or
    "float".  The set always contains 0 and equals its own negation.
    """

    deltas: tuple
    kind: str
    ratios: Optional[tuple[Fraction, ...]] = None


def _table_values(model: LambdaModel) -> list:
    return [v for row in model.lam for v in row]


def difference_set(model: LambdaModel) -> DifferenceSet:
    """All beta-scaled pairwise differences of coupling-table entries."""
    if model.is_exact:
        vals = _table_values(model)
        deltas = sorted({model.beta * (a - b) for a in vals for b in vals})
        return DifferenceSet(deltas=tuple(deltas), kind="exact-rational")
    if model.provenance == "markov" and all(
        isinstance(v, Fraction) for row in model.P for v in row
    ):
        entries = [v for row in model.P for v in row]
        # delta = -log p + log p' = log(p'/p); keep the rational ratio
        ratios = sorted({b / a for a in entries for b in entries})
        deltas = tuple(math.log(float(r)) for r in ratios)
        return DifferenceSet(deltas=deltas, kind="symbolic-log-rational", ratios=tuple(ratios))
    vals = [float(v) for v in _table_values(model)]
    beta = model.beta_float
    raw = sorted({beta * (a - b) for a in vals for b in vals})
    deltas: list[float] = []
    for d in raw:
        if not deltas or abs(d - deltas[-1]) > 1e-12:
            deltas.append(d)
    return DifferenceSet(deltas=tuple(deltas), kind="float")


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def commensurability_exact(deltas: Sequence[Fraction]) -> Optional[Fraction]:
    """Largest rational g with every delta an integer multiple of g.

    For rational inputs this always exists unless the set is {0}.
    """
    if any(not isinstance(d, Fraction) for d in deltas):
        raise TypeError("exact commensurability needs rational deltas")
    mags = {abs(d) for d in deltas if d != 0}
    if not mags:
        return None
    return reduce(_frac_gcd, sorted(mags))


def _prime_exponents(r: Fraction) -> dict[int, int]:
    vec: dict[int, int] = dict(sympy.factorint(r.numerator))
    for p, e in sympy.factorint(r.denominator).items():
        vec[p] = vec.get(p, 0) - e
    return {p: e for p, e in vec.items() if e != 0}


@dataclass(frozen=True)
class MultiplicativeWitness:
    """Evidence that all ratios p_00/p_ij lie on one geometric lattice alpha^Z.

    ``alpha`` is None in the degenerate case where every ratio equals 1
    (constant matrix); otherwise alpha is rational in (0, 1) and
    p_00 / p_ij = alpha ** exponents[i][j].
    """

    alpha: Optional[Fraction]
    exponents: tuple[tuple[int, ...], ...]


def commensurability_multiplicative(P) -> Optional[MultiplicativeWitness]:
    """Decide condition p_00/p_ij = alpha^{m_ij} for a rational stochastic matrix.

    Each ratio is factored into a prime-exponent vector; the condition holds
    exactly when the vectors span a lattice of rank at most one.  Returns
    None when the rank is two or more.
    """
    rows = [list(r) for r in P]
    if any(not isinstance(v, Fraction) for row in rows for v in row):
        raise TypeError("multiplicative commensurability needs rational matrix entries")
    q = len(rows)
    vecs = {}
    for i in range(q):
        for j in range(q):
            vecs[(i, j)] = _prime_exponents(rows[0][0] / rows[i][j])
    nonzero = [key for key, v in vecs.items() if v]
    if not nonzero:
        return MultiplicativeWitness(alpha=None, exponents=tuple((0,) * q for _ in range(q)))
    base = vecs[nonzero[0]]
    g0 = math.gcd(*(abs(e) for e in base.values())) if len(base) > 1 else abs(next(iter(base.values())))
    base = {p: e // g0 for p, e in base.items()}

    def multiple_of_base(vec: dict[int, int]) -> Optional[int]:
        if not vec:
            return 0
        if set(vec) != set(base):
            return None
        ms = {vec[p] / base[p] for p in vec}
        if len(ms) != 1:
            return None
        m = ms.pop()
        return int(m) if m == int(m) else None

    mults = {}
    for key in vecs:
        m = multiple_of_base(vecs[key])
        if m is None:
            return None
        mults[key] = m
    g = math.gcd(*(abs(m) for m in mults.values()))
    gen = {p: e * g for p, e in base.items()}
    alpha = Fraction(1)
    for p, e in gen.items():
        alpha *= Fraction(p) ** e
    mults = {key: m // g for key, m in mults.items()}
    if alpha > 1:
        alpha = 1 / alpha
        mults = {key: -m for key, m in mults.items()}
    exponents = tuple(tuple(mults[(i, j)] for j in range(q)) for i in range(q))
    return MultiplicativeWitness(alpha=alpha, exponents=exponents)


@dataclass(frozen=True)
class FloatLattice:
    generator: float
    low_confidence: bool


def commensurability_float(
    deltas: Sequence[float],
    max_den: int = DEFAULT_MAX_DEN,
    tol: float = DEFAULT_FLOAT_TOL,
) -> Optional[FloatLattice]:
    """Reconstruct a common generator of a floating difference set, if any.

    For each nonzero magnitude the ratio to the smallest one is matched
    against its best rational approximation p/s with s <= max_den; the match
    is accepted only when |s * ratio - p| <= tol, which a genuinely rational
    ratio meets at machine precision while slowly-converging irrational
    ratios (e.g. log 3 / log 2) do not.  The generator is then refined to the
    largest g with every delta = m * g within tol * |delta|.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    mags = sorted({abs(float(d)) for d in deltas if d != 0})
    if not mags:
        return None
    base = mags[0]
    fracs = []
    low_confidence = False
    for d in mags:
        r = d / base
        approx = Fraction(r).limit_denominator(max_den)
        if abs(Fraction(r) - approx) * approx.denominator > tol:
            return None
        if approx.denominator > max_den // 10:
            low_confidence = True
        fracs.append(approx)
    g = base * float(reduce(_frac_gcd, fracs))
    for d in mags:
        m = round(d / g)
        if abs(d - m * g) > tol * d:
            return None
    return FloatLattice(generator=g, low_confidence=low_confidence)


@dataclass(frozen=True)
class Classification:
    """Verdict on the factor type of the diagonal Markov state.

    ``generator`` is the positive lattice generator g (rational in exact
    mode) and gamma = e^{-g}; both are None unless the verdict is
    "III_family".  ``multipliers`` witnesses delta(i,j,k,l) = m * g for every
    index quadruple.
    """

    verdict: str                     # "II1" | "III_family" | "incommensurable"
    generator: Optional[Fraction | float]
    gamma: Optional[float]
    multipliers: Optional[dict[tuple[int, int, int, int], int]]
    caveat: str
    confidence: str                  # "exact" | "float"
    evidence: dict = field(default_factory=dict)


def _quadruple_multipliers_exact(model: LambdaModel, g: Fraction) -> dict:
    out = {}
    q = model.q
    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    m = model.beta * (model.lam[i][j] - model.lam[k][l]) / g
                    assert m.denominator == 1
                    out[(i, j, k, l)] = int(m)
    return out


def _quadruple_multipliers_float(model: LambdaModel, g: float, tol: float) -> Optional[dict]:
    out = {}
    lam = model.lam_float
    beta = model.beta_float
    q = model.q
    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    d = beta * (lam[i, j] - lam[k, l])
                    m = round(d / g)
                    if abs(d - m * g) > tol * max(1.0, abs(d)):
                        return None
                    out[(i, j, k, l)] = m
    return out


def classify(
    model: LambdaModel,
    max_den: int = DEFAULT_MAX_DEN,
    tol: float = DEFAULT_FLOAT_TOL,
) -> Classification:
    """Route the model to the appropriate commensurability back-end.

    Constant tables give the tracial II_1 verdict.  Exact rational tables
    always produce a lattice generator.  Rational stochastic matrices are
    decided exactly through prime factorization; everything else goes
    through floating reconstruction.
    """
    ds = difference_set(model)
    q = model.q
    zero_mult = {
        (i, j, k, l): 0 for i in range(q) for j in range(q) for k in range(q) for l in range(q)
    }
    if all(d == 0 for d in ds.deltas):
        return Classification(
            verdict="II1", generator=None, gamma=None, multipliers=zero_mult,
            caveat="constant coupling table: the state is a trace", confidence="exact",
            evidence={"route": "degenerate", "kind": ds.kind},
        )
    if ds.kind == "exact-rational":
        g = commensurability_exact(ds.deltas)
        return Classification(
            verdict="III_family", generator=g, gamma=math.exp(-float(g)),
            multipliers=_quadruple_multipliers_exact(model, g),
            caveat=CAVEAT_III_FAMILY, confidence="exact",
            evidence={"route": "rational-gcd", "kind": ds.kind},
        )
    if ds.kind == "symbolic-log-rational":
        witness = commensurability_multiplicative(model.P)
        if witness is None:
            return Classification(
                verdict="incommensurable", generator=None, gamma=None, multipliers=None,
                caveat=CAVEAT_INCOMMENSURABLE, confidence="exact",
                evidence={"route": "prime-exponent-rank", "kind": ds.kind},
            )
        e = witness.exponents
        diffs = {
            e[i][j] - e[k][l]
            for i in range(q) for j in range(q) for k in range(q) for l in range(q)
        }
        t = math.gcd(*(abs(d) for d in diffs))
        g = t * (-math.log(float(witness.alpha)))
        mults = {
            (i, j, k, l): (e[k][l] - e[i][j]) // t
            for i in range(q) for j in range(q) for k in range(q) for l in range(q)
        }
        return Classification(
            verdict="III_family", generator=g, gamma=float(witness.alpha) ** t,
            multipliers=mults, caveat=CAVEAT_III_FAMILY, confidence="exact",
            evidence={
                "route": "prime-exponent-rank", "kind": ds.kind,
                "alpha": witness.alpha, "lattice_step": t,
            },
        )
    lattice = commensurability_float(ds.deltas, max_den=max_den, tol=tol)
    if lattice is None:
        return Classification(
            verdict="incommensurable", generator=None, gamma=None, multipliers=None,
            caveat=CAVEAT_INCOMMENSURABLE, confidence="float",
            evidence={"route": "continued-fraction", "kind": ds.kind,
                      "max_den": max_den, "tol": tol},
        )
    mults = _quadruple_multipliers_float(model, lattice.generator, tol)
    if mults is None:
        return Classification(
            verdict="incommensurable", generator=None, gamma=None, multipliers=None,
            caveat=CAVEAT_INCOMMENSURABLE, confidence="float",
            evidence={"route": "continued-fraction", "kind": ds.kind,
                      "max_den": max_den, "tol": tol, "note": "lattice refinement failed"},
        )
    return Classification(
        verdict="III_family", generator=lattice.generator,
        gamma=math.exp(-lattice.generator), multipliers=mults,
        caveat=CAVEAT_III_FAMILY, confidence="float",
        evidence={"route": "continued-fraction", "kind": ds.kind,
                  "max_den": max_den, "tol": tol,
                  "low_confidence": lattice.low_confidence},
    )


def potts_theta(q: int, J, beta) -> float:
    """The Potts lattice base exp(-beta * J' q/(q-1)) with J' = (q-1)J/q (= e^{-beta J})."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    jp = (q - 1) * J / q
    return math.exp(-float(beta) * float(jp) * q / (q - 1))


def finite_volume_spectrum(model: LambdaModel, ball: Ball, cap: int = 2**20) -> np.ndarray:
    """Multiset of configuration energy levels beta*H over a ball, sorted.

    The edge potential carries the opposite sign (its diagonal is -beta*lam),
    so the operator spectrum is the mirror image of this set; the difference
    set, which drives classification, is the same for both conventions.
    """
    from .measures import _edge_energies, _enumerate_configs

    configs = _enumerate_configs(model.q, ball.num_vertices, cap)
    return np.sort(model.beta_float * _edge_energies(model, ball, configs))


def spectrum_lattice_check(
    model: LambdaModel, ball: Ball, tol: float = 1e-9, cap: int = 2**20
) -> tuple[bool, Optional[float], float]:
    """Verify every spectrum self-difference is an integer multiple of the classify generator.

    Returns (ok, generator, max deviation from the nearest multiple).  When
    the verdict has no generator the check passes vacuously on {0} sets and
    fails otherwise.
    """
    levels = np.unique(finite_volume_spectrum(model, ball, cap=cap))
    diffs = np.unique((levels[:, None] - levels[None, :]).reshape(-1))
    result = classify(model)
    if result.generator is None:
        dev = float(np.max(np.abs(diffs)))
        return dev <= tol, None, dev
    g = float(result.generator)
    dev = float(np.max(np.abs(diffs - np.round(diffs / g) * g)))
    return dev <= tol, g, dev
