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

The pairwise differences generate the same Z-module as the q^2 base
differences beta*(lam_ij - lam_00), so the two exact routes work on those
q^2 values (the ratios p_00/p_ij for stochastic matrices); only the float
route builds the q^4 ``difference_set``.

Every route witnesses its lattice with one q x q integer table m, defined
by beta*(lam_ij - lam_00) = m_ij * g; the difference of entries (i,j) and
(k,l) is then (m_ij - m_kl) * g.

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

from . import measures
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


def _kind(model: LambdaModel) -> str:
    """The difference-set kind of a model, which is also its classifier route."""
    if model.is_exact:
        return "exact-rational"
    if model.provenance == "markov" and all(isinstance(v, Fraction) for row in model.P for v in row):
        return "symbolic-log-rational"
    return "float"


def difference_set(model: LambdaModel) -> DifferenceSet:
    """All beta-scaled pairwise differences of coupling-table entries."""
    kind = _kind(model)
    if kind == "exact-rational":
        vals = _table_values(model)
        deltas = sorted({model.beta * (a - b) for a in vals for b in vals})
        return DifferenceSet(deltas=tuple(deltas), kind=kind)
    if kind == "symbolic-log-rational":
        entries = [v for row in model.P for v in row]
        # delta = -log p + log p' = log(p'/p); keep the rational ratio
        ratios = sorted({b / a for a in entries for b in entries})
        deltas = tuple(math.log(float(r)) for r in ratios)
        return DifferenceSet(deltas=deltas, kind=kind, ratios=tuple(ratios))
    vals = [float(v) for v in _table_values(model)]
    beta = model.beta_float
    raw = sorted({beta * (a - b) for a in vals for b in vals})
    deltas: list[float] = []
    for d in raw:
        if not deltas or abs(d - deltas[-1]) > 1e-12:
            deltas.append(d)
    return DifferenceSet(deltas=tuple(deltas), kind=kind)


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
    "III_family".  ``exponents`` is the lattice witness, the q x q integer
    table m with beta*(lam_ij - lam_00) = m_ij * g (all zeros for II1, None
    when no lattice is found); ``multipliers`` expands it to
    delta(i,j,k,l) = (m_ij - m_kl) * g for every index quadruple.
    """

    verdict: str                     # "II1" | "III_family" | "incommensurable"
    generator: Optional[Fraction | float]
    gamma: Optional[float]
    exponents: Optional[tuple[tuple[int, ...], ...]]
    caveat: str
    confidence: str                  # "exact" | "float"
    evidence: dict = field(default_factory=dict)

    @property
    def multipliers(self) -> Optional[dict[tuple[int, int, int, int], int]]:
        m = self.exponents
        if m is None:
            return None
        q = len(m)
        return {
            (i, j, k, l): m[i][j] - m[k][l]
            for i in range(q) for j in range(q) for k in range(q) for l in range(q)
        }


def _int_table(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in rows)


def classify(
    model: LambdaModel,
    max_den: int = DEFAULT_MAX_DEN,
    tol: float = DEFAULT_FLOAT_TOL,
) -> Classification:
    """Route the model to the appropriate commensurability back-end.

    Constant tables give the tracial II_1 verdict.  Exact rational tables
    always produce a lattice generator, the rational gcd of the q^2 base
    differences beta*(lam_ij - lam_00): they generate the same Z-module as
    all pairwise differences.  Rational stochastic matrices are decided
    exactly through prime factorization of the q^2 ratios p_00/p_ij.  Only
    floating tables build the difference set, for continued-fraction
    reconstruction.  Every lattice verdict carries the exponent table m of
    beta*(lam - lam_00) = m * g.
    """
    q = model.q
    kind = _kind(model)
    if kind == "exact-rational":
        lam, beta = model.lam, model.beta
        base = [[beta * (v - lam[0][0]) for v in row] for row in lam]
        g = commensurability_exact([d for row in base for d in row])
        constant = g is None
    elif kind == "symbolic-log-rational":
        constant = len({v for row in model.P for v in row}) == 1
    else:
        ds = difference_set(model)
        constant = all(d == 0 for d in ds.deltas)
    if constant:
        return Classification(
            verdict="II1", generator=None, gamma=None, exponents=((0,) * q,) * q,
            caveat="constant coupling table: the state is a trace", confidence="exact",
            evidence={"route": "degenerate", "kind": kind},
        )
    if kind == "exact-rational":
        return Classification(
            verdict="III_family", generator=g, gamma=math.exp(-float(g)),
            exponents=_int_table([[d / g for d in row] for row in base]),
            caveat=CAVEAT_III_FAMILY, confidence="exact",
            evidence={"route": "rational-gcd", "kind": kind},
        )
    if kind == "symbolic-log-rational":
        witness = commensurability_multiplicative(model.P)
        if witness is None:
            return Classification(
                verdict="incommensurable", generator=None, gamma=None, exponents=None,
                caveat=CAVEAT_INCOMMENSURABLE, confidence="exact",
                evidence={"route": "prime-exponent-rank", "kind": kind},
            )
        # p_00/p_ij = alpha^e_ij with alpha in (0, 1), so beta*(lam_ij - lam_00)
        # = -e_ij * log(1/alpha).  The witness is primitive (gcd of e is 1,
        # e_00 = 0), so the lattice step over alpha is always 1.
        return Classification(
            verdict="III_family", generator=-math.log(float(witness.alpha)),
            gamma=float(witness.alpha),
            exponents=_int_table([[-e for e in row] for row in witness.exponents]),
            caveat=CAVEAT_III_FAMILY, confidence="exact",
            evidence={
                "route": "prime-exponent-rank", "kind": kind,
                "alpha": witness.alpha, "lattice_step": 1,
            },
        )
    evidence = {"route": "continued-fraction", "kind": kind, "max_den": max_den, "tol": tol}
    lattice = commensurability_float(ds.deltas, max_den=max_den, tol=tol)
    if lattice is not None:
        g = lattice.generator
        beta, lam = model.beta_float, model.lam_float
        m = np.rint(beta * (lam - lam[0, 0]) / g)
        d = beta * (lam[:, :, None, None] - lam[None, None, :, :])
        mult = m[:, :, None, None] - m[None, None, :, :]
        if np.all(np.abs(d - mult * g) <= tol * np.maximum(1.0, np.abs(d))):
            return Classification(
                verdict="III_family", generator=g, gamma=math.exp(-g),
                exponents=_int_table(m), caveat=CAVEAT_III_FAMILY, confidence="float",
                evidence={**evidence, "low_confidence": lattice.low_confidence},
            )
        evidence["note"] = "lattice refinement failed"
    return Classification(
        verdict="incommensurable", generator=None, gamma=None, exponents=None,
        caveat=CAVEAT_INCOMMENSURABLE, confidence="float", evidence=evidence,
    )


def potts_theta(q: int, J, beta) -> float:
    """The Potts lattice base exp(-beta * J' q/(q-1)) with J' = (q-1)J/q (= e^{-beta J})."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    jp = (q - 1) * J / q
    return math.exp(-float(beta) * float(jp) * q / (q - 1))


def finite_volume_spectrum(model: LambdaModel, ball: Ball, cap: int = measures.DEFAULT_CAP) -> np.ndarray:
    """Multiset of configuration energy levels beta*H over a ball, sorted.

    The edge potential carries the opposite sign (its diagonal is -beta*lam),
    so the operator spectrum is the mirror image of this set; the difference
    set, which drives classification, is the same for both conventions.
    """
    return np.sort(model.beta_float * measures._edge_energies(model, ball, cap))


def spectrum_lattice_check(
    model: LambdaModel, ball: Ball, tol: float = 1e-9, cap: int = measures.DEFAULT_CAP
) -> tuple[bool, Optional[float], float]:
    """Verify every spectrum self-difference is an integer multiple of the classify generator.

    Returns (ok, generator, max deviation from the nearest multiple).  When
    the verdict has no generator the check passes vacuously on {0} sets and
    fails otherwise.  The L x L level differences are compared in row chunks
    of at most ``cap`` entries.
    """
    levels = np.unique(finite_volume_spectrum(model, ball, cap=cap))
    return _levels_lattice_check(model, levels, tol, cap, DEFAULT_MAX_DEN)


def _levels_lattice_check(
    model: LambdaModel, levels: np.ndarray, tol: float, cap: int, max_den: int
) -> tuple[bool, Optional[float], float]:
    """``spectrum_lattice_check`` on sorted unique levels, with the generator of
    ``classify(model, max_den=max_den)``, through two reused chunk buffers."""
    result = classify(model, max_den=max_den)
    g = None if result.generator is None else float(result.generator)
    size = len(levels)
    step = max(1, cap // size)
    diffs = np.empty((min(step, size), size))
    near = np.empty_like(diffs)
    dev = 0.0
    for r in range(0, size, step):
        d, m = diffs[:min(step, size - r)], near[:min(step, size - r)]
        np.subtract(levels[r:r + step, None], levels[None, :], out=d)
        if g is not None:
            np.round(np.divide(d, g, out=m), out=m)
            d -= np.multiply(m, g, out=m)
        dev = max(dev, float(np.max(np.abs(d, out=d))))
    return dev <= tol, g, dev
