"""Factor-type classification from the arithmetic of coupling differences.

The modular spectrum of the diagonal Markov state is generated by the
beta-scaled pairwise differences of coupling-table entries.  The state is
tracial exactly when that difference set is {0}; otherwise the factor type
is read off from whether the differences fit a one-generator lattice
m * g, m integer.  Three back-ends decide this:

  * exact-rational tables: gcd of rationals (always succeeds), taken in
    integers over the lcm of the denominators;
  * stochastic-matrix models with rational entries: multiplicative
    dependence of the entry ratios, decided exactly from the coprime-base
    valuations of each distinct (numerator, denominator) pair;
  * floating tables: continued-fraction rational reconstruction of the
    difference ratios, whose q^4 set numpy builds.

The pairwise differences generate the same Z-module as the q^2 base
differences beta*(lam_ij - lam_00), so the two exact routes work on those
q^2 values (the ratios p_00/p_ij for stochastic matrices); only the float
route builds the q^4 ``difference_set``, a sorted tuple of values.
``classify`` is the one place that picks the route; the CLI's markov-check
report is a view of its result.

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
from typing import Optional, Sequence

import numpy as np

from . import measures
from .model import LambdaModel, _check_tol, _kind
from .topology import Ball, _family

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


def difference_set(model: LambdaModel) -> tuple:
    """All beta-scaled pairwise differences of coupling-table entries, sorted and deduplicated.

    Fractions on exact tables, the floats log(r) of the distinct entry ratios
    r of rational stochastic matrices, and floats otherwise.  The set always
    contains 0 and equals its own negation.
    """
    kind = _kind(model)
    if kind == "symbolic-log-rational":
        entries = [v for row in model.P for v in row]
        # delta = -log p + log p' = log(p'/p), one per distinct rational ratio
        ratios = sorted({b / a for a in entries for b in entries})
        return tuple(math.log(float(r)) for r in ratios)
    if kind == "exact-rational":
        vals = [v for row in model.lam for v in row]
        return tuple(sorted({model.beta * (a - b) for a in vals for b in vals}))
    v = np.array([float(x) for row in model.lam for x in row])
    # np.unique is the sorted set of the products; adding 0.0 turns a -0.0 into 0.0
    raw = np.unique(model.beta_float * (v[:, None] - v[None, :])) + 0.0
    if not np.any(np.diff(raw) <= 1e-12):
        return tuple(raw.tolist())
    deltas: list[float] = []
    for d in raw.tolist():
        if not deltas or abs(d - deltas[-1]) > 1e-12:
            deltas.append(d)
    return tuple(deltas)


def _rational_lattice(values: Sequence[Fraction]) -> Optional[tuple[int, int, list[int]]]:
    """(G, L, m) with values[i] - values[0] = m_i * G / L, G / L the largest such step.

    In integers: L is the lcm of the denominators, N_i = values[i] * L and
    G = gcd(N_i - N_0), so m_i = (N_i - N_0) / G.  None when all values are equal.
    """
    lcm = math.lcm(*[v.denominator for v in values])
    first = values[0].numerator * (lcm // values[0].denominator)
    diffs = [v.numerator * (lcm // v.denominator) - first for v in values]
    step = math.gcd(*diffs)
    if step == 0:
        return None
    return step, lcm, [d // step for d in diffs]


def commensurability_exact(deltas: Sequence[Fraction]) -> Optional[Fraction]:
    """Largest rational g with every delta an integer multiple of g.

    For rational inputs this always exists unless the set is {0}.
    """
    if any(not isinstance(d, Fraction) for d in deltas):
        raise TypeError("exact commensurability needs rational deltas")
    lattice = _rational_lattice([Fraction(0), *deltas])
    return None if lattice is None else Fraction(lattice[0], lattice[1])


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which each of ``numbers`` is a product of powers.

    Naive gcd refinement, enough for a few dozen numbers; Bernstein, J. Algorithms 54 (2005).
    """
    base: list[int] = []
    todo = [n for n in set(numbers) if n > 1]
    while todo:
        n = todo.pop()
        b = next((b for b in base if math.gcd(n, b) > 1), None)
        if b is None:
            base.append(n)
        else:
            base.remove(b)
            g = math.gcd(n, b)
            todo += [x for x in (g, b // g, n // g) if x > 1]
    return base


def _base_exponents(r: tuple[int, int], base: Sequence[int]) -> dict[int, int]:
    """Exponents of r = (numerator, denominator) over a coprime base whose powers make up both."""
    vec: dict[int, int] = {}
    for b in base:
        for n, sign in ((r[0], 1), (r[1], -1)):
            while n % b == 0:
                n, vec[b] = n // b, vec.get(b, 0) + sign
    return vec


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

    Each distinct entry is valued once over a coprime base of the entries'
    numerators and denominators.  For each base element b the integer column
    c_b[ij] = v_b(p_00) - v_b(p_ij) holds the exponents of b in the ratios;
    the condition holds exactly when all columns are multiples of one
    primitive column m, c_b = t_b * m, and then alpha = prod b^{t_b}.  (A
    prime p divides one b only, with column v_p(b) * c_b, so prime columns
    give the same m and alpha.)  Returns None when the columns span a
    lattice of rank two or more.
    """
    rows = [list(r) for r in P]
    if any(not isinstance(v, Fraction) for row in rows for v in row):
        raise TypeError("multiplicative commensurability needs rational matrix entries")
    q = len(rows)
    pairs = [(v.numerator, v.denominator) for row in rows for v in row]
    distinct = set(pairs)
    base = _coprime_base([n for r in distinct for n in r])
    vecs = {r: _base_exponents(r, base) for r in distinct}
    flat = [vecs[r] for r in pairs]
    cols = {b: [flat[0].get(b, 0) - vec.get(b, 0) for vec in flat] for b in set().union(*flat)}
    first = next((c for c in cols.values() if any(c)), None)
    if first is None:
        return MultiplicativeWitness(alpha=None, exponents=((0,) * q,) * q)
    g = math.gcd(*first)
    m = [e // g for e in first]
    lead = next(i for i, e in enumerate(m) if e)
    num = den = 1      # alpha = num/den, in lowest terms because the base is coprime
    for b, c in cols.items():
        t = c[lead] // m[lead]
        if c != [t * e for e in m]:
            return None
        if t > 0:
            num *= b**t
        else:
            den *= b**-t
    if num > den:
        num, den, m = den, num, [-e for e in m]
    return MultiplicativeWitness(alpha=Fraction(num, den),
                                 exponents=tuple(tuple(m[i:i + q]) for i in range(0, q * q, q)))


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
    _check_tol(tol, max_den)
    mags = np.abs(np.asarray(deltas, dtype=float))
    mags = np.unique(mags[mags != 0]).tolist()
    if not mags or not math.isfinite(mags[-1] / mags[0]):   # past a subnormal base a ratio overflows
        return None
    base = mags[0]
    fracs = []
    low_confidence = False
    for d in mags:
        r = Fraction(d / base)
        approx = r.limit_denominator(max_den)
        if abs(r - approx) * approx.denominator > tol:
            return None
        if approx.denominator > max_den // 10:
            low_confidence = True
        fracs.append(approx)
    g = base * float(commensurability_exact(fracs))
    if not (g > 0 and math.isfinite(mags[-1] / g)):   # a gcd with a huge denominator underflows g
        return None
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
    exactly by the multiplicative witness of the ratios p_00/p_ij, which is
    degenerate (II_1) exactly when all entries are equal.  Only
    floating tables build the difference set, for continued-fraction
    reconstruction.  Every lattice verdict carries the exponent table m of
    beta*(lam - lam_00) = m * g.
    """
    _check_tol(tol, max_den)
    q = model.q
    kind = _kind(model)
    confidence, lattice = "exact", None     # lattice: (generator, gamma, exponents)
    if kind == "exact-rational":
        found = _rational_lattice([v for row in model.lam for v in row])
        constant = found is None
        evidence = {"route": "rational-gcd", "kind": kind}
        if not constant:
            # beta*(lam_ij - lam_00) = m_ij * beta*G/L
            step, lcm, m = found
            g = Fraction(model.beta.numerator * step, model.beta.denominator * lcm)
            lattice = g, math.exp(-float(g)), tuple(tuple(m[i:i + q]) for i in range(0, q * q, q))
    elif kind == "symbolic-log-rational":
        witness = commensurability_multiplicative(model.P)
        constant = witness is not None and witness.alpha is None
        evidence = {"route": "prime-exponent-rank", "kind": kind}
        if witness is not None and not constant:
            # p_00/p_ij = alpha^e_ij with alpha in (0, 1), so beta*(lam_ij - lam_00)
            # = -e_ij * log(1/alpha).  The witness is primitive (gcd of e is 1,
            # e_00 = 0), so the lattice step over alpha is always 1.
            alpha = witness.alpha
            lattice = (-math.log(float(alpha)), float(alpha),
                       _int_table([[-e for e in row] for row in witness.exponents]))
            evidence.update(alpha=alpha, lattice_step=1)
    else:
        deltas = difference_set(model)
        constant = all(d == 0 for d in deltas)
        confidence = "float"
        evidence = {"route": "continued-fraction", "kind": kind, "max_den": max_den, "tol": tol}
        found = None if constant else commensurability_float(deltas, max_den=max_den, tol=tol)
        if found is not None:
            g = found.generator
            beta, lam = model.beta_float, model.lam_float
            m = np.rint(beta * (lam - lam[0, 0]) / g)
            d = beta * (lam[:, :, None, None] - lam[None, None, :, :])
            mult = m[:, :, None, None] - m[None, None, :, :]
            if np.all(np.abs(d - mult * g) <= tol * np.maximum(1.0, np.abs(d))):
                lattice = g, math.exp(-g), _int_table(m)
                evidence["low_confidence"] = found.low_confidence
            else:
                evidence["note"] = "lattice refinement failed"
    if constant:
        return Classification(
            verdict="II1", generator=None, gamma=None, exponents=((0,) * q,) * q,
            caveat="constant coupling table: the state is a trace", confidence="exact",
            evidence={"route": "degenerate", "kind": kind},
        )
    if lattice is None:
        return Classification(
            verdict="incommensurable", generator=None, gamma=None, exponents=None,
            caveat=CAVEAT_INCOMMENSURABLE, confidence=confidence, evidence=evidence,
        )
    return Classification("III_family", *lattice, caveat=CAVEAT_III_FAMILY,
                          confidence=confidence, evidence=evidence)


def potts_theta(q: int, J, beta) -> float:
    """Potts lattice base exp(-beta * J' q/(q-1)) = e^{-beta J}, J' = (q-1)J/q; J, beta and it must be finite."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    try:
        values = float(J), float(beta), math.exp(-float(beta) * float((q - 1) * J / q) * q / (q - 1))
    except OverflowError:
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"J, beta and e^(-beta*J) must be finite floats, got J={J}, beta={beta}")
    return values[-1]


def finite_volume_spectrum(
    model: LambdaModel, ball: Ball, cap: int = measures.DEFAULT_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct configuration energy levels beta*H over a ball, ascending, and their multiplicities.

    Configurations are grouped as they grow.  A group is ``code``, the spins
    of the live vertices (children still to add; oldest digit least
    significant, so code % q is the next vertex's parent), ``val``, its
    partial sum, and ``cnt``; groups with equal code and val get the same
    operations from then on, so they merge after each step that adds a leaf
    or drops a parent.  On the exact routes with a lattice (``classify``'s
    exponent table m) the sums are of the integers m - m_a, a an entry where
    m is least: equal energies merge exactly, one level per lattice point,
    each formed once as |E|*beta*lam_a + g*s (correctly rounded on an exact
    table).  On the float route, and where a sum or a level's integers could
    pass 2^53, they are float sums of lam from +0.0 over v = 1, 2, ...
    (breadth-first; never -0.0), which rounding can split, and the levels
    are bit for bit the runs of the sorted q^|V| products beta*H; the sums
    are sorted, not the products, so where beta*H underflows a zero level
    is -0.0 if any of its energies is.  ``cap`` bounds q^|V| as for
    the enumerating measures.  The edge potential carries the opposite sign
    (its diagonal is -beta*lam), so the operator spectrum is the mirror
    image of this set; the difference set, which drives classification, is
    the same for both conventions.  Raises ValueError when an energy is not
    a finite float (finite couplings can sum past the float range).
    """
    q, k, nv = model.q, ball.k, ball.num_vertices
    measures._check_cap(q, nv, cap)
    table, level = _lattice_sums(model, nv - 1) or (model.lam_float, lambda s: s * model.beta_float)
    interior = ball.shell_slice(-1).start        # vertices before it have children
    live = min(interior, 1)                      # the root is live unless it is the whole ball
    code, val, cnt = np.arange(q) * live, np.zeros(q, table.dtype), np.ones(q, dtype=np.int64)
    for v in range(1, nv):
        rows = table.take(code % q, axis=0)      # the parent's row of the table, per group
        rows += val[:, None]
        val, cnt = rows.ravel(), np.repeat(cnt, q)
        dropped = v == _family(k, _family(k, v)[0])[1][-1]      # v is its parent's last child
        if dropped:
            code //= q
            live -= 1
        if v < interior:                         # v is live: its spin is the newest digit
            code = (code[:, None] + np.arange(q) * q**live).ravel()
            live += 1
            if not dropped:
                continue                         # a new digit keeps the groups distinct
        elif live:
            code = np.repeat(code, q)
        else:
            break                                # v is the last vertex: the levels merge below
        order = np.argsort(val)                  # then a stable radix sort by the narrowed code
        order = order[np.argsort(code.astype(np.min_scalar_type(q**live))[order], kind="stable")]
        code, val, cnt = code[order], val[order], cnt[order]
        starts = _run_starts(val, code)
        code, val, cnt = code[starts], val[starts], np.add.reduceat(cnt, starts)
    order = np.argsort(val)
    val, cnt = val[order], cnt[order]
    starts = _run_starts(val)
    e, cnt = level(val[starts]), np.add.reduceat(cnt, starts)
    if not (math.isfinite(e[0]) and math.isfinite(e[-1])):    # sorting puts inf and NaN at the ends
        raise ValueError("the energies beta*H over the ball are not all finite floats")
    starts = _run_starts(e)                      # distinct sums can round to one level
    return e[starts], np.add.reduceat(cnt, starts)


def _lattice_sums(model: LambdaModel, edges: int):
    """(t, level) on an exact route with a lattice: the int64 table t = m - m_a, a an entry
    where the exponent table m is least, and the map from a sum s of t over ``edges`` edges
    to its level edges*beta*lam_a + g*s, as (num + step*s)/den in integers on an exact
    table.  None on the float route, and where s or those integers could pass 2^53."""
    if _kind(model) == "float" or (c := classify(model)).exponents is None:
        return None
    flat = [e for row in c.exponents for e in row]
    low = min(flat)
    top = edges * (max(flat) - low)              # the largest sum
    at = flat.index(low)
    base, g = edges * model.beta * model.lam[at // model.q][at % model.q], c.generator or 0
    if model.is_exact:                           # in integers over a common denominator
        den = math.lcm(base.denominator, g.denominator)
        num, step = base.numerator * (den // base.denominator), g.numerator * (den // g.denominator)
    else:                                        # a rational Markov matrix: floats
        num, step, den = base, g, 1
    if max(abs(num), abs(num + step * top), den, top) >= 2**53:
        return None
    table = np.array(flat, dtype=np.int64).reshape(model.q, model.q) - low
    return table, lambda s: (num + step * s) / den


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal entries (equal in every key) starts, in arrays sorted by the keys."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def spectrum_lattice_check(
    model: LambdaModel, levels: np.ndarray, tol: float = 1e-9, max_den: int = DEFAULT_MAX_DEN
) -> tuple[bool, Optional[float], float]:
    """Verify every spectrum self-difference is an integer multiple of the classify generator.

    ``levels`` are the ascending unique levels of ``finite_volume_spectrum``;
    g is the generator of ``classify(model, max_den=max_den)``.  Every pairwise
    difference is a multiple of g exactly when every level minus the lowest
    one is, so only those L differences are measured.  Returns (ok, g, max
    deviation of a level minus the lowest from gZ); without a generator the
    deviation is the spread of the levels, so one level passes and more fail.
    The distance to gZ is at most g/2, which stands in where d/g has no float:
    a generator that underflows to 0.0, or a subnormal one.
    """
    _check_tol(tol)
    result = classify(model, max_den=max_den)
    g = None if result.generator is None else float(result.generator)
    d = levels - levels[0]
    if g is not None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m = d / g
            d -= np.multiply(np.round(m, out=m), g, out=m)
            np.fmin(np.abs(d, out=d), g / 2, out=d)
    dev = float(np.max(d))
    return dev <= tol, g, dev
