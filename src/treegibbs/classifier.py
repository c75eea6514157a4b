"""Factor-type classification from the arithmetic of coupling differences.

The modular spectrum of the diagonal Markov state is generated by the
beta-scaled pairwise differences of coupling-table entries, which generate
the same Z-module as the q^2 base differences beta*(lam_ij - lam_00).  The
state is tracial exactly when they are all 0; otherwise the factor type is
read off from whether they fit a one-generator lattice m * g, m integer.
``classify`` gives the verdict (markov-check reads its result) on one of
three routes (``LambdaModel._kind``), each in ints:

  * exact-rational tables: the gcd of the base differences over the lcm of
    their denominators (always succeeds);
  * stochastic-matrix models with rational entries: multiplicative
    dependence of the ratios p_00/p_ij, decided from the coprime-base
    valuations of each distinct (numerator, denominator) pair;
  * floating tables: continued-fraction reconstruction of the ratios of
    the q^4 ``difference_set``, each ratio taken as its exact n/d.

The exact routes read only the model, which builds their lattice once
(``LambdaModel._lattice``); the float route reads ``tol`` and ``max_den``.
Every route witnesses its lattice with one q x q integer table m,
beta*(lam_ij - lam_00) = m_ij * g, so entries (i,j) and (k,l) differ by
(m_ij - m_kl) * g.  A positive generator g gives gamma = e^{-g} in (0, 1):
the factor is in {III_{gamma^d} : d >= 1}, and d is not determined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import measures
from .model import LambdaModel, MultiplicativeWitness, _check_tol, commensurability_multiplicative
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
    kind = model._kind
    if kind == "symbolic-log-rational":
        entries = [v for row in model.P for v in row]
        # delta = -log p + log p' = log(p'/p), one per distinct rational ratio
        ratios = sorted({b / a for a in entries for b in entries})
        return tuple(math.log(float(r)) for r in ratios)
    if kind == "exact-rational":
        vals = [v for row in model.lam for v in row]
        return tuple(sorted({model.beta * (a - b) for a in vals for b in vals}))
    return tuple(_float_differences(model).tolist())


def _float_differences(model: LambdaModel) -> np.ndarray:
    """The floats of ``difference_set`` from the float table, as the array that ``classify`` reads."""
    v = np.array([float(x) for row in model.lam for x in row])
    # np.unique is the sorted set of the products; adding 0.0 turns a -0.0 into 0.0
    raw = np.unique(model.beta_float * (v[:, None] - v[None, :])) + 0.0
    if not np.any(np.diff(raw) <= 1e-12):
        return raw
    deltas: list[float] = []
    for d in raw.tolist():
        if not deltas or abs(d - deltas[-1]) > 1e-12:
            deltas.append(d)
    return np.array(deltas)


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

    Each nonzero magnitude's ratio n/d to the smallest one, exact in ints, is matched against
    its best rational approximation p/s with s <= max_den (``_best_rational``) and accepted
    only when |n*s - p*d| / d <= tol, which a genuinely rational ratio meets at machine
    precision while slowly-converging irrational ratios (e.g. log 3 / log 2) do not.  The
    generator, the smallest magnitude times the gcd of the p/s, must then hold every
    delta = m * g within tol * |delta|."""
    _check_tol(tol, max_den)
    mags = np.abs(np.asarray(deltas, dtype=float))
    mags = np.unique(mags[mags != 0]).tolist()
    if not mags or not math.isfinite(mags[-1] / mags[0]):   # past a subnormal base a ratio overflows
        return None
    base = mags[0]
    tn, td = tol.as_integer_ratio()
    approx = []
    for d in mags:
        n, den = (d / base).as_integer_ratio()
        p, s = _best_rational(n, den, max_den)
        if abs(n * s - p * den) * td > tn * den:   # |n/den - p/s| * s > tol
            return None
        approx.append((p, s))
    lcm = math.lcm(*[s for _, s in approx])
    g = base * (math.gcd(*[p * (lcm // s) for p, s in approx]) / lcm)
    if not (g > 0 and math.isfinite(mags[-1] / g)):   # a gcd with a huge denominator underflows g
        return None
    for d in mags:
        m = round(d / g)
        if abs(d - m * g) > tol * d:
            return None
    return FloatLattice(generator=g, low_confidence=any(s > max_den // 10 for _, s in approx))


def _best_rational(n: int, d: int, max_den: int) -> tuple[int, int]:
    """(p, s) of ``Fraction(n, d).limit_denominator(max_den)``, by its continued-fraction walk in ints:
    the last convergent p1/s1 (d'/(s1*d) from n/d, d' the last remainder) against the semiconvergent
    with the largest denominator s <= max_den (1/(s1*s) from p1/s1), the convergent on a tie."""
    if d <= max_den:
        return n, d
    p0, s0, p1, s1, num, rem = 0, 1, 1, 0, n, d
    while s0 + (a := num // rem) * s1 <= max_den:
        p0, s0, p1, s1, num, rem = p1, s1, p0 + a * p1, s0 + a * s1, rem, num - a * rem
    t = (max_den - s0) // s1
    return (p1, s1) if 2 * rem * (s0 + t * s1) <= d else (p0 + t * p1, s0 + t * s1)


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


def classify(
    model: LambdaModel,
    max_den: int = DEFAULT_MAX_DEN,
    tol: float = DEFAULT_FLOAT_TOL,
) -> Classification:
    """Route the model to its commensurability back-end (see the module docstring).

    Constant tables give the tracial II_1 verdict, and so does a stochastic
    matrix with all entries equal.  Exact rational tables always produce a
    lattice generator; only floating tables build the difference set.  Every
    lattice verdict carries the exponent table m of beta*(lam - lam_00) = m * g.
    """
    _check_tol(tol, max_den)
    q = model.q
    kind = model._kind
    confidence, lattice = "exact", None     # lattice: (generator, gamma, exponents)
    if kind != "float":
        found = model._lattice                   # (g, alpha, m), built once per model
        constant = found is not None and found[0] is None
        evidence = {"route": "rational-gcd" if kind == "exact-rational" else "prime-exponent-rank", "kind": kind}
        if found is not None and not constant:
            g, alpha, m = found
            lattice = g, math.exp(-float(g)) if alpha is None else float(alpha), m
            if alpha is not None:
                evidence.update(alpha=alpha, lattice_step=1)
    else:
        deltas = _float_differences(model)
        constant = not deltas.any()
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
                lattice = g, math.exp(-g), tuple(tuple(map(int, row)) for row in m)
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

    On the exact routes with a lattice (the model's exponent table m) the
    energies are sums of the integers t = m - m_a over the edges, a an entry
    where m is least (``_lattice_sums``): equal energies have equal sums, so
    there is one level per distinct sum s, formed once as
    |E|*beta*lam_a + g*s (correctly rounded on an exact table).  The sums
    and their int64 counts come from one polynomial per (shell, spin)
    (``_shell_sums``), in O(n * q) sums and products of at most the level
    count's terms.  On the float route, which also takes exact tables where
    a sum or a level's integers could pass 2^53, configurations are grouped
    vertex by vertex (``_grouped_sums``); there the sums are float sums
    of lam from +0.0 over v = 1, 2, ... (breadth-first; never -0.0), which
    rounding can split, and the levels are bit for bit the runs of the
    sorted q^|V| products beta*H; the sums are sorted, not the products, so
    where beta*H underflows a zero level is -0.0 if any of its energies is.
    ``cap`` bounds q^|V| as for the enumerating measures, which also keeps
    every count exact in int64.  The edge potential carries the opposite sign
    (its diagonal is -beta*lam), so the operator spectrum is the mirror
    image of this set; the difference set, which drives classification, is
    the same for both conventions.  Raises ValueError when an energy is not
    a finite float (finite couplings can sum past the float range).
    """
    nv = ball.num_vertices
    measures._check_cap(model.q, nv, cap)
    lattice = _lattice_sums(model, nv - 1)
    with np.errstate(over="ignore"):                 # finite couplings can sum past the float range
        if lattice is None:
            sums, cnt = _grouped_sums(model.lam_float, ball)
            e = sums * model.beta_float
        else:
            table, level = lattice
            sums, cnt = _shell_sums(table, ball)
            e = level(sums)
    if not (math.isfinite(e[0]) and math.isfinite(e[-1])):    # sorting puts inf and NaN at the ends
        raise ValueError("the energies beta*H over the ball are not all finite floats")
    starts = _run_starts(e)                      # distinct sums can round to one level
    return e[starts], np.add.reduceat(cnt, starts)


def _shell_sums(table: np.ndarray, ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums s of the int64 ``table`` over the edges of ``ball``, ascending, and their counts.

    With zero field every vertex of shell r roots the same subtree, so the
    counts of the subtree sums below a shell-r vertex of spin a are the
    coefficients of one polynomial P_r[a] in x, built from the leaves in:
    P_n[a] = 1 and P_r[a] = (sum_b x^t[a, b] P_{r+1}[b])^k, the power k+1 at
    the root, whose q polynomials add up to the ball's.  A polynomial is its
    ascending exponents and their int64 counts; every coefficient is at most
    q^|V|, so none wraps under the cap.
    """
    polys = [(np.zeros(1, np.int64), np.ones(1, np.int64))] * len(table)
    for r in range(ball.n - 1, -1, -1):
        exponents, counts = zip(*polys)
        polys = []
        for row in table:                        # the sum over b for one spin a, then its power
            shared = _merged(np.concatenate([e + t for e, t in zip(exponents, row)]), np.concatenate(counts))
            power = shared
            for _ in range(ball.k if r == 0 else ball.k - 1):
                power = _product(power, shared)
            polys.append(power)
    return _merged(*map(np.concatenate, zip(*polys)))


def _product(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """The product of two polynomials (ascending exponents, counts), by whichever of a dense
    ``np.convolve`` over their exponent spans N and M or a merge of their |a|*|b| term
    products is cheaper: the convolution where N*M <= 32*|a|*|b|, about where its
    multiply-adds and the merge's sort cost the same.  No array outgrows the larger of
    N + M - 1 and |a|*|b|."""
    (ea, ca), (eb, cb) = a, b
    n, m = int(ea[-1] - ea[0]) + 1, int(eb[-1] - eb[0]) + 1
    if n * m > 32 * ea.size * eb.size:
        return _merged((ea[:, None] + eb).ravel(), (ca[:, None] * cb).ravel())
    da, db = np.zeros(n, np.int64), np.zeros(m, np.int64)
    da[ea - ea[0]], db[eb - eb[0]] = ca, cb
    c = np.convolve(da, db)
    at = np.flatnonzero(c)
    return at + (ea[0] + eb[0]), c[at]


def _merged(exponents: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct exponents, ascending, with the summed counts of each."""
    order = np.argsort(exponents)
    exponents = exponents[order]
    starts = _run_starts(exponents)
    return exponents[starts], np.add.reduceat(counts[order], starts)


def _grouped_sums(table: np.ndarray, ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums of ``table`` over the edges of ``ball``, ascending, and their int64 counts.

    Configurations are grouped as they grow.  A group is ``code``, the spins
    of the live vertices (children still to add; oldest digit least
    significant, so code % q is the next vertex's parent), ``val``, its
    partial sum, and ``cnt``; groups with equal code and val get the same
    operations from then on, so they merge after each step that adds a leaf
    or drops a parent.  A float ``table`` gives float sums from +0.0 over
    v = 1, 2, ..., merged where they are equal.
    """
    q, k, nv = len(table), ball.k, ball.num_vertices
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
            break                                # v is the last vertex: the sums merge below
        order = np.argsort(val)                  # then a stable radix sort by the narrowed code
        order = order[np.argsort(code.astype(np.min_scalar_type(q**live))[order], kind="stable")]
        code, val, cnt = code[order], val[order], cnt[order]
        starts = _run_starts(val, code)
        code, val, cnt = code[starts], val[starts], np.add.reduceat(cnt, starts)
    return _merged(val, cnt)


def _lattice_sums(model: LambdaModel, edges: int):
    """(t, level) from the model's lattice (g, alpha, m): the int64 table t = m - m_a, a an entry
    where m is least, and the map from a sum s of t over ``edges`` edges to its level
    edges*beta*lam_a + g*s, as (num + step*s)/den in integers on an exact table.  None
    without a lattice (the float route too), and where s or those integers could pass 2^53."""
    if (lattice := model._lattice) is None:
        return None
    g, _, m = lattice
    flat = [e for row in m for e in row]
    low = min(flat)
    top = edges * (max(flat) - low)              # the largest sum
    at = flat.index(low)
    base, g = edges * model.beta * model.lam[at // model.q][at % model.q], g or 0
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
    g is the generator of ``classify(model, max_den=max_den)`` (the model's
    lattice on the exact routes).  Every pairwise
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
