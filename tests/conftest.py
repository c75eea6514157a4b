import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence

import mpmath
import numpy as np

from treegibbs import classify, generic_model
from treegibbs.classifier import (
    DEFAULT_FLOAT_TOL, DEFAULT_MAX_DEN, FloatLattice, MultiplicativeWitness, _coprime_base, _kind,
)
from treegibbs.fields import (
    FixedPointResult, ReducedFieldAssignment, _extend, _log_transfer, recursion_map, zero_fields,
)
from treegibbs.measures import (
    DEFAULT_CAP, _edge_energies, _logsumexp, _tv_to_first_column, finite_volume_measure,
    marginalize,
)
from treegibbs.model import ROW_SUM_TOL, LambdaModel, ModelError, Number
from treegibbs.topology import Ball, sweep_up


# Model files whose couplings have no finite float image, or whose log-weights
# or their spread overflow one.
HUGE_RATIONAL = "1" + "0" * 400 + "/1"
OVERFLOWING_MODELS = {
    "rational-past-float-range": {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                  "lambda": [[0.5, HUGE_RATIONAL], [0.0, 0.5]]},
    "spread-overflows": {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                         "lambda": [[1e308, -1e308], [0.0, 0.0]]},
    "log-weight-overflows": {"kind": "generic", "q": 2, "k": 2, "beta": 1e300,
                             "lambda": [[1e10, 0], [0, 0]]},
}


# Model files holding a key their kind does not read, or a markov beta other than 1,
# with a fragment of the error each must raise.
UNREAD_KEY_MODELS = {
    "markov-beta-5": ({"kind": "markov", "q": 2, "k": 2, "beta": 5,
                       "P": [["1/4", "3/4"], ["3/4", "1/4"]]}, "a markov model has beta 1, got 5"),
    "potts-lambda": ({"kind": "potts", "q": 2, "k": 2, "beta": "1/1", "J": "1/1",
                      "lambda": [[0, 1], [1, 0]]}, "keys not read for kind 'potts': 'lambda'"),
    "potts-P": ({"kind": "potts", "q": 2, "k": 2, "beta": "1/1", "J": "1/1",
                 "P": [["1/2", "1/2"], ["1/2", "1/2"]]}, "keys not read for kind 'potts': 'P'"),
    "generic-J": ({"kind": "generic", "q": 2, "k": 2, "beta": 1.0, "lambda": [[0, 1], [1, 0]],
                   "J": 1}, "keys not read for kind 'generic': 'J'"),
}


def enumerate_configs(q: int, num_vertices: int, cap: int) -> np.ndarray:
    """The (q^|V|, |V|) configuration matrix, rows in the library's configuration-index order."""
    assert q**num_vertices <= cap, f"{q}^{num_vertices} configurations exceed {cap}"
    idx = np.arange(q**num_vertices)
    place = q ** np.arange(num_vertices - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // place[None, :]) % q


@lru_cache(maxsize=None)
def walked_tables(k: int, n: int) -> dict:
    """Oracle for the breadth-first layout of the radius-n ball of the order-k tree, from a walk
    over reduced words: per vertex its parent (-1 at the root), word and children, the vertex
    lists of the shells, and the (parent, child) edges in child order.  Cached: do not mutate."""
    parent, words, shells, children, edges = [-1], [()], [[0]], [[]], []
    for m in range(1, n + 1):
        shell = []
        for x in shells[m - 1]:
            last = words[x][-1] if words[x] else 0
            for g in range(1, k + 2):
                if g == last:
                    continue  # reduced words: generators have order 2
                y = len(parent)
                parent.append(x)
                words.append(words[x] + (g,))
                children.append([])
                children[x].append(y)
                edges.append((x, y))
                shell.append(y)
        shells.append(shell)
    return {
        "parent": tuple(parent),
        "shells": tuple(tuple(s) for s in shells),
        "edges": tuple(edges),
        "words": tuple(words),
        "children": tuple(tuple(c) for c in children),
    }


def ball_edges(ball: Ball) -> tuple[tuple[int, int], ...]:
    """The (parent, child) edges of a ball in child order, from ``walked_tables``."""
    return walked_tables(ball.k, ball.n)["edges"]


# Per-configuration energy oracles: one Python sum over the ball's edges.

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
    for u, v in ball_edges(ball):
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
    parent = walked_tables(ball.k, ball.n)["parent"]
    for y in outer:
        x = parent[y]
        total += model.lam[sigma[x]][omega[y - inner_count]]
    return total


# Oracles for the blocked term pass of ``measures._edge_energies``: each
# boundary or conditioning term as its own full pass over the -beta*H vector.

def add_vertex_term(flat: np.ndarray, q: int, x: int, table: np.ndarray) -> None:
    """Add table[sigma_x] to every entry of a flat configuration vector, in place."""
    view = flat.reshape(q**x, q, -1)
    view += table[:, None]


def per_term_logweights(model: LambdaModel, fields: ReducedFieldAssignment, cap: int):
    """(log-weights, logZ) of ``finite_volume_measure``: -beta*H, then each field table added."""
    ball, q = fields.ball, model.q
    logw = _edge_energies(model, ball, cap)
    for x in ball.shells[ball.n]:
        add_vertex_term(logw, q, x, _extend(fields.hprime[x]))
    return logw, float(_logsumexp(logw))


def dlr_tables(model: LambdaModel, ball: Ball, omega: Sequence[int]) -> np.ndarray:
    """Per vertex x of shell n-1 of a radius-n ``ball``, the sum of -beta*lam(sigma_x, omega_y)
    over its children y on shell n, whose spins ``omega`` lists in shell order: shape (|shell|, q).

    numpy sums k >= 8 conditioning terms pairwise, so a Python loop over the
    children would give other bits; every DLR test reads these tables.
    """
    return model.log_weights[:, np.asarray(omega).reshape(len(ball.shells[-2]), -1)].sum(-1).T


def per_term_dlr_conditional(
    model: LambdaModel, ball: Ball, omega: Sequence[int], cap: int = DEFAULT_CAP
) -> np.ndarray:
    """The tests' DLR conditional: the law on the interior V_{n-1} of a radius-n ``ball`` given
    the spins ``omega`` of its shell n, proportional to exp(-beta*(H(sigma) + U(sigma, omega))).

    Adds each ``dlr_tables`` row to the interior's -beta*H in its own full pass.
    """
    q, inner = model.q, Ball(ball.k, ball.n - 1)
    e = _edge_energies(model, inner, cap)
    for x, table in zip(inner.shells[-1], dlr_tables(model, ball, omega)):
        add_vertex_term(e, q, x, table)
    return np.exp(e - _logsumexp(e))


def zero_field_markov_residual(model: LambdaModel, n: int) -> float:
    """``markov_property_residual`` through ``finite_volume_measure`` with zero fields.

    Each boundary vertex adds its all-zero field table, which can only turn
    a -0.0 log-weight into +0.0; exp maps both to 1.0.
    """
    ball = Ball(model.k, n + 1)
    p = finite_volume_measure(model, zero_fields(ball, model.q)).probabilities()
    p = p.reshape(model.q ** Ball(model.k, n - 1).num_vertices, model.q ** len(ball.shells[n]), -1)
    p /= p.sum(axis=0, keepdims=True)
    return _tv_to_first_column(p)


def enumerated_consistency_residual(
    model: LambdaModel, fields: ReducedFieldAssignment, cap: int = DEFAULT_CAP
) -> float:
    """``consistency_residual`` by enumeration: the level-n measure marginalized one level,
    against the measure built from the fields of the radius-(n-1) prefix.

    The library's residual before it summed out shell n, kept as written then.
    """
    n = fields.ball.n
    marg = marginalize(finite_volume_measure(model, fields, cap=cap), n - 1)
    inner = Ball(fields.ball.k, n - 1)
    prefix = ReducedFieldAssignment(inner, fields.hprime[:inner.num_vertices])
    mu_prev = finite_volume_measure(model, prefix, cap=cap)
    return float(np.max(np.abs(marg.probabilities() - mu_prev.probabilities())))


def full_sweep_two_point_correlation(model: LambdaModel, x0: int, x1: int, n: int) -> np.ndarray:
    """``two_point_correlation`` by eliminating the whole ball: every clamped value pair (only
    the diagonal ones when x0 == x1) is one row of a single ``sweep_up`` over every vertex.

    The library's function before it swept only the root paths of x0 and x1, kept as written
    then.  It subtracts P(i)*P(j) from a joint formed from log-weights that grow with the
    ball, so it is an oracle to about |V| * 2^-52 in absolute terms.
    """
    ball = Ball(model.k, n)
    nv = ball.num_vertices
    if not (0 <= x0 < nv and 0 <= x1 < nv):
        raise ValueError(f"vertices ({x0}, {x1}) outside the radius-{n} ball")
    q = model.q
    a0, a1 = np.divmod(np.arange(q * q), q)
    if x0 == x1:
        a0, a1 = a0[a0 == a1], a1[a0 == a1]
    clamped = np.zeros((len(a0), nv, q))
    clamped[:, x0] = np.where(np.arange(q) == a0[:, None], 0.0, -np.inf)
    clamped[:, x1] = np.where(np.arange(q) == a1[:, None], 0.0, -np.inf)
    root = sweep_up(ball, clamped, lambda x: _log_transfer(model, x))[:, 0, :]
    weights = np.exp(root - root.max()).sum(axis=-1)
    joint = np.zeros((q, q))
    joint[a0, a1] = weights / weights.sum()
    return np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0)))


def as_mpf(x: Number) -> mpmath.mpf:
    """A Fraction or a float as an mpf, exactly (at the working precision for a Fraction)."""
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)


def mp_correlation_decay(model: LambdaModel, n: int, dps: int = 50) -> list:
    """``correlation_decay`` at ``dps`` digits from the stored table, in the probability domain.
    On a rational stochastic matrix e^{-beta*lam} is P itself, taken exactly; the stored
    -log p are its float roundings.

    w_m(j) is the weight of the subtree below a shell-m vertex at spin j (1 on shell n),
    t_m(i) = sum_j e^{-beta*lam[i][j]} w_m(j), w_{m-1} = t_m^k, the shell-m kernel is
    K_m[i, j] = e^{-beta*lam[i][j]} w_m(j) / t_m(i), and the root law is proportional to
    t_1^{k+1}.  Row d is max_ij p_0(i)*|C_d[i, j]|, with C_d = C_{d-1}(K_d - 1 p_d^T) from
    C_0 = I - 1 p_0^T, which at 50 digits holds every digit a float defect can.  Rows are mpf.
    """
    q, k = model.q, model.k
    with mpmath.workdps(dps):
        beta = as_mpf(model.beta)
        e = [[mpmath.exp(-beta * as_mpf(v)) for v in row] for row in model.lam]
        if _kind(model) == "symbolic-log-rational":
            e = [[as_mpf(p) for p in row] for row in model.P]
        w, kernels = [mpmath.mpf(1)] * q, []
        for _ in range(n):
            t = [mpmath.fsum(e[i][j] * w[j] for j in range(q)) for i in range(q)]
            kernels.append(mpmath.matrix([[e[i][j] * w[j] / t[i] for j in range(q)] for i in range(q)]))
            w = [x**k for x in t]
        root = [x ** (k + 1) for x in t]
        p = mpmath.matrix([[x / mpmath.fsum(root) for x in root]])
        p0, ones = list(p), mpmath.ones(q, 1)
        centred, rows = mpmath.eye(q) - ones * p, []
        for d, kernel in enumerate(reversed(kernels), 1):
            p = p * kernel
            centred = centred * (kernel - ones * p)
            rows.append((d, max(p0[i] * abs(centred[i, j]) for i in range(q) for j in range(q))))
    return rows


def enumerated_spectrum(model: LambdaModel, ball: Ball, cap: int = DEFAULT_CAP):
    """``finite_volume_spectrum`` by enumeration: the q^|V| energies beta*H, sorted in place,
    each run of equal values one level.

    The library's function before it grouped configurations by partial energy, kept as
    written then; the two agree bit for bit.
    """
    e = _edge_energies(model, ball, cap)
    np.negative(e, out=e)                        # -(-beta*H) is beta*H, exactly
    e.sort()
    if not (math.isfinite(e[0]) and math.isfinite(e[-1])):    # sorting puts inf and NaN at the ends
        raise ValueError("the energies beta*H over the ball are not all finite floats")
    first = np.empty(e.size, dtype=bool)         # True where a level starts
    first[0] = True
    np.not_equal(e[1:], e[:-1], out=first[1:])
    return e[first], np.diff(np.flatnonzero(first), append=e.size)


def regrouped_spectrum(model: LambdaModel, ball: Ball, generator, cap: int = DEFAULT_CAP):
    """``enumerated_spectrum`` regrouped on the lattice generator*Z: its levels e with equal
    rint((e - e_0)/generator), e_0 the lowest, are one level (all of them are without a
    generator).  Returns the exact values of those levels, ascending, and their multiplicities.

    A level's exact value is the energy beta*H of one of its configurations: a Fraction on an
    exact table, and a 50-digit mpf, -sum log p over the edges, on a rational Markov matrix.
    """
    def classes(e, low):
        if generator is None:
            return np.zeros(e.size, dtype=np.int64)
        return np.rint((e - low) / float(generator)).astype(np.int64)

    levels, counts = enumerated_spectrum(model, ball, cap)
    ids, where = np.unique(classes(levels, levels[0]), return_inverse=True)
    multiplicity = np.zeros(ids.size, dtype=np.int64)
    np.add.at(multiplicity, where, counts)
    e = -_edge_energies(model, ball, cap)
    seen, first = np.unique(classes(e, levels[0]), return_index=True)
    assert np.array_equal(seen, ids)
    exact = []
    for index in first.tolist():
        sigma = np.unravel_index(index, (model.q,) * ball.num_vertices)
        if model.is_exact:
            exact.append(model.beta * energy(model, ball, sigma))
        else:
            with mpmath.workdps(50):
                exact.append(-mpmath.fsum(mpmath.log(as_mpf(model.P[sigma[u]][sigma[v]]))
                                          for u, v in ball_edges(ball)))
    return exact, multiplicity.tolist()


def random_rational_table(rng: np.random.Generator, q: int):
    """Uniform rational couplings in [-2, 2] with denominator <= 8."""
    return [[Fraction(int(rng.integers(-16, 17)), 8) for _ in range(q)] for _ in range(q)]


def random_rational_model(rng: np.random.Generator, q: int, k: int):
    return generic_model(random_rational_table(rng, q), k, Fraction(1))


def relabeled(model, perm):
    """Model with spins permuted: lam'[i][j] = lam[perm[i]][perm[j]]."""
    q = model.q
    lam = [[model.lam[perm[i]][perm[j]] for j in range(q)] for i in range(q)]
    return generic_model(lam, model.k, model.beta)


def shifted(model, c):
    """Model with a constant added to every coupling."""
    lam = [[v + c for v in row] for row in model.lam]
    return generic_model(lam, model.k, model.beta)


def damped_fixed_points(
    model,
    starts: int = 32,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    seed: int = 42,
    damping: float = 0.5,
) -> FixedPointResult:
    """Oracle for ``ti_fixed_points``: the damped iteration h <- (1-d)h + d*k*F(h) alone.

    The library's search before it took Newton steps, kept as written then
    (starts, convergence test, dedupe and plain lexicographic sort).
    """
    rng = np.random.default_rng(seed)
    qm1 = model.q - 1
    h = np.vstack([np.zeros(qm1), rng.uniform(-5.0, 5.0, size=(starts, qm1))])
    iterations = np.full(len(h), max_iter)
    residuals = np.empty(len(h))
    active = np.arange(len(h))
    for it in range(max_iter):
        current = h[active]
        target = model.k * recursion_map(model, current)
        residual = np.max(np.abs(current - target), axis=1)
        residuals[active] = residual
        done = residual <= tol
        iterations[active[done]] = it
        active, current, target = active[~done], current[~done], target[~done]
        if active.size == 0:
            break
        h[active] = (1.0 - damping) * current + damping * target
    converged = residuals <= tol
    found: list[np.ndarray] = []
    for g in h[converged]:
        if all(np.max(np.abs(g - f)) > 1e-8 for f in found):
            found.append(g)
    sols = sorted(tuple(float(c) for c in g) for g in found)
    return FixedPointResult(
        solutions=tuple(sols),
        iterations=tuple(iterations.tolist()),
        residuals=tuple(residuals.tolist()),
        converged=tuple(converged.tolist()),
    )


def pairwise_lattice_check(model, levels: np.ndarray, tol: float, cap: int, max_den: int):
    """Oracle for the spectrum lattice check: every L x L level difference against the
    generator of ``classify(model, max_den=max_den)``, compared in row chunks of at
    most ``cap`` entries through two reused buffers.

    The library's check before it measured each level against the lowest only,
    kept as written then.  Returns (ok, generator, max deviation).
    """
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


# Oracles for the classifier's integer and array arithmetic: the Fraction,
# set and loop code it replaced, kept as written then.

def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def fraction_gcd_lattice(model: LambdaModel):
    """(g, exponents) of an exact table from Fraction base differences beta*(lam_ij - lam_00):
    their gcd, a ``reduce`` over the sorted magnitudes, and one division per entry.
    None for a constant table."""
    lam, beta = model.lam, model.beta
    base = [[beta * (v - lam[0][0]) for v in row] for row in lam]
    mags = {abs(d) for row in base for d in row if d != 0}
    if not mags:
        return None
    g = reduce(_frac_gcd, sorted(mags))
    return g, tuple(tuple(int(d / g) for d in row) for row in base)


def _fraction_base_exponents(r: Fraction, base: Sequence[int]) -> dict[int, int]:
    vec: dict[int, int] = {}
    for b in base:
        for n, sign in ((r.numerator, 1), (r.denominator, -1)):
            while n % b == 0:
                n, vec[b] = n // b, vec.get(b, 0) + sign
    return vec


def fraction_multiplicative_witness(P):
    """``commensurability_multiplicative`` with its entries, base valuations and alpha
    kept as Fractions (keyed by Fraction hashes)."""
    rows = [list(r) for r in P]
    q = len(rows)
    distinct = set().union(*rows)
    base = _coprime_base([n for v in distinct for n in (v.numerator, v.denominator)])
    vecs = {v: _fraction_base_exponents(v, base) for v in distinct}
    flat = [vecs[v] for row in rows for v in row]
    cols = {b: [flat[0].get(b, 0) - vec.get(b, 0) for vec in flat] for b in set().union(*flat)}
    first = next((c for c in cols.values() if any(c)), None)
    if first is None:
        return MultiplicativeWitness(alpha=None, exponents=((0,) * q,) * q)
    g = math.gcd(*first)
    m = [e // g for e in first]
    lead = next(i for i, e in enumerate(m) if e)
    alpha = Fraction(1)
    for b, c in cols.items():
        t = c[lead] // m[lead]
        if c != [t * e for e in m]:
            return None
        alpha *= Fraction(b) ** t
    if alpha > 1:
        alpha, m = 1 / alpha, [-e for e in m]
    return MultiplicativeWitness(alpha=alpha, exponents=tuple(tuple(m[i:i + q]) for i in range(0, q * q, q)))


def set_difference_set(model: LambdaModel) -> tuple:
    """``difference_set`` of a float table: a Python set of the q^4 products beta*(a - b),
    sorted, then merged left to right where a value is within 1e-12 of the last kept one."""
    assert _kind(model) == "float"
    vals = [float(v) for row in model.lam for v in row]
    beta = model.beta_float
    raw = sorted({beta * (a - b) for a in vals for b in vals})
    deltas: list[float] = []
    for d in raw:
        if not deltas or abs(d - deltas[-1]) > 1e-12:
            deltas.append(d)
    return tuple(deltas)


def set_commensurability_float(deltas, max_den: int = DEFAULT_MAX_DEN, tol: float = DEFAULT_FLOAT_TOL):
    """``commensurability_float`` with its magnitudes taken as a Python set and the gcd a
    ``reduce`` of Fraction gcds."""
    mags = sorted({abs(float(d)) for d in deltas if d != 0})
    if not mags or not math.isfinite(mags[-1] / mags[0]):
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
    if not (g > 0 and math.isfinite(mags[-1] / g)):
        return None
    for d in mags:
        m = round(d / g)
        if abs(d - m * g) > tol * d:
            return None
    return FloatLattice(generator=g, low_confidence=low_confidence)


def fraction_row_errors(rows) -> list[str]:
    """The row errors of ``markov_model`` on a homogeneous matrix: positivity of each
    entry's float, and each row's sum taken in Fractions (or floats)."""
    errors = []
    for i, row in enumerate(rows):
        if any(not (float(v) > 0) for v in row):
            errors.append(f"row {i}: entries must be strictly positive floats")
        s = sum(row)
        if isinstance(s, Fraction):
            if s != 1:
                errors.append(f"row {i}: sums to {s}, expected 1")
        elif abs(s - 1.0) > ROW_SUM_TOL:
            errors.append(f"row {i}: sums to {s!r}, expected 1")
    return errors


# Oracle for the model constructors and the model-file parse: the two-pass
# construction they replaced, kept as written then.  A parsed entry is coerced
# on parse and again in ``generic_model``; the Potts and Markov tables go through
# ``generic_model`` and are relabelled with ``dataclasses.replace``; a "p/q"
# string is whatever ``int()`` reads on each side of the "/".

def _two_pass_coerce(x):
    if isinstance(x, int):
        x = Fraction(x)
    if not isinstance(x, (Fraction, float)):
        raise ModelError(f"unsupported numeric value {x!r}")
    try:
        f = float(x)
    except OverflowError:
        raise ModelError("numeric values must be finite, got a rational past the float range") from None
    if not math.isfinite(f):
        raise ModelError(f"numeric values must be finite, got {x!r}")
    return x, f


def _two_pass_table(rows):
    pairs = [[_two_pass_coerce(v) for v in row] for row in rows]
    floats = [[f for _, f in row] for row in pairs]
    if any(isinstance(v, float) for row in pairs for v, _ in row):
        return tuple(tuple(row) for row in floats), floats
    return tuple(tuple(v for v, _ in row) for row in pairs), floats


def two_pass_generic_model(lam, k: int, beta) -> LambdaModel:
    table, floats = _two_pass_table(lam)
    q = len(table)
    if q < 2 or any(len(row) != q for row in table):
        raise ModelError("coupling table must be square with q >= 2")
    beta, b = _two_pass_coerce(beta)
    if not beta > 0:
        raise ModelError(f"inverse temperature must be positive, got {beta}")
    if k < 1:
        raise ModelError(f"tree order k must be >= 1, got {k}")
    vals = [v for row in floats for v in row]
    if not (all(math.isfinite(-b * v) for v in vals) and math.isfinite(b * (max(vals) - min(vals)))):
        raise ModelError("beta*lambda and beta*(max lambda - min lambda) must be finite floats")
    return LambdaModel(k=k, beta=beta, lam=table)


def two_pass_potts_model(q: int, J, beta, k: int) -> LambdaModel:
    if q < 2:
        raise ModelError(f"need q >= 2, got {q}")
    J = _two_pass_coerce(J)[0]
    jp = (q - 1) * J / q
    off = jp / (q - 1)
    lam = [[(-jp if i == j else off) for j in range(q)] for i in range(q)]
    return replace(two_pass_generic_model(lam, k, beta), provenance="potts", J=J)


def two_pass_markov_model(P, k: int) -> LambdaModel:
    rows, floats = _two_pass_table(P)
    q = len(rows)
    if q < 2 or any(len(row) != q for row in rows):
        raise ModelError("stochastic matrix must be square with q >= 2")
    exact = isinstance(rows[0][0], Fraction)
    errors = []
    for i, (row, frow) in enumerate(zip(rows, floats)):
        if any(not (p > 0) for p in frow):
            errors.append(f"row {i}: entries must be strictly positive floats")
        if exact:
            lcm = math.lcm(*[v.denominator for v in row])
            total = sum([v.numerator * (lcm // v.denominator) for v in row])
            if total != lcm:
                errors.append(f"row {i}: sums to {Fraction(total, lcm)}, expected 1")
        elif abs(sum(row) - 1.0) > ROW_SUM_TOL:
            errors.append(f"row {i}: sums to {sum(row)!r}, expected 1")
    if errors:
        raise ModelError("; ".join(errors))
    lam = [[-math.log(p) for p in row] for row in floats]
    return replace(two_pass_generic_model(lam, k, 1), provenance="markov", P=rows)


def _two_pass_number_from_json(v):
    if isinstance(v, str):
        try:
            num, _, den = v.partition("/")
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad rational string {v!r}: {exc}") from None
    if isinstance(v, bool):
        raise ModelError(f"bad numeric value {v!r}")
    if isinstance(v, (int, float)):
        return _two_pass_coerce(v)[0]
    raise ModelError(f"bad numeric value {v!r}")


def two_pass_model_from_dict(data: dict) -> LambdaModel:
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
            beta = _two_pass_number_from_json(data["beta"])
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
                    payload = _two_pass_number_from_json(raw)
                else:
                    if not isinstance(raw, list) or len(raw) != q or any(
                        not isinstance(r, list) or len(r) != q for r in raw
                    ):
                        errors.append(f"{key!r} must be a {q}x{q} matrix")
                    else:
                        payload = [[_two_pass_number_from_json(v) for v in row] for row in raw]
            except ModelError as exc:
                errors.append(str(exc))
    if errors:
        raise ModelError("; ".join(errors))
    try:
        if kind == "potts":
            return two_pass_potts_model(q, payload, beta, k)
        if kind == "markov":
            return two_pass_markov_model(payload, k)
        return two_pass_generic_model(payload, k, beta)
    except ModelError:
        raise
    except ValueError as exc:
        raise ModelError(str(exc)) from None
