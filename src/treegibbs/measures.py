"""Exact finite-volume Gibbs measures and their consistency diagnostics.

Configurations on a ball are indexed as mixed-radix integers over the
breadth-first vertex order, root digit most significant, so marginalizing
to a smaller ball is a reshape.  A boundary field h'_x enters only as the
log-weight it gives spin sigma(x), read as ``fields`` reads it (0 for spin
q-1).  Everything here is exact (no sampling); past the enumeration cap an
operation fails loudly (``_check_cap``, which the spectrum shares).  One
kernel, ``_edge_energies``, builds every energy vector, and no
configuration matrix: it grows the q^|V| vector one vertex at a time, then
scales it and adds the per-vertex terms block by cache-sized block.  The
spectrum builds none: it groups configurations by partial energy, an
integer sum on the exact lattice routes
(``classifier.finite_volume_spectrum``).  The consistency residual sums
shell n out leaf by leaf, so it enumerates only V_{n-1};
``finite_volume_measure`` and ``marginalize`` enumerate V_n and are its
oracle, called by no command.  The two-point correlation uses exact leaf
elimination over the root paths of its two vertices only (every other
vertex of a shell sends one shared message), so it reaches radii the cap
forbids, in time and memory that do not grow with the ball.  The
correlation decay builds no ball at all: along a root path the zero-field
spins form a Markov chain, and one pass multiplies its n centred q x q
kernels (each one P itself for a rational stochastic matrix P).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import ReducedFieldAssignment, _extend, _log_transfer, _shifted_terms
from .model import LambdaModel, _kind
from .topology import Ball, _family, build_ball

DEFAULT_CAP = 2**20
BLOCK = 2**14    # entries of a configuration vector that one pass keeps in cache at a time


class EnumerationCapError(RuntimeError):
    """State space too large for exact enumeration."""


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over ``axis``, bit for bit as scipy.special.logsumexp gives it for floats:
    log1p(s/m) + log(m) + max, the m entries equal to the slice maximum left out of the
    shifted sum s.  Only where that is not finite (slices all -inf, or holding +inf or NaN)
    is log(sum(exp(a))) taken."""
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        e = a - top
        at_top = e == 0                  # a == top wherever the slice is finite
        m = np.count_nonzero(at_top, axis=axis, keepdims=True)
        np.exp(e, out=e)
        np.copyto(e, 0.0, where=at_top)
        s = np.sum(e, axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    return np.squeeze(out, axis=axis)[()]


def _check_cap(q: int, num_vertices: int, cap: int) -> None:
    """Refuse more than min(cap, 2^63 - 1) configurations, before any array is built.

    Configuration indices and multiplicities are int64.  Past 63 vertices
    q^|V| >= 2^64 is over every cap, and the power is not formed.
    """
    limit = min(cap, 2**63 - 1)
    if num_vertices > 63 or q**num_vertices > limit:
        count = "" if num_vertices > 63 else f" = {q**num_vertices}"
        raise EnumerationCapError(f"{q}^{num_vertices}{count} configurations exceed the enumeration cap {limit}")


def _edge_energies(model: LambdaModel, ball: Ball, cap: int, scale: float, terms=()) -> np.ndarray:
    """scale*H(sigma) plus table[sigma_x] for each (x, table) of ``terms``, per configuration index.

    H(sigma) sums lam(sigma_u, sigma_v) over the edges.  Its vector grows one
    vertex at a time from a zero root vector: the energies over vertices
    0..v are those over 0..v-1 with digit v appended, plus
    lam[sigma_parent(v), sigma_v].  ``ball.edges`` is (parent(v), v) in v
    order, so every entry gets the float additions of a per-configuration
    gather, in its order, the first one onto +0.0: about q/(q-1) * q^|V|
    additions, with at most the result and its 1/q-size predecessor alive.
    One pass then walks the vector in blocks of L entries, L the largest
    power of q up to BLOCK: a block is multiplied by ``scale``, then takes
    each term in order, so every entry gets the float operations of one
    full pass per step.  A table is widened to rows of L entries (each value
    repeated over its run of q^(|V|-1-x) entries, then tiled): one add each.
    """
    q, nv = model.q, ball.num_vertices
    _check_cap(q, nv, cap)
    lam = model.lam_float
    e = np.zeros(q)
    for u, v in ball.edges:
        r = q ** (v - u - 1)                     # digits between parent u and v
        prev = e.reshape(q**u, q, r)
        e = np.empty(q * e.size)
        out = e.reshape(q**u, q, r, q)
        if q <= 4 and r >= q:
            # a length-q innermost loop is slow: write one strided column per new spin value
            for b in range(q):
                np.add(prev, lam[:, b, None], out=out[..., b])
        else:
            np.add(prev[..., None], lam[:, None, :], out=out)
    size, L = e.size, q
    while L * q <= min(BLOCK, size):
        L *= q
    widened = []                                 # (entries per table value, rows of L entries)
    for x, table in terms:
        run = size // q ** (x + 1)
        rows = np.repeat(table, min(run, L))
        widened.append((max(run, L), np.tile(rows, max(1, L // rows.size)).reshape(-1, L)))
    for start in range(0, size, L):
        block = e[start:start + L]
        block *= scale
        for span, rows in widened:
            block += rows[start // span % len(rows)]
    return e


@dataclass(frozen=True)
class FiniteVolumeMeasure:
    """Exact distribution over spin configurations of a ball, in log form."""

    ball: Ball
    q: int
    logweights: np.ndarray
    logZ: float

    def probabilities(self) -> np.ndarray:
        p = self.logweights - self.logZ
        np.exp(p, out=p)
        if not np.all(p >= 0):
            raise ValueError("probabilities are NaN or negative: the log-weights are not finite")
        return p


def _field_tables(model: LambdaModel, fields: ReducedFieldAssignment) -> np.ndarray:
    """Per vertex x, the log-weight h'_x gives each spin (``fields._extend``), shape (|V|, q)."""
    if fields.hprime.shape[1:] != (model.q - 1,):
        raise ValueError(f"fields must have {model.q - 1} components per vertex, "
                         f"got shape {fields.hprime.shape}")
    return _extend(fields.hprime)


def finite_volume_measure(
    model: LambdaModel, fields: ReducedFieldAssignment, cap: int = DEFAULT_CAP
) -> FiniteVolumeMeasure:
    """The Gibbs measure on the fields' ball, radius n, with their boundary fields on shell n.

    Log-weight of a configuration: -beta*H(sigma) plus, for each boundary
    vertex x, the log-weight h'_x gives spin sigma(x) (0 for spin q-1).  No
    command calls this; it is the enumeration oracle of
    ``consistency_residual``.
    """
    ball, n = fields.ball, fields.ball.n
    # each boundary vertex's table, added after the -beta scale
    tables = _field_tables(model, fields)[ball.shell_slice(n)]
    logw = _edge_energies(model, ball, cap, -model.beta_float, zip(ball.shells[n], tables))
    return FiniteVolumeMeasure(ball=ball, q=model.q, logweights=logw, logZ=float(_logsumexp(logw)))


def marginalize(mu: FiniteVolumeMeasure, to_level: int) -> FiniteVolumeMeasure:
    """Exact marginal of a finite-volume measure on the smaller ball of radius to_level.

    No command calls this; it is the enumeration oracle of ``consistency_residual``."""
    if to_level >= mu.ball.n:
        raise ValueError(f"marginal level {to_level} must be below {mu.ball.n}")
    if to_level < 0:
        raise ValueError("marginal level must be >= 0")
    sub = build_ball(mu.ball.k, to_level)
    keep = sub.num_vertices
    block = mu.logweights.reshape(mu.q**keep, -1)
    logmarg = _logsumexp(block, axis=1) - mu.logZ
    return FiniteVolumeMeasure(ball=sub, q=mu.q, logweights=logmarg, logZ=0.0)


def consistency_residual(
    model: LambdaModel, fields: ReducedFieldAssignment, cap: int = DEFAULT_CAP
) -> float:
    """Kolmogorov-consistency defect between levels n and n-1.

    The largest |difference| between the marginal on V_{n-1} of the level-n
    measure and the measure from the shell-(n-1) fields; 0 exactly when the
    field recursion holds on shell n-1.  Shell n is summed out leaf by leaf:
    in the marginal, each shell-(n-1) vertex carries, in place of its field
    table, sum_{children y} log sum_b e^{-beta*lam(a, b) + h'_y(b)} per spin a.
    No level-n array is built; ``cap`` bounds the q^|V_{n-1}| configurations.
    """
    ball, n = fields.ball, fields.ball.n
    if n < 1:
        raise ValueError("need a ball of radius >= 1 to compare two levels")
    inner = build_ball(ball.k, n - 1)
    rim = inner.shell_slice(n - 1)
    tables = _field_tables(model, fields)
    leaves = tables[ball.shell_slice(n)].reshape(rim.stop - rim.start, -1, model.q)
    probs = []
    for rim_tables in (_log_transfer(model, leaves).sum(axis=1), tables[rim]):
        logw = _edge_energies(model, inner, cap, -model.beta_float, zip(inner.shells[n - 1], rim_tables))
        probs.append(FiniteVolumeMeasure(inner, model.q, logw, float(_logsumexp(logw))).probabilities())
    return float(np.max(np.abs(probs[0] - probs[1])))


def dlr_conditional(
    model: LambdaModel, ball: Ball, omega: Sequence[int], cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Conditional distribution on the interior V_n given boundary spins one shell out.

    ``ball`` has radius n+1 and ``omega`` fixes its outermost shell (shell
    order).  Returns the normalized probability vector over interior
    configurations: proportional to exp(-beta*(H(sigma) + U(sigma, omega))).
    """
    if ball.n < 1:
        raise ValueError("need a ball of radius >= 1 for a conditioning layer")
    outer = ball.shells[ball.n]
    if len(omega) != len(outer):
        raise ValueError(f"boundary configuration must cover {len(outer)} vertices, got {len(omega)}")
    q = model.q
    if any(not (0 <= s < q) for s in omega):
        raise ValueError(f"boundary spins outside 0..{q - 1}")
    inner = build_ball(ball.k, ball.n - 1)
    # -beta*lam(sigma_x, omega_y) summed over the outer children y of each interior-boundary x
    tables = model.log_weights[:, np.asarray(omega).reshape(len(inner.shells[-1]), -1)].sum(-1)
    e = _edge_energies(model, inner, cap, -model.beta_float, zip(inner.shells[-1], tables.T))
    return np.exp(e - _logsumexp(e))


def markov_property_residual(model: LambdaModel, n: int, cap: int = DEFAULT_CAP) -> float:
    """Conditional-independence defect across shell n under the zero-field measure.

    Conditions the level-(n+1) measure on the spins of shell n and returns
    the largest total variation between the law of the inner ball V_{n-1}
    under an outer configuration (shell n+1) and its law under the
    reference one, shell n+1 all at spin 0, with the same shell-n spins.
    Vanishes for nearest-neighbor interactions.  TV is a metric, so the
    laws all agree exactly when this is 0, and the largest TV between any
    two of them lies between this value and twice it.  The comparison is
    made in place on the probability array: no array larger than the
    measure is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ball = build_ball(model.k, n + 1)
    p = _edge_energies(model, ball, cap, -model.beta_float)      # the log-weights, freed below
    p = FiniteVolumeMeasure(ball, model.q, p, float(_logsumexp(p))).probabilities()
    na = build_ball(model.k, n - 1).num_vertices
    p = p.reshape(model.q**na, model.q ** len(ball.shells[n]), -1)
    p /= p.sum(axis=0, keepdims=True)            # law of V_{n-1} per (shell n, shell n+1) config
    return _tv_to_first_column(p)


def _tv_to_first_column(cond: np.ndarray) -> float:
    """Largest TV between a column of a slice cond[:, b, :] and its first column; overwrites cond."""
    cond -= cond[:, :, :1]
    return float(0.5 * np.max(np.sum(np.abs(cond, out=cond), axis=0)))


def two_point_correlation(model: LambdaModel, x0: int, x1: int, n: int) -> np.ndarray:
    """Correlation-defect matrix |P(s(x0)=i, s(x1)=j) - P(s(x0)=i) P(s(x1)=j)|.

    Computed under the zero-field measure at radius n by exact leaf
    elimination, each clamped value pair (only the diagonal ones when
    x0 == x1) one row.  Only the root paths of x0 and x1, at most 2n+1
    vertices, are swept.  Every other vertex of shell m holds one shared
    value, 0 on shell n and below it the sum of k copies of shell m+1's
    shared message, so that message is computed once per shell.  A path
    vertex adds to its clamped row its children's messages summed in child
    order: the float operations ``topology.sweep_up`` performs on it over
    the whole ball.  So a pair costs O(n) small steps, and the memory does
    not grow with the ball.
    """
    ball = build_ball(model.k, n)
    nv = ball.num_vertices
    if not (0 <= x0 < nv and 0 <= x1 < nv):
        raise ValueError(f"vertices ({x0}, {x1}) outside the radius-{n} ball")
    q, k = model.q, model.k
    a0, a1 = np.divmod(np.arange(q * q), q)
    if x0 == x1:
        a0, a1 = a0[a0 == a1], a1[a0 == a1]
    rows = {}                                   # path vertex -> its clamped rows
    for x, a in ((x0, a0), (x1, a1)):
        rows[x] = np.where(np.arange(q) == a[:, None], 0.0, -np.inf)
        while x:
            x = _family(k, x)[0]
            rows.setdefault(x, np.zeros((len(a0), q)))
    shared = [None] * (n + 1)                   # shared[m]: what an off-path shell-m vertex sends
    value = np.zeros(q)                         # an off-path vertex's value, 0 on shell n
    for m in range(n, 0, -1):
        shared[m] = _log_transfer(model, value)
        value = np.zeros(q)
        for _ in range(k):
            value += shared[m]
    sent = {}
    for x in sorted(rows, reverse=True):        # breadth-first indexing: children before parents
        m = ball.shell_of(x)
        if m < n:
            total = np.zeros_like(rows[x])
            for y in _family(k, x)[1]:
                total += sent.get(y, shared[m + 1])
            rows[x] += total
        if x:
            sent[x] = _log_transfer(model, rows[x])
    root = rows[0]
    weights = np.exp(root - root.max()).sum(axis=-1)
    joint = np.zeros((q, q))
    joint[a0, a1] = weights / weights.sum()
    return np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0)))


def correlation_decay(model: LambdaModel, n: int) -> list[tuple[int, float]]:
    """Max correlation defect between the root and a vertex at each distance 1..n.

    Under the zero-field measure the spins along a root path form a Markov
    chain.  Walking shell n down to 1, ``val`` is the log-weight of the
    subtree below an unclamped shell-m vertex, its maximum subtracted so it
    stays O(1), and K_m[i, j] = e^{-beta*lam[i][j] + val_j - shared_i} is the
    shell-m child-given-parent kernel, shared_i = log sum_j of its numerator.
    The root law is p_0 proportional to e^{(k+1)*shared_1}.  Row d is
    max_ij p_0(i)*|C_d[i, j]| with C_d = K_1...K_d - 1 p_d^T formed as the
    centred product C_d = C_{d-1}(K_d - 1 p_d^T) from C_0 = I - 1 p_0^T, so
    a defect keeps its relative accuracy however small it is.  On a rational
    stochastic matrix P, e^{-beta*lam} is P, whose rows sum to 1 exactly:
    every val is 0, so every K_m is the float P and p_0 is uniform, with no
    rounding of e^{-lam} compounded through the subtree weights.  O(n*q^3)
    in all, with no ball built.
    """
    if n < 0:
        raise ValueError(f"need ball radius n >= 0, got {n}")
    kernels, val, root = [], np.zeros(model.q), np.zeros(model.q)
    if _kind(model) == "symbolic-log-rational":
        # every val is 0: no subtree weights to recur
        kernels = [np.array(model.P, dtype=float)] * n
    for _ in range(n - len(kernels)):           # shells n down to 1
        top, terms = _shifted_terms(model, val)
        # each row summed in sorted order: rows that are permutations of one another (Potts)
        # get equal sums, where rounding left in val would grow by k*lambda_2 per shell
        shared = top[:, 0] + np.log(np.sort(terms).sum(axis=-1))
        kernels.append(np.exp(model.log_weights + val - shared[:, None]))
        root = shared - shared.max()
        val = model.k * root
    p = np.exp((model.k + 1) * root)
    p /= p.sum()
    weight, centred = p[:, None], np.eye(model.q) - p
    rows = []
    for d, kernel in enumerate(reversed(kernels), 1):
        p = p @ kernel
        centred = centred @ (kernel - p)
        rows.append((d, float(np.max(weight * np.abs(centred)))))
    return rows
