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
oracle, called by no command.  The two-point quantities build no ball at
all: the zero-field spins form a Markov chain down every root path, with
one q x q kernel per shell (P itself for a rational stochastic matrix P),
and the correlation decay and every pair defect are centred products of
those n kernels (``_root_path``, ``_centred``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .fields import ReducedFieldAssignment, _extend, _log_transfer, _shifted_terms
from .model import LambdaModel, _kind
from .topology import Ball, _meet, build_ball

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
    if not 0 <= to_level < mu.ball.n:
        raise ValueError(f"marginal level must be in 0..{mu.ball.n - 1}, got {to_level}")
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


def _root_path(model: LambdaModel, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Root law p_0 and child-given-parent kernels [K_1..K_n] of the zero-field measure at radius n.

    Every vertex of shell m roots the same subtree, so one kernel serves the
    shell, and along a root path the spins form a Markov chain.  Walking
    shell n down to 1, ``val`` is the log-weight of the subtree below an
    unclamped shell-m vertex, its maximum subtracted so it stays O(1), and
    K_m[i, j] = e^{-beta*lam[i][j] + val_j - shared_i}, shared_i = log sum_j
    of its numerator.  The root law is proportional to e^{(k+1)*shared_1}.
    On a rational stochastic matrix P, e^{-beta*lam} is P, whose rows sum to
    1 exactly: every val is 0, so every K_m is the float P and p_0 is
    uniform, with no rounding of e^{-lam} compounded through the subtree
    weights.  No ball is built.
    """
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
    return p / p.sum(), kernels[::-1]


def _centred(p: np.ndarray, kernels: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """C_0 = I - 1 p^T, then per kernel C_d = K_1...K_d - 1 p_d^T as the centred product
    C_{d-1}(K_d - 1 p_d^T), p_d = p K_1...K_d: small entries keep their relative accuracy."""
    centred = np.eye(len(p)) - p
    yield centred
    for kernel in kernels:
        p = p @ kernel
        centred = centred @ (kernel - p)
        yield centred


def two_point_correlation(model: LambdaModel, x0: int, x1: int, n: int) -> np.ndarray:
    """Correlation-defect matrix |P(s(x0)=i, s(x1)=j) - P(s(x0)=i) P(s(x1)=j)|.

    Under the zero-field measure at radius n: given the spin of their nearest
    common ancestor w, on shell m with law p_w = p_0 K_1...K_m (``_root_path``),
    the two spins are independent, so the defect is (p_w * C_a)^T C_b, C_a and
    C_b the centred products (``_centred``) of K_{m+1}... down to x0 and x1,
    a and b shells below w.  O(n*q^3), with no vertex table built.
    """
    ball = build_ball(model.k, n)
    if not (0 <= x0 < ball.num_vertices and 0 <= x1 < ball.num_vertices):
        raise ValueError(f"vertices ({x0}, {x1}) outside the radius-{n} ball")
    p, kernels = _root_path(model, n)
    m, s0, s1 = (ball.shell_of(x) for x in (_meet(ball, x0, x1), x0, x1))
    for kernel in kernels[:m]:
        p = p @ kernel
    centred = list(_centred(p, kernels[m:max(s0, s1)]))
    return np.abs((p[:, None] * centred[s0 - m]).T @ centred[s1 - m])


def correlation_decay(model: LambdaModel, n: int) -> list[tuple[int, float]]:
    """Max correlation defect between the root and a vertex at each distance 1..n.

    Row d is max_ij p_0(i)*|C_d[i, j]|, p_0 and the kernels from ``_root_path``
    and C_d their centred product (``_centred``).  O(n*q^3), with no ball built.
    """
    if n < 0:
        raise ValueError(f"need ball radius n >= 0, got {n}")
    p, kernels = _root_path(model, n)
    weight = p[:, None]
    return [(d, float(np.max(weight * np.abs(c)))) for d, c in enumerate(_centred(p, kernels)) if d]
