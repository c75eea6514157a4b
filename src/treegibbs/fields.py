"""Boundary-field recursion on the tree: evaluation, propagation, fixed points.

A field is stored in reduced form h' in R^{q-1}: h'_a is the log-weight it
gives spin a relative to spin q-1, and ``_extend``, which ``measures`` shares,
appends the 0 of spin q-1.  (The paper's h = ((q-1)/q) sum_a h'_a eta_a pairs
with spin vector eta_b as h'_b - sum(h')/q: a constant apart, which cancels.)
The one-step map F sends the reduced field of a direct successor to its
contribution at the parent; measure consistency is equivalent to
h'_x = sum_{y in S(x)} F(h'_y) at every interior vertex.

F is batched: ``recursion_map`` maps any (..., q-1) array of fields at once.
Propagation is one inward sweep (``topology.sweep_up``) with F as the
message, one map per shell.  The fixed-point search iterates all starts
together as one array, by damped iteration that switches to Newton steps
(with the Jacobian F' from the same softmax rows as F) where the linearised
damped map contracts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LambdaModel, _check_tol, _kind
from .topology import Ball, sweep_up

DAMPING = 0.5   # d in the fixed-point search's damped step h <- (1-d)*h + d*k*F(h)


@dataclass(frozen=True)
class ReducedFieldAssignment:
    """Reduced field vectors h'_x for every vertex of a ball, shape (num_vertices, q-1)."""

    ball: Ball
    hprime: np.ndarray

    def __post_init__(self):
        if self.hprime.shape[0] != self.ball.num_vertices:
            raise ValueError(
                f"field array covers {self.hprime.shape[0]} vertices, ball has {self.ball.num_vertices}"
            )
        if not np.all(np.isfinite(self.hprime)):
            raise ValueError("field components must be finite")


def zero_fields(ball: Ball, q: int) -> ReducedFieldAssignment:
    return ReducedFieldAssignment(ball, np.zeros((ball.num_vertices, q - 1)))


def recursion_map(model: LambdaModel, h: np.ndarray) -> np.ndarray:
    """One-step field map F: R^{q-1} -> R^{q-1}, applied over the last axis of h.

    F_i(h) = log( sum_j e^{-beta*lam[i][j]} e^{h_j} + e^{-beta*lam[i][q-1]} )
           - (same with the last row), evaluated in the log domain with a
    max shift so large couplings and fields stay finite.  ``h`` may have any
    shape (..., q-1); the result has the same shape.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim == 0 or h.shape[-1] != model.q - 1:
        raise ValueError(f"field must have {model.q - 1} components, got shape {h.shape}")
    row_logs = _log_transfer(model, _extend(h))
    return row_logs[..., :-1] - row_logs[..., -1:]


def _extend(h: np.ndarray) -> np.ndarray:
    """Append the zero field of spin q-1, which carries none."""
    return np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)


def _shifted_terms(model: LambdaModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima and e^{t - max} of t_ij = -beta*lam[i][j] + x_j, over the last axis of x."""
    t = model.log_weights + x[..., None, :]                             # (..., q, q)
    top = t.max(axis=-1, keepdims=True)
    return top, np.exp(t - top)


def _log_transfer(model: LambdaModel, x: np.ndarray) -> np.ndarray:
    """log sum_j e^{-beta*lam[i][j] + x_j} for each row i, over the last axis of x.

    Max-shifted, so large values stay finite; -inf entries are allowed while
    each vector keeps a finite one.  F and the consistency residual's summed-out
    shell share it.
    """
    top, terms = _shifted_terms(model, x)
    return top[..., 0] + np.log(terms.sum(axis=-1))


def _map_jacobian(model: LambdaModel, h: np.ndarray) -> np.ndarray:
    """F'(h), shape (..., q-1, q-1): dF_i/dh_j = P_ij - P_{q-1,j}.

    P holds the softmax rows behind ``_log_transfer`` at (h, 0).
    """
    _, terms = _shifted_terms(model, _extend(h))
    p = terms / terms.sum(axis=-1, keepdims=True)
    return p[..., :-1, :-1] - p[..., -1:, :-1]


def check_unordered(model: LambdaModel, tol: float = 1e-12) -> tuple[bool, float]:
    """Does the zero field solve the recursion? Returns (verdict, ||F(0)||_inf).

    It does when all rows of e^{-beta*lam} have equal sums.  On an exact table
    that holds exactly when every row of lam is a permutation of row 0 (the
    e^a for distinct rational a are linearly independent, by
    Lindemann-Weierstrass), and a rational stochastic matrix's rows sum to 1:
    those two routes decide without ``tol``.  Elsewhere the verdict is residual <= tol.
    """
    _check_tol(tol)
    residual = float(np.max(np.abs(recursion_map(model, np.zeros(model.q - 1)))))
    kind = _kind(model)
    if kind == "exact-rational":
        return all(sorted(row) == sorted(model.lam[0]) for row in model.lam), residual
    return kind == "symbolic-log-rational" or residual <= tol, residual


def propagate_fields(model: LambdaModel, ball: Ball, boundary: np.ndarray) -> ReducedFieldAssignment:
    """Propagate boundary fields inward: h'_x = sum over successors of F(h'_y).

    ``boundary`` holds the reduced fields on the outermost shell in shell
    order, an array of shape exactly (shell size, q-1).  Each shell costs one
    batched map of the shell outside it.
    """
    outer = ball.shell_slice(ball.n)
    boundary = np.asarray(boundary, dtype=float)
    shape = (outer.stop - outer.start, model.q - 1)
    if boundary.shape != shape:
        raise ValueError(f"boundary fields must have shape {shape}, got {boundary.shape}")
    hprime = np.zeros((ball.num_vertices, model.q - 1))
    hprime[outer] = boundary
    return ReducedFieldAssignment(ball, sweep_up(ball, hprime, lambda h: recursion_map(model, h)))


@dataclass(frozen=True)
class FixedPointResult:
    """Deduplicated translation-invariant solutions of h = k*F(h), sorted.

    The per-start tuples follow start order (the zero start first):
    ``iterations`` counts the updates, damped or Newton, made before the
    residual test passed (``max_iter`` when it never did), ``residuals``
    holds the last tested ||h - k*F(h)||_inf, and ``converged`` marks the
    starts whose residual fell below the tolerance.  The sort rounds each
    component to 8 decimals (the dedupe scale) first, so noise below it does
    not decide the order.
    """

    solutions: tuple[tuple[float, ...], ...]
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    converged: tuple[bool, ...]

    @property
    def non_converged(self) -> int:
        return self.converged.count(False)


def ti_fixed_points(
    model: LambdaModel,
    starts: int = 32,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    seed: int = 42,
) -> FixedPointResult:
    """Constant-field solutions of h = k*F(h) by damped iteration with Newton steps.

    A generic (non-root) vertex has k successors, so the translation-invariant
    recursion reads h = k*F(h); the root's extra successor makes a nonzero
    constant field only approximately consistent there.  Starts are drawn
    uniformly from [-5, 5]^{q-1} plus the zero start; only iterates whose
    residual ||h - k*F(h)||_inf falls below ``tol`` are reported.  All
    starts iterate together, and a start leaves the batch once it converges.

    Each update is the damped step h <- (1-d)*h + d*k*F(h), d = ``DAMPING``,
    except that a start takes the Newton step h - (I - k*F'(h))^{-1}(h - k*F(h))
    when its residual is below its bar, the linearised damped map
    (1-d)*I + d*k*F'(h) has spectral radius below 1, and the Newton step is
    finite and at most 1 long in the inf-norm.  The bar starts at 2/d and
    drops to half the residual at each try, so a start forms at most
    log2(4/(d*tol)) Jacobians.  Newton thus runs only where the damped map
    contracts locally; that it ends on the fixed points the damped iteration
    reaches is not proved (the tests compare both on random tables).  Each
    update makes one ``recursion_map`` call.
    """
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    _check_tol(tol)
    if max_iter < 1:
        raise ValueError(f"need at least one iteration, got {max_iter}")
    rng = np.random.default_rng(seed)
    qm1 = model.q - 1
    h = np.vstack([np.zeros(qm1), rng.uniform(-5.0, 5.0, size=(starts, qm1))])
    iterations = np.full(len(h), max_iter)
    residuals = np.empty(len(h))
    active = np.arange(len(h))
    current = h.copy()
    # Per active start, the residual below which Newton is tried.  It starts at
    # 2/d: along an eigenvector of a k*F' where the damped map contracts, a
    # larger residual gives a Newton step longer than 1.
    bar = np.full(len(h), 2.0 / DAMPING)
    eye = np.eye(qm1)
    for it in range(max_iter):
        target = model.k * recursion_map(model, current)
        residual = np.max(np.abs(current - target), axis=1)
        done = residual <= tol
        if done.any():
            finished = active[done]
            h[finished], residuals[finished], iterations[finished] = current[done], residual[done], it
            keep = ~done
            active, current, target = active[keep], current[keep], target[keep]
            residual, bar = residual[keep], bar[keep]
            if active.size == 0:
                break
        moved = (1.0 - DAMPING) * current + DAMPING * target
        rows = (residual < bar).nonzero()[0]
        if rows.size:
            # Each try halves the bar, so a start forms at most log2(4/(d*tol)) Jacobians.
            bar[rows] = residual[rows] / 2
            kjac = model.k * _map_jacobian(model, current[rows])
            lin = (1.0 - DAMPING) * eye + DAMPING * kjac
            # The inf-norm bounds the spectral radius; eigenvalues only where it is not below 1.
            contracts = np.abs(lin).sum(axis=-1).max(axis=-1) < 1.0
            unsure = ~contracts
            if unsure.any():
                contracts[unsure] = np.abs(np.linalg.eigvals(lin[unsure])).max(axis=-1) < 1.0
            rows, kjac = rows[contracts], kjac[contracts]
        if rows.size:
            # The linearised damped map contracts, so 1 is no eigenvalue of k*F' and I - k*F' is invertible.
            rhs = (target - current)[rows]    # at q = 2, one division gives solve's bits
            delta = rhs / (1 - kjac[:, 0]) if qm1 == 1 else np.linalg.solve(eye - kjac, rhs[..., None])[..., 0]
            short = np.all(np.isfinite(delta), axis=1) & (np.max(np.abs(delta), axis=1) <= 1.0)
            moved[rows[short]] = current[rows[short]] + delta[short]
        current = moved
    residuals[active] = residual
    converged = residuals <= tol
    hits = h[converged]
    far = np.max(np.abs(hits[:, None] - hits[None]), axis=2) > 1e-8
    found: list[int] = []
    for i in range(len(hits)):
        if far[i, found].all():
            found.append(i)
    sols = sorted((tuple(float(c) for c in hits[i]) for i in found),
                  key=lambda s: (tuple(round(c, 8) for c in s), s))
    return FixedPointResult(
        solutions=tuple(sols),
        iterations=tuple(iterations.tolist()),
        residuals=tuple(residuals.tolist()),
        converged=tuple(converged.tolist()),
    )
