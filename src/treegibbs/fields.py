"""Boundary-field recursion on the tree: evaluation, propagation, fixed points.

Fields are stored in reduced form h' (the measure-side field is
h = ((q-1)/q) h'), as coordinate vectors with respect to the first q-1
simplex spin vectors.  The one-step map F sends the reduced field of a
direct successor to its contribution at the parent; measure consistency is
equivalent to h'_x = sum_{y in S(x)} F(h'_y) at every interior vertex.

F is batched: ``recursion_map`` maps any (..., q-1) array of fields at once.
Propagation runs shell by shell, one map over a whole shell followed by a
sum over each parent's children, and the fixed-point search iterates all
starts together as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LambdaModel
from .topology import Ball


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

    def on_shell(self, m: int) -> np.ndarray:
        return self.hprime[self.ball.shell_slice(m)].copy()


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
    h_ext = np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)  # spin q-1 carries no field
    x = model.log_weights + h_ext[..., None, :]                         # (..., q, q)
    top = x.max(axis=-1, keepdims=True)
    row_logs = top[..., 0] + np.log(np.exp(x - top).sum(axis=-1))
    return row_logs[..., :-1] - row_logs[..., -1:]


def check_unordered(model: LambdaModel, tol: float = 1e-12) -> tuple[bool, float]:
    """Does the zero field solve the recursion? Returns (verdict, ||F(0)||_inf).

    Equivalent to all rows of e^{-beta*lam} having equal sums, which holds
    for any Potts table and any stochastic-matrix model.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    residual = float(np.max(np.abs(recursion_map(model, np.zeros(model.q - 1)))))
    return residual <= tol, residual


def propagate_fields(model: LambdaModel, ball: Ball, boundary) -> ReducedFieldAssignment:
    """Propagate boundary fields inward: h'_x = sum over successors of F(h'_y).

    ``boundary`` gives the reduced fields on the outermost shell, either as
    an array in shell order or as a mapping vertex index -> vector.  Each
    shell costs one batched map of the shell outside it.
    """
    qm1 = model.q - 1
    hprime = np.zeros((ball.num_vertices, qm1))
    outer = ball.shells[ball.n]
    if isinstance(boundary, dict):
        missing = [x for x in outer if x not in boundary]
        if missing:
            raise ValueError(f"boundary fields missing for vertices {missing}")
        boundary = [boundary[x] for x in outer]
    hprime[ball.shell_slice(ball.n)] = np.asarray(boundary, dtype=float).reshape(len(outer), qm1)
    for m in range(ball.n - 1, -1, -1):
        parents = ball.shell_slice(m)
        mapped = recursion_map(model, hprime[ball.shell_slice(m + 1)])
        hprime[parents] = mapped.reshape(parents.stop - parents.start, -1, qm1).sum(axis=1)
    return ReducedFieldAssignment(ball, hprime)


@dataclass(frozen=True)
class FixedPointResult:
    """Deduplicated translation-invariant solutions of h = k*F(h), lexicographically sorted.

    The per-start tuples follow start order (the zero start first):
    ``iterations`` counts the damped updates made before the residual test
    passed (``max_iter`` when it never did), ``residuals`` holds the last
    tested ||h - k*F(h)||_inf, and ``converged`` marks the starts whose
    residual fell below the tolerance.
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
    damping: float = 0.5,
) -> FixedPointResult:
    """Constant-field solutions of h = k*F(h) by damped fixed-point iteration.

    A generic (non-root) vertex has k successors, so the translation-invariant
    recursion reads h = k*F(h); the root's extra successor makes a nonzero
    constant field only approximately consistent there.  Starts are drawn
    uniformly from [-5, 5]^{q-1} plus the zero start; only iterates whose
    residual ||h - k*F(h)||_inf falls below ``tol`` are reported.  All
    starts iterate together, and a start leaves the batch once it converges.
    """
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if not 0 < damping <= 1:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError(f"need at least one iteration, got {max_iter}")
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
