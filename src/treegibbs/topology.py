"""Finite balls of the Cayley tree: shells, parents, the inward sweep, nearest common ancestors, addressing.

The Cayley tree of order k is the infinite cycle-free graph in which every
vertex lies on k+1 edges.  Only finite balls around a distinguished root are
represented.  Vertices are indexed breadth-first, with sibling order fixed by
generator labels, so two builds with the same (k, n) are identical, and every
vertex fact is a closed form in the vertex index: no vertex table is stored.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np


def ball_size(k: int, n: int) -> int:
    """Vertex count of the radius-n ball, 1 + (k+1)(1 + k + ... + k^(n-1)), in closed form."""
    return 1 + (k + 1) * (n if k == 1 else (k**n - 1) // (k - 1))


@dataclass(frozen=True)
class Ball:
    """Radius-n ball of the order-k Cayley tree: just (k, n), and no vertex table.

    Vertices are indexed breadth-first from the root 0.  Shell m (distance m)
    is a contiguous range of (k+1)*k^(m-1) vertices for m >= 1, and shell m+1
    lists the children of shell m's vertices parent by parent, in shell-m
    order (``sweep_up``, ``marginalize`` and the consistency and Markov
    residuals rely on this).  So every vertex fact is arithmetic: ``shells``
    and ``shell_of`` read the shell offsets, ``_family`` gives a vertex's
    parent and children, and ``vertex_from_word`` the vertex a reduced word
    over generator labels 1..k+1 addresses.
    """

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 0:
            raise ValueError(f"need tree order k >= 1 and ball radius n >= 0, got k={self.k}, n={self.n}")

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """First vertex of each shell, then the vertex count: shell m is offsets[m]:offsets[m+1]."""
        return (0,) + tuple(ball_size(self.k, m) for m in range(self.n + 1))

    @property
    def num_vertices(self) -> int:
        return self._offsets[-1]

    def shell_slice(self, m: int) -> slice:
        """Index range of shell m, contiguous under breadth-first indexing; m indexes like ``shells``."""
        m = range(self.n + 1)[m]
        return slice(self._offsets[m], self._offsets[m + 1])

    def shell_of(self, x: int) -> int:
        """Distance of vertex x from the root; x indexes like range(num_vertices)."""
        return bisect_right(self._offsets, range(self.num_vertices)[x]) - 1

    @property
    def shells(self) -> tuple[range, ...]:
        return tuple(map(range, self._offsets, self._offsets[1:]))


def _family(k: int, x: int) -> tuple[int, range]:
    """Parent (-1 at the root) and children of vertex x of the order-k tree, in closed form.

    Breadth-first indexing lists children in blocks, parent by parent: the
    root's are 1..k+1 and those of x >= 1 are k*x+2..k*x+k+1, so y >= 1 has
    parent max(0, (y-2)//k).  The children are those of the unbounded tree;
    a ball's shell-n vertices have none.
    """
    if x == 0:
        return -1, range(1, k + 2)
    return max(0, (x - 2) // k), range(k * x + 2, k * x + k + 2)


@lru_cache(maxsize=None)
def build_ball(k: int, n: int) -> Ball:
    """The radius-n ball of the order-k Cayley tree, one shared instance per (k, n)."""
    return Ball(k=k, n=n)


def sweep_up(ball: Ball, values: np.ndarray, message: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Inward sweep: for m = n-1 down to 0, add to each shell-m row the sum of
    ``message`` over that vertex's children.

    ``values`` has shape (..., num_vertices, d); ``message`` maps a whole
    shell's rows, (..., shell size, d), to what they send their parents.  The
    children are summed first (``_columnwise``), then added to the parents.
    Returns a new array.  Field propagation uses it.
    """
    out = np.array(values, dtype=float)
    for m in range(ball.n - 1, -1, -1):
        parents = ball.shell_slice(m)
        sent = message(out[..., ball.shell_slice(m + 1), :])
        # breadth-first indexing lists shell m+1 grouped by parent, in shell-m order
        grouped = sent.reshape(sent.shape[:-2] + (parents.stop - parents.start, -1, sent.shape[-1]))
        out[..., parents, :] += _columnwise(np.add, np.swapaxes(grouped, -1, -2))
    return out


def _columnwise(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1) by one whole-array call per further column, as numpy reduces
    a short axis slowly.  Left to right: numpy's order, and bits, below 8 columns."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def _meet(ball: Ball, x: int, y: int) -> int:
    """Nearest common ancestor of vertices x and y (no vertex table built)."""
    while x != y:               # breadth-first indexing: the larger index is at least as deep
        if x > y:
            x = _family(ball.k, x)[0]
        else:
            y = _family(ball.k, y)[0]
    return x


def vertex_from_word(ball: Ball, word: tuple[int, ...]) -> int:
    """The vertex a reduced word over labels 1..k+1 addresses, in closed form: label g leads
    from the root to g, and from x >= 1, whose word ends in l, to k*x + 1 + g - [g > l] =
    k*x + g + [g < l] (``_family``'s children, siblings by last letter).  ValueError for a
    label outside 1..k+1, a repeated letter, or a vertex outside the ball."""
    x = last = 0
    for g in word:
        x = ball.k * x + g + (g < last)
        if not (0 < g <= ball.k + 1 and g != last and x < ball.num_vertices):
            raise ValueError(f"word {word} does not address a vertex of the ball")
        last = g
    return x
