"""Finite balls of the Cayley tree: shells, parents, the inward sweep, nearest common ancestors, addressing.

The Cayley tree of order k is the infinite cycle-free graph in which every
vertex lies on k+1 edges.  Only finite balls around a distinguished root are
represented.  Vertices are indexed breadth-first, with sibling order fixed by
generator labels, so two builds with the same (k, n) are identical.
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
    """Radius-n ball of the order-k Cayley tree: just (k, n).

    Vertices are indexed breadth-first from the root 0.  Shell m (distance m)
    is a contiguous range of (k+1)*k^(m-1) vertices for m >= 1, and shell m+1
    lists the children of shell m's vertices parent by parent, in shell-m
    order (``sweep_up``, ``marginalize`` and the consistency and Markov
    residuals rely on this), so a vertex's parent and children have the
    closed form ``_family``.  Vertex tables are built on first read:
    ``shells``, ``parent`` (-1 at the root), ``edges`` (one (parent, child)
    pair per non-root vertex) and ``words``, the reduced words
    over generator labels 1..k+1 (no two adjacent letters equal) addressing
    the vertices, siblings ordered by last letter.
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
        """Distance of vertex x from the root; x indexes like ``parent``."""
        return bisect_right(self._offsets, range(self.num_vertices)[x]) - 1

    @cached_property
    def shells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(range(a, b)) for a, b in zip(self._offsets, self._offsets[1:]))

    @cached_property
    def parent(self) -> tuple[int, ...]:
        return tuple(_family(self.k, y)[0] for y in range(self.num_vertices))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.parent[1:], range(1, self.num_vertices)))

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        words: list[tuple[int, ...]] = [()]
        for x in range(self._offsets[self.n]):      # interior vertices, whose children follow in order
            last = words[x][-1] if words[x] else 0
            words += [words[x] + (g,) for g in range(1, self.k + 2) if g != last]
        return tuple(words)

    @cached_property
    def word_index(self) -> dict[tuple[int, ...], int]:
        """Vertex of each reduced word: the inverse of ``words``, built once per ball."""
        return {w: x for x, w in enumerate(self.words)}


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
    shell's rows, (..., shell size, d), to what they send their parents.
    Returns a new array.  Field propagation uses it.
    """
    out = np.array(values, dtype=float)
    for m in range(ball.n - 1, -1, -1):
        parents = ball.shell_slice(m)
        sent = message(out[..., ball.shell_slice(m + 1), :])
        # breadth-first indexing lists shell m+1 grouped by parent, in shell-m order
        grouped = sent.reshape(sent.shape[:-2] + (parents.stop - parents.start, -1, sent.shape[-1]))
        out[..., parents, :] += grouped.sum(axis=-2)
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
    """Inverse of ``ball.words``; raises for words not addressing a ball vertex."""
    try:
        return ball.word_index[tuple(word)]
    except KeyError:
        raise ValueError(f"word {word} does not address a vertex of the ball") from None
