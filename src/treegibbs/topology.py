"""Finite balls of the Cayley tree: shells, successors, the inward sweep, distances, addressing.

The Cayley tree of order k is the infinite cycle-free graph in which every
vertex lies on k+1 edges.  Only finite balls around a distinguished root are
represented.  Vertices are indexed breadth-first, with sibling order fixed by
generator labels, so two builds with the same (k, n) are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Ball:
    """Radius-n ball of the order-k Cayley tree.

    Vertex 0 is the root.  ``shells[m]`` lists the vertices at distance m
    (a contiguous index range, since indexing is breadth-first).  ``edges``
    holds one (parent, child) pair per non-root vertex; the parent always
    sits one shell closer to the root.  ``words[v]`` is the reduced word
    over generator labels 1..k+1 addressing vertex v (empty at the root,
    no two adjacent letters equal).
    """

    k: int
    n: int
    parent: tuple[int, ...]
    shells: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    words: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    def shell_slice(self, m: int) -> slice:
        """Index range of shell m, contiguous under breadth-first indexing."""
        shell = self.shells[m]
        return slice(shell[0], shell[-1] + 1)

    def shell_of(self, x: int) -> int:
        """Distance of vertex x from the root."""
        return len(self.words[x])

    @cached_property
    def word_index(self) -> dict[tuple[int, ...], int]:
        """Vertex of each reduced word: the inverse of ``words``, built once per ball."""
        return {w: x for x, w in enumerate(self.words)}


@lru_cache(maxsize=None)
def build_ball(k: int, n: int) -> Ball:
    """Construct the radius-n ball of the order-k Cayley tree.

    The root has k+1 direct successors; every other interior vertex has k.
    Successors are ordered by generator label, which makes the vertex
    indexing deterministic.
    """
    if k < 1:
        raise ValueError(f"tree order k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"ball radius n must be >= 0, got {n}")

    parent = [-1]
    words: list[tuple[int, ...]] = [()]
    shells: list[list[int]] = [[0]]
    children: list[list[int]] = [[]]
    edges: list[tuple[int, int]] = []

    for m in range(1, n + 1):
        shell: list[int] = []
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

    return Ball(
        k=k,
        n=n,
        parent=tuple(parent),
        shells=tuple(tuple(s) for s in shells),
        edges=tuple(edges),
        words=tuple(words),
        children=tuple(tuple(c) for c in children),
    )


def successors(ball: Ball, x: int) -> tuple[int, ...]:
    """Direct successors of x inside the ball.

    Rejects vertices on the outermost shell, whose successors lie outside.
    """
    if ball.shell_of(x) >= ball.n:
        raise ValueError(f"vertex {x} lies on the boundary shell; its successors are outside the ball")
    return ball.children[x]


def sweep_up(ball: Ball, values: np.ndarray, message: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Inward sweep: for m = n-1 down to 0, add to each shell-m row the sum of
    ``message`` over that vertex's children.

    ``values`` has shape (..., num_vertices, d); ``message`` maps a whole
    shell's rows, (..., shell size, d), to what they send their parents.
    Returns a new array.
    """
    out = np.array(values, dtype=float)
    for m in range(ball.n - 1, -1, -1):
        parents = ball.shell_slice(m)
        sent = message(out[..., ball.shell_slice(m + 1), :])
        # breadth-first indexing lists shell m+1 grouped by parent, in shell-m order
        grouped = sent.reshape(sent.shape[:-2] + (parents.stop - parents.start, -1, sent.shape[-1]))
        out[..., parents, :] += grouped.sum(axis=-2)
    return out


def distance(ball: Ball, x: int, y: int) -> int:
    """Graph distance between two vertices of the ball."""
    nv = ball.num_vertices
    if not (0 <= x < nv and 0 <= y < nv):
        raise ValueError(f"vertex out of range: ({x}, {y})")
    d = 0
    while x != y:
        if ball.shell_of(x) >= ball.shell_of(y):
            x = ball.parent[x]
        else:
            y = ball.parent[y]
        d += 1
    return d


def vertex_word(ball: Ball, x: int) -> tuple[int, ...]:
    """Reduced word over generators 1..k+1 addressing vertex x (root -> empty word)."""
    return ball.words[x]


def vertex_from_word(ball: Ball, word: tuple[int, ...]) -> int:
    """Inverse of vertex_word; raises for words not addressing a ball vertex."""
    try:
        return ball.word_index[tuple(word)]
    except KeyError:
        raise ValueError(f"word {word} does not address a vertex of the ball") from None
