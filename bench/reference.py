"""Answers the benchmark derives on its own, without calling treegibbs.

Each function here restates a fact from the model definitions or the paper
in plain numpy/Fraction arithmetic, so a checker can compare the program's
output against it.  Nothing in this module imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    """A job's output disagrees with the benchmark's own answer."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


# --- coupling tables ----------------------------------------------------------

def potts_table(q: int, J: Fraction) -> list[list[Fraction]]:
    """Potts couplings: -J' on the diagonal, J'/(q-1) off it, J' = (q-1)J/q."""
    jp = Fraction(q - 1, q) * J
    return [[-jp if i == j else jp / (q - 1) for j in range(q)] for i in range(q)]


def markov_table(P) -> list[list[float]]:
    return [[-math.log(float(p)) for p in row] for row in P]


def scaled_couplings(beta, lam) -> np.ndarray:
    """The matrix -beta*lam in floating point, parent spin indexing rows."""
    return -float(beta) * np.array([[float(v) for v in row] for row in lam])


# --- the field map F and the tree ------------------------------------------

def field_map(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """F(h) for a batch of reduced fields h (..., q-1), with a = -beta*lam.

    F_i(h) = log sum_j e^{a_ij + h_j} - log sum_j e^{a_{q-1,j} + h_j},
    where the last spin carries no field.
    """
    h = np.asarray(h, dtype=float)
    h_ext = np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)
    x = a + h_ext[..., None, :]
    top = x.max(axis=-1, keepdims=True)
    rows = top[..., 0] + np.log(np.exp(x - top).sum(axis=-1))
    return rows[..., :-1] - rows[..., -1:]


class Tree:
    """Radius-n ball of the order-k Cayley tree in the documented addressing.

    Breadth-first indexing; the children of a vertex are the generators
    1..k+1 other than its last letter, in increasing order.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.words: list[tuple[int, ...]] = [()]
        self.children: list[list[int]] = [[]]
        self.shells: list[list[int]] = [[0]]
        for _ in range(n):
            shell = []
            for x in self.shells[-1]:
                last = self.words[x][-1] if self.words[x] else 0
                for g in range(1, k + 2):
                    if g != last:
                        y = len(self.words)
                        self.words.append(self.words[x] + (g,))
                        self.children.append([])
                        self.children[x].append(y)
                        shell.append(y)
            self.shells.append(shell)

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    def word_key(self, x: int) -> str:
        return ".".join(str(g) for g in self.words[x])

    def propagate(self, a: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Fields on every vertex from boundary fields on the outer shell."""
        h = np.zeros((self.num_vertices, boundary.shape[-1]))
        h[self.shells[self.n]] = boundary
        for m in range(self.n - 1, -1, -1):
            for x in self.shells[m]:
                h[x] = field_map(a, h[self.children[x]]).sum(axis=0)
        return h

    def energy_range(self, scaled: np.ndarray) -> tuple[float, float]:
        """Smallest and largest sum of scaled[s_parent, s_child] over the edges."""
        lo = np.zeros((self.num_vertices, scaled.shape[0]))
        hi = np.zeros_like(lo)
        for x in range(self.num_vertices - 1, -1, -1):
            for y in self.children[x]:
                lo[x] += np.min(scaled + lo[y][None, :], axis=1)
                hi[x] += np.max(scaled + hi[y][None, :], axis=1)
        return float(lo[0].min()), float(hi[0].max())


# --- exact answers ------------------------------------------------------------

def rational_gcd(values) -> Fraction:
    """Largest g with every value an integer multiple of g (values not all 0)."""
    values = [Fraction(v) for v in values if v != 0]
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(math.gcd(*(int(v * den) for v in values)), den)


def table_generator(beta, lam) -> Fraction:
    """The lattice generator of beta*(lam_ij - lam_kl) for an exact table."""
    flat = [v for row in lam for v in row]
    return rational_gcd(Fraction(beta) * (a - flat[0]) for a in flat)


def free_pair_defects(a: np.ndarray, n: int) -> list[float]:
    """Max |P(s_0=i, s_x=j) - P(s_0=i) P(s_x=j)| for |x| = 1..n, free boundary.

    For tables whose rows of e^{-beta*lam} have equal sums (Potts, stochastic
    matrices) the root law is uniform and the pair law at distance d is
    (1/q) M^d with M the row-normalised e^{-beta*lam}.
    """
    M = np.exp(a)
    M /= M.sum(axis=1, keepdims=True)
    q = M.shape[0]
    out = []
    for d in range(1, n + 1):
        joint = np.linalg.matrix_power(M, d) / q
        out.append(float(np.max(np.abs(joint - np.outer(joint.sum(1), joint.sum(0))))))
    return out


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"
