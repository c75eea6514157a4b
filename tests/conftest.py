from fractions import Fraction

import numpy as np

from treegibbs import generic_model
from treegibbs.measures import _check_cap


def enumerate_configs(q: int, num_vertices: int, cap: int) -> np.ndarray:
    """The (q^|V|, |V|) configuration matrix, rows in the library's configuration-index order."""
    idx = np.arange(_check_cap(q, num_vertices, cap))
    place = q ** np.arange(num_vertices - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // place[None, :]) % q


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
