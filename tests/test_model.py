import math
from fractions import Fraction

import numpy as np
import pytest

from treegibbs import (
    boundary_energy,
    build_ball,
    edge_potential_diagonal,
    energy,
    generic_model,
    markov_model,
    model_from_dict,
    model_to_dict,
    potential_norm,
    potts_model,
    simplex_vectors,
)
from treegibbs.model import ModelError

from conftest import shifted


@pytest.mark.parametrize("q", range(2, 7))
def test_simplex_gram_relations(q):
    spin = simplex_vectors(q)
    expected = np.full((q, q), -1.0 / (q - 1))
    np.fill_diagonal(expected, 1.0)
    assert np.max(np.abs(spin.gram - expected)) < 1e-12
    # the vectors sum to zero (forced by the Gram relations)
    assert np.max(np.abs(spin.eta.sum(axis=0))) < 1e-12


def test_simplex_q2_is_plus_minus_one():
    spin = simplex_vectors(2)
    assert np.allclose(sorted(spin.eta[:, 0]), [-1.0, 1.0])


def test_simplex_rejects_small_q():
    with pytest.raises(ModelError):
        simplex_vectors(1)


def test_potts_table_q2():
    m = potts_model(2, 1, 1, 2)
    assert m.lam == ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
    assert m.is_exact


def test_potts_table_q3():
    m = potts_model(3, 1, 1, 2)
    for i in range(3):
        for j in range(3):
            assert m.lam[i][j] == (Fraction(-2, 3) if i == j else Fraction(1, 3))


def test_potts_zero_coupling_is_free():
    m = potts_model(4, 0, 1, 2)
    assert all(v == 0 for row in m.lam for v in row)


def test_markov_log_table():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    m = markov_model(P, 2)
    assert m.beta == 1
    assert m.lam[0][0] == pytest.approx(math.log(2))
    assert m.lam[1][0] == pytest.approx(math.log(3))
    assert m.lam[1][1] == pytest.approx(math.log(1.5))


def test_markov_validation_errors():
    with pytest.raises(ModelError, match="row 0"):
        markov_model([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 2)]], 2)
    with pytest.raises(ModelError, match="positive"):
        markov_model([[1.0, 0.0], [0.5, 0.5]], 2)
    with pytest.raises(ModelError, match="row 1"):
        markov_model([[0.5, 0.5], [0.5, 0.49]], 2)


def test_markov_golden_mean_rows_are_stochastic():
    a = (math.sqrt(5) - 1) / 2
    assert a * a + a - 1 == pytest.approx(0.0, abs=1e-15)
    m = markov_model([[a, a * a], [a * a, a]], 2)
    assert m.provenance == "markov"


def test_energy_zero_coupling():
    m = potts_model(3, 0, 1, 2)
    b = build_ball(2, 2)
    assert energy(m, b, [0] * b.num_vertices) == 0


def test_energy_two_aligned_edges():
    m = potts_model(2, 1, 1, 1)
    b = build_ball(1, 1)  # root plus two leaves
    assert energy(m, b, [0, 0, 0]) == Fraction(-1)  # 2 * (-1/2)


def test_energy_markov_directed_edges():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    m = markov_model(P, 1)
    b = build_ball(1, 1)
    # edges root->leaf: lam[0][1] + lam[0][0] = log 2 + log 2
    assert energy(m, b, [0, 1, 0]) == pytest.approx(2 * math.log(2))


def test_energy_rejects_partial_configuration():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 1)
    with pytest.raises(ValueError):
        energy(m, b, [0, 0])


def test_energy_gauge_covariance():
    rng = np.random.default_rng(3)
    m = generic_model([[Fraction(1, 4), Fraction(-1, 2)], [Fraction(3, 8), Fraction(1)]], 2, 1)
    ms = shifted(m, Fraction(5, 8))
    b = build_ball(2, 2)
    sigma = list(rng.integers(0, 2, size=b.num_vertices))
    assert energy(ms, b, sigma) == energy(m, b, sigma) + Fraction(5, 8) * len(b.edges)


def test_potts_energy_counts_equal_spin_edges():
    # lam reduces to -J*delta + J/q per edge
    q, J = 3, Fraction(5, 4)
    m = potts_model(q, J, 1, 2)
    b = build_ball(2, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        sigma = list(rng.integers(0, q, size=b.num_vertices))
        equal = sum(sigma[u] == sigma[v] for u, v in b.edges)
        assert energy(m, b, sigma) == -J * equal + Fraction(J, q) * len(b.edges)


def test_boundary_energy_zero_coupling():
    m = potts_model(2, 0, 1, 2)
    b = build_ball(2, 2)
    assert boundary_energy(m, b, [0, 0, 0, 0], [0] * 6) == 0


def test_boundary_energy_aligned_cross_edges():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 2)
    outer = len(b.shells[2])
    val = boundary_energy(m, b, [0, 0, 0, 0], [0] * outer)
    assert val == Fraction(-1, 2) * outer  # one cross edge per boundary vertex


def test_boundary_energy_markov_single_term():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    m = markov_model(P, 1)
    b = build_ball(1, 1)
    # interior = root only; cross terms lam[sigma(root)][omega(y)]
    assert boundary_energy(m, b, [0], [1, 0]) == pytest.approx(math.log(2) + math.log(2))


def test_edge_potential_diagonal():
    m = potts_model(2, 1, 1, 2)
    d = edge_potential_diagonal(m)
    assert np.allclose(d, [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(edge_potential_diagonal(potts_model(2, 0, 1, 2)), 0.0)


def test_log_weights_cached_read_only():
    m = potts_model(3, Fraction(3, 2), Fraction(1, 2), 2)
    a = m.log_weights
    assert a is m.log_weights and edge_potential_diagonal(m) is a
    assert np.array_equal(a, -m.beta_float * m.lam_float)
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(ModelError, match="finite"):
        generic_model([[0.5, bad], [0.0, 0.5]], 2, 1.0)
    with pytest.raises(ModelError, match="finite"):
        generic_model([[0.5, 0.0], [0.0, 0.5]], 2, bad)
    with pytest.raises(ModelError, match="finite"):
        potts_model(3, bad, 1.0, 2)
    with pytest.raises(ModelError, match="finite"):
        markov_model([[0.5, 0.5], [bad, 0.5]], 2)
    with pytest.raises(ModelError, match="finite"):
        model_from_dict({"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                         "lambda": [[0.5, bad], [0.0, 0.5]]})
    with pytest.raises(ModelError, match="finite"):
        model_from_dict({"kind": "markov", "q": 2, "k": 2, "beta": bad,
                         "P": [["1/2", "1/2"], ["1/2", "1/2"]]})


def test_edge_potential_markov_is_log_p():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    m = markov_model(P, 2)
    d = edge_potential_diagonal(m)
    expected = np.log(np.array([[0.5, 0.5], [1 / 3, 2 / 3]]))
    assert np.allclose(d, expected)


def test_potential_norm_markov():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    m = markov_model(P, 2)
    assert potential_norm(m, 1.0) == pytest.approx(2 * math.e**2 * math.log(4), abs=1e-12)


def test_potential_norm_potts():
    assert potential_norm(potts_model(3, 0, 1, 2), 1.0) == 0.0
    m = potts_model(3, 1, 1, 2)
    assert potential_norm(m, 1.0) == pytest.approx(2 * math.e**2 * (2 / 3))
    with pytest.raises(ValueError):
        potential_norm(m, 0.0)


def test_model_json_round_trip_rational():
    m = potts_model(3, Fraction(2, 3), Fraction(1, 2), 2)
    d = model_to_dict(m)
    m2 = model_from_dict(d)
    assert m2.lam == m.lam and m2.beta == m.beta and m2.J == m.J
    assert model_to_dict(m2) == d


def test_model_json_round_trip_generic_and_markov():
    g = generic_model([[Fraction(2, 3), Fraction(0)], [Fraction(0), Fraction(0)]], 2, 1)
    assert model_from_dict(model_to_dict(g)).lam == g.lam
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    mk = markov_model(P, 2)
    assert model_from_dict(model_to_dict(mk)).P == mk.P


def test_model_from_dict_reports_all_errors():
    with pytest.raises(ModelError) as exc:
        model_from_dict({"kind": "nope", "q": 1, "k": 0})
    msg = str(exc.value)
    assert "kind" in msg and "q" in msg and "k" in msg
