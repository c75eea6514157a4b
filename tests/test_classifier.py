import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treegibbs import classifier
from treegibbs import (
    build_ball,
    classify,
    commensurability_exact,
    commensurability_float,
    commensurability_multiplicative,
    difference_set,
    finite_volume_spectrum,
    generic_model,
    markov_model,
    potts_model,
    potts_theta,
    spectrum_lattice_check,
)

from conftest import random_rational_model, relabeled, shifted

GOLDEN = (math.sqrt(5) - 1) / 2


def divisor_search_gcd(mags, max_mult=20_000):
    """Brute-force oracle: largest g = m/den dividing every magnitude."""
    best = None
    smallest = min(mags)
    for den in range(1, max_mult + 1):
        g = smallest / den
        if all((x / g).denominator == 1 for x in mags):
            return g
    return best


def test_difference_set_potts_q2():
    ds = difference_set(potts_model(2, 1, 1, 2))
    assert ds.kind == "exact-rational"
    assert ds.deltas == (Fraction(-1), Fraction(0), Fraction(1))


def test_difference_set_potts_q3():
    ds = difference_set(potts_model(3, 1, 1, 2))
    assert ds.deltas == (Fraction(-1), Fraction(0), Fraction(1))


def test_difference_set_constant_table():
    ds = difference_set(generic_model([[Fraction(2)] * 2] * 2, 2, 1))
    assert ds.deltas == (Fraction(0),)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_difference_set_symmetric_and_contains_zero(seed, q):
    rng = np.random.default_rng(seed)
    ds = difference_set(random_rational_model(rng, q, 2))
    assert Fraction(0) in ds.deltas
    assert set(ds.deltas) == {-d for d in ds.deltas}
    assert len(ds.deltas) <= q**4


def test_gcd_of_rationals():
    assert commensurability_exact([Fraction(0), Fraction(1), Fraction(-1)]) == 1
    got = commensurability_exact([Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-3, 4)])
    assert got == Fraction(1, 4)
    assert got == divisor_search_gcd([Fraction(1, 2), Fraction(3, 4)])
    assert commensurability_exact([Fraction(0)]) is None


def test_gcd_matches_divisor_search_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mags = [Fraction(int(rng.integers(1, 17)), int(rng.integers(1, 9))) for _ in range(4)]
        assert commensurability_exact(mags) == divisor_search_gcd(mags)


def test_multiplicative_uniform_matrix_is_degenerate():
    P = [[Fraction(1, 2)] * 2] * 2
    w = commensurability_multiplicative(P)
    assert w is not None and w.alpha is None
    assert all(m == 0 for row in w.exponents for m in row)


def test_multiplicative_rank_two_cases():
    # ratios {1, 2, 2/3}: exponent vectors independent
    assert commensurability_multiplicative(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    ) is None
    # ratios {1, 4, 4/7}
    assert commensurability_multiplicative(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 8), Fraction(7, 8)]]
    ) is None


def test_multiplicative_lattice_found():
    # p00/pij in {1, 1/3, 3} -> powers of alpha = 1/3
    P = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]]
    w = commensurability_multiplicative(P)
    assert w is not None and w.alpha == Fraction(1, 3)
    # p00/p01 = 1/3 = alpha^1, p00/p00 = alpha^0
    assert w.exponents[0][1] == 1 and w.exponents[0][0] == 0
    for i in range(2):
        for j in range(2):
            assert P[0][0] / P[i][j] == w.alpha ** w.exponents[i][j]


def test_float_lattice_recovers_log_multiples():
    g = -math.log(GOLDEN)
    found = commensurability_float([0.0, g, -g, 2 * g, -2 * g])
    assert found is not None
    assert found.generator == pytest.approx(g, abs=1e-12)


def test_float_lattice_rejects_log2_log3():
    assert commensurability_float([0.0, math.log(2), -math.log(2), math.log(3), -math.log(3)]) is None


def test_float_lattice_exact_multiples():
    found = commensurability_float([0.0, 0.7, -0.7, 1.4, 2.1, -2.1])
    assert found is not None
    assert found.generator == pytest.approx(0.7, abs=1e-12)


def test_float_lattice_empty_and_validation():
    assert commensurability_float([0.0]) is None
    with pytest.raises(ValueError):
        commensurability_float([1.0], tol=-1.0)


def test_classify_potts_q3():
    c = classify(potts_model(3, 1, 1, 2))
    assert c.verdict == "III_family"
    assert c.generator == Fraction(1)
    assert c.gamma == pytest.approx(math.exp(-1), abs=1e-15)
    assert c.confidence == "exact"
    assert set(c.multipliers.values()) == {-1, 0, 1}


def test_classify_trace_cases():
    assert classify(markov_model([[Fraction(1, 2)] * 2] * 2, 2)).verdict == "II1"
    assert classify(generic_model([[Fraction(3, 7)] * 3] * 3, 2, 1)).verdict == "II1"
    assert classify(potts_model(2, 0, 1, 2)).verdict == "II1"


def test_classify_markov_incommensurable():
    c = classify(markov_model([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]], 2))
    assert c.verdict == "incommensurable"
    assert c.confidence == "exact"
    assert c.generator is None


def test_classify_markov_lattice():
    P = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]]
    c = classify(markov_model(P, 2))
    assert c.verdict == "III_family"
    assert c.generator == pytest.approx(math.log(3), abs=1e-12)
    # every coupling difference is a multiple of the generator
    for (i, j, k, l), m in c.multipliers.items():
        delta = math.log(float(P[k][l])) - math.log(float(P[i][j]))
        assert delta == pytest.approx(m * c.generator, abs=1e-12)


def test_classify_golden_mean_float():
    P = [[GOLDEN, GOLDEN**2], [GOLDEN**2, GOLDEN]]
    c = classify(markov_model(P, 2))
    assert c.verdict == "III_family"
    assert c.confidence == "float"
    assert c.generator == pytest.approx(-math.log(GOLDEN), abs=1e-9)
    assert c.gamma == pytest.approx(GOLDEN, abs=1e-9)


def test_classify_shift_beta_and_relabel_invariance():
    rng = np.random.default_rng(23)
    m = random_rational_model(rng, 3, 2)
    base = classify(m)
    assert classify(shifted(m, Fraction(5, 8))).generator == base.generator
    beta = Fraction(3, 4)
    mb = generic_model(m.lam, m.k, beta)
    scaled = generic_model([[beta * v for v in row] for row in m.lam], m.k, Fraction(1))
    assert classify(mb).generator == classify(scaled).generator
    perm = [2, 0, 1]
    assert classify(relabeled(m, perm)).generator == base.generator


def test_generator_maximality_exact():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_rational_model(rng, 2, 2)
        c = classify(m)
        if c.verdict != "III_family":
            continue
        deltas = difference_set(m).deltas
        for mult in (2, 3, 5):
            bigger = c.generator * mult
            assert any((d / bigger).denominator != 1 for d in deltas if d != 0)


def test_potts_theta_values():
    assert potts_theta(3, Fraction(3, 2), 1) == pytest.approx(math.exp(-1.5), abs=1e-15)
    assert potts_theta(3, 1, 1) == pytest.approx(math.exp(-1), abs=1e-15)
    assert potts_theta(2, Fraction(7, 3), 2) == pytest.approx(math.exp(-2 * 7 / 3))
    assert potts_theta(5, 0, 1) == 1.0
    # matches the classifier's gamma for the Potts model
    c = classify(potts_model(3, 1, 1, 2))
    assert potts_theta(3, 1, 1) == pytest.approx(c.gamma, abs=1e-15)


def test_spectrum_free_model():
    m = potts_model(2, 0, 1, 2)
    b = build_ball(2, 1)
    spec = finite_volume_spectrum(m, b)
    assert np.all(spec == 0.0) and len(spec) == 2**4


def test_spectrum_two_edge_levels():
    m = potts_model(2, 1, 1, 1)
    b = build_ball(1, 1)  # two edges, 8 configurations
    spec = finite_volume_spectrum(m, b)
    levels, counts = np.unique(spec, return_counts=True)
    assert np.allclose(levels, [-1.0, 0.0, 1.0])
    assert list(counts) == [2, 4, 2]


def test_spectrum_lattice_containment():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 2)
    ok, g, dev = spectrum_lattice_check(m, b, tol=1e-9)
    assert ok and g == pytest.approx(1.0) and dev < 1e-9


def test_spectrum_cap_bounds_difference_block():
    # q=6, k=2, n=1: 6^4 configurations but hundreds of distinct levels, so
    # the full L x L block of level differences dwarfs the enumeration
    rng = np.random.default_rng(5)
    m = generic_model([[Fraction(int(rng.integers(-10**4, 10**4)), 7) for _ in range(6)]
                       for _ in range(6)], 2, 1)
    b = build_ball(2, 1)
    levels = np.unique(finite_volume_spectrum(m, b))
    default = spectrum_lattice_check(m, b)
    tracemalloc.start()
    try:
        small = spectrum_lattice_check(m, b, cap=6**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small == default and default[0]
    assert peak < len(levels) ** 2 * 8


# --- the lattice witness: the q x q exponent table --------------------------

def assert_witness(model, c, tol=None):
    """m_00 = 0, beta*(lam_ij - lam_00) = m_ij * g, and the q^4 expansion."""
    m, q = c.exponents, model.q
    g = c.generator if c.generator is not None else 0
    assert m[0][0] == 0
    for i in range(q):
        for j in range(q):
            d = model.beta * (model.lam[i][j] - model.lam[0][0])
            if tol is None:
                assert d == m[i][j] * g
            else:
                assert abs(float(d) - m[i][j] * g) <= tol * max(1.0, abs(float(d)))
    assert c.multipliers == {
        (i, j, k, l): m[i][j] - m[k][l]
        for i in range(q) for j in range(q) for k in range(q) for l in range(q)
    }


def relabeled_table(m, perm):
    """The exponent table of the model relabelled by ``perm``."""
    base = m[perm[0]][perm[0]]
    return tuple(tuple(m[a][b] - base for b in perm) for a in perm)


def sqrt2_model(rng, q):
    ints = rng.integers(-6, 7, size=(q, q))
    scale = int(rng.integers(1, 4))
    beta = float(rng.choice([0.5, 1.0, 2.0]))
    return generic_model([[math.sqrt(2) * scale * int(v) for v in row] for row in ints], 2, beta)


def lattice_stochastic(rng, q):
    """Rows are permutations of alpha^{e_1..e_q}, normalised."""
    alpha = Fraction(*[(1, 2), (1, 3), (2, 3), (2, 5), (3, 7)][int(rng.integers(5))])
    weights = [alpha ** int(e) for e in rng.integers(0, 5, size=q)]
    return [[weights[p] / sum(weights) for p in rng.permutation(q)] for _ in range(q)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_witness_exact_tables(seed, q):
    rng = np.random.default_rng(seed)
    m = random_rational_model(rng, q, 2)
    c = classify(m)
    assert_witness(m, c)
    assert classify(shifted(m, Fraction(int(rng.integers(-9, 10)), 4))).exponents == c.exponents
    perm = [int(p) for p in rng.permutation(q)]
    assert classify(relabeled(m, perm)).exponents == relabeled_table(c.exponents, perm)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_witness_sqrt2_float_tables(seed, q):
    rng = np.random.default_rng(seed)
    m = sqrt2_model(rng, q)
    c = classify(m)
    assert c.verdict != "incommensurable"
    assert_witness(m, c, tol=1e-9)
    assert classify(shifted(m, float(rng.uniform(-1, 1)))).exponents == c.exponents
    perm = [int(p) for p in rng.permutation(q)]
    assert classify(relabeled(m, perm)).exponents == relabeled_table(c.exponents, perm)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_witness_rational_lattice_matrices(seed, q):
    rng = np.random.default_rng(seed)
    P = lattice_stochastic(rng, q)
    m = markov_model(P, 2)
    c = classify(m)
    assert c.verdict != "incommensurable" and c.confidence == "exact"
    assert_witness(m, c, tol=1e-12)
    if c.verdict == "III_family":
        # exactly: p_00 / p_ij = gamma^{-m_ij} with gamma = alpha rational
        alpha = c.evidence["alpha"]
        assert all(P[0][0] / P[i][j] == alpha ** -c.exponents[i][j]
                   for i in range(q) for j in range(q))
    perm = [int(p) for p in rng.permutation(q)]
    relabeled_P = [[P[a][b] for b in perm] for a in perm]
    assert classify(markov_model(relabeled_P, 2)).exponents == relabeled_table(c.exponents, perm)


def exact_tables(q):
    entry = st.fractions(Fraction(-3), Fraction(3), max_denominator=12)
    return st.lists(st.lists(entry, min_size=q, max_size=q), min_size=q, max_size=q)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(exact_tables), st.fractions(Fraction(1, 6), Fraction(4), max_denominator=6))
@example([[Fraction(2, 3)] * 3] * 3, Fraction(3, 2))
@example([[Fraction(0), Fraction(1, 6)], [Fraction(-1, 4), Fraction(0)]], Fraction(1))
def test_exact_generator_from_base_differences(table, beta):
    # the q^2 base differences beta*(lam_ij - lam_00) and all q^4 pairwise
    # differences generate the same Z-module, hence the same rational gcd
    m = generic_model(table, 2, beta)
    want = commensurability_exact(difference_set(m).deltas)
    c = classify(m)
    assert c.generator == want
    assert c.verdict == ("II1" if want is None else "III_family")
    assert_witness(m, c)


def test_classify_builds_no_difference_set_on_exact_routes(monkeypatch):
    calls = []
    real = classifier.difference_set
    monkeypatch.setattr(classifier, "difference_set", lambda model: calls.append(model) or real(model))
    rng = np.random.default_rng(41)
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    models = [
        potts_model(3, 1, 1, 2),
        random_rational_model(rng, 4, 2),
        generic_model([[Fraction(2, 3)] * 3] * 3, 2, Fraction(3, 2)),
        markov_model(lattice_stochastic(rng, 3), 2),
        markov_model([[half, third, sixth], [third, sixth, half], [sixth, half, third]], 2),
        markov_model([[half, half], [half, half]], 2),
    ]
    verdicts = [classify(m).verdict for m in models]
    assert verdicts == ["III_family", "III_family", "II1", "III_family", "incommensurable", "II1"]
    assert calls == []
    # the float route still reconstructs from the difference set
    assert classify(generic_model([[0.0, 0.5], [0.25, 1.0]], 2, 1.0)).verdict == "III_family"
    assert len(calls) == 1


def test_near_constant_rational_matrix_is_not_a_trace():
    # every ratio p'/p is within 2^-53 of 1, so its float log is 0; the
    # entries themselves differ, and their ratios span a rank-2 lattice
    e = Fraction(1, 10**20)
    half = Fraction(1, 2)
    P = [[half, half], [half - e, half + e]]
    assert all(d == 0 for d in difference_set(markov_model(P, 2)).deltas)
    c = classify(markov_model(P, 2))
    assert c.verdict == "incommensurable" and c.confidence == "exact"
    assert commensurability_multiplicative(P) is None
