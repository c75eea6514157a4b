import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
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
from treegibbs.classifier import FloatLattice
from treegibbs.fields import check_unordered, ti_fixed_points, zero_fields
from treegibbs.measures import DEFAULT_CAP, EnumerationCapError, finite_volume_measure

from conftest import (
    enumerated_spectrum, fraction_gcd_lattice, fraction_multiplicative_witness, pairwise_lattice_check,
    random_rational_model, regrouped_spectrum, relabeled, set_commensurability_float, set_difference_set,
    shifted,
)

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
    m = potts_model(2, 1, 1, 2)
    assert classify(m).evidence["kind"] == "exact-rational"
    assert difference_set(m) == (Fraction(-1), Fraction(0), Fraction(1))


def test_difference_set_potts_q3():
    ds = difference_set(potts_model(3, 1, 1, 2))
    assert ds == (Fraction(-1), Fraction(0), Fraction(1))


def test_difference_set_constant_table():
    ds = difference_set(generic_model([[Fraction(2)] * 2] * 2, 2, 1))
    assert ds == (Fraction(0),)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_difference_set_symmetric_and_contains_zero(seed, q):
    rng = np.random.default_rng(seed)
    ds = difference_set(random_rational_model(rng, q, 2))
    assert Fraction(0) in ds
    assert set(ds) == {-d for d in ds}
    assert len(ds) <= q**4


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


def test_multiplicative_factors_each_distinct_entry_once(monkeypatch):
    # a q=4 lattice matrix: 16 positions, 4 distinct entries
    calls = []
    real = classifier._base_exponents
    monkeypatch.setattr(classifier, "_base_exponents", lambda r, base: calls.append(r) or real(r, base))
    w = [Fraction(2, 3) ** e for e in (0, 1, 3, 4)]
    P = [[w[p] / sum(w) for p in perm] for perm in ((0, 1, 2, 3), (1, 2, 3, 0), (3, 0, 2, 1), (2, 3, 1, 0))]
    assert commensurability_multiplicative(P).alpha == Fraction(2, 3)
    assert 0 < len(calls) <= len({v for row in P for v in row})


@st.composite
def rational_stochastic(draw):
    """Rows that are permutations of alpha^{e_1..e_q}, or of free integer weights, normalised."""
    q = draw(st.integers(2, 4))
    if draw(st.booleans()):
        alpha = draw(st.fractions(Fraction(1, 9), Fraction(8, 9), max_denominator=9))
        weights = [alpha**e for e in draw(st.lists(st.integers(0, 4), min_size=q, max_size=q))]
        rows = [[weights[p] for p in draw(st.permutations(range(q)))] for _ in range(q)]
    else:
        rows = draw(st.lists(st.lists(st.integers(1, 12), min_size=q, max_size=q), min_size=q, max_size=q))
    return [[Fraction(v) / sum(row) for v in row] for row in rows]


def prime_exponent_rank(P):
    """Oracle: rank of the matrix of prime exponents of the ratios p_00/p_ij."""
    ratios = [P[0][0] / v for row in P for v in row]
    vecs = [sympy.factorrat(sympy.Rational(r.numerator, r.denominator)) for r in ratios]
    primes = sorted(set().union(*vecs))
    return sympy.Matrix([[v.get(p, 0) for p in primes] for v in vecs]).rank() if primes else 0


@settings(max_examples=80, deadline=None)
@given(rational_stochastic())
@example([[Fraction(1, 2)] * 2] * 2)
@example([[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]])
def test_multiplicative_witness_matches_rank_oracle(P):
    w = commensurability_multiplicative(P)
    rank = prime_exponent_rank(P)
    assert (w is None) == (rank >= 2)
    if w is None:
        return
    q = len(P)
    e = w.exponents
    assert len(e) == q and all(len(row) == q for row in e) and e[0][0] == 0
    if rank == 0:
        assert w.alpha is None and all(v == 0 for row in e for v in row)
        return
    assert 0 < w.alpha < 1
    assert math.gcd(*(v for row in e for v in row)) == 1
    assert all(P[0][0] / P[i][j] == w.alpha ** e[i][j] for i in range(q) for j in range(q))


def prime_witness(P):
    """Oracle: (alpha, exponents) from the prime factorization of every ratio p_00/p_ij,
    or None when the prime exponent columns are not multiples of one column."""
    q = len(P)
    vecs = [sympy.factorrat(sympy.Rational(r.numerator, r.denominator)) for r in (P[0][0] / v for row in P for v in row)]
    cols = {p: [v.get(p, 0) for v in vecs] for p in sorted(set().union(*vecs))}
    if not cols:
        return None, ((0,) * q,) * q
    first = next(iter(cols.values()))
    m = [e // math.gcd(*first) for e in first]
    lead = next(i for i, e in enumerate(m) if e)
    alpha = Fraction(1)
    for p, c in cols.items():
        if c != [c[lead] // m[lead] * e for e in m]:
            return None
        alpha *= Fraction(int(p)) ** (c[lead] // m[lead])
    if alpha > 1:
        alpha, m = 1 / alpha, [-e for e in m]
    return alpha, tuple(tuple(m[i:i + q]) for i in range(0, q * q, q))


@st.composite
def shared_factor_stochastic(draw):
    """Rows of integer weights built from a few shared small factors, normalised, q = 2..6."""
    q = draw(st.integers(2, 6))
    factors = draw(st.lists(st.sampled_from([2, 3, 4, 6, 9, 10, 12, 15, 25]), min_size=1, max_size=3))
    weights = [math.prod(f ** draw(st.integers(0, 3)) for f in factors) for _ in range(q)]
    rows = [[weights[p] for p in draw(st.permutations(range(q)))] for _ in range(q)]
    if draw(st.booleans()):
        rows[-1] = draw(st.lists(st.integers(1, 60), min_size=q, max_size=q))
    return [[Fraction(v) / sum(row) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_stochastic(), shared_factor_stochastic()))
@example([[Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]] * 3)
@example([[Fraction(4, 13), Fraction(9, 13)], [Fraction(9, 13), Fraction(4, 13)]])
def test_coprime_base_witness_matches_prime_factorization(P):
    w = commensurability_multiplicative(P)
    want = prime_witness(P)
    assert (w is None) == (want is None)
    if w is not None:
        assert (w.alpha, w.exponents) == want


def test_coprime_base_is_pairwise_coprime_and_generates_its_numbers():
    numbers = [12, 18, 2**5 * 3, 35, 49, 10**12 + 39, 1, 75]
    base = classifier._coprime_base(numbers)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for n in numbers:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


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


def test_float_lattice_underflowing_generator_is_incommensurable():
    # Loosely accepted approximations whose rational gcd makes the generator 0.0.
    m = generic_model(np.random.default_rng(5).uniform(-1, 1, (4, 4)).tolist(), 2, 1.0)
    assert commensurability_float(difference_set(m), tol=1e-3) is None


def test_float_lattice_subnormal_generator_is_incommensurable():
    # Ratios 1 + 1/p for 62 primes p above 10^5: the rational gcd is 1/prod(p),
    # about 1e-310, so the generator is subnormal and d/g would overflow.
    primes = [sympy.nextprime(10**5)]
    while math.prod(primes) < 10**310:
        primes.append(sympy.nextprime(primes[-1]))
    assert commensurability_float([1.0] + [1 + 1 / p for p in primes]) is None


def test_float_lattice_empty_and_validation():
    assert commensurability_float([0.0]) is None
    with pytest.raises(ValueError):
        commensurability_float([1.0], tol=-1.0)


@st.composite
def reconstruction_cases(draw):
    """(deltas, max_den, tol) for the float route: multiples of one base by ratios that are
    rational (some with denominators in the low-confidence band (max_den // 10, max_den], some
    past max_den), near-rational, irrational or arbitrary; tol a float, an int or a Fraction."""
    max_den = draw(st.sampled_from([1, 7, 97, 10**6]))
    band = st.integers(max_den // 10 + 1, max_den).flatmap(lambda s: st.integers(s, 40 * s).map(lambda p: p / s))
    ratio = st.one_of(
        band,
        st.fractions(min_value=1, max_value=40, max_denominator=3 * max_den).map(float),
        st.floats(1, 40),
        st.sampled_from([1.101, math.sqrt(2), 1 + 1e-7, math.log(3) / math.log(2)]),
    )
    base = draw(st.floats(1e-6, 1e6))
    deltas = [0.0, base] + [draw(st.sampled_from([1, -1])) * base * r for r in draw(st.lists(ratio, max_size=6))]
    tol = draw(st.one_of(st.floats(5e-324, 2.0), st.integers(1, 3),
                         st.fractions(min_value=Fraction(1, 10**15), max_value=2)))
    return deltas, max_den, tol


@settings(max_examples=600, deadline=None)
@given(reconstruction_cases())
@example(([0.0, 1.0, 1.101], 7, 1.0))                  # the semiconvergent 8/7 beats the convergent 1/1
@example(([1.0, 1 + 13 / 97], 97, 1e-9))               # s = 97 > 97 // 10: low confidence
@example(([1.0, 1 + 1 / 999_983], 10**6, Fraction(1, 10**9)))
@example(([2.0, 3.0, 5.0], 1, 1))
def test_float_reconstruction_matches_limit_denominator_oracle(case):
    deltas, max_den, tol = case
    assert commensurability_float(deltas, max_den, tol) == set_commensurability_float(deltas, max_den, tol)


def test_best_rational_is_limit_denominator():
    # at max_den 7, 0.101 = [0; 9, 1, 9, ...]: the last convergent is 0/1 and the
    # semiconvergent 1/7 is nearer; a tie goes to the convergent
    for x, max_den in ((0.101, 7), (1.101, 7), (2.5, 1), (3.5, 1), (math.pi, 97), (1 / 3, 10**6)):
        want = Fraction(x).limit_denominator(max_den)
        assert classifier._best_rational(*x.as_integer_ratio(), max_den) == (want.numerator, want.denominator)
    assert classifier._best_rational(*(0.101).as_integer_ratio(), 7) == (1, 7)
    found = commensurability_float([1.0, 1.101], max_den=7, tol=1)
    assert found == FloatLattice(generator=1 / 7, low_confidence=True)
    assert commensurability_float([1.0, 1 + 13 / 97], max_den=97).low_confidence is True
    assert commensurability_float([1.0, 1 + 13 / 97], max_den=970).low_confidence is False


@pytest.mark.xfail(strict=True, reason="known defect: a float ratio >= 2^33 is a fraction p/s with s < 2^20")
def test_classify_float_ratios_past_the_float_spacing_are_incommensurable():
    # The smallest |delta| is 1e-12, so the other ratios are about 1.7e12 and
    # 3.5e12, where floats are multiples of 2^-12 or 2^-11: limit_denominator
    # returns each ratio exactly, and the route reports g = 1e-12/4096 whatever
    # the couplings are.
    s = math.sqrt(3)
    assert classify(generic_model([[0.0, s], [2 * s, 1e-12]], 2, 1.0)).verdict == "incommensurable"


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
        deltas = difference_set(m)
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


@pytest.mark.parametrize("J,beta", [
    (-1000, 1), (math.inf, 1), (1, math.inf), (math.nan, 1), (1, math.nan), (10**400, 1),
    (1, Fraction(10**400, 3)),
])
def test_potts_theta_rejects_what_has_no_finite_float(J, beta):
    # e^{1000} overflows, and an infinite J or beta has no finite base
    with pytest.raises(ValueError, match="finite floats"):
        potts_theta(3, J, beta)


def test_potts_theta_underflows_to_zero():
    # a finite J and beta whose base is below the least subnormal
    assert potts_theta(3, 1000, 1) == 0.0


def test_spectrum_free_model():
    m = potts_model(2, 0, 1, 2)
    b = build_ball(2, 1)
    levels, counts = finite_volume_spectrum(m, b)
    assert list(levels) == [0.0] and list(counts) == [2**4]


def test_spectrum_two_edge_levels():
    m = potts_model(2, 1, 1, 1)
    b = build_ball(1, 1)  # two edges, 8 configurations
    levels, counts = finite_volume_spectrum(m, b)
    assert np.allclose(levels, [-1.0, 0.0, 1.0])
    assert list(counts) == [2, 4, 2]


def test_spectrum_lattice_containment():
    m = potts_model(2, 1, 1, 2)
    levels, _ = finite_volume_spectrum(m, build_ball(2, 2))
    ok, g, dev = spectrum_lattice_check(m, levels, tol=1e-9)
    assert ok and g == pytest.approx(1.0) and dev < 1e-9


def test_spectrum_cap_bounds_difference_block():
    # q=6, k=2, n=1: 6^4 configurations but hundreds of distinct levels, so
    # the full L x L block of level differences dwarfs the enumeration
    rng = np.random.default_rng(5)
    m = generic_model([[Fraction(int(rng.integers(-10**4, 10**4)), 7) for _ in range(6)]
                       for _ in range(6)], 2, 1)
    b = build_ball(2, 1)
    levels, _ = finite_volume_spectrum(m, b)
    default = spectrum_lattice_check(m, levels)
    tracemalloc.start()
    try:
        small = spectrum_lattice_check(m, finite_volume_spectrum(m, b, cap=6**4)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small == default and default[0]
    assert peak < len(levels) ** 2 * 8


SQRT2 = math.sqrt(2)
# (q, k, n) with at most 4^5 = 2^11 configurations, so the L x L reference stays small
SPECTRUM_BALLS = [(2, 1, 5), (2, 2, 2), (2, 3, 1), (3, 1, 3), (3, 2, 1), (3, 3, 1),
                  (4, 1, 2), (4, 2, 1), (4, 3, 1)]


def spectrum_model(family: str, rng, q: int, k: int):
    """A seeded table of one family: exact rationals, float multiples of sqrt(2)/s
    (one entry nudged by a relative 1e-11..1e-9 for "nudged"), or uniform noise."""
    if family == "exact":
        lam = [[Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 8))) for _ in range(q)]
               for _ in range(q)]
        return generic_model(lam, k, Fraction(int(rng.integers(1, 4)), 2))
    if family == "noise":
        lam = rng.uniform(-2, 2, (q, q))
    else:
        lam = rng.integers(-6, 7, (q, q)) * SQRT2 / int(rng.integers(1, 4))
        if family == "nudged":
            lam[0, 1] *= 1 + rng.uniform(1e-11, 1e-9)
    return generic_model(lam.tolist(), k, float(rng.uniform(0.5, 1.5)))


# The (generator found, ok) outcomes each family shows on SPECTRUM_BALLS.
SPECTRUM_OUTCOMES = {"exact": {(True, True)}, "sqrt2": {(True, True)}, "noise": {(False, False)},
                     "nudged": {(True, True), (True, False), (False, False)}}


@pytest.mark.parametrize("family", sorted(SPECTRUM_OUTCOMES))
def test_lattice_check_against_pairwise_reference(family):
    # Each level against the lowest keeps the verdict and the generator of all
    # L x L pairs; its deviation is the pairs' maximum over those that include
    # the lowest level, so new <= old <= 2 new (plus rounding), equal with no generator.
    rng = np.random.default_rng(20261019)
    outcomes = set()
    for q, k, n in SPECTRUM_BALLS:
        for _ in range(3):
            m = spectrum_model(family, rng, q, k)
            levels, _ = finite_volume_spectrum(m, build_ball(k, n))
            ok, g, dev = spectrum_lattice_check(m, levels)
            ref_ok, ref_g, ref_dev = pairwise_lattice_check(m, levels, 1e-9, 2**20, classifier.DEFAULT_MAX_DEN)
            assert (ok, g) == (ref_ok, ref_g), (q, k, n, m.lam)
            if g is None:
                assert dev == ref_dev == levels[-1] - levels[0]
            else:
                assert dev <= ref_dev <= 2 * dev + 8 * np.spacing(np.max(np.abs(levels)))
            outcomes.add((g is not None, ok))
    assert outcomes == SPECTRUM_OUTCOMES[family]


@pytest.mark.parametrize("table", ["float-noise", "exact-fine-lattice"])
def test_lattice_check_memory_is_linear_in_the_levels(table):
    # q=4, k=2, n=2: 2^20 configurations and tens of thousands of levels, on
    # which an L x L block of differences (or its row chunks) takes megabytes
    rng = np.random.default_rng(7)
    if table == "float-noise":
        m = generic_model(rng.uniform(-2, 2, (4, 4)).tolist(), 2, 0.75)
    else:
        m = generic_model([[Fraction(int(rng.integers(-10**4, 10**4)), 97) for _ in range(4)]
                           for _ in range(4)], 2, 1)
    levels, counts = finite_volume_spectrum(m, build_ball(2, 2))
    # the exact table's levels are integer sums of its exponent table, one per lattice point
    assert len(levels) == (52_023 if table == "float-noise" else 27_961) and counts.sum() == 2**20
    tracemalloc.start()
    try:
        ok, g, _ = spectrum_lattice_check(m, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g is None, ok) == ((True, False) if table == "float-noise" else (False, True))
    assert peak < 2 * 2**20


@st.composite
def spectrum_cases(draw):
    """A ball with q <= 4, k <= 3, n <= 3 and q^|V| <= 2^14, and a model of one table family.

    Float tables get signed zeros.  "overflow" tables are finite couplings whose
    energies, or their beta multiples, leave the float range.  No energy beta*H
    underflows to zero, where the enumeration's sort would pick the sign of a zero
    level arbitrarily.
    """
    q, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    n = draw(st.sampled_from([n for n in range(4) if q ** build_ball(k, n).num_vertices <= 2**14]))
    family = draw(st.sampled_from(["exact", "noise", "sqrt2", "markov", "potts", "overflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = draw(st.sampled_from([0.75, 1.0, 1e-300]))
    if family == "exact":
        lam = [[Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 8))) for _ in range(q)]
               for _ in range(q)]
        model = generic_model(lam, k, Fraction(int(rng.integers(1, 4)), 2))
    elif family == "markov":
        model = markov_model([[Fraction(int(v), int(r.sum())) for v in r] for r in rng.integers(1, 10, (q, q))], k)
    elif family == "potts":                      # a float J = 0.0 puts -0.0 on the diagonal
        model = potts_model(q, draw(st.sampled_from([Fraction(5, 4), 1.25, 0.0])), beta, k)
    elif family == "overflow":
        scale, beta = draw(st.sampled_from([(1e308, 1.0), (1e308, 1e-300), (1e300, 1e8)]))
        model = generic_model((scale * rng.choice([-1, 1]) * rng.uniform(0.5, 1, (q, q))).tolist(), k, beta)
    else:
        if family == "noise":
            lam = rng.uniform(-2, 2, (q, q))
        else:
            lam = rng.integers(-6, 7, (q, q)) * SQRT2 / int(rng.integers(1, 4))
        zeros = rng.random((q, q)) < 0.25
        lam[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
        model = generic_model(lam.tolist(), k, beta)
    return model, build_ball(k, n)


@settings(max_examples=200, deadline=None)
@given(spectrum_cases())
def test_grouped_spectrum_matches_enumeration(case):
    # on the float route, the bytes of sorting all q^|V| energies: levels,
    # multiplicities and their dtype, or the same ValueError; on an exact route
    # with a lattice, those energies regrouped on it
    model, ball = case
    c = classify(model)
    if c.evidence["kind"] != "float" and c.exponents is not None:
        levels, counts = finite_volume_spectrum(model, ball)
        exact, multiplicity = regrouped_spectrum(model, ball, c.generator)
        assert counts.dtype == np.int64 and counts.tolist() == multiplicity
        assert np.allclose(levels, [float(v) for v in exact], rtol=1e-9, atol=0)
        return
    with np.errstate(over="ignore"):
        try:
            want = enumerated_spectrum(model, ball)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                finite_volume_spectrum(model, ball)
            assert str(got.value) == str(exc)
            return
        levels, counts = finite_volume_spectrum(model, ball)
    assert levels.tobytes() == want[0].tobytes()
    assert counts.dtype == want[1].dtype and counts.tolist() == want[1].tolist()


@pytest.mark.parametrize("table", ["float-noise", "exact-fine-lattice", "potts"])
def test_grouped_spectrum_matches_enumeration_at_the_cap(table):
    # q=4, k=2, n=2: 2^20 configurations, the most the default cap enumerates, on
    # the two tables of the memory test above and a Potts table of 10 levels.  The
    # float table's 52,023 levels are the enumeration's bytes; the exact one's 88,252
    # float sums are 27,961 lattice levels, each its exact value rounded once.
    rng = np.random.default_rng(7)
    if table == "float-noise":
        m = generic_model(rng.uniform(-2, 2, (4, 4)).tolist(), 2, 0.75)
    elif table == "exact-fine-lattice":
        m = generic_model([[Fraction(int(rng.integers(-10**4, 10**4)), 97) for _ in range(4)]
                           for _ in range(4)], 2, 1)
    else:
        m = potts_model(4, Fraction(5, 4), 1, 2)
    levels, counts = finite_volume_spectrum(m, build_ball(2, 2))
    if table == "exact-fine-lattice":
        exact, multiplicity = regrouped_spectrum(m, build_ball(2, 2), classify(m).generator)
        assert counts.tolist() == multiplicity and levels.tolist() == [float(v) for v in exact]
        return
    want = enumerated_spectrum(m, build_ball(2, 2))
    assert levels.tobytes() == want[0].tobytes() and counts.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("q,k,n,cap", [(2, 2, 3, 2**22), (3, 1, 6, 3**13), (3, 2, 2, DEFAULT_CAP),
                                       (5, 1, 3, DEFAULT_CAP), (2, 2, 4, 2**46), (3, 2, 3, 3**22)])
def test_potts_spectrum_known_answer(q, k, n, cap):
    # J = q/(q-1), so J' = (q-1)J/q = 1: an edge of equal spins gives -1, one of
    # unequal spins 1/(q-1), dyadic for these q, so every float sum is exact.
    # With j of the |E| edges unequal the level is beta*(j*q/(q-1) - |E|), with
    # multiplicity q * C(|E|, j) * (q-1)^j.  The first two balls are past the
    # default cap, but small enough that a grouping which stopped merging would
    # still fit in memory; the last two (2^46 and 3^22 configurations: levels
    # j - 22.5 of multiplicity 2*C(45, j), and multiplicities 3*C(21, j)*2^j) are
    # counted by the subtree polynomials.
    ball = build_ball(k, n)
    edges = ball.num_vertices - 1
    beta = Fraction(1, 2)
    levels, counts = finite_volume_spectrum(potts_model(q, Fraction(q, q - 1), beta, k), ball, cap=cap)
    assert levels.tolist() == [float(beta * (Fraction(j * q, q - 1) - edges)) for j in range(edges + 1)]
    assert counts.tolist() == [q * math.comb(edges, j) * (q - 1) ** j for j in range(edges + 1)]
    assert sum(counts.tolist()) == q**ball.num_vertices <= cap


def test_potts_spectrum_levels_are_not_split_by_rounding():
    # Potts q=3, k=2, beta = J = 1 at n = 2: an edge of equal spins gives -2/3 and one of
    # unequal spins 1/3, so with j of the 9 edges unequal beta*H = j - 6.  Float partial
    # sums of thirds split these 10 levels into 32; the exponent sums do not.
    levels, counts = finite_volume_spectrum(potts_model(3, 1, 1, 2), build_ball(2, 2))
    assert levels.tolist() == [float(j - 6) for j in range(10)]
    assert counts.tolist() == [3 * math.comb(9, j) * 2**j for j in range(10)]


@st.composite
def lattice_spectrum_cases(draw, limit=2**14):
    """A ball with q <= 4, k <= 3, n <= 3 and q^|V| <= ``limit``, and an exact table, an exact
    Potts table, or a rational Markov matrix: with a lattice (rows permutations of the
    weights alpha^e), or with random rows, whose ratios seldom lie on one."""
    q, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    n = draw(st.sampled_from([n for n in range(4) if q ** build_ball(k, n).num_vertices <= limit]))
    family = draw(st.sampled_from(["exact", "potts", "markov-lattice", "markov-random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fraction(lo, hi, den):
        return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))

    if family == "exact":
        model = generic_model([[fraction(-20, 20, 7) for _ in range(q)] for _ in range(q)], k,
                              fraction(1, 3, 3))
    elif family == "potts":
        model = potts_model(q, fraction(-8, 8, 4), fraction(1, 3, 3), k)
    elif family == "markov-lattice":
        model = markov_model(lattice_stochastic(rng, q), k)
    else:
        model = markov_model([[Fraction(int(v), int(r.sum())) for v in r] for r in rng.integers(1, 10, (q, q))], k)
    return model, build_ball(k, n)


@settings(max_examples=150, deadline=None)
@given(lattice_spectrum_cases())
def test_exact_route_spectrum_is_the_regrouped_enumeration(case):
    # with a lattice, one level per lattice point: the multiplicities of the enumerated
    # energies regrouped on it, each level within 1e-12 relative of its Fraction value on
    # exact tables and 1e-9 of its 50-digit value on Markov matrices; without one (a Markov
    # matrix of rank >= 2), the float route's bytes
    model, ball = case
    c = classify(model)
    levels, counts = finite_volume_spectrum(model, ball)
    if c.exponents is None:
        want = enumerated_spectrum(model, ball)
        assert levels.tobytes() == want[0].tobytes() and counts.tolist() == want[1].tolist()
        return
    exact, multiplicity = regrouped_spectrum(model, ball, c.generator)
    assert counts.tolist() == multiplicity and sum(multiplicity) == model.q**ball.num_vertices
    rtol = 1e-12 if model.is_exact else 1e-9
    assert len(levels) == len(exact)
    for level, value in zip(levels.tolist(), exact):
        assert abs(level - value) <= rtol * abs(value), (level, value)


def grouped_spectrum(model, ball):
    """The spectrum with its sums grouped vertex by vertex (``classifier._grouped_sums``) on
    every route: the exponent sums of ``classifier._lattice_sums`` on an exact route with a
    lattice, the float sums otherwise."""
    table, level = (classifier._lattice_sums(model, ball.num_vertices - 1)
                    or (model.lam_float, lambda s: s * model.beta_float))
    sums, counts = classifier._grouped_sums(table, ball)
    e = level(sums)
    starts = classifier._run_starts(e)
    return e[starts], np.add.reduceat(counts, starts)


@settings(max_examples=150, deadline=None)
@given(lattice_spectrum_cases(2**16))
def test_shell_polynomials_match_the_integer_grouping(case):
    # the per-(shell, spin) polynomials give the grouping's distinct exponent sums and int64
    # counts, and the spectrum the levels formed from them, byte for byte
    model, ball = case
    lattice = classifier._lattice_sums(model, ball.num_vertices - 1)
    if lattice is None:                          # a Markov matrix without a lattice: the float route
        return
    sums, counts = classifier._shell_sums(lattice[0], ball)
    want_sums, want_counts = classifier._grouped_sums(lattice[0], ball)
    assert sums.tobytes() == want_sums.tobytes() and counts.tobytes() == want_counts.tobytes()
    assert counts.dtype == np.int64 and sum(counts.tolist()) == model.q**ball.num_vertices
    levels, multiplicities = finite_volume_spectrum(model, ball)
    want = grouped_spectrum(model, ball)
    assert levels.tobytes() == want[0].tobytes()
    assert multiplicities.dtype == np.int64 and multiplicities.tobytes() == want[1].tobytes()


def wide_span_tables():
    """Exact tables whose exponent sums spread far wider than their levels, with their ball."""
    rng = np.random.default_rng(5)
    q6 = [[Fraction(int(rng.integers(-10**4, 10**4)), 7) for _ in range(6)] for _ in range(6)]
    rng = np.random.default_rng(7)
    fine = [[Fraction(int(rng.integers(-10**4, 10**4)), 97) for _ in range(4)] for _ in range(4)]
    return {"k1-25000": (generic_model([[0, 25000], [1, 3]], 1, 1), build_ball(1, 9)),
            "q3-5000": (generic_model([[0, 5000, 7], [1, 3, 2500], [11, 0, 4000]], 2, 1), build_ball(2, 2)),
            "q6-difference-block": (generic_model(q6, 2, 1), build_ball(2, 1)),
            "q4-fine-lattice": (generic_model(fine, 2, 1), build_ball(2, 2))}


@pytest.mark.parametrize("name", sorted(wide_span_tables()))
def test_spectrum_route_rule_keeps_wide_spans_within_twice_the_grouping(name, monkeypatch):
    # each product of subtree polynomials takes a dense convolution or a sparse merge by the
    # sizes of its operands, so no table costs much more than grouping it (a convolution over
    # every span took 18 s on the k = 1 table, where grouping takes about 1 ms).  Cost is
    # counted in the route rule's units: an element sorted (both routes sort, then split the
    # runs with _run_starts) weighs as much as 32 multiply-adds of a convolution.
    model, ball = wide_span_tables()[name]
    levels, counts = finite_volume_spectrum(model, ball)
    want = grouped_spectrum(model, ball)
    assert levels.tobytes() == want[0].tobytes() and counts.tobytes() == want[1].tobytes()
    cost = []
    run_starts, convolve = classifier._run_starts, np.convolve

    def counted_run_starts(x, *more):
        cost.append(x.size)
        return run_starts(x, *more)

    def counted_convolve(a, b):
        cost.append(a.size * b.size / 32)
        return convolve(a, b)

    monkeypatch.setattr(classifier, "_run_starts", counted_run_starts)
    monkeypatch.setattr(np, "convolve", counted_convolve)
    table = classifier._lattice_sums(model, ball.num_vertices - 1)[0]
    spent = {}
    for route in (classifier._shell_sums, classifier._grouped_sums):
        cost.clear()
        route(table, ball)
        spent[route.__name__] = sum(cost)
    assert spent["_shell_sums"] <= 2 * spent["_grouped_sums"], spent


@pytest.mark.parametrize("lam", [
    [[0, 1], [Fraction(1, 10**22), 0]],      # exponents near 10^22, past int64
    [[0, 1], [2**62, -2**62]],               # exponent sums past 2^53
    [[Fraction(1, 10**400), 0], [0, 0]],     # a common denominator past the float range
    [[Fraction(1, 10**310), 1], [0, 0]],
])
def test_exact_tables_past_the_integer_sums_take_the_float_route(lam):
    # where an exponent sum, or an integer of its map to a level, could pass 2^53, the
    # spectrum is grouped on the float sums: the enumeration's bytes
    model = generic_model(lam, 2, 1)
    levels, counts = finite_volume_spectrum(model, build_ball(2, 1))
    want = enumerated_spectrum(model, build_ball(2, 1))
    assert levels.tobytes() == want[0].tobytes() and counts.tolist() == want[1].tolist()


def test_constant_float_table_keeps_the_float_route():
    # classify calls a constant float table II1 with "exact" confidence, but its kind is
    # "float": nine float sums of 0.1 are 0.8999999999999999, where 9 * 0.1 is 0.9
    model = generic_model([[0.1] * 2] * 2, 2, 1.0)
    assert (classify(model).confidence, classify(model).evidence["kind"]) == ("exact", "float")
    levels, counts = finite_volume_spectrum(model, build_ball(2, 2))
    assert levels.tolist() == [0.8999999999999999] and counts.tolist() == [2**10]


@pytest.mark.parametrize("lam", [[[10**308] * 2] * 2,[[10**308, 10**307], [0, 10**308]]])
def test_exact_energies_past_the_float_range_are_refused(lam):
    # finite exact couplings whose energies overflow: the float route's error, constant or not
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not all finite floats"):
        finite_volume_spectrum(generic_model(lam, 2, 1), build_ball(2, 1))


def test_zero_level_sign_does_not_depend_on_the_sort():
    # beta*H underflows to -0.0 for a negative H and to +0.0 for a positive
    # one; the level they share is -0.0, and +0.0 only when no energy is -0.0
    mixed = generic_model([[-1e-300, 1e-300], [0.0, 2.0]], 1, 1e-300)
    levels, counts = finite_volume_spectrum(mixed, build_ball(1, 1))
    assert levels.tobytes() == np.array([-0.0, 2e-300, 4e-300]).tobytes() and counts.tolist() == [5, 2, 1]
    positive = generic_model([[1e-300] * 2] * 2, 1, 1e-300)
    levels, counts = finite_volume_spectrum(positive, build_ball(1, 1))
    assert levels.tobytes() == np.array([0.0]).tobytes() and counts.tolist() == [8]


def test_spectrum_cap_is_checked_before_any_array():
    # 2^141 configurations on the k=1 chain of radius 70: within the cap asked for,
    # but past the int64 multiplicities (2^63 - 1), so refused before any array
    # is built; the measures share the check
    ball = build_ball(1, 70)
    model = potts_model(2, 1, 1, 1)
    with pytest.raises(EnumerationCapError, match="enumeration cap 9223372036854775807"):
        finite_volume_spectrum(model, ball, cap=10**50)
    with pytest.raises(EnumerationCapError, match="enumeration cap"):
        finite_volume_spectrum(potts_model(2, 1, 1, 2), build_ball(2, 3), cap=2**21)
    with pytest.raises(EnumerationCapError, match="enumeration cap 9223372036854775807"):
        finite_volume_measure(model, zero_fields(ball, 2), cap=10**50)


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
    want = commensurability_exact(difference_set(m))
    c = classify(m)
    assert c.generator == want
    assert c.verdict == ("II1" if want is None else "III_family")
    assert_witness(m, c)


def test_classify_builds_no_difference_set_on_exact_routes(monkeypatch):
    calls = []
    for name in ("difference_set", "_float_differences"):     # the set, and the array classify reads
        real = getattr(classifier, name)
        monkeypatch.setattr(classifier, name, lambda model, real=real: calls.append(model) or real(model))
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
    assert all(d == 0 for d in difference_set(markov_model(P, 2)))
    c = classify(markov_model(P, 2))
    assert c.verdict == "incommensurable" and c.confidence == "exact"
    assert commensurability_multiplicative(P) is None


# Unequal row sums, and a float table whose lattice classify rejects at the
# default tolerance: an infinite one would pass the unordered check and the
# spectrum check (deviation 9.42) and accept a lattice (g about 7.35e-7).
UNEQUAL_ROWS = generic_model([[0.0, 1.0], [math.pi, 0.3]], 2, 1.0)
RATIONAL_MARKOV = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(2, 5), Fraction(3, 5)]]
TOLERANCE_ENTRY_POINTS = {
    "check_unordered": lambda tol: check_unordered(UNEQUAL_ROWS, tol=tol),
    "commensurability_float": lambda tol: commensurability_float(difference_set(UNEQUAL_ROWS), tol=tol),
    "classify-float": lambda tol: classify(UNEQUAL_ROWS, tol=tol),
    "classify-rational": lambda tol: classify(potts_model(2, 1, 1, 2), tol=tol),
    "classify-markov": lambda tol: classify(markov_model(RATIONAL_MARKOV, 2), tol=tol),
    "spectrum_lattice_check": lambda tol: spectrum_lattice_check(
        UNEQUAL_ROWS, finite_volume_spectrum(UNEQUAL_ROWS, build_ball(2, 1))[0], tol=tol),
    "ti_fixed_points": lambda tol: ti_fixed_points(UNEQUAL_ROWS, starts=2, tol=tol),
}


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
def test_library_tolerances_must_be_finite_and_positive(entry, tol):
    assert classify(UNEQUAL_ROWS).verdict == "incommensurable"
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        TOLERANCE_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("model", [UNEQUAL_ROWS, potts_model(2, 1, 1, 2), markov_model(RATIONAL_MARKOV, 2)],
                         ids=["float", "rational", "markov"])
def test_classify_max_den_at_least_one_on_every_route(model):
    with pytest.raises(ValueError, match="max_den must be >= 1"):
        classify(model, max_den=0)


# --- parity with the Fraction, set and loop oracles -------------------------

@st.composite
def wide_exact_tables(draw):
    """q = 2..8 rational tables, some mixing small fractions with integers up to 2**80."""
    q = draw(st.integers(2, 8))
    small = st.fractions(Fraction(-3), Fraction(3), max_denominator=12)
    entry = st.one_of(small, st.integers(-2**80, 2**80).map(Fraction)) if draw(st.booleans()) else small
    if draw(st.booleans()):
        entry = st.just(draw(small))       # a constant table
    return [[draw(entry) for _ in range(q)] for _ in range(q)]


@settings(max_examples=80, deadline=None)
@given(wide_exact_tables(), st.fractions(Fraction(1, 6), Fraction(4), max_denominator=6))
@example([[Fraction(0), Fraction(1, 7)], [Fraction(2**70), Fraction(-2**70, 3)]], Fraction(1))
def test_exact_route_matches_fraction_oracle(table, beta):
    m = generic_model(table, 2, beta)
    want = fraction_gcd_lattice(m)
    c = classify(m)
    q = m.q
    if want is None:
        assert (c.verdict, c.generator, c.gamma, c.exponents) == ("II1", None, None, ((0,) * q,) * q)
    else:
        g, e = want
        assert (c.verdict, c.generator, c.gamma, c.exponents) == ("III_family", g, math.exp(-float(g)), e)
        assert type(c.generator) is Fraction
    assert commensurability_exact(difference_set(m)) == (None if want is None else want[0])


def test_exact_exponents_past_2_63_are_python_ints():
    m = generic_model([[Fraction(0), Fraction(1, 7)], [Fraction(2**70), Fraction(-2**70, 3)]], 2, 1)
    c = classify(m)
    assert c.generator == Fraction(1, 21)
    assert c.exponents == ((0, 3), (21 * 2**70, -7 * 2**70))
    assert all(type(v) is int for row in c.exponents for v in row)


@st.composite
def stochastic_matrices_q8(draw):
    """q = 2..8 rational stochastic matrices: geometric lattices, constant, rank two, free."""
    q = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["lattice", "constant", "rank-two", "free"]))
    if kind == "lattice":
        alpha = draw(st.fractions(Fraction(1, 9), Fraction(8, 9), max_denominator=9))
        weights = [alpha**e for e in draw(st.lists(st.integers(0, 6), min_size=q, max_size=q))]
    elif kind == "constant":
        weights = [Fraction(1)] * q
    elif kind == "rank-two":
        # ratios 2 and 3 are multiplicatively independent; the other weights are powers of 6
        weights = [Fraction(1), Fraction(2), Fraction(3)][:q] + [Fraction(6) ** draw(st.integers(0, 3))
                                                                  for _ in range(q - 3)]
    else:
        weights = [Fraction(draw(st.integers(1, 60))) for _ in range(q)]
    rows = [[weights[p] for p in draw(st.permutations(range(q)))] for _ in range(q)]
    return [[v / sum(row) for v in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(stochastic_matrices_q8())
@example([[Fraction(1, 8)] * 8] * 8)
@example([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]] * 3)
def test_multiplicative_route_matches_fraction_oracle(P):
    w = fraction_multiplicative_witness(P)
    assert commensurability_multiplicative(P) == w
    c = classify(markov_model(P, 2))
    q = len(P)
    if w is None:
        assert (c.verdict, c.generator, c.gamma, c.exponents) == ("incommensurable", None, None, None)
    elif w.alpha is None:
        assert (c.verdict, c.generator, c.gamma, c.exponents) == ("II1", None, None, ((0,) * q,) * q)
    else:
        negated = tuple(tuple(-e for e in row) for row in w.exponents)
        assert (c.verdict, c.generator, c.gamma, c.exponents) == (
            "III_family", -math.log(float(w.alpha)), float(w.alpha), negated)
        assert c.evidence["alpha"] == w.alpha and type(w.alpha) is Fraction


@st.composite
def float_tables(draw):
    """q = 2..8 float tables: uniform, with +-0.0 entries, with chains of gaps of at most
    1e-12, or integer multiples of sqrt(2)."""
    q = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["uniform", "signed-zeros", "chain", "sqrt2"]))
    if kind == "sqrt2":
        scale = math.sqrt(2) * draw(st.integers(1, 3))
        vals = [scale * draw(st.integers(-6, 6)) for _ in range(q * q)]
    else:
        vals = [draw(st.floats(-3, 3)) for _ in range(q * q)]
    if kind == "signed-zeros":
        vals = [draw(st.sampled_from([v, 0.0, -0.0])) for v in vals]
    elif kind == "chain":
        x = vals[0]
        for i in draw(st.lists(st.integers(0, q * q - 1), max_size=q * q)):
            x += draw(st.floats(1e-14, 1e-12))
            vals[i] = x
    beta = draw(st.sampled_from([1.0, 0.5, 0.25])) if kind == "chain" else draw(st.floats(0.25, 4))
    return generic_model([vals[i:i + q] for i in range(0, q * q, q)], 2, beta)


def chained_table():
    """A q = 3 table whose entries step by 4e-13, so its products chain below 1e-12."""
    vals = [1.0 + 4e-13 * i for i in range(8)] + [-0.0]
    return generic_model([vals[0:3], vals[3:6], vals[6:9]], 2, 1.0)


@settings(max_examples=120, deadline=None)
@given(float_tables())
@example(chained_table())
@example(generic_model([[0.0, -0.0], [-0.0, 0.5]], 2, 1.0))
@example(generic_model([[0.0, 0.0], [1.0, 2.225073858507203e-309]], 2, 1.0))
def test_float_route_matches_set_oracle(m):
    got, want = difference_set(m), set_difference_set(m)
    assert got == want
    assert [d.hex() for d in got] == [d.hex() for d in want]     # -0.0 is not 0.0 here
    with pytest.MonkeyPatch.context() as mp:
        # classify reads the float route's difference set as an array
        mp.setattr(classifier, "_float_differences", lambda model: np.array(set_difference_set(model)))
        mp.setattr(classifier, "commensurability_float", set_commensurability_float)
        oracle = classify(m)
    assert classify(m) == oracle


def test_chained_differences_are_merged():
    m = chained_table()
    v = m.lam_float.ravel()
    assert len(difference_set(m)) < len(np.unique(v[:, None] - v[None, :]))
    assert difference_set(m) == set_difference_set(m)
