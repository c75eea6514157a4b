import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp

import treegibbs
from treegibbs import (
    build_ball,
    consistency_residual,
    correlation_decay,
    finite_volume_measure,
    generic_model,
    marginalize,
    markov_model,
    markov_property_residual,
    potts_model,
    propagate_fields,
    two_point_correlation,
    zero_fields,
)
from treegibbs.classifier import finite_volume_spectrum
from treegibbs.fields import ReducedFieldAssignment, _extend
from treegibbs.measures import (
    BLOCK, DEFAULT_CAP, EnumerationCapError, _edge_energies, _logsumexp, _tv_to_first_column,
)
from treegibbs.topology import _family, _meet

from conftest import (
    as_mpf, ball_edges, dlr_tables, enumerate_configs, enumerated_consistency_residual,
    full_sweep_two_point_correlation, mp_correlation_decay, per_term_dlr_conditional,
    per_term_logweights, random_rational_model, relabeled, shifted, zero_field_markov_residual,
)


def brute_force_probs(model, ball, fields):
    """Independent enumeration oracle: explicit weights, and the paper's pairing of the field
    h = ((q-1)/q) sum_i h'_i eta_i with eta_sigma, from the defining inner products
    <eta_i, eta_j> = 1 if i == j else -1/(q-1)."""
    q = model.q
    lam = model.lam_float
    beta = model.beta_float
    configs = enumerate_configs(q, ball.num_vertices, 2**22)
    weights = []
    for sigma in configs:
        e = sum(lam[sigma[u], sigma[v]] for u, v in ball_edges(ball))
        boundary = 0.0
        for x in ball.shells[ball.n]:
            s = sigma[x]
            boundary += (q - 1) / q * sum(h * (1.0 if i == s else -1.0 / (q - 1))
                                          for i, h in enumerate(fields.hprime[x]))
        weights.append(math.exp(-beta * e + boundary))
    w = np.array(weights)
    return w / w.sum()


def gather_energies(model, ball):
    """Configuration-matrix enumeration: one lam gather per edge, in edge order."""
    configs = enumerate_configs(model.q, ball.num_vertices, 2**22)
    lam = model.lam_float
    e = np.zeros(len(configs))
    for u, v in ball_edges(ball):
        e += lam[configs[:, u], configs[:, v]]
    return configs, e


def all_pairs_tv(cond):
    """Largest TV between two columns of any cond[:, b, :], over every ordered pair.

    Each pair's |differences| are added one row at a time in row order, as a
    comparison of that one pair would add them, whatever the memory layout
    of ``cond`` (np.sum along an axis may add pairwise on some layouts).
    """
    worst = 0.0
    for b in range(cond.shape[1]):
        block = cond[:, b, :]
        tv = sum(np.abs(row[:, None] - row[None, :]) for row in block)
        worst = max(worst, float(0.5 * np.max(tv)))
    return worst


def markov_conditional(model, n):
    """Law of the inner ball V_{n-1} per (shell n, shell n+1) configuration, zero fields."""
    q = model.q
    ball = build_ball(model.k, n + 1)
    p = finite_volume_measure(model, zero_fields(ball, q)).probabilities()
    na = build_ball(model.k, n - 1).num_vertices
    p = p.reshape(q**na, q ** len(ball.shells[n]), -1)
    return p / p.sum(axis=0, keepdims=True)


def allocation_peak(f):
    """Peak bytes traced by tracemalloc while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (q, k) -> radii: every ball with at most 12 vertices at q <= 3, at most 6
# at q = 4, and the 3-vertex ball at q = 8
GATHER_RADII = {2: {1: range(6), 2: range(3), 3: range(2)}, 3: {1: range(6), 2: range(3), 3: range(2)},
                4: {1: range(3), 2: range(2), 3: range(2)}, 8: {1: range(2)}}


def test_broadcast_enumeration_matches_gather():
    # rational, asymmetric float and J = 0.0 Potts tables, random boundary
    # fields: the same bytes as the gather version, signed zeros included
    rng = np.random.default_rng(29)
    for q, radii in GATHER_RADII.items():
        for k, ns in radii.items():
            floats = rng.uniform(-1.5, 1.5, size=(q, q)).tolist()
            # float Potts at J = 0.0 has -0.0 on its diagonal; the gather adds it onto +0.0
            free = potts_model(q, 0.0, 0.7, k)
            assert np.signbit(np.diag(free.lam_float)).all()
            for m in (random_rational_model(rng, q, k), generic_model(floats, k, 0.7), free):
                for n in ns:
                    b = build_ball(k, n)
                    configs, e = gather_energies(m, b)
                    got = _edge_energies(m, b, DEFAULT_CAP)
                    assert got.tobytes() == (-m.beta_float * e).tobytes(), (q, k, n, m.lam)
                    if m is free:
                        assert e.tobytes() == bytes(e.nbytes)   # every energy is +0.0
                    flds = ReducedFieldAssignment(b, rng.uniform(-2, 2, size=(b.num_vertices, q - 1)))
                    logw = -m.beta_float * e
                    for x in b.shells[n]:
                        logw += _extend(flds.hprime[x])[configs[:, x]]
                    mu = finite_volume_measure(m, flds)
                    assert mu.logweights.tobytes() == logw.tobytes(), (q, k, n, m.lam)
                    assert np.float64(mu.logZ).tobytes() == np.float64(logsumexp(logw)).tobytes()
                    levels, counts = finite_volume_spectrum(m, b)
                    assert np.repeat(levels, counts).tobytes() == np.sort(m.beta_float * e).tobytes()
                    big = build_ball(k, n + 1)
                    for omega in rng.integers(0, q, size=(3, len(big.shells[n + 1]))):
                        # the DLR conditioning tables, one per vertex of shell n
                        tables = dlr_tables(m, big, omega)
                        lw = -m.beta_float * e
                        for x, table in zip(b.shells[n], tables):
                            lw += table[configs[:, x]]
                        got = _edge_energies(m, b, DEFAULT_CAP, zip(b.shells[n], tables))
                        assert got.tobytes() == lw.tobytes()


def test_enumeration_allocates_within_the_cap():
    # Potts q=4, k=2, n=2: 4^10 = 2^20 configurations, exactly the default
    # cap.  The energy vector grows one vertex at a time, so besides the
    # result only its 1/q-size predecessor is alive, with numpy's ufunc
    # buffer (getbufsize() doubles) and 4 KiB of iterator state; the measure
    # adds one vector-size temporary and a boolean mask in its logsumexp
    m = potts_model(4, Fraction(5, 4), 1, 2)
    ball = build_ball(2, 2)
    vector = 8 * 4**10
    slack = 8 * np.getbufsize() + 2**12
    assert allocation_peak(lambda: _edge_energies(m, ball, DEFAULT_CAP)) <= (1 + 1 / 4) * vector + slack
    assert allocation_peak(lambda: finite_volume_measure(m, zero_fields(ball, 4))) <= 2.25 * vector


# (q, k, n): balls of 2^17, 3^10 (blocks of 3^8, not a power of two) and 4^10
# configurations, several blocks each; a 2^17 ball whose first boundary spins
# stay fixed over whole blocks; and the one-vertex ball
MULTI_BLOCK_BALLS = [(2, 3, 2), (3, 2, 2), (4, 2, 2), (2, 15, 1), (3, 2, 0)]


def test_blocked_terms_match_one_pass_per_term():
    # the blocked pass gives the bytes of one full pass per term: zero, random
    # and signed-zero fields for the measure, and the conditioning tables of
    # random boundary layers one shell out (the DLR conditional)
    rng = np.random.default_rng(41)
    negative_zeros = 0
    for q, k, n in MULTI_BLOCK_BALLS:
        b = build_ball(k, n)
        assert n == 0 or q**b.num_vertices > 2 * BLOCK     # three blocks or more
        m = generic_model(rng.uniform(-1.5, 1.5, size=(q, q)).tolist(), k, 0.7)
        # signed zeros and the least subnormals: about a quarter of the field components are -0.0
        signed = rng.choice([-5e-324, 5e-324, -0.0, 0.0], size=(b.num_vertices, q - 1))
        tables = _extend(signed[b.shell_slice(n)])
        negative_zeros += int(np.count_nonzero(np.signbit(tables) & (tables == 0)))
        for h in (np.zeros((b.num_vertices, q - 1)), rng.uniform(-2, 2, size=(b.num_vertices, q - 1)), signed):
            flds = ReducedFieldAssignment(b, h)
            mu = finite_volume_measure(m, flds)
            logw, logZ = per_term_logweights(m, flds, DEFAULT_CAP)
            assert mu.logweights.tobytes() == logw.tobytes(), (q, k, n)
            assert np.float64(mu.logZ).tobytes() == np.float64(logZ).tobytes()
            assert mu.probabilities().tobytes() == np.exp(logw - logZ).tobytes()
        big = build_ball(k, n + 1)
        for omega in rng.integers(0, q, size=(2, len(big.shells[n + 1]))).tolist():
            e = _edge_energies(m, b, DEFAULT_CAP, zip(b.shells[n], dlr_tables(m, big, omega)))
            want = per_term_dlr_conditional(m, big, omega)
            assert np.exp(e - _logsumexp(e)).tobytes() == want.tobytes(), (q, k, n)
    assert negative_zeros > 0


def test_spectrum_and_probabilities_allocate_about_one_vector():
    # Potts q=4, k=2, n=2: the spectrum groups configurations by partial
    # energy and builds no energy vector, so it stays far below the bound
    # that sorting one in place met;
    # probabilities() exponentiates its one vector in place and checks it
    # through a boolean mask.  Slack as in the enumeration test above
    m = potts_model(4, Fraction(5, 4), 1, 2)
    ball = build_ball(2, 2)
    vector = 8 * 4**10
    slack = 8 * np.getbufsize() + 2**12
    assert allocation_peak(lambda: finite_volume_spectrum(m, ball)) <= (1 + 1 / 4 + 1 / 8) * vector + slack
    mu = finite_volume_measure(m, zero_fields(ball, 4))
    assert allocation_peak(mu.probabilities) <= (1 + 1 / 8) * vector + slack


def reference_column_tv(cond):
    """Largest TV between a column of any cond[:, b, :] and its first column.

    Each column's |differences| are added one row at a time in row order.
    """
    worst = 0.0
    for b in range(cond.shape[1]):
        tv = sum(np.abs(row - row[0]) for row in cond[:, b, :])
        worst = max(worst, float(0.5 * np.max(tv)))
    return worst


def assert_within_all_pairs(residual, cond):
    """residual <= all-pairs TV <= 2 * residual, up to a relative 1e-12, and 0 only together."""
    oracle = all_pairs_tv(cond)
    assert residual <= oracle * (1 + 1e-12), (residual, oracle)
    assert oracle <= 2 * residual * (1 + 1e-12), (residual, oracle)
    assert (residual == 0) == (oracle == 0)


def test_markov_residual_matches_all_pairs():
    rng = np.random.default_rng(31)
    cases = [
        (potts_model(3, 1, 1, 2), 1),
        (generic_model(rng.uniform(-1.5, 1.5, size=(2, 2)).tolist(), 2, 0.7), 1),
        (random_rational_model(rng, 2, 1), 2),
        (random_rational_model(rng, 3, 1), 3),
    ]
    for m, n in cases:
        q = m.q
        ball = build_ball(m.k, n + 1)
        cond = markov_conditional(m, n)
        got = markov_property_residual(m, n)
        assert got == reference_column_tv(cond)
        assert_within_all_pairs(got, cond)
        # the smallest cap that admits the measure
        assert markov_property_residual(m, n, cap=q**ball.num_vertices) == got
    # conditional laws that differ well beyond rounding
    cond = rng.random((4, 3, 37))
    cond /= cond.sum(axis=0, keepdims=True)
    got = _tv_to_first_column(cond.copy())
    assert got == reference_column_tv(cond)
    assert_within_all_pairs(got, cond)


def test_reference_column_tv_duplicate_and_one_ulp_columns():
    # tiled and permuted duplicates; columns one ulp apart stay distinct, so
    # every slice holding only a column and its neighbour reports that
    # one-ulp gap, and a slice of one column tiled reports 0.  Column-permuted
    # layouts (not C-ordered) are compared as well as C-ordered copies
    rng = np.random.default_rng(37)
    for rows in (1, 2, 3, 9):
        base = rng.random((rows, 4, 6))
        base /= base.sum(axis=0, keepdims=True)
        near = base.copy()
        near[0] = np.nextafter(near[0], 2.0)
        cond = np.concatenate([np.tile(base, 5), near, base[:, ::-1]], axis=2)
        pair = np.concatenate([np.tile(base[:, :, :1], 7), np.tile(near[:, :, :1], 3)], axis=2)
        same = np.tile(base[:, :, :1], 7)
        for c, differs in ((cond, True), (pair, True), (same, False)):
            permuted = c[:, :, rng.permutation(c.shape[2])]
            assert rows == 1 or not permuted.flags.c_contiguous
            for laid_out in (permuted, np.ascontiguousarray(permuted)):
                got = _tv_to_first_column(laid_out.copy(order="K"))
                assert got == reference_column_tv(laid_out), rows
                assert_within_all_pairs(got, laid_out)
                for b in range(laid_out.shape[1]):
                    assert (_tv_to_first_column(laid_out[:, b:b + 1].copy(order="K")) > 0) == differs


def test_markov_residual_allocates_nothing_beyond_the_measure():
    # Potts q=2, k=3, n=1: 2^17 configurations, 16 slices of 4,096 outer
    # configurations, all the same law in exact arithmetic.  The comparison
    # runs in place on the probability array, so the call's allocation peak
    # is that of building the measure and its probabilities
    m = potts_model(2, Fraction(5, 4), 1, 3)
    ball = build_ball(3, 2)
    measure = allocation_peak(lambda: finite_volume_measure(m, zero_fields(ball, 2)).probabilities())
    residual = allocation_peak(lambda: markov_property_residual(m, 1))
    assert residual <= measure + 2**16, (residual, measure)
    assert markov_property_residual(m, 1) == reference_column_tv(markov_conditional(m, 1)) < 1e-12


def test_markov_residual_matches_the_zero_field_measure_bit_for_bit():
    # the residual enumerates with no boundary terms; zero fields only add
    # zeros, which can flip the sign of a zero log-weight (float Potts at
    # J = 0.0: every energy is +0.0, every log-weight -0.0) but not its exp
    free = potts_model(3, 0.0, 0.7, 2)
    assert np.signbit(np.diag(free.lam_float)).all()
    for m in (potts_model(2, Fraction(5, 4), 1, 3), potts_model(3, 1, 1, 2), free):
        got = markov_property_residual(m, 1)
        assert np.float64(got).tobytes() == np.float64(zero_field_markov_residual(m, 1)).tobytes()


@pytest.mark.parametrize("q, k", [(2, 1), (3, 2)])
def test_markov_residual_is_nan_where_a_conditional_law_underflows(q, k):
    # at beta*J = 400 every inner configuration of some (shell n, shell n+1) pair
    # underflows to probability 0, so its conditional law is 0/0: the residual is NaN,
    # as over the whole array, not the largest finite slice
    m = potts_model(q, 400, 1, k)
    with np.errstate(invalid="ignore"):
        got, want = markov_property_residual(m, 1), zero_field_markov_residual(m, 1)
    assert math.isnan(want) and math.isnan(got)


def test_markov_residual_allocates_no_term_tables():
    # Potts q=2, k=3, n=1: 2^17 configurations.  With no boundary terms no
    # table is widened: the log-weights, the probability vector and one
    # boolean mask are the peak, with the slack of the enumeration test
    m = potts_model(2, Fraction(5, 4), 1, 3)
    vector = 8 * 2**17
    slack = 8 * np.getbufsize() + 2**12
    assert allocation_peak(lambda: markov_property_residual(m, 1)) <= 2.25 * vector + slack


# (q, k, n) whose all-pairs oracle stays small: at most 3^10 configurations.
# k = 3 starts at 2^17 configurations with 4,096 outer configurations per
# slice, an all-pairs block of 128 MB per row; it is covered above against
# the reference-column computation.
SMALL_MARKOV_CASES = [(q, k, n) for q in (2, 3) for k in (1, 2, 3) for n in (1, 2, 3)
                      if q ** build_ball(k, n + 1).num_vertices <= 3**10]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(SMALL_MARKOV_CASES), st.sampled_from(["float", "rational"]))
def test_markov_residual_bounds_all_pairs_on_random_tables(seed, case, kind):
    q, k, n = case
    rng = np.random.default_rng(seed)
    m = (random_rational_model(rng, q, k) if kind == "rational"
         else generic_model(rng.uniform(-2, 2, size=(q, q)).tolist(), k, float(rng.uniform(0.2, 2))))
    got = markov_property_residual(m, n)
    cond = markov_conditional(m, n)
    assert got == reference_column_tv(cond)
    assert_within_all_pairs(got, cond)


def test_probabilities_reject_nan_under_python_O():
    # an explicit check, not an assert, so it survives ``python -O``
    script = (
        "import numpy as np\n"
        "from treegibbs import build_ball\n"
        "from treegibbs.measures import FiniteVolumeMeasure\n"
        "mu = FiniteVolumeMeasure(build_ball(1, 0), 2, np.array([0.0, np.nan]), float('nan'))\n"
        "try:\n"
        "    mu.probabilities()\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(treegibbs.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def logsumexp_cases():
    """1-D and 2-D float arrays with ties at the max, -inf entries and rows,
    all -inf arrays, +inf and NaN entries, at magnitudes up to 800 N(0, 1)."""
    rng = np.random.default_rng(17)
    for trial in range(600):
        shape = (int(rng.integers(1, 40)),) if trial % 2 else tuple(int(v) for v in rng.integers(1, 12, 2))
        a = rng.standard_normal(shape) * (1, 30, 800)[trial % 3]
        if trial % 5 == 0:
            a = np.round(a)
        if trial % 7 == 0:
            a[rng.random(shape) < 0.3] = -np.inf
        if trial % 11 == 0 and a.ndim == 2:
            a[int(rng.integers(a.shape[0]))] = -np.inf
        if trial % 13 == 0:
            a[:] = -np.inf
        if trial % 17 == 0:
            a[rng.random(shape) < 0.2] = np.inf
        if trial % 19 == 0:
            a[rng.random(shape) < 0.2] = np.nan
        yield a
    yield np.array([[0.0, np.inf], [1.0, 2.0], [-np.inf, -np.inf]])   # rows 0 and 2 take the fallback
    yield rng.standard_normal(2**20) * 30


def test_logsumexp_matches_scipy_bit_for_bit():
    for a in logsumexp_cases():
        for axis in (None, *range(a.ndim)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = logsumexp(a, axis=axis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # _logsumexp warns about nothing
                got = _logsumexp(a, axis=axis)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, axis, got, want)


def test_free_model_is_uniform():
    m = potts_model(3, 0, 1, 2)
    b = build_ball(2, 1)
    mu = finite_volume_measure(m, zero_fields(b, 3))
    p = mu.probabilities()
    assert np.allclose(p, 1.0 / len(p), atol=1e-14)


def test_single_edge_boltzmann_weights():
    # k=1, n=1: root with two leaves; check against the oracle enumeration
    m = potts_model(2, 2, 1, 1)  # beta*J' = 1
    b = build_ball(1, 1)
    flds = zero_fields(b, 2)
    mu = finite_volume_measure(m, flds)
    assert np.allclose(mu.probabilities(), brute_force_probs(m, b, flds), atol=1e-13)
    # hand check: config all-equal has weight e^{2}, mixed e^{0} or e^{-2}
    p = mu.probabilities()
    z = 2 * math.exp(2) + 4 + 2 * math.exp(-2)
    assert p[0] == pytest.approx(math.exp(2) / z)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_measure_matches_oracle_with_fields(q, k):
    # the zero-padded field tables give the paper's simplex pairing's probabilities
    rng = np.random.default_rng(5)
    m = random_rational_model(rng, q, k)
    b = build_ball(k, 1)
    flds = ReducedFieldAssignment(b, rng.uniform(-2, 2, size=(b.num_vertices, q - 1)))
    mu = finite_volume_measure(m, flds)
    assert np.allclose(mu.probabilities(), brute_force_probs(m, b, flds), atol=1e-12)


@pytest.mark.parametrize("width", [1, 3])
def test_fields_of_the_wrong_width_rejected(width):
    # q = 3 fields have q-1 = 2 components per vertex
    m = potts_model(3, 1, 1, 2)
    flds = ReducedFieldAssignment(build_ball(2, 1), np.zeros((4, width)))
    for f in (finite_volume_measure, consistency_residual):
        with pytest.raises(ValueError, match=r"fields must have 2 components per vertex, got shape \(4, "):
            f(m, flds)


def test_root_marginal_symmetric_potts():
    m = potts_model(3, 1, 1, 2)
    b = build_ball(2, 2)
    mu = finite_volume_measure(m, zero_fields(b, 3))
    root = marginalize(mu, 0).probabilities()
    assert np.allclose(root, [1 / 3, 1 / 3, 1 / 3], atol=1e-13)


def test_marginalize_normalization_and_tower():
    rng = np.random.default_rng(9)
    m = random_rational_model(rng, 2, 2)
    b = build_ball(2, 2)
    flds = ReducedFieldAssignment(b, rng.uniform(-2, 2, size=(b.num_vertices, 1)))
    mu = finite_volume_measure(m, flds)
    m1 = marginalize(mu, 1)
    assert m1.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
    # n -> 1 -> 0 equals n -> 0
    via = marginalize(m1, 0).probabilities()
    direct = marginalize(mu, 0).probabilities()
    assert np.allclose(via, direct, atol=1e-12)
    with pytest.raises(ValueError):
        marginalize(m1, 1)


def test_enumeration_cap_is_enforced():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 3)  # 22 vertices
    with pytest.raises(EnumerationCapError):
        finite_volume_measure(m, zero_fields(b, 2), cap=2**20)


def test_consistency_forward_and_converse():
    rng = np.random.default_rng(21)
    m = random_rational_model(rng, 2, 2)
    b = build_ball(2, 2)
    flds = propagate_fields(m, b, rng.uniform(-2, 2, size=(6, 1)))
    assert consistency_residual(m, flds) < 1e-10
    h = flds.hprime.copy()
    h[b.shells[1][0], 0] += 0.1
    assert consistency_residual(m, ReducedFieldAssignment(b, h)) > 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.sampled_from([1, 2]),
       st.sampled_from([1, 2]), st.sampled_from([-1.0, -0.25, 0.25, 1.0]))
def test_consistency_iff_recursion_holds(seed, q, k, n, delta):
    # propagated fields obey the recursion on shell n-1 and the residual
    # vanishes; moving one shell-(n-1) field off it makes the residual show
    rng = np.random.default_rng(seed)
    m = random_rational_model(rng, q, k)
    b = build_ball(k, n)
    flds = propagate_fields(m, b, rng.uniform(-2, 2, size=(len(b.shells[n]), q - 1)))
    assert consistency_residual(m, flds) <= 1e-10
    h = flds.hprime.copy()
    h[rng.choice(b.shells[n - 1]), rng.integers(q - 1)] += delta
    assert consistency_residual(m, ReducedFieldAssignment(b, h)) > 1e-10


def random_table_model(rng, kind: str, q: int, k: int):
    """An exact, float or stochastic-matrix (Markov) model on the order-k tree."""
    if kind == "exact":
        return random_rational_model(rng, q, k)
    if kind == "float":
        return generic_model(rng.uniform(-2, 2, size=(q, q)).tolist(), k, float(rng.uniform(0.25, 2)))
    p = rng.uniform(0.05, 1, size=(q, q))
    return markov_model((p / p.sum(axis=1, keepdims=True)).tolist(), k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 3]), st.sampled_from(["exact", "float", "markov"]),
       st.sampled_from(["propagated", "corrupted", "random"]))
def test_consistency_residual_matches_enumeration(seed, q, k, n, table, field_kind):
    # summing out shell n gives the enumerated marginal: propagated fields,
    # one shell-(n-1) field moved off the recursion, or random interior fields
    b = build_ball(k, n)
    assume((n <= 2 or k == 1) and q**b.num_vertices <= 2**16)
    rng = np.random.default_rng(seed)
    m = random_table_model(rng, table, q, k)
    h = propagate_fields(m, b, rng.uniform(-2, 2, size=(len(b.shells[n]), q - 1))).hprime
    interior = slice(0, b.shell_slice(n).start)
    if field_kind == "corrupted":
        h[rng.choice(b.shells[n - 1])] += rng.uniform(-1, 1, size=q - 1)
    elif field_kind == "random":
        h[interior] = rng.uniform(-2, 2, size=h[interior].shape)
    flds = ReducedFieldAssignment(b, h)
    assert abs(consistency_residual(m, flds) - enumerated_consistency_residual(m, flds)) <= 1e-14


def test_consistency_residual_builds_no_level_n_measure():
    # Potts q=4, k=2, n=2: the level-n measure is 4^10 entries (8 MB), the two
    # level-1 measures 4^4; enumerating level n peaked at about 17 MB
    m = potts_model(4, 1, Fraction(5, 4), 2)
    flds = propagate_fields(m, build_ball(2, 2), np.full((6, 3), 0.25))
    consistency_residual(m, flds)                # first-use caches (log-weights, ball tables)
    assert allocation_peak(lambda: consistency_residual(m, flds)) < 2**20


def test_zero_fields_consistent_under_assumption_a():
    m = potts_model(3, 1, 1, 2)
    assert consistency_residual(m, zero_fields(build_ball(2, 2), 3)) < 1e-12


def test_dlr_free_model_uniform():
    m = potts_model(2, 0, 1, 2)
    b = build_ball(2, 2)
    nu = per_term_dlr_conditional(m, b, [0, 1, 0, 1, 0, 1])
    assert np.allclose(nu, 1.0 / len(nu), atol=1e-14)


def test_dlr_root_softmax():
    # k=1, n=0: root conditioned on its two neighbors, both spin 0
    m = potts_model(2, 2, 1, 1)  # beta*J' = 1
    b = build_ball(1, 1)
    nu = per_term_dlr_conditional(m, b, [0, 0])
    expected = np.exp([2.0, -2.0])
    expected /= expected.sum()
    assert np.allclose(nu, expected, atol=1e-14)


def test_dlr_normalizes():
    rng = np.random.default_rng(2)
    m = random_rational_model(rng, 3, 2)
    b = build_ball(2, 2)
    nu = per_term_dlr_conditional(m, b, list(rng.integers(0, 3, size=6)))
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)


def test_dlr_self_consistency():
    # mixing the conditional over the boundary-shell marginal reproduces
    # the ball marginal of the bigger measure
    rng = np.random.default_rng(4)
    m = random_rational_model(rng, 2, 2)
    big = build_ball(2, 2)
    mu = finite_volume_measure(m, zero_fields(big, 2))
    inner = build_ball(2, 1).num_vertices
    outer = len(big.shells[2])
    p = mu.probabilities().reshape(2**inner, 2**outer)
    shell_marginal = p.sum(axis=0)
    mixed = np.zeros(2**inner)
    omegas = enumerate_configs(2, outer, 2**20)
    for w_idx, omega in enumerate(omegas):
        mixed += shell_marginal[w_idx] * per_term_dlr_conditional(m, big, list(omega))
    assert np.allclose(mixed, p.sum(axis=1), atol=1e-10)


@pytest.mark.parametrize(
    "model,n",
    [
        (potts_model(2, Fraction(3, 2), 1, 2), 1),
        (potts_model(3, 1, 1, 1), 1),
        (markov_model([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]], 2), 1),
    ],
)
def test_markov_property(model, n):
    assert markov_property_residual(model, n) < 1e-12


def test_markov_property_free_model_exact():
    assert markov_property_residual(potts_model(2, 0, 1, 2), 1) == pytest.approx(0.0, abs=1e-15)


def test_markov_property_cap_bounds_pairwise_block():
    # Potts q=3, k=2, n=1: 3^10 configurations, inner ball 3 configurations,
    # outer shell 3^6; the full pairwise TV block would be 3 x 3^6 x 3^6 doubles
    m = potts_model(3, 1, 1, 2)
    default = markov_property_residual(m, 1)
    tracemalloc.start()
    try:
        small = markov_property_residual(m, 1, cap=3**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small == default
    assert peak < 3 * 3**6 * 3**6 * 8


def test_two_point_free_model_uncorrelated():
    m = potts_model(3, 0, 1, 2)
    assert np.max(two_point_correlation(m, 0, 4, 2)) < 1e-14


def test_two_point_matches_enumeration():
    # every ball with at most 11 vertices, every vertex pair (x0 == x1,
    # parent-child, x1 < x0), asymmetric rational and float tables
    rng = np.random.default_rng(13)
    radii = {1: range(6), 2: range(3), 3: range(2)}
    for q in (2, 3):
        for k, ns in radii.items():
            floats = rng.uniform(-1.5, 1.5, size=(q, q)).tolist()
            for m in (random_rational_model(rng, q, k), generic_model(floats, k, 0.7)):
                for n in ns:
                    b = build_ball(k, n)
                    mu = finite_volume_measure(m, zero_fields(b, q))
                    p = mu.probabilities()
                    configs = enumerate_configs(q, b.num_vertices, len(p))
                    onehot = (configs[:, :, None] == np.arange(q)).reshape(len(p), -1)
                    joints = ((onehot.T * p) @ onehot).reshape(b.num_vertices, q, b.num_vertices, q)
                    for x0 in range(b.num_vertices):
                        for x1 in range(b.num_vertices):
                            joint = joints[x0, :, x1, :]
                            defect_oracle = np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0)))
                            assert np.allclose(
                                two_point_correlation(m, x0, x1, n), defect_oracle, atol=1e-12
                            ), (q, k, n, x0, x1, m.lam)


def elimination_model(kind: str, rng: np.random.Generator, q: int, k: int):
    """A float, exact or (rational) Markov table for the two-point tests."""
    if kind == "float":
        return generic_model(rng.uniform(-1.5, 1.5, size=(q, q)).tolist(), k, 0.7)
    if kind == "exact":
        return random_rational_model(rng, q, k)
    counts = rng.integers(1, 9, size=(q, q))
    return markov_model([[Fraction(int(c), int(row.sum())) for c in row] for row in counts], k)


# every vertex pair on the balls of EVERY_PAIR (at most 17 vertices); on the
# 81- to 161-vertex balls of SAMPLED, named pairs and a random sample
EVERY_PAIR = {1: (0, 5), 2: (2,), 3: (2,), 9: (1,)}
SAMPLED = {1: 40, 2: 5, 3: 4, 9: 2}


def two_point_cases(rng: np.random.Generator, k: int) -> list:
    """(x0, x1, n): every vertex pair on the balls of EVERY_PAIR, and on the ball of SAMPLED
    named pairs (a leaf with itself, its parent, its sibling, a root child and the root) and 20
    random ones."""
    cases = [(x0, x1, n) for n in EVERY_PAIR[k] for x0 in range(build_ball(k, n).num_vertices)
             for x1 in range(build_ball(k, n).num_vertices)]
    n = SAMPLED[k]
    last = build_ball(k, n).num_vertices - 1
    named = [(last, last), (_family(k, last)[0], last), (last, last - 1), (1, last), (0, last)]
    return cases + [(x0, x1, n) for x0, x1 in named + rng.integers(0, last + 1, (20, 2)).tolist()]


@pytest.mark.parametrize("kind", ["float", "exact", "markov"])
def test_two_point_matches_the_full_ball_sweep(kind):
    # the full-ball sweep subtracts P(i)*P(j) from a joint formed from log-weights that grow
    # with the ball, so its own absolute error is about |V| * 2^-52
    rng = np.random.default_rng(["float", "exact", "markov"].index(kind))
    for q in (2, 3, 4):
        for k in EVERY_PAIR:
            m = elimination_model(kind, rng, q, k)
            for x0, x1, n in two_point_cases(rng, k):
                assert np.allclose(two_point_correlation(m, x0, x1, n),
                                   full_sweep_two_point_correlation(m, x0, x1, n),
                                   rtol=0, atol=build_ball(k, n).num_vertices * 2.0**-52), (q, k, n, x0, x1)


def centred_powers(M: mpmath.matrix, n: int) -> list:
    """C_d = (I - J/q) M^d = M^d - J/q for d = 0..n, M doubly stochastic (J all ones), at 60
    digits.  Formed one product at a time, so no digits cancel however small C_d gets."""
    q = M.rows
    with mpmath.workdps(60):
        powers = [mpmath.eye(q) - mpmath.ones(q) / q]
        for _ in range(n):
            powers.append(powers[-1] * M)
    return powers


def pair_law(powers: list, a: int, b: int) -> np.ndarray:
    """|(1/q)(M^a)^T M^b - 1/q^2| = |C_a^T C_b| / q: the zero-field defect of two vertices a and b
    shells below their nearest common ancestor, for the doubly stochastic M of ``centred_powers``."""
    q = powers[0].rows
    with mpmath.workdps(60):
        law = powers[a].T * powers[b] / q
        return np.array([[float(abs(law[i, j])) for j in range(q)] for i in range(q)])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_two_point_follows_the_free_law_relatively(q):
    # within 1e-12 of the law's largest entry at every pair of the full-sweep cases, out to
    # distance 80 (defects near 1e-100): the centred products keep small defects as accurate
    # as large ones.  (Relative to the largest entry: a circulant law can hold exact zeros.)
    # On the circulant tables every kernel is the float P, itself circulant.
    rng = np.random.default_rng(q + 10)
    for k in EVERY_PAIR:
        cases = two_point_cases(rng, k)
        for m, M in doubly_stochastic_tables(rng, q, k):
            powers, laws = centred_powers(M, SAMPLED[k]), {}
            for x0, x1, n in cases:
                ball = build_ball(k, n)
                meet = ball.shell_of(_meet(ball, x0, x1))
                a, b = ball.shell_of(x0) - meet, ball.shell_of(x1) - meet
                if (a, b) not in laws:
                    laws[a, b] = pair_law(powers, a, b)
                err = np.max(np.abs(two_point_correlation(m, x0, x1, n) - laws[a, b]))
                assert err <= 1e-12 * np.max(laws[a, b]), (q, k, n, x0, x1, m.lam)


def test_two_point_stays_in_the_free_state_at_low_temperature():
    # at J = 5 the free state is unstable under the recursion (k*lambda_2 = 1.96): rounding
    # left between the rows of the subtree weights grows into an ordered state, an all-zero defect
    got = np.max(two_point_correlation(potts_model(3, 5, 1, 2), 0, 1, 60))
    assert got == pytest.approx(0.21778998590297824, rel=1e-12, abs=0)
    # distance 40 at J = 1: the first and last vertex of shell 20 meet at the root
    m = potts_model(3, 1, 1, 2)
    shell = build_ball(2, 20).shell_slice(20)
    want = pair_law(centred_powers(potts_law_matrix(m), 20), 20, 20)
    assert np.allclose(two_point_correlation(m, shell.start, shell.stop - 1, 20), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["float", "exact", "markov"])
def test_two_point_root_pairs_give_the_correlation_decay_rows(kind):
    rng = np.random.default_rng(["float", "exact", "markov"].index(kind) + 20)
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            m = elimination_model(kind, rng, q, k)
            for n in (1, 6, 12):
                ball = build_ball(k, n)
                got = [np.max(two_point_correlation(m, 0, ball.shell_slice(d).start, n)) for d in range(1, n + 1)]
                want = [v for _, v in correlation_decay(m, n)]
                assert np.allclose(got, want, rtol=1e-12, atol=0), (q, k, n, m.lam)


@pytest.mark.parametrize("k,top", [(1, 6), (2, 6), (3, 6), (9, 3)])
def test_correlation_decay_equals_full_ball_sweep_rows(k, top):
    # the full-ball sweep subtracts P(i)*P(j) from a joint formed from log-weights that grow
    # with the ball, so its own absolute error is about |V| * 2^-52
    rng = np.random.default_rng(k)
    for kind in ("float", "exact", "markov"):
        m = elimination_model(kind, rng, 3, k)
        for n in range(1, top + 1):
            ball = build_ball(k, n)
            want = [np.max(full_sweep_two_point_correlation(m, 0, ball.shell_slice(d).start, n))
                    for d in range(1, n + 1)]
            rows = correlation_decay(m, n)
            assert [d for d, _ in rows] == list(range(1, n + 1))
            assert np.allclose([v for _, v in rows], want, rtol=0, atol=ball.num_vertices * 2.0**-52), (kind, n)


def free_law_rows(M: mpmath.matrix, n: int) -> list:
    """Max_ij |(1/q) M^d_ij - (1/q) p_d(j)| for d = 1..n, p_d = (1/q) 1^T M^d: the free-boundary
    defect of a stochastic M under a uniform root law (p_d(j) = 1/q when M is doubly stochastic)."""
    q = M.rows
    power, rows = mpmath.eye(q), []
    for _ in range(n):
        power = power * M
        col = [mpmath.fsum(power[i, j] for i in range(q)) / q for j in range(q)]
        rows.append(max(abs(power[i, j] - col[j]) / q for i in range(q) for j in range(q)))
    return rows


def potts_law_matrix(m) -> mpmath.matrix:
    """The row-normalised e^{-beta*lam} of a Potts model with beta = 1, at 60 digits."""
    with mpmath.workdps(60):
        e = [[mpmath.exp(-as_mpf(v)) for v in row] for row in m.lam]
        return mpmath.matrix([[x / mpmath.fsum(row) for x in row] for row in e])


def doubly_stochastic_tables(rng: np.random.Generator, q: int, k: int):
    """Potts tables across both signs of J, with |k*lambda_2| up to about 2.96, and strictly
    positive circulant stochastic matrices (sum_r c_r S^r, S the cyclic shift), each with the
    exact M of its law."""
    for J in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(5)):
        m = potts_model(q, J, 1, k)
        yield m, potts_law_matrix(m)
    for _ in range(3):
        c = rng.integers(1, 9, size=q)
        P = [[Fraction(int(c[(j - i) % q]), int(c.sum())) for j in range(q)] for i in range(q)]
        with mpmath.workdps(60):
            M = mpmath.matrix([[as_mpf(v) for v in row] for row in P])
        yield markov_model(P, k), M


@pytest.mark.parametrize("q", [2, 3, 4])
def test_correlation_decay_follows_the_free_law_relatively(q):
    # every row within 1e-12 relative of (1/q) M^d, at 60 digits: the centred product keeps
    # small defects as accurate as large ones.  Rows of these tables are permutations of one
    # another, so the zero field is an exact fixed point of the stored float table too.
    rng = np.random.default_rng(q)
    for k in (1, 2, 3):
        for m, M in doubly_stochastic_tables(rng, q, k):
            with mpmath.workdps(60):
                want = free_law_rows(M, 20)
            rows = correlation_decay(m, 20)
            err = max(abs(v / w - 1) for (_, v), w in zip(rows, want))
            assert err <= 1e-12, (q, k, m.lam, float(err))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [20, 40])
def test_correlation_decay_follows_the_law_of_a_rational_markov_matrix(k, n):
    # rows that are not permutations of one another: the rows of P sum to 1 exactly, so the
    # zero-field law is (1/q) P^d with a uniform root, while e^{-lam} of the stored float
    # table has row sums off 1 by rounding, which the subtree weights would compound
    P = [[Fraction(v, 18) for v in row] for row in [[8, 7, 3], [9, 8, 1], [1, 3, 14]]]
    with mpmath.workdps(60):
        want = free_law_rows(mpmath.matrix([[as_mpf(v) for v in row] for row in P]), n)
    rows = correlation_decay(markov_model(P, k), n)
    assert [d for d, _ in rows] == list(range(1, n + 1))
    assert max(abs(v / w - 1) for (_, v), w in zip(rows, want)) <= 1e-12


@pytest.mark.parametrize("kind", ["float", "exact", "markov"])
def test_correlation_decay_matches_a_50_digit_root_path_product(kind):
    rng = np.random.default_rng(["float", "exact", "markov"].index(kind) + 40)
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            m = elimination_model(kind, rng, q, k)
            for n in (1, 6, 20):
                rows, want = correlation_decay(m, n), mp_correlation_decay(m, n)
                assert [d for d, _ in rows] == [d for d, _ in want]
                err = max((abs(v / w - 1) for (_, v), (_, w) in zip(rows, want) if w > 1e-250), default=0)
                assert err <= 1e-9, (q, k, n, m.lam, float(err))


def test_correlation_decay_at_radius_1000():
    # no ball is built, and kernels and rows take O(n*q^2) memory.  At J = 5 the free
    # state is unstable under the recursion (k*lambda_2 = 1.96): rounding left in the
    # subtree weights would grow to an ordered state well inside 1,000 shells.
    for J in (1, 5):
        m = potts_model(3, J, 1, 2)
        tracemalloc.start()
        try:
            rows = correlation_decay(m, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert [d for d, _ in rows] == list(range(1, 1001))
        values = np.array([v for _, v in rows])
        assert np.all(np.isfinite(values)) and np.all(values >= 0)
        with mpmath.workdps(60):
            want = free_law_rows(potts_law_matrix(m), 30)
        assert max(abs(v / w - 1) for v, w in zip(values, want)) <= 1e-12, J
    ball = build_ball(2, 1000)
    assert not {"shells", "parent", "edges", "words"} & set(vars(ball))


def test_two_point_memory_does_not_grow_with_the_ball():
    # Potts q=3, k=2 at radius 20: 3,145,726 vertices, where one full-ball
    # sweep of the 9 clamped pairs would hold 9 * 3 floats per vertex (680 MB)
    m = potts_model(3, 1, 1, 2)
    ball = build_ball(2, 20)
    last = ball.num_vertices - 1
    assert last + 1 == 3_145_726
    tracemalloc.start()
    try:
        defect = two_point_correlation(m, 0, last, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "parent" not in vars(ball)
    # the free-boundary law at distance 20: |(1/q) M^20 - 1/q^2|, M the row-normalised e^{-beta*lam}
    want = pair_law(centred_powers(potts_law_matrix(m), 20), 0, 20)
    assert np.allclose(defect, want, rtol=1e-12, atol=0)


def test_two_point_decay_high_temperature():
    m = potts_model(2, Fraction(2, 5), 1, 2)  # beta*J' = 0.2
    b = build_ball(2, 3)
    defects = [np.max(two_point_correlation(m, 0, b.shells[d][0], 3)) for d in (1, 2, 3)]
    assert defects[0] > defects[1] > defects[2]
    assert all(0 <= d <= 1 for d in defects)


def test_measure_gauge_invariance():
    rng = np.random.default_rng(17)
    m = random_rational_model(rng, 2, 2)
    b = build_ball(2, 1)
    flds = ReducedFieldAssignment(b, rng.uniform(-1, 1, size=(b.num_vertices, 1)))
    p1 = finite_volume_measure(m, flds).probabilities()
    p2 = finite_volume_measure(shifted(m, Fraction(7, 8)), flds).probabilities()
    assert np.allclose(p1, p2, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_spin_relabel_equivariance(seed):
    rng = np.random.default_rng(seed)
    m = random_rational_model(rng, 3, 2)
    perm = list(rng.permutation(3))
    mr = relabeled(m, perm)
    b = build_ball(2, 1)
    p = finite_volume_measure(m, zero_fields(b, 3)).probabilities()
    pr = finite_volume_measure(mr, zero_fields(b, 3)).probabilities()
    configs = enumerate_configs(3, b.num_vertices, 2**20)
    place = 3 ** np.arange(b.num_vertices - 1, -1, -1)
    mapped = np.array([[perm[s] for s in sigma] for sigma in configs]) @ place
    assert np.allclose(pr, p[mapped], atol=1e-13)
