import math
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import treegibbs
from treegibbs import (
    build_ball,
    consistency_residual,
    dlr_conditional,
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
from treegibbs.fields import ReducedFieldAssignment
from treegibbs.measures import DEFAULT_CAP, EnumerationCapError, _enumerate_configs, _max_column_tv

from conftest import random_rational_model, relabeled, shifted


def brute_force_probs(model, ball, fields):
    """Independent enumeration oracle: explicit weights, explicit pairing."""
    q = model.q
    eta = model.spin.eta
    lam = model.lam_float
    beta = model.beta_float
    configs = _enumerate_configs(q, ball.num_vertices, 2**22)
    weights = []
    for sigma in configs:
        e = sum(lam[sigma[u], sigma[v]] for u, v in ball.edges)
        boundary = 0.0
        for x in ball.shells[ball.n]:
            hvec = (q - 1) / q * fields.hprime[x] @ eta[: q - 1]
            boundary += hvec @ eta[sigma[x]]
        weights.append(math.exp(-beta * e + boundary))
    w = np.array(weights)
    return w / w.sum()


def gather_energies(model, ball):
    """Configuration-matrix enumeration: one lam gather per edge, in edge order."""
    configs = _enumerate_configs(model.q, ball.num_vertices, 2**22)
    lam = model.lam_float
    e = np.zeros(len(configs))
    for u, v in ball.edges:
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


def test_broadcast_enumeration_matches_gather():
    # every ball with at most 12 vertices, rational and asymmetric float
    # tables, random boundary fields: bit-identical to the gather version
    rng = np.random.default_rng(29)
    radii = {1: range(6), 2: range(3), 3: range(2)}
    for q in (2, 3):
        for k, ns in radii.items():
            floats = rng.uniform(-1.5, 1.5, size=(q, q)).tolist()
            for m in (random_rational_model(rng, q, k), generic_model(floats, k, 0.7)):
                lam = m.lam_float
                for n in ns:
                    b = build_ball(k, n)
                    configs, e = gather_energies(m, b)
                    flds = ReducedFieldAssignment(b, rng.uniform(-2, 2, size=(b.num_vertices, q - 1)))
                    logw = -m.beta_float * e
                    gram_part = m.spin.gram[: q - 1, :]
                    for x in b.shells[n]:
                        logw += ((q - 1) / q * (flds.hprime[x] @ gram_part))[configs[:, x]]
                    mu = finite_volume_measure(m, flds)
                    assert np.array_equal(mu.logweights, logw), (q, k, n, m.lam)
                    assert mu.logZ == float(logsumexp(logw))
                    assert np.array_equal(finite_volume_spectrum(m, b), np.sort(m.beta_float * e))
                    big = build_ball(k, n + 1)
                    for omega in rng.integers(0, q, size=(3, len(big.shells[n + 1]))):
                        eo = e.copy()
                        for pos, y in enumerate(big.shells[n + 1]):
                            eo += lam[configs[:, big.parent[y]], omega[pos]]
                        lw = -m.beta_float * eo
                        want = np.exp(lw - logsumexp(lw))
                        assert np.array_equal(dlr_conditional(m, big, list(omega)), want)


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
        want = all_pairs_tv(markov_conditional(m, n))
        assert markov_property_residual(m, n) == want
        # the smallest cap that admits the measure: chunks of q^|shell n| rows
        assert markov_property_residual(m, n, cap=q**ball.num_vertices) == want
    # chunked comparison on non-trivial conditionals, down to one-row chunks
    cond = rng.random((4, 3, 37))
    cond /= cond.sum(axis=0, keepdims=True)
    want = all_pairs_tv(cond)
    for step in (1, 2, 5, 36, 37, 100):
        assert _max_column_tv(cond, step) == want


def test_max_column_tv_duplicate_and_one_ulp_columns():
    # tiled and permuted duplicates are compared once; columns one ulp apart
    # stay distinct, so a slice holding only a column and its neighbour
    # still reports that one-ulp gap.  Column-permuted views (not C-ordered)
    # are compared as well as C-ordered copies
    rng = np.random.default_rng(37)
    for rows in (1, 2, 3, 9):
        base = rng.random((rows, 4, 6))
        base /= base.sum(axis=0, keepdims=True)
        near = base.copy()
        near[0] = np.nextafter(near[0], 2.0)
        cond = np.concatenate([np.tile(base, 5), near, base[:, ::-1]], axis=2)
        pair = np.concatenate([np.tile(base[:, :, :1], 7), np.tile(near[:, :, :1], 3)], axis=2)
        for c in (cond, pair):
            permuted = c[:, :, rng.permutation(c.shape[2])]
            assert rows == 1 or not permuted.flags.c_contiguous
            for laid_out in (permuted, np.ascontiguousarray(permuted)):
                want = all_pairs_tv(laid_out)
                assert want > 0
                for step in (1, 2, 5, c.shape[2], c.shape[2] + 7):
                    assert _max_column_tv(laid_out, step) == want, (rows, step)


def test_markov_residual_compares_distinct_columns_in_little_memory():
    # Potts q=2, k=3, n=1: 16 slices of 4,096 outer configurations, all
    # the same law in exact arithmetic; chunk buffers over every column at
    # the cap-derived step of 128 rows would hold (2 + 1) x 128 x 4,096
    # doubles, 12.6 MB
    m = potts_model(2, 1, Fraction(3, 2), 3)
    cond = markov_conditional(m, 1)
    step = DEFAULT_CAP // (cond.shape[0] * cond.shape[2])
    assert cond.shape == (2, 16, 4096) and step == 128
    tracemalloc.start()
    try:
        residual = _max_column_tv(cond, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    assert residual == markov_property_residual(m, 1)
    assert peak < 2**20


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


def test_measure_matches_oracle_with_fields():
    rng = np.random.default_rng(5)
    m = random_rational_model(rng, 3, 2)
    b = build_ball(2, 1)
    flds = ReducedFieldAssignment(b, rng.uniform(-2, 2, size=(b.num_vertices, 2)))
    mu = finite_volume_measure(m, flds)
    assert np.allclose(mu.probabilities(), brute_force_probs(m, b, flds), atol=1e-12)


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


def test_zero_fields_consistent_under_assumption_a():
    m = potts_model(3, 1, 1, 2)
    assert consistency_residual(m, zero_fields(build_ball(2, 2), 3)) < 1e-12


def test_dlr_free_model_uniform():
    m = potts_model(2, 0, 1, 2)
    b = build_ball(2, 2)
    nu = dlr_conditional(m, b, [0, 1, 0, 1, 0, 1])
    assert np.allclose(nu, 1.0 / len(nu), atol=1e-14)


def test_dlr_root_softmax():
    # k=1, n=0: root conditioned on its two neighbors, both spin 0
    m = potts_model(2, 2, 1, 1)  # beta*J' = 1
    b = build_ball(1, 1)
    nu = dlr_conditional(m, b, [0, 0])
    expected = np.exp([2.0, -2.0])
    expected /= expected.sum()
    assert np.allclose(nu, expected, atol=1e-14)


def test_dlr_normalizes_and_validates():
    rng = np.random.default_rng(2)
    m = random_rational_model(rng, 3, 2)
    b = build_ball(2, 2)
    omega = list(rng.integers(0, 3, size=6))
    nu = dlr_conditional(m, b, omega)
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dlr_conditional(m, b, omega[:-1])


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
    omegas = _enumerate_configs(2, outer, 2**20)
    for w_idx, omega in enumerate(omegas):
        mixed += shell_marginal[w_idx] * dlr_conditional(m, big, list(omega))
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
                    onehot = (mu.configs()[:, :, None] == np.arange(q)).reshape(len(p), -1)
                    joints = ((onehot.T * p) @ onehot).reshape(b.num_vertices, q, b.num_vertices, q)
                    for x0 in range(b.num_vertices):
                        for x1 in range(b.num_vertices):
                            joint = joints[x0, :, x1, :]
                            defect_oracle = np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0)))
                            assert np.allclose(
                                two_point_correlation(m, x0, x1, n), defect_oracle, atol=1e-12
                            ), (q, k, n, x0, x1, m.lam)


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
    configs = _enumerate_configs(3, b.num_vertices, 2**20)
    place = 3 ** np.arange(b.num_vertices - 1, -1, -1)
    mapped = np.array([[perm[s] for s in sigma] for sigma in configs]) @ place
    assert np.allclose(pr, p[mapped], atol=1e-13)
