import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from treegibbs import (
    build_ball,
    check_unordered,
    generic_model,
    markov_model,
    potts_model,
    propagate_fields,
    recursion_map,
    ti_fixed_points,
    zero_fields,
)

import treegibbs.fields
from treegibbs.fields import _map_jacobian
from treegibbs.topology import _family

from conftest import damped_fixed_points, random_rational_model, random_rational_table, shifted


def reference_map(model, h):
    """F for one field vector, restated with scipy's logsumexp."""
    a = -model.beta_float * model.lam_float
    row_logs = logsumexp(a + np.append(h, 0.0)[None, :], axis=1)
    return row_logs[:-1] - row_logs[-1]


def reference_propagate(model, ball, boundary):
    """Per-vertex inward propagation, one map call per child."""
    h = np.zeros((ball.num_vertices, model.q - 1))
    h[list(ball.shells[ball.n])] = boundary
    for m in range(ball.n - 1, -1, -1):
        for x in ball.shells[m]:
            h[x] = sum(reference_map(model, h[y]) for y in _family(ball.k, x)[1])
    return h


def ising_map(beta_jp: float, h: float) -> float:
    """Closed-form q=2 one-step map, evaluated directly."""
    return math.log(
        (math.exp(beta_jp) * math.exp(h) + math.exp(-beta_jp))
        / (math.exp(-beta_jp) * math.exp(h) + math.exp(beta_jp))
    )


def scan_fixed_points(beta_jp: float, k: int) -> int:
    """Grid-scan oracle: sign changes of k*F(h) - h on [-10, 10], step 1e-3."""
    h = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
    num = np.exp(beta_jp) * np.exp(h) + np.exp(-beta_jp)
    den = np.exp(-beta_jp) * np.exp(h) + np.exp(beta_jp)
    s = k * np.log(num / den) - h
    return int(np.sum(np.sign(s[:-1]) != np.sign(s[1:])))


def test_potts_zero_field_is_fixed():
    for q in (2, 3, 5):
        m = potts_model(q, Fraction(7, 4), Fraction(3, 2), 2)
        assert np.max(np.abs(recursion_map(m, np.zeros(q - 1)))) < 1e-14


def test_markov_zero_field_is_fixed():
    P = [[Fraction(1, 5), Fraction(4, 5)], [Fraction(2, 3), Fraction(1, 3)]]
    m = markov_model(P, 2)
    assert np.max(np.abs(recursion_map(m, np.zeros(1)))) < 1e-14


def test_q2_closed_form():
    m = potts_model(2, 2, 1, 2)  # beta*J' = 1
    for h in (-3.0, 0.5, 2.0):
        assert recursion_map(m, np.array([h]))[0] == pytest.approx(ising_map(1.0, h), abs=1e-12)


def test_check_unordered():
    ok, res = check_unordered(potts_model(3, 1, 1, 2))
    assert ok and res < 1e-14
    ok, _ = check_unordered(markov_model([[0.25, 0.75], [0.6, 0.4]], 2))
    assert ok
    bad = generic_model([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]], 2, 1)
    ok, res = check_unordered(bad)
    assert not ok
    # row sums 2 vs 1 + e^{-1}
    assert res == pytest.approx(abs(math.log(2 / (1 + math.exp(-1)))))


def test_stability_large_fields_and_couplings():
    m = generic_model([[Fraction(50), Fraction(-50)], [Fraction(-50), Fraction(50)]], 2, 1)
    for h in (-1e4, -17.0, 0.0, 1e4):
        assert np.isfinite(recursion_map(m, np.array([h]))).all()


@given(st.floats(-20, 20), st.integers(1, 5))
def test_ising_antisymmetry(h, jnum):
    m = potts_model(2, Fraction(jnum, 2), 1, 2)
    f = recursion_map(m, np.array([h]))[0]
    g = recursion_map(m, np.array([-h]))[0]
    assert f == pytest.approx(-g, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_gauge_invariance_and_beta_absorption(seed, q):
    rng = np.random.default_rng(seed)
    m = random_rational_model(rng, q, 2)
    h = rng.uniform(-3, 3, size=q - 1)
    base = recursion_map(m, h)
    # constant coupling shift cancels in the ratio
    assert np.max(np.abs(recursion_map(shifted(m, Fraction(3, 4)), h) - base)) < 1e-12
    # (lam, beta) == (beta*lam, 1)
    beta = Fraction(3, 2)
    mb = generic_model(m.lam, m.k, beta)
    scaled = generic_model([[beta * v for v in row] for row in m.lam], m.k, Fraction(1))
    assert np.max(np.abs(recursion_map(mb, h) - recursion_map(scaled, h))) < 1e-12


def test_propagate_zero_boundary_gives_zero():
    m = potts_model(3, 1, 1, 2)
    b = build_ball(2, 2)
    flds = propagate_fields(m, b, np.zeros((6, 2)))
    assert np.max(np.abs(flds.hprime)) < 1e-13


def test_propagate_matches_definition():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 2)
    rng = np.random.default_rng(11)
    boundary = rng.uniform(-2, 2, size=(6, 1))
    flds = propagate_fields(m, b, boundary)
    for x in b.shells[1] + b.shells[0]:
        expected = sum(recursion_map(m, flds.hprime[y]) for y in _family(b.k, x)[1])
        assert np.allclose(flds.hprime[x], expected)


def test_propagate_rejects_incomplete_boundary():
    m = potts_model(2, 1, 1, 2)
    b = build_ball(2, 2)
    with pytest.raises(ValueError):
        propagate_fields(m, b, np.zeros((1, 1)))


def test_propagate_builds_no_vertex_tables():
    b = build_ball.__wrapped__(2, 10)  # a fresh ball, with no table read yet
    outer = b.shell_slice(b.n)
    propagate_fields(potts_model(3, 1, 1, 2), b, np.ones((outer.stop - outer.start, 2)))
    assert not {"words", "parent", "edges"} & vars(b).keys()


@pytest.mark.parametrize("shape", [(2, 3), (6,), (3, 2, 1), (1, 3, 2)])
def test_propagate_rejects_mis_shaped_boundary(shape):
    # q=3, k=2, n=1: the outer shell holds 3 vertices, so only (3, 2) is a
    # boundary; a transposed or flattened array of the same size is not one.
    m = potts_model(3, 1, 1, 2)
    b = build_ball(2, 1)
    with pytest.raises(ValueError, match="shape"):
        propagate_fields(m, b, np.arange(6.0).reshape(shape))
    assert propagate_fields(m, b, np.arange(6.0).reshape(3, 2)).hprime.shape == (4, 2)


def test_free_model_has_unique_zero_solution():
    m = potts_model(2, 0, 1, 2)
    result = ti_fixed_points(m, starts=8)
    assert result.solutions == ((0.0,),)


@pytest.mark.parametrize(
    "J,expected", [(Fraction(3, 5), 1), (Fraction(2), 3)]  # beta*J' = 0.3 and 1.0
)
def test_fixed_point_count_matches_scan_oracle(J, expected):
    m = potts_model(2, J, 1, 2)
    beta_jp = float(J) / 2
    assert scan_fixed_points(beta_jp, 2) == expected
    result = ti_fixed_points(m)
    assert len(result.solutions) == expected
    assert any(max(abs(c) for c in s) < 1e-9 for s in result.solutions)
    if expected == 3:
        sols = [s[0] for s in result.solutions]
        assert sols[0] == pytest.approx(-sols[2], abs=1e-9)


def test_fixed_points_satisfy_interior_consistency():
    # install a constant solution on all shells: interior k-successor vertices
    # satisfy the per-vertex recursion up to solver tolerance
    m = potts_model(2, 2, 1, 2)
    tol = 1e-12
    result = ti_fixed_points(m, tol=tol)
    b = build_ball(2, 2)
    for s in result.solutions:
        h = np.array(s)
        for x in b.shells[1]:
            resid = np.max(np.abs(h - sum(recursion_map(m, h) for _ in _family(b.k, x)[1])))
            assert resid <= 10 * tol


def test_batched_map_matches_rows():
    rng = np.random.default_rng(5)
    for q in (2, 3, 5):
        m = random_rational_model(rng, q, 2)
        h = rng.uniform(-6, 6, size=(40, q - 1))
        batched = recursion_map(m, h)
        assert batched.shape == h.shape
        rows = np.array([recursion_map(m, row) for row in h])
        assert np.max(np.abs(batched - rows)) <= 1e-12
        assert np.max(np.abs(rows - np.array([reference_map(m, row) for row in h]))) <= 1e-12
        cube = h.reshape(4, 10, q - 1)
        assert np.max(np.abs(recursion_map(m, cube) - batched.reshape(cube.shape))) <= 1e-12


def test_map_rejects_bad_shapes():
    m = potts_model(3, 1, 1, 2)
    for bad in (np.zeros(3), np.zeros((4, 1)), np.zeros((2, 0)), np.float64(0.0)):
        with pytest.raises(ValueError):
            recursion_map(m, bad)


@pytest.mark.parametrize("q,k,n", [(3, 2, 6), (2, 3, 4), (5, 2, 3)])
def test_propagate_matches_per_vertex_loop(q, k, n):
    rng = np.random.default_rng(100 * q + 10 * k + n)
    m = generic_model(random_rational_table(rng, q), k, Fraction(3, 2))
    b = build_ball(k, n)
    boundary = rng.uniform(-3, 3, size=(len(b.shells[n]), q - 1))
    flds = propagate_fields(m, b, boundary)
    assert np.max(np.abs(flds.hprime - reference_propagate(m, b, boundary))) <= 1e-12
    for r in range(n + 1):
        assert np.array_equal(flds.hprime[b.shell_slice(r)], flds.hprime[list(b.shells[r])])


@pytest.mark.parametrize(
    "q,J,expected",
    [
        (2, Fraction(1), 1),       # beta*J' = 0.5: k*tanh(beta*J') < 1
        (2, Fraction(6, 5), 3),    # beta*J' = 0.6: k*tanh(beta*J') > 1
        (3, Fraction(1, 2), 1),
        (3, Fraction(3, 2), 4),
        (3, Fraction(3), 4),
    ],
)
def test_pinned_fixed_point_counts(q, J, expected):
    result = ti_fixed_points(potts_model(q, J, 1, 2))
    assert len(result.solutions) == expected
    assert result.non_converged == 0
    assert all(result.converged) and max(result.residuals) <= 1e-12
    assert max(result.iterations) < 10_000 and result.iterations[0] == 0  # zero start


def test_fixed_point_diagnostics_on_non_convergence():
    # beta*J' = 0.55 sits just above the critical atanh(1/2): no random start
    # converges within 5 updates
    m = potts_model(2, Fraction(11, 10), 1, 2)
    result = ti_fixed_points(m, starts=5, max_iter=5)
    assert len(result.converged) == len(result.iterations) == len(result.residuals) == 6
    assert result.converged[0] and result.iterations[0] == 0 and result.residuals[0] == 0.0
    assert not any(result.converged[1:])
    assert result.iterations[1:] == (5,) * 5 and min(result.residuals[1:]) > 1e-12
    assert result.non_converged == 5
    assert result.solutions == ((0.0,),)


def assert_same_solutions(result, oracle):
    assert len(result.solutions) == len(oracle.solutions)
    assert_finds_oracle_solutions(result, oracle)


def assert_finds_oracle_solutions(result, oracle):
    for s in oracle.solutions:
        assert min(max(abs(a - b) for a, b in zip(s, t)) for t in result.solutions) <= 1e-8


def test_map_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5):
        m = random_rational_model(rng, q, 2)
        h = rng.uniform(-4, 4, size=(6, q - 1))
        eps = 1e-6
        steps = eps * np.eye(q - 1)
        numeric = np.stack([(recursion_map(m, h + e) - recursion_map(m, h - e)) / (2 * eps)
                            for e in steps], axis=-1)
        assert np.max(np.abs(_map_jacobian(m, h) - numeric)) <= 1e-8


@given(
    q=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([1, 2, 3]),
    entries=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
)
# No start converges on this table, so both searches return no solution.
@example(q=3, k=3, entries=[0.0, 2.0, -3.0, -2.0, 1.0, 0.0, 2.0, 0.0, 0.0] + [0.0] * 7)
@settings(max_examples=100, deadline=None)
def test_newton_search_matches_damped_oracle(q, k, entries):
    # Where the oracle converges from every start the solution sets agree;
    # elsewhere every oracle solution is found, and any extra one solves h = k*F(h).
    lam = [entries[q * i:q * i + q] for i in range(q)]
    m = generic_model(lam, k, 1.0)
    oracle = damped_fixed_points(m, starts=16, max_iter=2000)
    result = ti_fixed_points(m, starts=16, max_iter=2000)
    if oracle.non_converged:
        assert_finds_oracle_solutions(result, oracle)
    else:
        assert_same_solutions(result, oracle)
    if result.solutions:
        sols = np.array(result.solutions)
        assert np.max(np.abs(sols - m.k * recursion_map(m, sols))) <= 1e-12


@pytest.mark.xfail(strict=True, reason="known defect: no start converges, though fsolve does")
def test_fixed_point_search_finds_the_solution_of_a_skewed_table():
    # |F_i| <= max_j log(a_ij / a_{q-1,j}) bounds k*F, so by Brouwer h = k*F(h)
    # has a solution; scipy's fsolve reaches it with residual 1e-15.
    m = generic_model([[0, 2, -3], [-2, 1, 0], [2, 0, 0]], 3, 1)
    result = ti_fixed_points(m)
    want = np.array([1.4946747, 2.67428575])
    assert any(np.max(np.abs(np.array(s) - want)) <= 1e-8 for s in result.solutions)


# The seven solve-fields models of the fields-sweep benchmark (beta = 1).
SWEEP_MODELS = [(2, 2 * Fraction(b)) for b in ("3/10", "1/2", "3/5", "9/10")]
SWEEP_MODELS += [(3, Fraction(j)) for j in ("1/2", "3/2", "3")]


@pytest.mark.parametrize("q,J", SWEEP_MODELS)
def test_newton_search_matches_damped_oracle_on_sweep_models(q, J):
    m = potts_model(q, J, 1, 2)
    result, oracle = ti_fixed_points(m), damped_fixed_points(m)
    assert all(oracle.converged) and all(result.converged)
    assert_same_solutions(result, oracle)
    sols = np.array(result.solutions)
    assert np.max(np.abs(sols - m.k * recursion_map(m, sols))) <= 1e-12
    assert 3 * sum(result.iterations) < sum(oracle.iterations)


def test_sweep_models_map_calls():
    # One recursion_map call per iteration: the damped oracle needs 1,582 on these models.
    calls = sum(max(ti_fixed_points(potts_model(q, J, 1, 2)).iterations) + 1 for q, J in SWEEP_MODELS)
    assert calls <= 250


def test_solution_order_ignores_sub_tolerance_noise():
    # The damped-only solver sorted (-5e-17, 2.03) before (0, 0) on this model.
    m = potts_model(3, Fraction(3, 2), 1, 2)
    g = 2.027560
    for seed in (42, 1, 7):
        sols = ti_fixed_points(m, seed=seed).solutions
        assert [tuple(round(c, 6) for c in s) for s in sols] == [(-g, -g), (0, 0), (0, g), (g, 0)]


def count_jacobian_rows(monkeypatch):
    rows = []

    def counted(model, h):
        rows.append(len(h))
        return _map_jacobian(model, h)

    monkeypatch.setattr(treegibbs.fields, "_map_jacobian", counted)
    return rows


def test_non_converging_starts_pay_no_newton_cost(monkeypatch):
    # Antiferromagnetic Potts: every random start settles on a cycle of the
    # damped map at residual about 42, above the first Newton bar 2/d = 4.
    # Only starts that begin below the bar try Newton, once, and the search
    # forms no Jacobian on the cycles.
    m = potts_model(2, -8, 1, 4)
    rows = count_jacobian_rows(monkeypatch)
    result = ti_fixed_points(m, max_iter=2000)
    assert not any(result.converged[1:])
    assert result.solutions == ((0.0,),)
    assert sum(rows) < len(result.converged)
    # Loose wall-clock sanity bound: median over alternating back-to-back pairs.
    ratios = []
    for i in range(5):
        seconds = {}
        for solve in (ti_fixed_points, damped_fixed_points)[::1 if i % 2 else -1]:
            start = time.perf_counter()
            solve(m, max_iter=2000)
            seconds[solve] = time.perf_counter() - start
        ratios.append(seconds[ti_fixed_points] / seconds[damped_fixed_points])
    assert statistics.median(ratios) <= 2.0


def test_jacobians_per_start_are_bounded(monkeypatch):
    # Each Newton try halves the start's bar, which starts at 2/d and stays
    # above tol, so a start forms at most log2(4/(d*tol)) = 42 Jacobians here.
    rows = count_jacobian_rows(monkeypatch)
    rng = np.random.default_rng(0)
    non_converged = 0
    for q, k in [(2, 3), (3, 2), (4, 4), (5, 3)] * 3:
        m = generic_model(rng.uniform(-3, 3, (q, q)).tolist(), k, 1.0)
        rows.clear()
        result = ti_fixed_points(m, starts=16, max_iter=2000)
        non_converged += result.non_converged
        assert sum(rows) <= 42 * 17
    assert non_converged > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
        {"tol": -math.inf}, {"max_iter": -1}, {"starts": -1},
        {"max_iter": 0}, {"starts": 0},
    ],
)
def test_fixed_points_reject_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        ti_fixed_points(potts_model(2, 1, 1, 2), **kwargs)


@st.composite
def weight_tables(draw):
    """Positive q x q weight tables e^{-beta*lam}, with equal row sums or not."""
    q = draw(st.integers(2, 5))
    row = draw(st.lists(st.floats(0.05, 20.0), min_size=q, max_size=q))
    equal = draw(st.booleans())
    if equal:
        # every row a permutation of one row: equal sums
        perms = draw(st.lists(st.permutations(range(q)), min_size=q, max_size=q))
        w = np.array([[row[j] for j in p] for p in perms])
    else:
        w = np.array([row] * q)
        i = draw(st.integers(0, q - 1))
        w[i] *= draw(st.floats(1.01, 3.0))
    return w, equal


@settings(max_examples=60, deadline=None)
@given(weight_tables(), st.sampled_from([0.5, 1.0, 2.0]))
def test_unordered_iff_equal_row_sums(table, beta):
    w, equal = table
    m = generic_model((-np.log(w) / beta).tolist(), 2, beta)
    ok, residual = check_unordered(m)
    assert ok == equal
    sums = np.exp(-beta * m.lam_float).sum(axis=1)
    assert residual == pytest.approx(np.max(np.abs(np.log(sums[:-1] / sums[-1]))), abs=1e-12)
