import math
import statistics
import time
from fractions import Fraction

import mpmath
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
from treegibbs.fields import _extend, _log_transfer, _map_jacobian, _softmax_rows
from treegibbs.topology import _family, sweep_up

from conftest import (
    as_mpf, axis_reduce_fixed_points, axis_reduce_log_transfer, axis_reduce_recursion_map,
    axis_reduce_sweep_up, damped_fixed_points, random_rational_model, random_rational_table,
    relabeled, shifted,
)


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


def test_check_unordered_decides_exact_tables_exactly():
    # exact row sums of e^{-lam} that differ by 2.24e-14, below the default tol: the float
    # residual alone would pass this table
    m = generic_model([[0, 1], [Fraction(1, 2), Fraction(2577553, 9453231)]], 2, 1)
    assert check_unordered(m) == (False, 1.6431300764452317e-14)
    assert check_unordered(m, tol=1.0)[0] is False
    # a rational stochastic matrix passes at any tol
    P = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(2, 5), Fraction(3, 5)]]
    assert check_unordered(markov_model(P, 3), tol=5e-324)[0] is True


def test_permuted_row_exact_tables_pass_at_the_least_tol():
    # rows that permute one rational row have equal sums of e^{-beta*lam} exactly, whatever
    # rounding leaves in the float residual
    rng = np.random.default_rng(17)
    rounded = 0
    for _ in range(300):
        q = int(rng.integers(3, 7))
        row = [Fraction(int(rng.integers(-16, 17)), int(rng.integers(1, 9))) for _ in range(q)]
        lam = [[row[j] for j in rng.permutation(q)] for _ in range(q)]
        ok, residual = check_unordered(generic_model(lam, 2, Fraction(int(rng.integers(1, 5)), 2)), tol=5e-324)
        assert ok is True, lam
        rounded += residual > 5e-324
    assert rounded > 0          # the float verdict would have failed some of them


@st.composite
def exact_tables(draw):
    """An exact q x q table and beta; half the time every row permutes row 0."""
    q = draw(st.integers(2, 4))
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
    row = draw(st.lists(entry, min_size=q, max_size=q))
    if draw(st.booleans()):
        lam = [draw(st.permutations(row)) for _ in range(q)]
    else:
        lam = [row] + draw(st.lists(st.lists(entry, min_size=q, max_size=q), min_size=q - 1, max_size=q - 1))
    return generic_model(lam, 2, draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))))


@settings(max_examples=80, deadline=None)
@given(exact_tables(), st.data())
def test_exact_unordered_verdict_is_the_exact_row_sum_test(m, data):
    # the verdict says whether the row sums of e^{-beta*lam} agree at 60 digits, and it does
    # not change under relabelling the spins or shifting every coupling
    ok = check_unordered(m, tol=5e-324)[0]
    with mpmath.workdps(60):
        sums = [mpmath.fsum(mpmath.exp(-as_mpf(m.beta * v)) for v in row) for row in m.lam]
        spread = max(sums) - min(sums)
        assert ok == (spread <= mpmath.mpf(10) ** -55)
        if not ok:
            assert spread > mpmath.mpf(10) ** -50
    perm = data.draw(st.permutations(range(m.q)))
    shift = data.draw(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))
    assert check_unordered(relabeled(m, perm), tol=5e-324)[0] == ok
    assert check_unordered(shifted(m, shift), tol=5e-324)[0] == ok


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
    for x in [*b.shells[1], *b.shells[0]]:
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
    assert set(vars(b)) <= {"k", "n", "_offsets"}


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
        _, terms, sums = _softmax_rows(m, _extend(h))
        assert np.max(np.abs(_map_jacobian(terms, sums) - numeric)) <= 1e-8


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
    # One softmax pass per update, for k*F and F' alike: the damped oracle needs 1,582 on these models.
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

    def counted(terms, sums):
        rows.append(len(terms))
        return _map_jacobian(terms, sums)

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
    assert 0 < sum(rows) < len(result.converged)
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
    non_converged = formed = 0
    for q, k in [(2, 3), (3, 2), (4, 4), (5, 3)] * 3:
        m = generic_model(rng.uniform(-3, 3, (q, q)).tolist(), k, 1.0)
        rows.clear()
        result = ti_fixed_points(m, starts=16, max_iter=2000)
        non_converged += result.non_converged
        formed += sum(rows)
        assert sum(rows) <= 42 * 17
    assert non_converged > 0 and formed > 0     # the spy sees the Jacobians that are formed


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


def test_two_spin_search_calls_no_eigvals(monkeypatch):
    # At q = 2 the linearised damped map is 1x1, so its inf-norm is its spectral
    # radius and eigenvalues could never open the Newton gate: the search skips
    # them, where the axis-reduce search reached them, with the same result.
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
    for m in (potts_model(2, -8, 1, 4), potts_model(2, 3, 1, 2)):
        calls.clear()
        oracle = axis_reduce_fixed_points(m, max_iter=2000)
        assert calls
        calls.clear()
        assert_same_bits(ti_fixed_points(m, max_iter=2000), oracle)
        assert not calls


def assert_same_bits(result, oracle):
    for name in ("solutions", "iterations", "residuals", "converged"):
        assert repr(getattr(result, name)) == repr(getattr(oracle, name)), name


@st.composite
def kernel_models(draw, qs):
    """A float, exact, Potts or rational-Markov model with q drawn from qs, k <= 4 and |beta*lam| <= 9."""
    q, k = draw(st.sampled_from(qs)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "exact", "potts", "markov"]))
    if kind == "float":
        entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=q * q, max_size=q * q))
        return generic_model([entries[q * i:q * i + q] for i in range(q)], k, draw(st.floats(0.25, 3.0)))
    rational = st.fractions(-3, 3, max_denominator=8)
    beta = draw(st.fractions(Fraction(1, 4), 3, max_denominator=4))
    if kind == "exact":
        return generic_model(draw(st.lists(st.lists(rational, min_size=q, max_size=q),
                                           min_size=q, max_size=q)), k, beta)
    if kind == "potts":
        return potts_model(q, draw(rational), beta, k)
    rows = draw(st.lists(st.lists(st.integers(1, 12), min_size=q, max_size=q), min_size=q, max_size=q))
    return markov_model([[Fraction(v, sum(row)) for v in row] for row in rows], k)


def clamped_values(rng, ball, q):
    """Two batches of per-vertex log-weights, one in three vertices clamped to one spin by -inf
    entries, as the full-ball two-point sweep clamps them."""
    values = rng.uniform(-3.0, 3.0, size=(2, ball.num_vertices, q))
    clamped = rng.random((2, ball.num_vertices)) < 1 / 3
    spin = rng.integers(0, q, size=(2, ball.num_vertices))
    values[clamped] = np.where(np.arange(q) == spin[clamped][:, None], 0.0, -np.inf)
    return values


@given(model=kernel_models(range(2, 8)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_field_kernel_matches_axis_reduce_oracle_bit_for_bit(model, seed):
    # Below 8 columns numpy adds a row left to right, as the column loop does.
    rng = np.random.default_rng(seed)
    q, k = model.q, model.k
    search = dict(starts=8, max_iter=300, seed=seed)
    assert_same_bits(ti_fixed_points(model, **search), axis_reduce_fixed_points(model, **search))
    h = rng.uniform(-50.0, 50.0, size=(2, 3, q - 1))
    assert recursion_map(model, h).tobytes() == axis_reduce_recursion_map(model, h).tobytes()
    ball = build_ball(k, 3)
    boundary = rng.uniform(-5.0, 5.0, size=(len(ball.shells[3]), q - 1))
    start = np.zeros((ball.num_vertices, q - 1))
    start[ball.shell_slice(3)] = boundary
    want = axis_reduce_sweep_up(ball, start, lambda x: axis_reduce_recursion_map(model, x))
    assert propagate_fields(model, ball, boundary).hprime.tobytes() == want.tobytes()
    values = clamped_values(rng, ball, q)
    got = sweep_up(ball, values, lambda x: _log_transfer(model, x))
    want = axis_reduce_sweep_up(ball, values, lambda x: axis_reduce_log_transfer(model, x))
    assert got.tobytes() == want.tobytes()


@given(model=kernel_models((8, 9, 12)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_field_kernel_is_within_the_stated_bound_from_eight_spins(model, seed):
    # numpy sums 8 or more columns pairwise, so rows move in their last digits: at
    # |h| <= 50 and |beta*lam| <= 9 a row log (below 64) by at most 7.1e-15 and F by
    # at most 1.42e-14 (2^-46) over 3,000 random tables; 2e-14 is the bound asserted.
    rng = np.random.default_rng(seed)
    h = rng.uniform(-50.0, 50.0, size=(2, 3, model.q - 1))
    assert np.max(np.abs(recursion_map(model, h) - axis_reduce_recursion_map(model, h))) <= 2e-14
    x = _extend(h)
    assert np.max(np.abs(_log_transfer(model, x) - axis_reduce_log_transfer(model, x))) <= 1e-14
