"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from treegibbs import (
    build_ball,
    check_unordered,
    classify,
    difference_set,
    generic_model,
    markov_model,
    markov_property_residual,
    marginalize,
    potts_model,
    propagate_fields,
    spectrum_lattice_check,
    ti_fixed_points,
    two_point_correlation,
    zero_fields,
    consistency_residual,
    finite_volume_measure,
    finite_volume_spectrum,
    potential_norm,
)
from treegibbs.fields import ReducedFieldAssignment

from conftest import random_rational_model, relabeled, shifted

GOLDEN = (math.sqrt(5) - 1) / 2


@pytest.fixture(scope="module")
def consistency_sweep():
    """100 random rational models (q in {2,3}, k=2, beta=1) with random boundaries."""
    rng = np.random.default_rng(2024)
    ball = build_ball(2, 2)
    start = time.monotonic()
    rows = []
    for trial in range(100):
        q = 2 if trial % 2 == 0 else 3
        model = random_rational_model(rng, q, 2)
        boundary = rng.uniform(-2.0, 2.0, size=(len(ball.shells[2]), q - 1))
        flds = propagate_fields(model, ball, boundary)
        resid = consistency_residual(model, flds)
        perturbed = flds.hprime.copy()
        perturbed[ball.shells[1][0], 0] += 0.1
        resid_pert = consistency_residual(model, ReducedFieldAssignment(ball, perturbed))
        rows.append((resid, resid_pert))
    elapsed = time.monotonic() - start
    return rows, elapsed


def test_criterion_1_consistency_forward(consistency_sweep):
    rows, elapsed = consistency_sweep
    worst = max(r for r, _ in rows)
    assert worst < 1e-10
    assert elapsed < 60.0
    print(f"PASS criterion 1: forward consistency, 100/100 residuals < 1e-10 "
          f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_consistency_converse(consistency_sweep):
    rows, _ = consistency_sweep
    misses = [(i, rp) for i, (_, rp) in enumerate(rows) if rp <= 1e-6]
    for i, rp in misses:
        print(f"  criterion 2: near-degenerate perturbation in trial {i}: residual {rp:.2e}")
    assert len(misses) <= 1
    print(f"PASS criterion 2: perturbed residual > 1e-6 in {100 - len(misses)}/100 cases")


def test_criterion_3_potts_classification():
    c = classify(potts_model(3, 1, 1, 2))
    assert c.verdict == "III_family"
    assert c.generator == Fraction(1)                      # exact, zero tolerance
    assert abs(c.gamma - math.exp(-1)) <= 1e-15
    ratios = {d / c.generator for d in difference_set(potts_model(3, 1, 1, 2))}
    assert ratios == {Fraction(-1), Fraction(0), Fraction(1)}
    print("PASS criterion 3: Potts q=3 -> III family, exact generator 1, gamma = e^-1")


def test_criterion_4_markov_classifications():
    uniform = classify(markov_model([[Fraction(1, 2)] * 2] * 2, 2))
    assert uniform.verdict == "II1"
    golden = classify(markov_model([[GOLDEN, GOLDEN**2], [GOLDEN**2, GOLDEN]], 2))
    assert golden.verdict == "III_family"
    assert abs(golden.generator - (-math.log(GOLDEN))) <= 1e-9
    incomm = classify(markov_model([[Fraction(1, 2), Fraction(1, 2)],
                                    [Fraction(1, 3), Fraction(2, 3)]], 2))
    assert incomm.verdict == "incommensurable"
    assert incomm.evidence["route"] == "prime-exponent-rank"
    print("PASS criterion 4: uniform -> II1, golden-mean -> III family, "
          "P=[[1/2,1/2],[1/3,2/3]] -> incommensurable")


def test_criterion_5_spectrum_lattice():
    start = time.monotonic()
    m = potts_model(2, 1, 1, 2)
    ok, g, dev = spectrum_lattice_check(m, finite_volume_spectrum(m, build_ball(2, 2))[0], tol=1e-9)
    elapsed = time.monotonic() - start
    assert ok and dev <= 1e-9
    assert elapsed < 5.0
    print(f"PASS criterion 5: 1024-config spectrum differences all multiples of g={g} "
          f"(max deviation {dev:.2e}, {elapsed:.2f}s)")


def test_criterion_6_unordered_phase():
    worst = 0.0
    for q in range(2, 6):
        for j_num in range(-3, 4):
            if j_num == 0:
                continue
            for beta in (Fraction(1, 2), Fraction(1), Fraction(2)):
                _, resid = check_unordered(potts_model(q, Fraction(j_num), beta, 2))
                worst = max(worst, resid)
                assert resid < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = int(rng.integers(2, 5))
        raw = rng.uniform(0.05, 1.0, size=(q, q))
        P = raw / raw.sum(axis=1, keepdims=True)
        _, resid = check_unordered(markov_model(P.tolist(), 2))
        worst = max(worst, resid)
        assert resid < 1e-12
    print(f"PASS criterion 6: zero field fixed for all Potts grid points and "
          f"20 stochastic matrices (worst residual {worst:.2e})")


def test_criterion_7_phase_transition_probe():
    low = ti_fixed_points(potts_model(2, Fraction(3, 5), 1, 2))    # beta*J' = 0.3
    high = ti_fixed_points(potts_model(2, Fraction(2), 1, 2))      # beta*J' = 1.0
    assert len(low.solutions) == 1
    assert len(high.solutions) == 3

    def scan(beta_jp):
        h = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
        s = 2 * np.log((np.exp(beta_jp + h) + np.exp(-beta_jp))
                       / (np.exp(-beta_jp + h) + np.exp(beta_jp))) - h
        return int(np.sum(np.sign(s[:-1]) != np.sign(s[1:])))

    assert scan(0.3) == 1 and scan(1.0) == 3
    print("PASS criterion 7: 1 fixed point at beta*J'=0.3, 3 at beta*J'=1.0, "
          "matching the grid-scan oracle")


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(31)
    m = random_rational_model(rng, 3, 2)
    ball = build_ball(2, 1)
    flds = ReducedFieldAssignment(ball, rng.uniform(-1, 1, size=(ball.num_vertices, 2)))
    p = finite_volume_measure(m, flds).probabilities()

    # coupling shift
    ms = shifted(m, Fraction(5, 8))
    assert classify(ms).generator == classify(m).generator
    assert np.max(np.abs(finite_volume_measure(ms, flds).probabilities() - p)) < 1e-10

    # beta absorption
    beta = Fraction(3, 4)
    mb = generic_model(m.lam, 2, beta)
    scaled = generic_model([[beta * v for v in row] for row in m.lam], 2, Fraction(1))
    assert classify(mb).generator == classify(scaled).generator
    pb = finite_volume_measure(mb, flds).probabilities()
    ps = finite_volume_measure(scaled, flds).probabilities()
    assert np.max(np.abs(pb - ps)) < 1e-10

    # spin relabeling
    perm = [1, 2, 0]
    assert classify(relabeled(m, perm)).generator == classify(m).generator

    # normalization and conditional independence
    mu = finite_volume_measure(m, zero_fields(build_ball(2, 2), 3))
    assert abs(marginalize(mu, 1).probabilities().sum() - 1.0) < 1e-12
    mk = markov_property_residual(potts_model(2, 1, 1, 2), 1)
    assert mk < 1e-12
    print(f"PASS criterion 8: shift/beta/relabel invariance, normalization, "
          f"Markov residual {mk:.2e}")


def test_criterion_9_correlation_decay():
    m = potts_model(3, Fraction(3, 20), 1, 2)   # beta*J' = 0.1
    ball = build_ball(2, 3)
    defects = [float(np.max(two_point_correlation(m, 0, ball.shells[d][0], 3)))
               for d in (1, 2, 3)]
    assert defects[0] > defects[1] > defects[2]
    print(f"PASS criterion 9: correlation defect decays "
          f"{defects[0]:.2e} > {defects[1]:.2e} > {defects[2]:.2e}")


def test_criterion_10_potential_norm():
    m = markov_model([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]], 2)
    expected = 2 * math.e**2 * math.log(4)
    got = potential_norm(m, 1.0)
    assert abs(got - expected) <= 1e-12
    print(f"PASS criterion 10: potential norm {got!r} matches 2 e^2 log 4")
