import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treegibbs import (
    build_ball,
    classify,
    generic_model,
    markov_model,
    model_from_dict,
    model_to_dict,
    potential_norm,
    potts_model,
)
from treegibbs.model import LambdaModel, ModelError

from conftest import (
    OVERFLOWING_MODELS, UNREAD_KEY_MODELS, ball_edges, boundary_energy, energy, fraction_gcd_lattice,
    fraction_row_errors, relabeled, shifted, two_pass_generic_model, two_pass_markov_model,
    two_pass_model_from_dict, two_pass_potts_model,
)


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
    assert energy(ms, b, sigma) == energy(m, b, sigma) + Fraction(5, 8) * len(ball_edges(b))


def test_potts_energy_counts_equal_spin_edges():
    # lam reduces to -J*delta + J/q per edge
    q, J = 3, Fraction(5, 4)
    m = potts_model(q, J, 1, 2)
    b = build_ball(2, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        sigma = list(rng.integers(0, q, size=b.num_vertices))
        equal = sum(sigma[u] == sigma[v] for u, v in ball_edges(b))
        assert energy(m, b, sigma) == -J * equal + Fraction(J, q) * len(ball_edges(b))


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
    d = m.log_weights
    assert np.allclose(d, [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(potts_model(2, 0, 1, 2).log_weights, 0.0)


def test_log_weights_cached_read_only():
    m = potts_model(3, Fraction(3, 2), Fraction(1, 2), 2)
    a = m.log_weights
    assert a is m.log_weights
    assert np.array_equal(a, -m.beta_float * m.lam_float)
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_lam_float_cached_read_only():
    for m in (potts_model(3, Fraction(3, 2), Fraction(1, 2), 2), generic_model([[0.5, 1], [2, 0.25]], 2, 1)):
        a = m.lam_float
        assert a is m.lam_float
        assert a.tolist() == [[float(v) for v in row] for row in m.lam]
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_number_errors_keep_their_text():
    huge = Fraction(10**400)
    for bad, text in ((huge, "numeric values must be finite, got a rational past the float range"),
                      (math.nan, "numeric values must be finite, got nan"),
                      ("1/2", "unsupported numeric value '1/2'")):
        with pytest.raises(ModelError) as exc:
            generic_model([[0, bad], [0, 0]], 2, 1)
        assert str(exc.value) == text
        with pytest.raises(ModelError) as exc:
            generic_model([[0, 1], [1, 0]], 2, bad)
        assert str(exc.value) == text


def test_equal_models_are_equal_values_and_classify_builds_no_spin_set():
    a, b = potts_model(3, 1, 1, 2), potts_model(3, 1, 1, 2)
    classify(a)     # a's first-use caches enter neither equality nor the hash
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "float-first"])
def test_exact_lattice_is_cached_per_model_not_per_value(exact_first):
    exact = generic_model([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], 2, 1)
    floating = generic_model([[0, 0.5], [0.5, 0]], 2, 1)
    assert exact == floating and hash(exact) == hash(floating)
    first, second = (exact, floating) if exact_first else (floating, exact)
    results = {id(m): classify(m) for m in (first, second)}
    e, f = results[id(exact)], results[id(floating)]
    assert (e.confidence, type(e.generator), e.generator) == ("exact", Fraction, Fraction(1, 2))
    assert (f.confidence, type(f.generator), f.generator) == ("float", float, 0.5)
    # a model made from a classified one builds its own lattice from its own table
    for derived in (replace(exact, beta=Fraction(3)), relabeled(exact, [1, 0]), shifted(exact, Fraction(1, 3))):
        assert "_lattice" not in vars(derived)
        g, m = fraction_gcd_lattice(derived)
        assert classify(derived).generator == g and vars(derived)["_lattice"] == (g, None, m)


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


@pytest.mark.parametrize("name", sorted(OVERFLOWING_MODELS))
def test_overflowing_couplings_rejected(name):
    with pytest.raises(ModelError, match="finite"):
        model_from_dict(OVERFLOWING_MODELS[name])


def test_overflow_bound_is_on_floats_of_beta_lambda():
    huge = Fraction(10**400)
    for lam, beta in (([[huge, 0], [0, 0]], 1), ([[0.5, 0.0], [0.0, 0.5]], huge),
                      ([[Fraction(10**300), 0], [0, 0]], Fraction(10**10))):
        with pytest.raises(ModelError, match="finite"):
            generic_model(lam, 2, beta)
    with pytest.raises(ModelError, match="finite"):
        potts_model(2, huge, 1, 2)
    # a positive rational whose float underflows to 0.0 has no finite -log p
    with pytest.raises(ModelError, match="strictly positive"):
        markov_model([[1 / huge, 1 - 1 / huge], [Fraction(1, 2), Fraction(1, 2)]], 2)
    # at the edge of the range: finite log-weights and a finite spread are accepted
    m = generic_model([[8e307, -8e307], [0.0, 0.0]], 2, 1.0)
    assert np.all(np.isfinite(m.log_weights))
    tiny = generic_model([[Fraction(1, 10**400), 0], [0, 0]], 2, 1)
    assert tiny.is_exact and not np.any(tiny.lam_float)


def test_edge_potential_markov_is_log_p():
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    m = markov_model(P, 2)
    d = m.log_weights
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


def test_potential_norm_is_finite_or_raises():
    # e^{2d} passes the float range just above d = 354.89; the weight must be finite
    m = potts_model(3, 1, 1, 2)
    assert potential_norm(m, 354.0) == pytest.approx(2 * math.exp(708.0) * (2 / 3), rel=1e-12)
    for model, d in [(m, 354.9), (m, 400.0), (m, math.inf), (m, math.nan), (m, -1.0),
                     (potts_model(3, 0, 1, 2), math.inf), (potts_model(3, 0, 1, 2), 400.0)]:
        with pytest.raises(ValueError):
            potential_norm(model, d)
    # the norm itself past the float range, with e^{2d} finite
    with pytest.raises(ValueError):
        potential_norm(generic_model([[0.0, 1e300], [0.0, 0.0]], 2, 1.0), 300.0)


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


def test_markov_beta_one_is_accepted_in_any_spelling():
    P = [["1/4", "3/4"], ["3/4", "1/4"]]
    want = model_from_dict({"kind": "markov", "q": 2, "k": 2, "P": P})
    for beta in (1, 1.0, "1/1", "2/2"):
        m = model_from_dict({"kind": "markov", "q": 2, "k": 2, "beta": beta, "P": P})
        assert m == want and model_to_dict(m)["beta"] == "1/1"


@pytest.mark.parametrize("data,message", [
    ([["1/2", "1/2"]], "model file must contain a JSON object"),
    ({"kind": ["potts"], "q": 2, "k": 2, "beta": 1, "J": 1}, "kind must be one of generic/potts/markov"),
    ({"kind": "generic", "q": 2, "k": 2, "beta": 1}, "missing 'lambda' for kind 'generic'"),
    ({"kind": "generic", "q": 3, "k": 2, "beta": 1, "lambda": [[0, 1], [1, 0], [0, 0]]},
     "'lambda' must be a 3x3 matrix"),
    ({"kind": "potts", "q": 2, "k": 2, "beta": "1/x", "J": 1}, "bad rational string '1/x'"),
    # int() reads these, but a rational string is signs and ASCII digits only
    ({"kind": "generic", "q": 2, "k": 2, "beta": 1, "lambda": [[0, "1_0/3"], [0, 0]]},
     "bad rational string '1_0/3'"),
    ({"kind": "potts", "q": 2, "k": 2, "beta": "\u0661/\u0662", "J": 1}, "bad rational string '\u0661/\u0662'"),
    ({"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": " 1/2"}, "bad rational string ' 1/2'"),
    ({"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": "1/2\n"}, "bad rational string '1/2\\n'"),
    ({"kind": "markov", "q": 2, "k": 2, "P": [["1/2", "1/ 2"], ["1/2", "1/2"]]}, "bad rational string '1/ 2'"),
    ({"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": "1/"}, "bad rational string '1/'"),
    *UNREAD_KEY_MODELS.values(),
], ids=["not-an-object", "unhashable-kind", "missing-payload", "3x2-matrix", "bad-rational",
        "underscore-digits", "arabic-indic-digits", "leading-space", "trailing-newline", "inner-space",
        "empty-denominator", *UNREAD_KEY_MODELS])
def test_model_from_dict_rejects_with_message(data, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        model_from_dict(data)


def test_rational_strings_are_signed_ascii_digits():
    for text, value in (("3", 3), ("-3/4", Fraction(-3, 4)), ("+3/-4", Fraction(-3, 4)),
                        ("007/014", Fraction(1, 2)), ("-0/5", 0)):
        m = model_from_dict({"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": text})
        assert m.J == value and type(m.J) is Fraction
    with pytest.raises(ModelError, match=re.escape("bad rational string '1/0': Fraction(1, 0)")):
        model_from_dict({"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": "1/0"})


def test_model_from_dict_reports_all_errors():
    with pytest.raises(ModelError) as exc:
        model_from_dict({"kind": "nope", "q": 1, "k": 0})
    msg = str(exc.value)
    assert "kind" in msg and "q" in msg and "k" in msg


numbers = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.floats(-4.0, 4.0),
    st.sampled_from([math.nan, math.inf]),
)


def assert_same_model(m, g):
    """m is g apart from provenance, J and P: same lam and beta (values and types), same bytes."""
    assert (m.q, m.k, repr(m.lam), repr(m.beta)) == (g.q, g.k, repr(g.lam), repr(g.beta))
    assert m.log_weights.tobytes() == g.log_weights.tobytes()


@given(q=st.integers(0, 5), J=numbers, beta=numbers, k=st.integers(-1, 3))
@settings(max_examples=300, deadline=None)
def test_potts_model_is_generic_model_on_its_table(q, J, beta, k):
    valid = q >= 2 and k >= 1 and math.isfinite(J) and math.isfinite(beta) and beta > 0
    if not valid:
        with pytest.raises(ModelError):
            potts_model(q, J, beta, k)
        return
    m = potts_model(q, J, beta, k)
    J = Fraction(J) if isinstance(J, int) else J
    jp = (q - 1) * J / q    # lam = -J' * (eta_i, eta_j), with (eta_i, eta_j) = -1/(q-1) off the diagonal
    assert_same_model(m, generic_model([[-jp if i == j else jp / (q - 1) for j in range(q)]
                                        for i in range(q)], k, beta))
    assert (m.provenance, repr(m.J), m.P) == ("potts", repr(J), None)


@st.composite
def stochastic_matrices(draw):
    """A positive stochastic matrix (rational or float rows), and a way to spoil it or not."""
    q = draw(st.integers(2, 4))
    exact = draw(st.booleans())
    P = []
    for _ in range(q):
        w = draw(st.lists(st.integers(1, 50), min_size=q, max_size=q))
        P.append([Fraction(v, sum(w)) if exact else v / sum(w) for v in w])
    spoil = draw(st.sampled_from(["none", "zero", "doubled", "ragged", "k"]))
    i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    if spoil == "zero":
        P[i][j] = 0 * P[i][j]
    elif spoil == "doubled":
        P[i][j] = 2 * P[i][j]
    elif spoil == "ragged":
        P[i] = P[i][:-1]
    return P, spoil


@given(stochastic_matrices(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_markov_model_is_generic_model_on_its_table(spoiled, k):
    P, spoil = spoiled
    if spoil == "k":
        k = 0
    if spoil != "none":
        with pytest.raises(ModelError):
            markov_model(P, k)
        return
    m = markov_model(P, k)
    assert_same_model(m, generic_model([[-math.log(p) for p in row] for row in P], k, 1))
    assert (m.provenance, m.J, repr(m.P)) == ("markov", None, repr(tuple(map(tuple, P))))


@st.composite
def spoiled_rows(draw):
    """q = 2..8 stochastic matrices, all Fraction or all float, with some rows spoiled:
    an entry doubled, zero, negative or (in Fractions) positive with a float of 0.0."""
    q = draw(st.integers(2, 8))
    P = [[Fraction(v) for v in draw(st.lists(st.integers(1, 30), min_size=q, max_size=q))]
         for _ in range(q)]
    P = [[v / sum(row) for v in row] for row in P]
    exact = draw(st.booleans())
    spoils = ["doubled", "zero", "negative"] + (["underflow"] if exact else [])
    for i, j, spoil in draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1),
                                               st.sampled_from(spoils)), max_size=3)):
        P[i][j] = {"doubled": 2 * P[i][j], "zero": 0 * P[i][j], "negative": -P[i][j],
                   "underflow": Fraction(1, 10**400)}[spoil]
    return P if exact else [[float(v) for v in row] for row in P]


@settings(max_examples=150, deadline=None)
@given(spoiled_rows())
def test_markov_row_errors_match_fraction_oracle(P):
    want = fraction_row_errors(P)
    if not want:
        assert markov_model(P, 2).P == tuple(map(tuple, P))
        return
    with pytest.raises(ModelError) as exc:
        markov_model(P, 2)
    assert str(exc.value) == "; ".join(want)


# The constructors and the model-file parse against the two-pass construction they
# replaced (``conftest.two_pass_*``): the same models, entry types and float bits, or
# the same error text.

def outcome(build):
    """The model ``build`` returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def entry_types(m):
    return (type(m.beta), type(m.J), [type(v) for row in m.lam for v in row],
            None if m.P is None else [type(v) for row in m.P for v in row])


def assert_same_construction(build, reference):
    got, want = outcome(build), outcome(reference)
    if not isinstance(want, LambdaModel):
        assert got == want
        return
    assert isinstance(got, LambdaModel) and got == want and entry_types(got) == entry_types(want)
    assert got.lam_float.tobytes() == want.lam_float.tobytes()
    assert got.log_weights.tobytes() == want.log_weights.tobytes()


@st.composite
def rational_strings(draw, p=st.integers(0, 10**6) | st.integers(0, 10**30), q=st.integers(1, 10**20)):
    """"p/q" strings of the grammar both parses read alike: signs, ASCII digits, leading zeros,
    "/q" left out; past 2^53 a Fraction's float is one rounding of p/q, not two."""
    def digits(n):
        return draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 1)) + str(draw(n))
    return digits(p) if draw(st.booleans()) else digits(p) + "/" + digits(q)


file_numbers = st.one_of(                       # finite, -0.0 and subnormals among them
    st.integers(-10**6, 10**6), st.floats(-1e6, 1e6), rational_strings(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2**1024 - 2**971]),
)
forms = st.sampled_from([file_numbers, st.integers(-10**6, 10**6) | rational_strings(), st.floats(-1e6, 1e6)])
positive = st.integers(1, 9) | st.floats(1e-3, 1e3) | rational_strings(p=st.integers(1, 10**6))
spoilt = st.one_of(                             # non-finite, past the float range, not numbers
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1024 - 2**970, "1/0",
                     "1" + "0" * 400, True, None, [1]]),
    rational_strings(p=st.just(10**400)), rational_strings(q=st.just(0)),
)


@st.composite
def model_files(draw):
    """Model files of every kind, their entries in every form a file holds; each part is spoilt
    now and then, so some files are valid and some report one or several errors."""
    def rarely(good, bad, odds=20):
        return draw(bad if draw(st.integers(0, odds - 1)) == 0 else good)
    kind = rarely(st.sampled_from(["generic", "potts", "markov"]), st.just("nope"))
    q = rarely(st.integers(2, 4), st.sampled_from([1, True, 2.0]))
    data = {"kind": kind, "q": q, "k": rarely(st.integers(1, 3), st.integers(-1, 0))}
    if kind != "markov" or draw(st.booleans()):
        data["beta"] = rarely(st.just(1) if kind == "markov" else positive, file_numbers | spoilt, 10)
    size = (q if draw(st.integers(0, 19)) else q + 1) if type(q) is int else 2   # now and then not q x q
    if kind == "markov" and draw(st.booleans()):         # stochastic rows, as "p/q" strings or floats
        rows = [draw(st.lists(st.integers(1, 20), min_size=size, max_size=size)) for _ in range(size)]
        exact = draw(st.booleans())
        data["P"] = [[f"{v}/{sum(w)}" if exact else v / sum(w) for v in w] for w in rows]
    elif kind == "potts":
        data["J"] = rarely(file_numbers, spoilt, 10)
    else:
        form = draw(forms)                               # exact, float or mixed
        data["P" if kind == "markov" else "lambda"] = [[rarely(form, spoilt, 40) for _ in range(size)]
                                                       for _ in range(size)]
    if draw(st.integers(0, 19)) == 0:
        data["J" if kind != "potts" else "lambda"] = 1
    return data


@settings(max_examples=500, deadline=None)
@given(model_files())
@example({"kind": "generic", "q": 2, "k": 0, "beta": math.nan, "lambda": [[math.inf, 0], [0, "1/0"]]})
@example({"kind": "markov", "q": 2, "k": 2, "beta": -math.inf, "P": [["1/2", math.nan], ["1/2", "1/2"]]})
@example({"kind": "potts", "q": 3, "k": 2, "beta": 5e-324, "J": -0.0})
@example({"kind": "generic", "q": 2, "k": 2, "beta": 1.5, "lambda": [[-0.0, 5e-324], [-5e-324, 0]]})
def test_model_files_build_as_the_two_pass_parse_did(data):
    data = json.loads(json.dumps(data))         # NaN and Infinity literals, as a file holds them
    assert_same_construction(lambda: model_from_dict(data), lambda: two_pass_model_from_dict(data))


library_numbers = st.one_of(                    # each form a caller may pass, -0.0 and subnormals among them
    st.integers(-50, 50), st.booleans(), st.floats(-1e6, 1e6), st.floats(-1e3, 1e3).map(np.float64),
    st.fractions(max_denominator=50), st.fractions(-(10**6), 10**6, max_denominator=10**20),
    st.sampled_from([Fraction(1, 10**400), -0.0, 5e-324, np.float64(-0.0)]),
)
library_forms = st.sampled_from([
    library_numbers, st.integers(-50, 50) | st.booleans() | st.fractions(max_denominator=50),
    st.floats(-1e6, 1e6), st.floats(-1e3, 1e3).map(np.float64),
])
library_positive = st.one_of(
    st.integers(1, 9), st.just(True), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3).map(np.float64),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
)
library_spoilt = st.sampled_from([Fraction(10**400), math.nan, -math.inf, np.float64(math.inf), "1/2", None])


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["generic", "potts", "markov"]), data=st.data())
def test_library_constructors_build_as_the_two_pass_ones_did(kind, data):
    def rarely(good, bad, odds=20):
        return data.draw(bad if data.draw(st.integers(0, odds - 1)) == 0 else good)
    q, k = rarely(st.integers(2, 4), st.integers(0, 1)), rarely(st.integers(1, 3), st.integers(-1, 0))
    beta = rarely(library_positive, library_numbers | library_spoilt, 10)
    if kind == "potts":
        J = rarely(library_numbers, library_spoilt, 10)
        assert_same_construction(lambda: potts_model(q, J, beta, k), lambda: two_pass_potts_model(q, J, beta, k))
        return
    if kind == "markov" and data.draw(st.booleans()):   # stochastic rows of Fractions, floats or np.float64
        form = data.draw(st.sampled_from([Fraction, float, np.float64]))
        rows = [data.draw(st.lists(st.integers(1, 20), min_size=q, max_size=q)) for _ in range(q)]
        table = [[form(Fraction(v, sum(w))) for v in w] for w in rows]
    else:
        form = data.draw(library_forms)
        table = [[rarely(form, library_spoilt, 40) for _ in range(q)] for _ in range(q)]
    if kind == "markov":
        assert_same_construction(lambda: markov_model(table, k), lambda: two_pass_markov_model(table, k))
    else:
        assert_same_construction(lambda: generic_model(table, k, beta),
                                 lambda: two_pass_generic_model(table, k, beta))
