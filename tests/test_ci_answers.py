"""The known answers of the CI's numpy-only step, run in process through ``cli.main``.

Each row gives a command line over the model and field files of that step,
the exit code, and a check on the report, read as strict JSON.  The step's
two-point answer (Potts q=3, J = 5, n = 60) calls the library, not the CLI;
its twin is ``test_measures.py::test_two_point_stays_in_the_free_state_at_low_temperature``.
"""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from treegibbs.cli import main

FILES = {
    "markov.json": {"kind": "markov", "q": 2, "k": 2, "P": [["1/4", "3/4"], ["3/4", "1/4"]]},
    "potts.json": {"kind": "potts", "q": 3, "k": 2, "beta": "1/1", "J": "1/1"},
    "potts_q4.json": {"kind": "potts", "q": 4, "k": 2, "beta": 1, "J": "5/4"},
    "potts_q2.json": {"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": 1},
    "markov_k3.json": {"kind": "markov", "q": 2, "k": 3, "P": [["1/4", "3/4"], ["2/5", "3/5"]]},
    "shell1_q2.json": {"1": [0.3]},
    "exact_q8.json": {"kind": "generic", "q": 8, "k": 2, "beta": "3/2",
                      "lambda": [[f"{(3 * i + 5 * j) % 11 - 5}/{1 + (i + j) % 4}" for j in range(8)]
                                 for i in range(8)]},
    "sqrt2_q8.json": {"kind": "generic", "q": 8, "k": 2, "beta": 1.0,
                      "lambda": [[math.sqrt(2) * ((3 * i + 5 * j) % 11 - 5) for j in range(8)]
                                 for i in range(8)]},
    # exact row sums of e^{-lam} that differ by 2.24e-14 (float residual 1.64e-14), and rows
    # that permute one row, with equal sums exactly (float residual 4.4e-16)
    "false_yes.json": {"kind": "generic", "q": 2, "k": 2, "beta": 1,
                       "lambda": [[0, 1], ["1/2", "2577553/9453231"]]},
    "permuted_rows.json": {"kind": "generic", "q": 3, "k": 2, "beta": 1,
                           "lambda": [["5/4", -2, 1], [-2, "5/4", 1], ["5/4", 1, -2]]},
    "sqrt3_q3.json": {"kind": "generic", "q": 3, "k": 2, "beta": 1,
                      "lambda": [[math.sqrt(3) * v for v in row] for row in [[0, 1, 2], [2, 0, 1], [1, 2, 0]]]},
    "underscore.json": {"kind": "generic", "q": 2, "k": 2, "beta": 1, "lambda": [[0, "1_0/3"], [0, 0]]},
    "potts_q2_bjp03.json": {"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": "3/5"},
    "potts_q2_bjp06.json": {"kind": "potts", "q": 2, "k": 2, "beta": 1, "J": "6/5"},
}


def free_law(n):
    """Potts q=3, k=2, beta = J = 1: rows for distances 1..n, each within 1e-12 relative of
    the free-boundary defect (2/9) l^d, l = (e - 1)/(e + 2)."""
    def check(report):
        with localcontext() as ctx:
            ctx.prec = 40
            e = Decimal(1).exp()
            l = (e - 1) / (e + 2)
            err = max(abs(Decimal(row["max_defect"]) / (2 * l ** row["distance"] / 9) - 1)
                      for row in report["rows"])
        assert [row["distance"] for row in report["rows"]] == list(range(1, n + 1))
        assert err <= Decimal("1e-12"), err
    return check


def levels(want):
    def check(report):
        assert [(l["value"], l["multiplicity"]) for l in report["levels"]] == want
        assert report["lattice_ok"] is True
    return check


def spectrum_q4(report):
    assert len(report["levels"]) == 10 and report["lattice_ok"] is True


def multiplicities_q2(report):
    # J = 1 is dyadic, so the float sums are exact: with j of the 21 edges unequal, 22 levels
    m = [l["multiplicity"] for l in report["levels"]]
    assert m == [2 * math.comb(21, j) for j in range(22)] and sum(m) == 2**22


def levels_q2_n4(report):
    # 2^46 configurations, counted by the subtree polynomials: with j of the 45 edges
    # unequal, beta*H = j - 22.5 with multiplicity 2*C(45, j)
    got = [(l["value"], l["multiplicity"]) for l in report["levels"]]
    assert got == [(j - 22.5, 2 * math.comb(45, j)) for j in range(46)] and report["lattice_ok"] is True


def markov_levels_q2_n2(report):
    # with j of the 9 edges between unequal spins (p = 3/4), beta*H = 9 log 4 - j log 3,
    # multiplicity 2*C(9, j): 10 levels on the lattice log(3) Z
    want = [(9 * math.log(4) - j * math.log(3), 2 * math.comb(9, j)) for j in range(9, -1, -1)]
    got = [(l["value"], l["multiplicity"]) for l in report["levels"]]
    assert report["lattice_ok"] is True and report["generator"] == math.log(3)
    assert [m for _, m in got] == [m for _, m in want]
    assert all(abs(v / w - 1) <= 1e-15 for (v, _), (w, _) in zip(got, want)), got


def markov_residual(report):
    assert report["residual"] == 0.016151817808324864 and report["passed"] is False


def lattice_q8(report):
    assert report["verdict"] == "III_family" and len(report["multipliers"]) == 8**4


def sqrt3_lattice(report):
    got = (report["verdict"], report["generator"], report["evidence"]["low_confidence"])
    assert got == ("III_family", 1.7320508075688772, False)


def potts_q2_fields(b, count):
    """Potts q=2, k=2 at beta*J' = b (J' = J/2): the zero field, joined by +-h* once
    k*tanh(beta*J') passes 1.  F is restated in numpy, and h* is its attracting nonzero
    fixed point, reached by iterating h <- 2F(h) from h = 5."""
    def F(h):
        return np.log((np.exp(b + h) + np.exp(-b)) / (np.exp(-b + h) + np.exp(b)))

    def check(report):
        assert (count == 3) == (2 * math.tanh(b) > 1)
        sols = np.array(report["solutions"], dtype=float).reshape(-1)
        assert report["count"] == len(sols) == count and 0.0 in sols
        h = 5.0
        for _ in range(1000):
            h = 2 * F(h)
        nonzero, want = np.sort(sols[sols != 0]), [] if count == 1 else [-h, h]
        assert len(nonzero) == len(want) and np.all(np.abs(nonzero - want) <= 1e-9), (nonzero, h)
        assert np.max(np.abs(sols - 2 * F(sols))) <= 1e-12
    return check


def rejected(report):
    """Invalid input: exit 3, one error line and no report."""
    assert report is None


def unordered(passed, residual):
    def check(report):
        assert report["passed"] is passed and report["residual"] == residual
    return check


ANSWERS = {
    "correlations-n12-free-law": (["correlations", "--model", "potts.json", "--n", "12", "--cap", "12286"],
                                  0, free_law(12)),
    "correlations-n18-free-law": (["correlations", "--model", "potts.json", "--n", "18"], 0, free_law(18)),
    "spectrum-potts-q4-n2": (["spectrum", "--model", "potts_q4.json", "--n", "2"], 0, spectrum_q4),
    # with j of the 9 edges unequal beta*H = j - 6, with multiplicity 3*C(9, j)*2^j
    "spectrum-potts-q3-n2": (["spectrum", "--model", "potts.json", "--n", "2"], 0,
                             levels([(float(j - 6), 3 * math.comb(9, j) * 2**j) for j in range(10)])),
    "spectrum-potts-q2-n3": (["spectrum", "--model", "potts_q2.json", "--n", "3", "--cap", "4194304"],
                             0, multiplicities_q2),
    "spectrum-potts-q2-n4": (["spectrum", "--model", "potts_q2.json", "--n", "4", "--cap", "70368744177664"],
                             0, levels_q2_n4),
    "spectrum-markov-q2-n2": (["spectrum", "--model", "markov.json", "--n", "2"], 0, markov_levels_q2_n2),
    "verify-markov-k3-wrong-shell1": (["verify-consistency", "--model", "markov_k3.json", "--n", "2",
                                       "--fields", "shell1_q2.json"], 2, markov_residual),
    "classify-exact-q8": (["classify", "--model", "exact_q8.json"], 0, lattice_q8),
    "classify-sqrt2-q8": (["classify", "--model", "sqrt2_q8.json"], 0, lattice_q8),
    "check-unordered-false-yes": (["check-unordered", "--model", "false_yes.json"], 2,
                                  unordered(False, 1.6431300764452317e-14)),
    "check-unordered-permuted-rows": (["check-unordered", "--model", "permuted_rows.json", "--tol", "5e-324"],
                                      0, unordered(True, 4.440892098500626e-16)),
    "classify-sqrt3-q3": (["classify", "--model", "sqrt3_q3.json"], 0, sqrt3_lattice),
    "rejected-classify-underscore-digits": (["classify", "--model", "underscore.json"], 3, rejected),
    "solve-fields-potts-q2-bjp0.3": (["solve-fields", "--model", "potts_q2_bjp03.json"], 0,
                                     potts_q2_fields(0.3, 1)),
    "solve-fields-potts-q2-bjp0.6": (["solve-fields", "--model", "potts_q2_bjp06.json"], 0,
                                     potts_q2_fields(0.6, 3)),
}


def strict_json(text):
    """A report parsed as strict JSON: NaN or Infinity in it fails."""
    def reject(constant):
        raise AssertionError(f"{constant} in the report")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", ANSWERS)
def test_ci_known_answer(tmp_path, capsys, name):
    argv, code, check = ANSWERS[name]
    paths = {}
    for file in set(argv) & FILES.keys():
        paths[file] = tmp_path / file
        paths[file].write_text(json.dumps(FILES[file]))
    out = tmp_path / "report.json"
    assert main([str(paths.get(a, a)) for a in argv] + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert code != 3 or (err.startswith("error: ") and err.count("\n") == 1), err   # one error line
    check(strict_json(out.read_text()) if out.exists() else None)
