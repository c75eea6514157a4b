import json

import pytest

from treegibbs.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def potts3(tmp_path):
    return write(tmp_path, "potts3.json", {"kind": "potts", "q": 3, "k": 2, "beta": "1/1", "J": "1/1"})


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_classify_report(potts3, capsys):
    code, out = run(capsys, ["classify", "--model", potts3])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["verdict"] == "III_family"
    assert report["generator"] == "1/1"
    assert report["confidence"] == "exact"
    assert report["settings"]["seed"] == 42


def test_classify_deterministic_output(potts3, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", "--model", potts3, "--out", str(out1)]) == 0
    assert main(["classify", "--model", potts3, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_markov_check_uniform(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"kind": "markov", "q": 2, "k": 2,
                                      "P": [["1/2", "1/2"], ["1/2", "1/2"]]})
    code, out = run(capsys, ["markov-check", "--model", path])
    assert code == 0
    report = json.loads(out)
    assert report["condition_holds"] is True
    assert "trace" in report["note"]
    code, out = run(capsys, ["classify", "--model", path])
    assert code == 0 and json.loads(out)["verdict"] == "II1"


def test_markov_check_refutation(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"kind": "markov", "q": 2, "k": 2,
                                      "P": [["1/2", "1/2"], ["1/3", "2/3"]]})
    code, out = run(capsys, ["markov-check", "--model", path])
    assert code == 0
    assert json.loads(out)["condition_holds"] is False


def test_verify_consistency_pass_and_exit_codes(potts3, capsys):
    code, out = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_consistency_corrupted_fields(potts3, tmp_path, capsys):
    # nonzero field on an interior vertex, zero boundary: inconsistent
    fields_path = write(tmp_path, "fields.json", {"1": [0.3, 0.0]})
    code, out = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2",
                             "--fields", fields_path])
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["residual"] > 1e-6


def test_fields_file_boundary_only_is_consistent(potts3, tmp_path, capsys):
    fields_path = write(tmp_path, "fields.json", {
        "1.2": [0.5, -0.25], "1.3": [1.0, 0.0], "2.1": [-0.7, 0.3],
    })
    code, out = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2",
                             "--fields", fields_path])
    assert code == 0 and json.loads(out)["passed"] is True


def test_fields_file_bad_word_rejected(potts3, tmp_path, capsys):
    fields_path = write(tmp_path, "fields.json", {"9.9": [0.0, 0.0]})
    code, _ = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2",
                           "--fields", fields_path])
    assert code == 3


def test_invalid_model_exit_3(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"kind": "markov", "q": 2, "k": 2,
                                        "P": [[0.5, 0.49], [0.5, 0.5]]})
    assert main(["classify", "--model", path]) == 3
    err = capsys.readouterr().err
    assert "row 0" in err


def test_missing_file_exit_3(capsys):
    assert main(["classify", "--model", "/nonexistent/x.json"]) == 3


def test_check_unordered_fail_exit_2(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": "1/1",
                                      "lambda": [["0/1", "0/1"], ["0/1", "1/1"]]})
    code, out = run(capsys, ["check-unordered", "--model", path])
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_solve_fields_report(potts3, capsys):
    code, out = run(capsys, ["solve-fields", "--model", potts3, "--starts", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == len(report["solutions"]) >= 1


# Report of the per-start, one map call per iteration solver on this model
# and seed; the batched solver must reproduce it byte for byte.
SOLVE_FIELDS_POTTS2_J4_SEED7 = """{
  "schema": 1,
  "command": "solve-fields",
  "settings": {
    "tol": null,
    "max_den": 1000000,
    "starts": 8,
    "seed": 7,
    "cap": 1048576
  },
  "solutions": [
    [
      -7.962332548359533
    ],
    [
      0.0
    ],
    [
      7.962332548359965
    ]
  ],
  "count": 3,
  "non_converged": 0
}
"""


def test_solve_fields_report_bytes(tmp_path):
    path = write(tmp_path, "p2.json", {"kind": "potts", "q": 2, "k": 2, "beta": "1/1", "J": "4/1"})
    out = tmp_path / "report.json"
    assert main(["solve-fields", "--model", path, "--starts", "8", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == SOLVE_FIELDS_POTTS2_J4_SEED7


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_solve_fields_bad_tol_exit_3(potts3, tol, capsys):
    assert main(["solve-fields", "--model", potts3, "--starts", "1", "--tol", tol]) == 3
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["classify", "check-unordered", "solve-fields"])
def test_non_finite_coupling_exit_3(tmp_path, command, bad, capsys):
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                      "lambda": [[0.5, bad], [bad, 0.5]]})
    code, out = run(capsys, [command, "--model", path])
    assert code == 3 and out == ""


def test_spectrum_report(potts3, capsys):
    code, out = run(capsys, ["spectrum", "--model", potts3, "--n", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["lattice_ok"] is True
    assert sum(l["multiplicity"] for l in report["levels"]) == 3**4


def test_correlations_csv(potts3, capsys):
    code, out = run(capsys, ["correlations", "--model", potts3, "--n", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance,max_defect"
    assert len(lines) == 3
    d1 = float(lines[1].split(",")[1])
    d2 = float(lines[2].split(",")[1])
    assert d1 > d2 > 0


def test_round_trip_rational_model(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": "1/2",
                                      "lambda": [["2/3", "-1/8"], ["-1/8", "2/3"]]})
    code, out = run(capsys, ["classify", "--model", path])
    assert code == 0
    assert json.loads(out)["confidence"] == "exact"


def test_enumeration_cap_exit_3(potts3, capsys):
    assert main(["verify-consistency", "--model", potts3, "--n", "2", "--cap", "100"]) == 3
