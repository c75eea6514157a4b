import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

import treegibbs
from treegibbs import classify, measures, model as model_mod, topology
from treegibbs.cli import (
    COMMANDS, _ball_exceeds, _encode, _json_default, _load_field_assignment, _rendered_levels,
    _rendered_multipliers, main, parse_model,
)

from conftest import OVERFLOWING_MODELS, UNREAD_KEY_MODELS, enumerated_consistency_residual

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("half", [0.5, "1/2"])
def test_markov_check_constant_matrix_float_or_rational(tmp_path, capsys, half):
    # both spellings take classify's II1 verdict, and the condition holds
    path = write(tmp_path, "m.json", {"kind": "markov", "q": 2, "k": 2, "P": [[half, half], [half, half]]})
    code, out = run(capsys, ["markov-check", "--model", path])
    assert code == 0 and json.loads(out)["condition_holds"] is True
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


def test_fields_file_is_checked_on_shell_n_minus_1_only(tmp_path, capsys):
    # the residual compares levels n and n-1: a wrong shell-1 field fails at
    # n = 2 and goes unseen at n = 3
    model = write(tmp_path, "p.json", {"kind": "potts", "q": 2, "k": 1, "beta": 1, "J": 1})
    fields_path = write(tmp_path, "fields.json", {"1": [0.3]})
    code, out = run(capsys, ["verify-consistency", "--model", model, "--n", "2", "--fields", fields_path])
    assert code == 2 and json.loads(out)["residual"] == pytest.approx(0.0398, abs=1e-4)
    code, out = run(capsys, ["verify-consistency", "--model", model, "--n", "3", "--fields", fields_path])
    assert code == 0 and json.loads(out)["residual"] < 1e-15


@pytest.mark.parametrize("text,message", [
    ('{"1": [true, 0.5]}', "field for '1' must be a list of 2 numbers"),
    ('{"1": ["0.5", 0.5]}', "field for '1' must be a list of 2 numbers"),
    ('{"1": [0.5]}', "field for '1' must be a list of 2 numbers"),
    ('{"1": 0.5}', "field for '1' must be a list of 2 numbers"),
    ('{"1": [1%s, 0.5]}' % ("0" * 400), "past the float range"),
    ('{"1": [NaN, 0.5]}', "must be finite"),
    ('[[0.5, 0.5]]', "fields file must map vertex words to vectors"),
    ('{"1": [0.5, 0.5]', "not valid JSON"),
], ids=["boolean", "string", "short", "scalar", "huge-integer", "nan", "list", "bad-json"])
def test_fields_file_invalid_exit_3(potts3, tmp_path, text, message, capsys):
    fields_path = tmp_path / "fields.json"
    fields_path.write_text(text)
    assert_rejected(["verify-consistency", "--model", potts3, "--n", "2", "--fields", str(fields_path)],
                    message, capsys)
    # JSON integers are numbers
    fields_path.write_text('{"1": [1, 0.5]}')
    assert main(["verify-consistency", "--model", potts3, "--n", "2", "--fields", str(fields_path)]) == 2


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


@pytest.mark.parametrize("key", ["q", "k"])
def test_boolean_q_or_k_exit_3(tmp_path, key, capsys):
    spec = {"kind": "potts", "q": 2, "k": 2, "beta": "1/1", "J": "1/1", key: True}
    assert main(["solve-fields", "--model", write(tmp_path, "b.json", spec)]) == 3
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_model_file_not_json_exit_3(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"kind": "potts",')
    assert_rejected(["classify", "--model", str(path)], "not valid JSON", capsys)


def test_markov_check_on_potts_exit_3(potts3, capsys):
    assert_rejected(["markov-check", "--model", potts3], "markov-check needs a model of kind 'markov'", capsys)


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


# Report of the Newton-accelerated solver on this model and seed, pinned
# byte for byte.  The damped-only solver before it printed the two nonzero
# solutions below; the pinned ones must stay within 1e-9 of them.
SOLVE_FIELDS_DAMPED_ONLY = (-7.962332548359533, 7.962332548359965)
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
      -7.962332548360522
    ],
    [
      0.0
    ],
    [
      7.9623325483605365
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
    sols = json.loads(SOLVE_FIELDS_POTTS2_J4_SEED7)["solutions"]
    for new, old in zip((sols[0][0], sols[2][0]), SOLVE_FIELDS_DAMPED_ONLY):
        assert abs(new - old) <= 1e-9


# One model per classifier route with a lattice, and the q^4 classify report
# each produced before the classifier stored its q x q exponent table; then a
# constant exact table (II1) and a rank-2 rational stochastic matrix, whose
# reports were written before classify moved to the q^2 base differences;
# then two exact tables whose multipliers pass 2**63, with reports written
# by that same earlier classifier.
CLASSIFY_GOLDEN_MODELS = {
    "classify_exact_q3": {
        "kind": "generic", "q": 3, "k": 2, "beta": "3/2",
        "lambda": [["1/2", "-1/3", "5/6"], ["0/1", "2/3", "-1/2"], ["7/6", "1/6", "-5/6"]],
    },
    "classify_markov_q3": {
        "kind": "markov", "q": 3, "k": 2,
        "P": [["4/7", "2/7", "1/7"], ["1/7", "4/7", "2/7"], ["2/7", "1/7", "4/7"]],
    },
    "classify_sqrt2_q3": {
        "kind": "generic", "q": 3, "k": 2, "beta": 1.0,
        "lambda": [[math.sqrt(2) * 2 * v for v in row] for row in [[0, 1, -2], [3, -1, 2], [1, 0, -3]]],
    },
    "classify_ii1_q3": {
        "kind": "generic", "q": 3, "k": 2, "beta": "3/2", "lambda": [["2/3", "2/3", "2/3"]] * 3,
    },
    "classify_incommensurable_q3": {
        "kind": "markov", "q": 3, "k": 2,
        "P": [["1/2", "1/3", "1/6"], ["1/3", "1/6", "1/2"], ["1/6", "1/2", "1/3"]],
    },
    # exact exponents past int64: m_ij - m_kl reaches 2**63, and m reaches 10**22
    "classify_wide_exponents_q2": {
        "kind": "generic", "q": 2, "k": 2, "beta": "1/1",
        "lambda": [["0/1", "1/1"], [f"{2**62}/1", f"-{2**62}/1"]],
    },
    "classify_huge_exponents_q2": {
        "kind": "generic", "q": 2, "k": 2, "beta": "1/1",
        "lambda": [["0/1", "1/1"], [f"1/{10**22}", "0/1"]],
    },
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN_MODELS))
def test_classify_report_bytes(tmp_path, name):
    path = write(tmp_path, "m.json", CLASSIFY_GOLDEN_MODELS[name])
    out = tmp_path / "report.json"
    assert main(["classify", "--model", path, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"{name}.json").read_text()


POTTS3 = {"kind": "potts", "q": 3, "k": 2, "beta": "1/1", "J": "1/1"}

# The other commands, one case per report shape: command, model, extra
# arguments, fields file (or None) and exit code.  Each golden file holds the
# report the per-command CLI wrote before it became one table-driven front door.
REPORT_GOLDEN_CASES = {
    "check_unordered_pass": ("check-unordered", POTTS3, [], None, 0),
    "check_unordered_fail": ("check-unordered", {
        "kind": "generic", "q": 2, "k": 2, "beta": "1/1",
        "lambda": [["0/1", "0/1"], ["0/1", "1/1"]]}, [], None, 2),
    "verify_consistency_fields": ("verify-consistency", POTTS3, ["--n", "2"],
                                  {"1.2": [0.5, -0.25], "1.3": [1.0, 0.0], "2.1": [-0.7, 0.3]}, 0),
    "verify_consistency_corrupt": ("verify-consistency", POTTS3, ["--n", "2", "--tol", "1e-6"],
                                   {"1": [0.3, 0.0], "2.3": [0.25, -0.5]}, 2),
    "spectrum_n1": ("spectrum", POTTS3, ["--n", "1"], None, 0),
    "correlations_n3": ("correlations", POTTS3, ["--n", "3"], None, 0),
    "correlations_n3_csv": ("correlations", POTTS3, ["--n", "3", "--format", "csv"], None, 0),
    "markov_check_rational": ("markov-check", CLASSIFY_GOLDEN_MODELS["classify_markov_q3"], [], None, 0),
    "markov_check_float": ("markov-check", {
        "kind": "markov", "q": 2, "k": 2, "P": [[0.8, 0.2], [0.2, 0.8]]}, [], None, 0),
    "markov_check_float_free": ("markov-check", {
        "kind": "markov", "q": 2, "k": 2, "P": [[0.25, 0.75], [0.5, 0.5]]}, [], None, 0),
}


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / (name + (".csv" if name.endswith("_csv") else ".json"))


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN_CASES))
def test_command_report_bytes(tmp_path, name):
    command, spec, extra, field_values, code = REPORT_GOLDEN_CASES[name]
    argv = [command, "--model", write(tmp_path, "m.json", spec), *extra]
    if field_values is not None:
        argv += ["--fields", write(tmp_path, "fields.json", field_values)]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_text() == golden_path(name).read_text()


@pytest.mark.parametrize("q", range(2, 9))
def test_rendered_multipliers_match_json_dumps(q):
    # the all-zero II1 table and tables with negative entries, spliced in at
    # report depth between json.dumps-encoded fields
    rng = np.random.default_rng(q)
    tables = [np.zeros((q, q), dtype=int), rng.integers(-9, 10, size=(q, q)), rng.integers(-3, 1, size=(q, q))]
    # exact exponents are unbounded Python ints: near, at and past 2**63
    wide = rng.choice([2**62, -2**62, 2**63 - 1, -2**63, 10**22, -10**22], size=(q, q)).astype(object)
    for table in [*tables, wide]:
        table[0, 0] = 0
        m = tuple(tuple(int(v) for v in row) for row in table)
        quads = itertools.product(range(q), repeat=4)
        mults = {(i, j, k, l): m[i][j] - m[k][l] for i, j, k, l in quads}
        report = {"schema": 1, "settings": {"tol": None}, "gamma": 0.5, "multipliers": None,
                  "caveat": "c", "evidence": {"alpha": Fraction(1, 2)}}
        listed = [{"quad": list(k), "m": v} for k, v in sorted(mults.items())]
        want = json.dumps({**report, "multipliers": listed}, indent=2, default=_json_default) + "\n"
        assert _encode({**report, "multipliers": _rendered_multipliers(m)}) == want
        assert _encode(report) == json.dumps(report, indent=2, default=_json_default) + "\n"


def test_rendered_levels_match_json_dumps():
    # negative values, -0.0, 1e16 and 1e-7 (floats whose repr has an exponent),
    # multiplicities past 2**32 and a single level, spliced in at report depth
    # between json.dumps-encoded fields
    rng = np.random.default_rng(3)
    spreads = [np.array([-2.5, -0.0, 1e-7, 0.1, 1e16]), np.array([-1e300]),
               np.sort(rng.uniform(-50, 50, size=200))]
    for levels in spreads:
        counts = rng.integers(1, 2**40, size=levels.size)
        counts[0] = 2**62
        report = {"schema": 1, "settings": {"tol": None}, "n": 2, "levels": None, "lattice_ok": True}
        listed = [{"value": float(v), "multiplicity": int(c)} for v, c in zip(levels, counts)]
        want = json.dumps({**report, "levels": listed}, indent=2, default=_json_default) + "\n"
        assert _encode({**report, "levels": _rendered_levels(levels, counts)}) == want


def test_spectrum_with_overflowing_energies_exits_3(tmp_path, capsys):
    # every entry is finite, but the edge sums of the radius-1 ball overflow to inf; the
    # overflow raises no numpy warning, so stderr holds the one error line
    path = write(tmp_path, "huge.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                         "lambda": [[1e308, 1e308], [1e308, 1e308]]})
    out = tmp_path / "report.json"
    error = "error: the energies beta*H over the ball are not all finite floats\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", "--model", path, "--n", "1", "--out", str(out)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == error
    proc = run_python(["-m", "treegibbs.cli", "spectrum", "--model", path, "--n", "1"], 60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", error)


def test_help_lists_only_read_options(capsys):
    for name, command in COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        reads = {"--" + dest.replace("_", "-") for dest in command.reads.split()}
        assert listed == {"--help", "--model", "--out"} | reads, name
    with pytest.raises(SystemExit):
        main(["spectrum", "--help"])
    out = capsys.readouterr().out
    assert "--n" in out and "--starts" not in out and "--format" not in out


def test_report_encoder_numpy_and_fractions():
    report = {"i": np.int64(3), "b": np.bool_(True), "f": np.float64(0.1),
              "a": np.array([[1.5, 2.0]]), "r": Fraction(1, 3), "t": (Fraction(2), None)}
    assert json.dumps(report, default=_json_default) == (
        '{"i": 3, "b": true, "f": 0.1, "a": [[1.5, 2.0]], "r": "1/3", "t": ["2/1", null]}')
    with pytest.raises(TypeError):
        json.dumps({"s": {1, 2}}, default=_json_default)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_solve_fields_bad_tol_exit_3(potts3, tol, capsys):
    assert main(["solve-fields", "--model", potts3, "--starts", "1", "--tol", tol]) == 3
    assert "tolerance" in capsys.readouterr().err


EVERY_COMMAND = [
    ("classify", []),
    ("check-unordered", []),
    ("solve-fields", ["--starts", "1"]),
    ("verify-consistency", ["--n", "1"]),
    ("spectrum", ["--n", "1"]),
    ("correlations", ["--n", "1"]),
    ("markov-check", []),
]


def write_command_model(tmp_path, command):
    if command == "markov-check":
        spec = {"kind": "markov", "q": 2, "k": 2, "P": [[0.25, 0.75], [0.5, 0.5]]}
    else:
        spec = {"kind": "generic", "q": 2, "k": 2, "beta": 1.0, "lambda": [[0.5, 1.25], [0.75, 0.5]]}
    return write(tmp_path, "m.json", spec)


@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
def test_bad_tol_exit_3_every_command(tmp_path, command, extra, capsys):
    path = write_command_model(tmp_path, command)
    for tol in ("-1", "0", "nan", "inf"):
        assert main([command, "--model", path, *extra, "--tol", tol]) == 3, tol
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance" in captured.err


@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
def test_bad_max_den_exit_3_every_command(tmp_path, command, extra, capsys):
    path = write_command_model(tmp_path, command)
    for max_den in ("0", "-1"):
        assert main([command, "--model", path, *extra, "--max-den", max_den]) == 3, max_den
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-den" in captured.err


def assert_rejected(argv, flag, capsys):
    assert main(argv) == 3, argv
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err, captured.err


@pytest.mark.parametrize("flag", ["--starts", "--cap"])
@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
def test_bad_count_option_exit_3_every_command(tmp_path, command, extra, flag, capsys):
    path = write_command_model(tmp_path, command)
    for value in ("0", "-1"):
        assert_rejected([command, "--model", path, *extra, flag, value], flag, capsys)


@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
def test_negative_n_exit_3_every_command(tmp_path, command, extra, capsys):
    path = write_command_model(tmp_path, command)
    assert_rejected([command, "--model", path, *extra, "--n", "-1"], "--n", capsys)


# One valid value for every option a command may or may not read.
OPTION_VALUES = {"--n": "1", "--tol": "1e-3", "--max-den": "10", "--starts": "2", "--seed": "1",
                 "--cap": "100000", "--fields": None, "--format": "json"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_option_not_read_exit_3_every_command(tmp_path, command, capsys):
    path = write_command_model(tmp_path, command)
    reads = {"--" + name.replace("_", "-") for name in COMMANDS[command].reads.split()}
    assert ("--n" in reads) == (COMMANDS[command].min_n is not None)
    extra = ["--n", "1"] if "--n" in reads else []
    values = {**OPTION_VALUES, "--fields": write(tmp_path, "f.json", {})}
    for flag in sorted(values.keys() - reads):
        assert_rejected([command, "--model", path, *extra, flag, values[flag]], flag, capsys)
    # the options a command reads, all given at once, are accepted
    argv = [command, "--model", path]
    for flag in sorted(reads):
        argv += [flag, values[flag]]
    assert main(argv) in (0, 2)
    capsys.readouterr()


def test_classify_format_and_spectrum_fields_rejected(potts3, tmp_path, capsys):
    assert_rejected(["classify", "--model", potts3, "--format", "csv"],
                    "classify does not read --format", capsys)
    fields_path = write(tmp_path, "f.json", {"9.9": [0.0, 0.0]})
    assert_rejected(["spectrum", "--model", potts3, "--n", "1", "--fields", fields_path],
                    "spectrum does not read --fields", capsys)


# The commands that read --n, with the smallest radius each accepts.
RADIUS_FLOORS = [("verify-consistency", 1), ("spectrum", 0), ("correlations", 1)]


@pytest.mark.parametrize("command,floor", RADIUS_FLOORS)
def test_missing_or_small_n_exit_3(tmp_path, command, floor, capsys):
    path = write_command_model(tmp_path, command)
    assert_rejected([command, "--model", path], "--n", capsys)
    assert_rejected([command, "--model", path, "--n", str(floor - 1)], "--n", capsys)
    assert main([command, "--model", path, "--n", str(floor)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [command for command, _ in RADIUS_FLOORS])
def test_ball_over_cap_exit_3_before_building(tmp_path, command, capsys, monkeypatch):
    # a radius this large would build ~10^3010 vertices; the bound must not build it
    built = []
    monkeypatch.setattr(topology, "build_ball", lambda *a: built.append(a))
    monkeypatch.setattr(measures, "build_ball", lambda *a: built.append(a))
    path = write_command_model(tmp_path, command)
    assert_rejected([command, "--model", path, "--n", "10000"], "--cap", capsys)
    k1 = write(tmp_path, "k1.json", {"kind": "potts", "q": 2, "k": 1, "beta": "1/1", "J": "1/1"})
    assert_rejected([command, "--model", k1, "--n", str(10**12)], "--cap", capsys)
    assert built == []


def test_correlations_ball_bounded_by_cap(tmp_path, capsys):
    # k = 2, n = 12: 12,286 vertices, more than --cap 1000 but not a large build
    path = write_command_model(tmp_path, "correlations")
    assert_rejected(["correlations", "--model", path, "--n", "12", "--cap", "1000"], "--cap", capsys)
    assert main(["correlations", "--model", path, "--n", "12", "--cap", "12286", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ball_bound_counts_vertices(k):
    for n in range(6):
        size = topology.build_ball(k, n).num_vertices
        assert not _ball_exceeds(k, n, size)
        assert _ball_exceeds(k, n, size - 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["classify", "check-unordered", "solve-fields"])
def test_non_finite_coupling_exit_3(tmp_path, command, bad, capsys):
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                      "lambda": [[0.5, bad], [bad, 0.5]]})
    code, out = run(capsys, [command, "--model", path])
    assert code == 3 and out == ""


@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
@pytest.mark.parametrize("name", sorted(OVERFLOWING_MODELS))
def test_overflowing_couplings_exit_3_every_command(tmp_path, name, command, extra, capsys):
    path = write(tmp_path, "g.json", OVERFLOWING_MODELS[name])
    assert main([command, "--model", path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize("command,extra", EVERY_COMMAND)
@pytest.mark.parametrize("name", sorted(UNREAD_KEY_MODELS))
def test_unread_model_keys_exit_3_every_command(tmp_path, name, command, extra, capsys):
    spec, message = UNREAD_KEY_MODELS[name]
    assert_rejected([command, "--model", write(tmp_path, "m.json", spec), *extra], message, capsys)


def test_spectrum_report(potts3, capsys):
    code, out = run(capsys, ["spectrum", "--model", potts3, "--n", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["lattice_ok"] is True
    assert sum(l["multiplicity"] for l in report["levels"]) == 3**4


def test_spectrum_builds_no_energy_vector(potts3, monkeypatch, capsys):
    # the spectrum groups configurations by partial energy and calls the
    # enumeration kernel zero times; on an exact dyadic q=4, k=2, n=2 table
    # (2^20 configurations, whose energy vector alone is 8 MiB; about 270
    # levels) it peaks below 1 MiB
    calls = []
    edge_energies = measures._edge_energies

    def counting(*args, **kwargs):
        calls.append(args)
        return edge_energies(*args, **kwargs)

    monkeypatch.setattr(measures, "_edge_energies", counting)
    code, _ = run(capsys, ["spectrum", "--model", potts3, "--n", "1"])
    assert code == 0
    assert len(calls) == 0
    rng = np.random.default_rng(0)
    lam = [[Fraction(int(rng.integers(-6, 7)), int(rng.choice([1, 2, 4]))) for _ in range(4)] for _ in range(4)]
    m = treegibbs.generic_model(lam, 2, Fraction(2, 3))
    tracemalloc.start()
    try:
        levels, counts = treegibbs.finite_volume_spectrum(m, topology.build_ball(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2**20 and len(levels) > 100
    assert peak < 2**20


def test_spectrum_past_int64_multiplicities_exits_3(tmp_path, capsys):
    # Potts q=2 on the k=1 chain of radius 70: 141 vertices are within --cap
    # 10**50, but 2^141 configurations are past the int64 multiplicities
    path = write(tmp_path, "chain.json", {"kind": "potts", "q": 2, "k": 1, "beta": "1/1", "J": "1/1"})
    out = tmp_path / "report.json"
    code = main(["spectrum", "--model", path, "--n", "70", "--cap", str(10**50), "--out", str(out)])
    assert code == 3 and not out.exists()
    assert "enumeration cap" in capsys.readouterr().err


def test_spectrum_uses_max_den(tmp_path, capsys):
    # lam = [[0, 2r], [2r, 5r]] with r = sqrt(2): a lattice of step r, which
    # --max-den 1 cannot reconstruct from the float differences
    r = math.sqrt(2)
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                      "lambda": [[0.0, 2 * r], [2 * r, 5 * r]]})
    code, out = run(capsys, ["classify", "--model", path, "--max-den", "1"])
    assert code == 0 and json.loads(out)["verdict"] == "incommensurable"
    code, out = run(capsys, ["spectrum", "--model", path, "--n", "1"])
    report = json.loads(out)
    assert code == 0 and report["lattice_ok"] is True
    assert report["generator"] == pytest.approx(r)
    code, out = run(capsys, ["spectrum", "--model", path, "--n", "1", "--max-den", "1"])
    report = json.loads(out)
    assert code == 2
    assert report["settings"]["max_den"] == 1
    assert report["lattice_ok"] is False and report["generator"] is None


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


TINY = "1/1" + "0" * 400


@pytest.mark.parametrize("lam,generator,deviation", [
    # exact generators whose float underflows to 0.0: every level is within g/2 of the lattice
    ([[TINY, "0/1"], ["0/1", "0/1"]], 0.0, 0.0),
    ([[TINY, "1/1"], ["0/1", "0/1"]], 0.0, 0.0),
    # a subnormal generator: 1/g overflows, and the g/2 bound stands in for level 1
    ([["1/1" + "0" * 310, "1/1"], ["0/1", "0/1"]], 1e-310, 5e-311),
])
def test_spectrum_tiny_generator_is_on_the_lattice(tmp_path, lam, generator, deviation, capsys):
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": "1/1", "lambda": lam})
    code, out = run(capsys, ["spectrum", "--model", path, "--n", "1"])
    report = strict_json(out)
    assert code == 0 and report["lattice_ok"] is True
    assert report["generator"] == generator and report["max_lattice_deviation"] == deviation


@pytest.mark.parametrize("key", ["", "1", "3.1"])
def test_fields_file_words_address_vertices(potts3, tmp_path, key, capsys):
    # the root's key is the empty word; an all-zero file is consistent
    fields_path = write(tmp_path, "fields.json", {key: [0.0, 0.0]})
    code, out = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2",
                             "--fields", fields_path])
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("key", ["1.1", "4", "1.2.3", "01", "1.", ".1", "1..2", " 1", "+1", "a"])
def test_fields_file_malformed_word_rejected(potts3, tmp_path, key, capsys):
    fields_path = write(tmp_path, "fields.json", {key: [0.0, 0.0]})
    code = main(["verify-consistency", "--model", potts3, "--n", "2", "--fields", fields_path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "does not address a vertex" in captured.err


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
    # the residual enumerates the two level-1 measures, 3^4 = 81 configurations each
    assert main(["verify-consistency", "--model", potts3, "--n", "2", "--cap", "80"]) == 3


def test_enumeration_cap_counts_the_inner_ball(potts3, capsys):
    code, out = run(capsys, ["verify-consistency", "--model", potts3, "--n", "2", "--cap", "100"])
    m = parse_model(potts3)
    want = enumerated_consistency_residual(m, _load_field_assignment(m, topology.build_ball(2, 2), None))
    assert code == 0 and abs(json.loads(out)["residual"] - want) <= 1e-14


def test_markov_k3_residual_matches_enumeration(tmp_path, capsys):
    # the CI's Markov q=2, k=3 check at n = 2 with a wrong shell-1 field; the
    # oracle enumerates all 2^17 configurations
    model = write(tmp_path, "m.json", {"kind": "markov", "q": 2, "k": 3,
                                       "P": [["1/4", "3/4"], ["2/5", "3/5"]]})
    fields_path = write(tmp_path, "fields.json", {"1": [0.3]})
    code, out = run(capsys, ["verify-consistency", "--model", model, "--n", "2", "--fields", fields_path])
    m = parse_model(model)
    want = enumerated_consistency_residual(m, _load_field_assignment(m, topology.build_ball(3, 2), fields_path))
    assert code == 2 and abs(json.loads(out)["residual"] - want) <= 1e-14


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "m.json", "--n", "abc"],
    ["spectrum", "--model", "m.json", "--n", "1", "--tol", "x"],
    ["classify", "--model", "m.json", "--bogus"],
    ["classify"],
    ["bogus", "--model", "m.json"],
])
def test_argparse_error_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert "error:" in captured.err


def test_classify_underflowing_float_generator_exit_0(tmp_path, capsys):
    # A noise table whose loose --tol match gave a zero generator and a ZeroDivisionError
    lam = np.random.default_rng(5).uniform(-1, 1, (4, 4)).tolist()
    path = write(tmp_path, "noise.json", {"kind": "generic", "q": 4, "k": 2, "beta": 1.0, "lambda": lam})
    code, out = run(capsys, ["classify", "--model", path, "--tol", "1e-3"])
    assert code == 0 and json.loads(out)["verdict"] == "incommensurable"


def test_classify_subnormal_difference_is_incommensurable(tmp_path, capsys):
    # the ratio of 1.0 to a subnormal difference overflows to inf, which has no Fraction
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                      "lambda": [[0.0, 0.0], [1.0, 2.225073858507203e-309]]})
    code, out = run(capsys, ["classify", "--model", path])
    assert code == 0 and json.loads(out)["verdict"] == "incommensurable"


def test_classify_failed_lattice_refinement_is_incommensurable(tmp_path, capsys):
    # --max-den 1 --tol 0.4 accepts a generator that the q^4 refinement then refutes
    path = write(tmp_path, "g.json", {"kind": "generic", "q": 2, "k": 2, "beta": 1.0,
                                      "lambda": [[-7.038, -15.117], [-18.758, -23.81]]})
    code, out = run(capsys, ["classify", "--model", path, "--max-den", "1", "--tol", "0.4"])
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "incommensurable"
    assert report["evidence"]["note"] == "lattice refinement failed"


def run_python(args, timeout):
    """Run a fresh interpreter on this checkout's treegibbs, with nothing else on its path."""
    src = str(pathlib.Path(treegibbs.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


def test_import_loads_neither_scipy_nor_sympy():
    proc = run_python(["-c", "import sys, treegibbs, treegibbs.cli; "
                             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))"], 60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_markov_check_semiprime_denominator(tmp_path):
    # N is the product of two 31-digit primes, which prime factorization does not finish on.
    N = sympy.nextprime(10**30) * sympy.nextprime(3 * 10**30)
    a, b = f"1/{N}", f"{N - 1}/{N}"
    path = write(tmp_path, "semiprime.json", {"kind": "markov", "q": 2, "k": 2, "P": [[a, b], [b, a]]})
    proc = run_python(["-m", "treegibbs.cli", "markov-check", "--model", path], 30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["condition_holds"] is True
    assert report["alpha"] == f"1/{N - 1}"
    assert report["exponents"] == [[0, 1], [1, 0]]


LATTICE_MODELS = {
    "potts-q3": ({"kind": "potts", "q": 3, "k": 2, "beta": "1/1", "J": "1/1"}, ("spectrum", "classify")),
    "markov-q2": ({"kind": "markov", "q": 2, "k": 2, "P": [["1/4", "3/4"], ["3/4", "1/4"]]},
                  ("spectrum", "classify", "markov-check")),
}


@pytest.mark.parametrize("name", LATTICE_MODELS)
def test_one_exact_lattice_build_per_command(tmp_path, monkeypatch, name):
    spec, commands = LATTICE_MODELS[name]
    builds = []
    for helper in ("_rational_lattice", "commensurability_multiplicative"):
        real = getattr(model_mod, helper)
        monkeypatch.setattr(model_mod, helper,
                            lambda arg, real=real, helper=helper: builds.append(helper) or real(arg))
    path = write(tmp_path, "model.json", spec)
    for command in commands:
        builds.clear()
        radius = ["--n", "2"] if command == "spectrum" else []
        assert main([command, "--model", str(path), *radius, "--out", str(tmp_path / "report.json")]) == 0
        assert len(builds) == 1, (command, builds)
    # a second classify of one model reads the lattice the first one built
    model = parse_model(str(path))
    builds.clear()
    assert classify(model) == classify(model)
    assert len(builds) == 1
