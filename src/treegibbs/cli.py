"""Command-line front end: model files in, JSON/CSV reports out.

Exit codes: 0 success, 2 a requested check failed, 3 invalid input (bad
file, schema violation, enumeration cap exceeded).  Reports are
deterministic for a fixed configuration and seed: keys are emitted in a
fixed order and floats use Python's shortest round-trip representation
(<= 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import classifier, fields, measures, model as model_mod, topology

SCHEMA_VERSION = 1

DEFAULTS = {
    "consistency_tol": 1e-10,
    "unordered_tol": 1e-12,
    "float_tol": 1e-9,
    "max_den": 10**6,
    "starts": 32,
    "seed": 42,
    "cap": 2**20,
    "lattice_tol": 1e-9,
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INVALID = 3


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return model_mod._number_to_json(x)


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=2, sort_keys=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows, header: str, out_path: str | None) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows] + [""]
    text = "\n".join(lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_model(path: str) -> model_mod.LambdaModel:
    """Read and validate a model definition file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise model_mod.ModelError(f"{path}: not valid JSON: {exc}") from None
    return model_mod.model_from_dict(data)


def _word_key(word: tuple[int, ...]) -> str:
    return ".".join(str(g) for g in word)


def _vertex_of_key(ball: topology.Ball, key: str) -> int:
    """Vertex addressed by a fields-file key such as "1.3.2" (the root's key is "")."""
    try:
        word = tuple(int(g) for g in key.split(".")) if key else ()
        if _word_key(word) == key:
            return topology.vertex_from_word(ball, word)
    except ValueError:
        pass
    raise model_mod.ModelError(f"word {key!r} does not address a vertex of the ball")


def _load_field_assignment(
    model, ball: topology.Ball, fields_path: str | None
) -> fields.ReducedFieldAssignment:
    """Assemble a field assignment for a ball from an optional vertex-word file.

    File values for the outermost shell seed the boundary (absent boundary
    vertices default to zero); the interior is then propagated inward and
    any interior values present in the file override the propagated ones,
    so corrupted files are caught by the consistency check.
    """
    qm1 = model.q - 1
    given: dict[int, np.ndarray] = {}
    if fields_path is not None:
        with open(fields_path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise model_mod.ModelError(f"{fields_path}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise model_mod.ModelError("fields file must map vertex words to vectors")
        for key, vec in raw.items():
            x = _vertex_of_key(ball, key)
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (qm1,):
                raise model_mod.ModelError(f"field for {key!r} must have {qm1} components")
            given[x] = arr
    boundary = {
        x: given.get(x, np.zeros(qm1)) for x in ball.shells[ball.n]
    }
    assignment = fields.propagate_fields(model, ball, boundary)
    hprime = assignment.hprime.copy()
    for x, vec in given.items():
        hprime[x] = vec
    return fields.ReducedFieldAssignment(ball, hprime)


def _base_report(command: str, args) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "settings": {
            "tol": args.tol,
            "max_den": args.max_den,
            "starts": args.starts,
            "seed": args.seed,
            "cap": args.cap,
        },
    }


def _cmd_classify(args) -> int:
    m = parse_model(args.model)
    tol = args.tol if args.tol is not None else DEFAULTS["float_tol"]
    result = classifier.classify(m, max_den=args.max_den, tol=tol)
    report = _base_report("classify", args)
    report.update(
        verdict=result.verdict,
        generator=result.generator,
        gamma=result.gamma,
        multipliers=None
        if result.multipliers is None
        else [{"quad": list(k), "m": v} for k, v in sorted(result.multipliers.items())],
        caveat=result.caveat,
        confidence=result.confidence,
        evidence=result.evidence,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_check_unordered(args) -> int:
    m = parse_model(args.model)
    tol = args.tol if args.tol is not None else DEFAULTS["unordered_tol"]
    ok, residual = fields.check_unordered(m, tol=tol)
    report = _base_report("check-unordered", args)
    report.update(passed=ok, residual=residual, tol=tol)
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_solve_fields(args) -> int:
    m = parse_model(args.model)
    tol = args.tol if args.tol is not None else 1e-12
    result = fields.ti_fixed_points(m, starts=args.starts, tol=tol, seed=args.seed)
    report = _base_report("solve-fields", args)
    report.update(
        solutions=[list(s) for s in result.solutions],
        count=len(result.solutions),
        non_converged=result.non_converged,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_verify_consistency(args) -> int:
    m = parse_model(args.model)
    if args.n is None or args.n < 1:
        raise model_mod.ModelError("verify-consistency needs --n >= 1")
    tol = args.tol if args.tol is not None else DEFAULTS["consistency_tol"]
    ball = topology.build_ball(m.k, args.n)
    assignment = _load_field_assignment(m, ball, args.fields)
    residual = measures.consistency_residual(m, assignment, cap=args.cap)
    ok = residual <= tol
    report = _base_report("verify-consistency", args)
    report.update(n=args.n, residual=residual, tol=tol, passed=ok)
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_spectrum(args) -> int:
    m = parse_model(args.model)
    if args.n is None or args.n < 0:
        raise model_mod.ModelError("spectrum needs --n >= 0")
    ball = topology.build_ball(m.k, args.n)
    tol = args.tol if args.tol is not None else DEFAULTS["lattice_tol"]
    spec = classifier.finite_volume_spectrum(m, ball, cap=args.cap)
    levels, counts = np.unique(spec, return_counts=True)
    ok, generator, deviation = classifier._levels_lattice_check(m, levels, tol, args.cap, args.max_den)
    report = _base_report("spectrum", args)
    report.update(
        n=args.n,
        levels=[{"value": float(v), "multiplicity": int(c)} for v, c in zip(levels, counts)],
        sign_note="levels are beta*H; the edge-potential convention is the mirror image",
        generator=generator,
        lattice_ok=ok,
        max_lattice_deviation=deviation,
    )
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_correlations(args) -> int:
    m = parse_model(args.model)
    if args.n is None or args.n < 1:
        raise model_mod.ModelError("correlations needs --n >= 1")
    rows = measures.correlation_decay(m, args.n)
    if args.format == "csv":
        _emit_csv(rows, "distance,max_defect", args.out)
    else:
        report = _base_report("correlations", args)
        report.update(n=args.n, rows=[{"distance": d, "max_defect": v} for d, v in rows])
        _emit(report, args.out)
    return EXIT_OK


def _cmd_markov_check(args) -> int:
    m = parse_model(args.model)
    if m.provenance != "markov":
        raise model_mod.ModelError("markov-check needs a model of kind 'markov'")
    report = _base_report("markov-check", args)
    if all(isinstance(v, Fraction) for row in m.P for v in row):
        witness = classifier.commensurability_multiplicative(m.P)
        if witness is None:
            report.update(condition_holds=False, alpha=None, exponents=None,
                          note="entry ratios span a multiplicative lattice of rank >= 2")
        elif witness.alpha is None:
            report.update(condition_holds=True, alpha=None, exponents=list(witness.exponents),
                          note="constant matrix: the state is a trace (II1)")
        else:
            report.update(condition_holds=True, alpha=witness.alpha,
                          exponents=[list(r) for r in witness.exponents])
    else:
        tol = args.tol if args.tol is not None else DEFAULTS["float_tol"]
        result = classifier.classify(m, max_den=args.max_den, tol=tol)
        report.update(condition_holds=result.verdict == "III_family",
                      generator=result.generator, gamma=result.gamma,
                      note="floating matrix: decided by continued-fraction reconstruction")
    _emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegibbs",
        description="Gibbs measures on Cayley trees and factor-type classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify": _cmd_classify,
        "check-unordered": _cmd_check_unordered,
        "solve-fields": _cmd_solve_fields,
        "verify-consistency": _cmd_verify_consistency,
        "spectrum": _cmd_spectrum,
        "correlations": _cmd_correlations,
        "markov-check": _cmd_markov_check,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model definition file (JSON)")
        p.add_argument("--n", type=int, default=None, help="ball radius")
        p.add_argument("--tol", type=float, default=None, help="tolerance for the command's check")
        p.add_argument("--max-den", dest="max_den", type=int, default=DEFAULTS["max_den"])
        p.add_argument("--starts", type=int, default=DEFAULTS["starts"])
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        p.add_argument("--cap", type=int, default=DEFAULTS["cap"])
        p.add_argument("--fields", default=None, help="field assignment file (JSON, vertex words)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise model_mod.ModelError(f"tolerance must be finite and positive, got {args.tol}")
        if args.max_den < 1:
            raise model_mod.ModelError(f"--max-den must be >= 1, got {args.max_den}")
        return args.func(args)
    except (model_mod.ModelError, measures.EnumerationCapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
