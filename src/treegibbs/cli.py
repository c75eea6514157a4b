"""Command-line front end: model files in, JSON/CSV reports out.

Every command is one entry of ``COMMANDS``: its handler, its default
``--tol``, the options it reads and its radius rule.  ``main`` is the one
front door and does the shared work once, in this order: parse the command
line (the parser is built on first use), validate every option and reject
those the command does not read, read the model, bound the ball a
radius-reading command would build, resolve the tolerance, run the handler,
and write its JSON report or CSV text to ``--out`` or stdout.  Handlers
take ``(model, args, tol)`` and return the command's report fields (or CSV
text) and an exit code.  ``<command> --help`` lists only the options the
command reads.  ``markov-check`` decides nothing itself: its report is a
view of the one ``classifier.classify`` call that ``classify`` also makes.

Reports are encoded by ``json.dumps(indent=2)``, except two long lists,
rendered as text and spliced in (``_encode``) with the same bytes: the
classify report's q^4 ``multipliers``, one (i, j) row of the q x q exponent
table at a time from (k, l) entries formatted once per distinct exponent,
and the spectrum report's ``levels``.

Exit codes: 0 success, 2 a requested check failed, 3 invalid input (bad
file, schema violation, a command line argparse rejects, an option out of
range or not read by the command, enumeration cap exceeded).
Reports are deterministic for a fixed configuration and seed: keys are
emitted in a fixed order and floats use Python's shortest round-trip
representation (<= 17 significant digits).
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import classifier, fields, measures, model as model_mod, topology

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INVALID = 3


class _Rendered:
    """A top-level report value whose JSON text is already written; ``_encode`` splices it in."""

    def __init__(self, text: str):
        self.text = text


# What json.dumps writes for the placeholder _json_default puts in a _Rendered's place.
_PLACEHOLDER = "\x00rendered"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def _json_default(x):
    """What ``json`` cannot encode itself: Fractions as "p/q", numpy values as Python ones."""
    if isinstance(x, _Rendered):
        return _PLACEHOLDER
    if isinstance(x, Fraction):
        return model_mod._number_to_json(x)
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _encode(report: dict) -> str:
    """``json.dumps(report, indent=2)`` plus a newline, each _Rendered value in place."""
    text = json.dumps(report, indent=2, default=_json_default) + "\n"
    for value in report.values():
        if isinstance(value, _Rendered):
            text = text.replace(_PLACEHOLDER_JSON, value.text, 1)
    return text


def _rendered_multipliers(exponents) -> _Rendered:
    """The q^4 multipliers m_ij - m_kl of an exponent table, as the report writes them.

    That is the text json.dumps(indent=2) gives the list of entries
    {"quad": [i, j, k, l], "m": m_ij - m_kl}, in itertools.product order, at
    report depth.  An entry's text is that of (i, j) followed by that of
    (k, l), so an (i, j) row of q^2 entries is its head joined to the q^2
    filled (k, l) tails, and those tails depend on (i, j) only through
    a = m_ij: they are formatted once per distinct value a, for all the rows
    that share it, and then dropped.  (One q^4 template, cached or not, or
    the tails of every value kept at once, raised the peak memory; rows do
    not.)  The differences are taken in Python ints: exact exponents are
    unbounded.
    """
    flat = [v for row in exponents for v in row]
    pairs = list(itertools.product(range(len(exponents)), repeat=2))
    tails = ['        %d,\n        %d\n      ],\n      "m": %%d\n    }' % kl for kl in pairs]
    at: dict[int, list[int]] = {}
    for p, a in enumerate(flat):
        at.setdefault(a, []).append(p)
    rows = [""] * len(flat)
    for a, positions in at.items():
        filled = [tail % (a - b) for tail, b in zip(tails, flat)]
        for p in positions:
            head = '    {\n      "quad": [\n        %d,\n        %d,\n' % pairs[p]
            rows[p] = head + (",\n" + head).join(filled)
    # brackets on the end rows, so that the one join is the only copy of the text
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n  ]"
    return _Rendered(",\n".join(rows))


def _rendered_levels(levels: np.ndarray, counts: np.ndarray) -> _Rendered:
    """The levels {"value": v, "multiplicity": c} as json.dumps(indent=2) writes them, a
    float as %r does (``finite_volume_spectrum`` gives finite levels only)."""
    pairs = list(zip(levels.tolist(), counts.tolist()))
    entry = '    {\n      "value": %r,\n      "multiplicity": %d\n    }'
    return _Rendered("[\n" + ",\n".join([entry] * len(pairs)) % tuple(itertools.chain(*pairs)) + "\n  ]")


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

    The file's vectors, lists of q-1 finite JSON numbers, are written into one
    (num_vertices, q-1) array.  Its outermost shell seeds the boundary
    (absent boundary vertices stay zero); the interior is then propagated
    inward and the interior rows the file gives are written back over the
    propagated ones.  The consistency residual compares only levels n and
    n-1, so it catches a wrong row on shell n-1 but not one deeper in.
    """
    hprime = np.zeros((ball.num_vertices, model.q - 1))
    given = np.zeros(ball.num_vertices, dtype=bool)
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
            if not (isinstance(vec, list) and len(vec) == model.q - 1
                    and all(type(v) in (int, float) for v in vec)):
                raise model_mod.ModelError(f"field for {key!r} must be a list of {model.q - 1} numbers")
            hprime[x], given[x] = [model_mod._coerce(v)[1] for v in vec], True
    propagated = fields.propagate_fields(model, ball, hprime[ball.shell_slice(ball.n)]).hprime
    propagated[given] = hprime[given]
    return fields.ReducedFieldAssignment(ball, propagated)


def _cmd_classify(m, args, tol):
    result = classifier.classify(m, max_den=args.max_den, tol=tol)
    return dict(
        verdict=result.verdict,
        generator=result.generator,
        gamma=result.gamma,
        multipliers=None if result.exponents is None else _rendered_multipliers(result.exponents),
        caveat=result.caveat,
        confidence=result.confidence,
        evidence=result.evidence,
    ), EXIT_OK


def _cmd_check_unordered(m, args, tol):
    ok, residual = fields.check_unordered(m, tol=tol)
    return dict(passed=ok, residual=residual, tol=tol), EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_solve_fields(m, args, tol):
    result = fields.ti_fixed_points(m, starts=args.starts, tol=tol, seed=args.seed)
    return dict(
        solutions=[list(s) for s in result.solutions],
        count=len(result.solutions),
        non_converged=result.non_converged,
    ), EXIT_OK


def _cmd_verify_consistency(m, args, tol):
    assignment = _load_field_assignment(m, topology.build_ball(m.k, args.n), args.fields)
    residual = measures.consistency_residual(m, assignment, cap=args.cap)
    ok = residual <= tol
    return dict(n=args.n, residual=residual, tol=tol, passed=ok), EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_spectrum(m, args, tol):
    levels, counts = classifier.finite_volume_spectrum(m, topology.build_ball(m.k, args.n), cap=args.cap)
    ok, generator, deviation = classifier.spectrum_lattice_check(m, levels, tol, args.max_den)
    return dict(
        n=args.n,
        levels=_rendered_levels(levels, counts),
        sign_note="levels are beta*H; the edge-potential convention is the mirror image",
        generator=generator,
        lattice_ok=ok,
        max_lattice_deviation=deviation,
    ), EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_correlations(m, args, tol):
    rows = measures.correlation_decay(m, args.n)
    if args.format == "csv":
        return "\n".join(["distance,max_defect", *(f"{d},{v}" for d, v in rows), ""]), EXIT_OK
    return dict(n=args.n, rows=[{"distance": d, "max_defect": v} for d, v in rows]), EXIT_OK


def _cmd_markov_check(m, args, tol):
    if m.provenance != "markov":
        raise model_mod.ModelError("markov-check needs a model of kind 'markov'")
    result = classifier.classify(m, max_den=args.max_den, tol=tol)
    holds = result.exponents is not None
    if result.evidence["kind"] == "float":
        return dict(condition_holds=holds, generator=result.generator, gamma=result.gamma,
                    note="floating matrix: decided by continued-fraction reconstruction"), EXIT_OK
    # classify's table is the witness table negated: p_00/p_ij = alpha^{-m_ij}
    report = dict(condition_holds=holds, alpha=result.evidence.get("alpha"),
                  exponents=[[-e for e in row] for row in result.exponents] if holds else None)
    note = {"incommensurable": "entry ratios span a multiplicative lattice of rank >= 2",
            "II1": "constant matrix: the state is a trace (II1)"}.get(result.verdict)
    if note is not None:
        report["note"] = note
    return report, EXIT_OK


def _default(fn, name: str):
    """A library function's default for one parameter, read rather than copied."""
    return inspect.signature(fn).parameters[name].default


class Command(NamedTuple):
    handler: Callable   # (model, args, tol) -> (report fields or CSV text, exit code)
    tol: float | None   # the tolerance when --tol is not given
    reads: str          # the options read besides --model and --out, by dest
    min_n: int | None = None   # --n is required and at least this; None: --n is not read


COMMANDS = {
    "classify": Command(_cmd_classify, classifier.DEFAULT_FLOAT_TOL, "tol max_den"),
    "check-unordered": Command(_cmd_check_unordered, _default(fields.check_unordered, "tol"), "tol"),
    "solve-fields": Command(_cmd_solve_fields, _default(fields.ti_fixed_points, "tol"),
                            "tol starts seed"),
    "verify-consistency": Command(_cmd_verify_consistency, 1e-10, "n tol cap fields", min_n=1),
    "spectrum": Command(_cmd_spectrum, _default(classifier.spectrum_lattice_check, "tol"),
                        "n tol max_den cap", min_n=0),
    "correlations": Command(_cmd_correlations, None, "n cap format", min_n=1),
    "markov-check": Command(_cmd_markov_check, classifier.DEFAULT_FLOAT_TOL, "tol max_den"),
}

# The options besides --model and --out, by dest: what a command reads when
# the option is not given, its type or choices, and its help text.
OPTIONS = dict(
    n=(None, dict(type=int, help="ball radius")),
    tol=(None, dict(type=float, help="tolerance for the command's check")),
    max_den=(classifier.DEFAULT_MAX_DEN,
             dict(type=int, help="largest denominator in float lattice reconstruction")),
    starts=(_default(fields.ti_fixed_points, "starts"),
            dict(type=int, help="random starts of the fixed-point search")),
    seed=(_default(fields.ti_fixed_points, "seed"), dict(type=int, help="seed of the random starts")),
    cap=(measures.DEFAULT_CAP, dict(type=int, help="most configurations or ball vertices to build")),
    fields=(None, dict(help="field assignment file (JSON, vertex words)")),
    format=("json", dict(choices=["json", "csv"], help="report format")),
)


class _Parser(argparse.ArgumentParser):
    """A parser (and, through ``add_subparsers``, subparsers) whose usage errors exit 3, not 2."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.format_usage()}{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treegibbs",
        description="Gibbs measures on Cayley trees and factor-type classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model definition file (JSON)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        # None marks an option as not given; main fills in the defaults.  Options
        # the command does not read are parsed (main rejects them) but not listed.
        reads = command.reads.split()
        for dest, (_, kwargs) in OPTIONS.items():
            shown = kwargs["help"] if dest in reads else argparse.SUPPRESS
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **{**kwargs, "help": shown})
    return parser


def _validate(args, command: Command, given: set[str]) -> None:
    """Reject option values out of range, then options the command does not read."""
    if args.tol is not None:
        model_mod._check_tol(args.tol)
    for flag, value in (("--max-den", args.max_den), ("--starts", args.starts), ("--cap", args.cap)):
        if value < 1:
            raise model_mod.ModelError(f"{flag} must be >= 1, got {value}")
    if args.n is not None and args.n < 0:
        raise model_mod.ModelError(f"--n must be >= 0, got {args.n}")
    if command.min_n is not None and (args.n is None or args.n < command.min_n):
        raise model_mod.ModelError(f"{args.command} needs --n >= {command.min_n}")
    stray = ", ".join("--" + name.replace("_", "-") for name in sorted(given - set(command.reads.split())))
    if stray:
        raise model_mod.ModelError(f"{args.command} does not read {stray}")


def _ball_exceeds(k: int, n: int, cap: int) -> bool:
    """Does the radius-n ball of the order-k tree hold more than ``cap`` vertices?

    Counted by ``topology.ball_size``, without building the ball.  For k >= 2
    shell m holds at least 2**m vertices, so radii past ``cap.bit_length()``
    are all over the cap and n is clipped there before k**n is formed.
    """
    return topology.ball_size(k, n if k == 1 else min(n, cap.bit_length())) > cap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    given = {name for name in OPTIONS if getattr(args, name) is not None}
    for name in OPTIONS.keys() - given:
        setattr(args, name, OPTIONS[name][0])
    try:
        _validate(args, command, given)
        m = parse_model(args.model)
        if command.min_n is not None and _ball_exceeds(m.k, args.n, args.cap):
            raise model_mod.ModelError(
                f"the radius-{args.n} ball of the order-{m.k} tree has more than --cap {args.cap} vertices"
            )
        tol = command.tol if args.tol is None else args.tol
        payload, code = command.handler(m, args, tol)
        if not isinstance(payload, str):
            settings = {name: getattr(args, name) for name in ("tol", "max_den", "starts", "seed", "cap")}
            # no name keeps the report: its rendered text is freed before the encoded copy is written
            payload = _encode({"schema": SCHEMA_VERSION, "command": args.command, "settings": settings,
                               **payload})
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return code
    except (model_mod.ModelError, measures.EnumerationCapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
