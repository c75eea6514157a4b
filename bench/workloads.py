"""The four benchmark workloads: seeded inputs, the jobs run on them, and checks.

Every job is one call into treegibbs: a CLI command run in-process through
``treegibbs.cli.main`` (with ``--out`` into the work directory), or a library
call where no command exposes the operation.  The seed changes the inputs
(coupling values, boundary fields, which vertex is corrupted) but not the
amount of work, so pass times are comparable across seeds.

Each job carries a check against an answer from ``reference`` and a
``perturb`` that turns a correct output into a wrong one; ``selfcheck.py``
uses the latter to show that every checker can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from treegibbs import cli, fields, measures, model as model_mod, topology

from reference import (
    Tree, field_map, free_pair_defects, frac_str, markov_table, potts_table,
    rational_gcd, require, scaled_couplings, table_generator,
)

# Captured before any tracing wrapper replaces the module attribute.
_clear_balls = topology.build_ball.cache_clear

WORKLOADS = ("fields-sweep", "exact-enumeration", "tree-elimination", "classify-batch")


@dataclass
class Job:
    """One timed call into the program and how to judge what it returned."""

    name: str
    call: Callable[[], Any]                 # timed
    check: Callable[[Any], None]            # raises CheckError
    perturb: Callable[[Any], Any]           # a wrong output the check must reject
    read: Callable[[Any], Any] = lambda raw: raw   # untimed: raw result -> output

    def run(self):
        _clear_balls()  # every real CLI invocation starts with an empty ball cache
        return self.call()


@dataclass(frozen=True)
class CliOutput:
    code: int
    report: Any        # parsed JSON report, or None when no file was written
    stderr: str
    nbytes: int


class Inputs:
    """Writes generated model and field files into the work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}")

    def write(self, stem: str, data) -> str:
        path = self.path(stem + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def cli_job(inputs: Inputs, name: str, argv: list[str], check, perturb) -> Job:
    out = inputs.path(name + ".out")

    def call():
        if os.path.exists(out):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
        return code, err.getvalue()

    def read(raw):
        code, stderr = raw
        if not os.path.exists(out):
            return CliOutput(code, None, stderr, 0)
        with open(out) as fh:
            text = fh.read()
        return CliOutput(code, json.loads(text), stderr, len(text.encode()))

    return Job(name, call, check, perturb, read)


def with_report(out: CliOutput, **changes) -> CliOutput:
    return replace(out, report={**out.report, **changes})


def expect_ok(out: CliOutput, code: int = 0) -> dict:
    require(out.code == code, f"exit code {out.code}, expected {code}: {out.stderr.strip()}")
    require(isinstance(out.report, dict), "no JSON report written")
    return out.report


def rand_fraction(rng, lo: int, hi: int, dens=(1, 2, 3, 4, 6, 8)) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.choice(dens)))


def split_beta(rng, product: Fraction) -> tuple[Fraction, Fraction]:
    """A seeded (beta, x) with beta * x == product: same model, another file."""
    beta = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return beta, product / beta


# --- fields-sweep -------------------------------------------------------------

def solve_fields_job(inputs, rng, q: int, k: int, beta_j: Fraction) -> Job:
    """solve-fields on Potts(q, k) with beta*J fixed; the file splits it seeded."""
    beta, J = split_beta(rng, beta_j)
    path = inputs.write(f"potts-q{q}", {"kind": "potts", "q": q, "k": k,
                                       "beta": frac_str(beta), "J": frac_str(J)})
    a = scaled_couplings(beta, potts_table(q, J))
    tol = 1e-12
    # q = 2: F'(0) = tanh(beta J'), so 0 is the only solution iff k tanh(beta J') < 1.
    expected_count = None
    if q == 2:
        expected_count = 1 if k * math.tanh(float(beta_j) / 2) < 1 else 3

    def check(out: CliOutput):
        rep = expect_ok(out)
        sols = np.array(rep["solutions"], dtype=float).reshape(-1, q - 1)
        require(rep["count"] == len(sols) >= 1, "solution count disagrees with the list")
        if expected_count is not None:
            require(len(sols) == expected_count,
                    f"{len(sols)} fixed points, expected {expected_count}")
        require(np.any(np.all(sols == 0.0, axis=1)), "zero field missing (Potts is unordered)")
        resid = np.max(np.abs(sols - k * field_map(a, sols)))
        require(resid <= tol, f"fixed-point residual {resid:.3g} > {tol}")

    def perturb(out):
        sols = [list(s) for s in out.report["solutions"]]
        sols[-1][0] += 1e-6
        return with_report(out, solutions=sols)

    return cli_job(inputs, f"solve-fields-potts-q{q}-betaJ{float(beta_j):g}",
                   ["solve-fields", "--model", path], check, perturb)


def propagate_job(inputs, rng, q: int, k: int, n: int) -> Job:
    """Library propagate_fields of seeded boundary fields on a seeded table."""
    lam = [[rand_fraction(rng, -8, 8) for _ in range(q)] for _ in range(q)]
    path = inputs.write(f"generic-q{q}", {"kind": "generic", "q": q, "k": k, "beta": "1/1",
                                         "lambda": [[frac_str(v) for v in r] for r in lam]})
    tree = Tree(k, n)
    outer = tree.shells[n]
    boundary = rng.uniform(-2.0, 2.0, size=(len(outer), q - 1))
    interior = np.arange(len(tree.words) - len(outer))
    sample = rng.choice(interior, size=min(64, len(interior)), replace=False)
    a = scaled_couplings(1, lam)
    with open(path) as fh:
        spec = json.load(fh)

    def call():
        m = model_mod.model_from_dict(spec)
        return fields.propagate_fields(m, topology.build_ball(k, n), boundary).hprime

    def check(h: np.ndarray):
        require(h.shape == (tree.num_vertices, q - 1), f"field array shape {h.shape}")
        require(np.array_equal(h[outer], boundary), "boundary fields changed")
        for x in sample:
            want = field_map(a, h[tree.children[x]]).sum(axis=0)
            err = np.max(np.abs(h[x] - want))
            require(err <= 1e-12, f"vertex {x}: field off by {err:.3g}")

    def perturb(h):
        h = h.copy()
        h[sample[0], 0] += 1e-9
        return h

    return Job(f"propagate-q{q}-k{k}-n{n}", call, check, perturb)


def fields_sweep(inputs, rng) -> list[Job]:
    jobs = [solve_fields_job(inputs, rng, 2, 2, 2 * Fraction(bjp))
            for bjp in ("3/10", "1/2", "3/5", "9/10")]          # beta*J' around atanh(1/2)
    jobs += [solve_fields_job(inputs, rng, 3, 2, Fraction(j)) for j in ("1/2", "3/2", "3")]
    jobs += [propagate_job(inputs, rng, 3, 2, 10), propagate_job(inputs, rng, 2, 3, 6)]
    return jobs


# --- exact-enumeration --------------------------------------------------------

def fields_file(inputs, rng, stem, a, tree: Tree, corrupt: bool) -> str:
    """Field file with the benchmark's own inward propagation on every vertex.

    A corrupted file breaks the recursion at one vertex of shell n-1, the
    shell the level-n/level-(n-1) consistency residual tests.
    """
    q1 = a.shape[0] - 1
    h = tree.propagate(a, rng.uniform(-1.0, 1.0, size=(len(tree.shells[tree.n]), q1)))
    if corrupt:
        h[int(rng.choice(tree.shells[tree.n - 1])), int(rng.integers(q1))] += 0.5
    return inputs.write(stem, {tree.word_key(x): list(h[x]) for x in range(tree.num_vertices)})


def verify_job(inputs, rng, spec: dict, a, n: int, corrupt: bool) -> Job:
    q, k = spec["q"], spec["k"]
    model_path = inputs.write(f"{spec['kind']}-q{q}", spec)
    tree = Tree(k, n)
    fpath = fields_file(inputs, rng, "fields", a, tree, corrupt)
    tol = 1e-10

    def check(out: CliOutput):
        rep = expect_ok(out, 2 if corrupt else 0)
        require(rep["n"] == n, "wrong radius in report")
        if corrupt:
            require(rep["passed"] is False and rep["residual"] > tol,
                    f"corrupted fields passed (residual {rep['residual']})")
        else:
            require(rep["passed"] is True and rep["residual"] <= tol,
                    f"consistency residual {rep['residual']} > {tol}")

    def perturb(out):
        return with_report(out, residual=0.0 if corrupt else 1e-6, passed=not corrupt)

    name = f"verify-{spec['kind']}-q{q}-k{k}-n{n}" + ("-corrupt" if corrupt else "")
    return cli_job(inputs, name, ["verify-consistency", "--model", model_path, "--n", str(n),
                                  "--fields", fpath], check, perturb)


def spectrum_job(inputs, rng, q: int, k: int, n: int) -> Job:
    lam = [[rand_fraction(rng, -6, 6) for _ in range(q)] for _ in range(q)]
    lam[0][1] = lam[0][0] + 1                       # never a constant table
    beta = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    path = inputs.write(f"generic-q{q}", {"kind": "generic", "q": q, "k": k,
                                         "beta": frac_str(beta),
                                         "lambda": [[frac_str(v) for v in r] for r in lam]})
    over_cap = q ** Tree(k, n).num_vertices > 2**20

    if over_cap:
        def check(out: CliOutput):
            require(out.code == 3, f"exit code {out.code}, expected 3")
            require(out.report is None, "report written although the cap was exceeded")
            require("enumeration cap" in out.stderr, f"unexpected error: {out.stderr.strip()}")

        def perturb(out):
            return replace(out, code=0)
    else:
        g = float(table_generator(beta, lam))
        lo, hi = Tree(k, n).energy_range(-scaled_couplings(beta, lam))
        total = q ** Tree(k, n).num_vertices

        def check(out: CliOutput):
            rep = expect_ok(out)
            require(rep["lattice_ok"] is True, "spectrum off the classify lattice")
            require(abs(rep["generator"] - g) <= 1e-12 * g, f"generator {rep['generator']} != {g}")
            levels = rep["levels"]
            require(sum(lv["multiplicity"] for lv in levels) == total, "multiplicities do not sum to q^|V|")
            require(abs(levels[0]["value"] - lo) <= 1e-9 and abs(levels[-1]["value"] - hi) <= 1e-9,
                    "lowest/highest level disagree with the tree minimum/maximum")

        def perturb(out):
            return with_report(out, generator=out.report["generator"] * (1 + 1e-6))

    return cli_job(inputs, f"spectrum-q{q}-k{k}-n{n}",
                   ["spectrum", "--model", path, "--n", str(n)], check, perturb)


def markov_residual_job(inputs, rng, q: int, k: int, n: int) -> Job:
    J = rand_fraction(rng, 1, 8, dens=(4,))
    spec = {"kind": "potts", "q": q, "k": k, "beta": "1/1", "J": frac_str(J)}

    def call():
        return measures.markov_property_residual(model_mod.model_from_dict(spec), n)

    def check(residual: float):
        require(residual <= 1e-10, f"Markov-property residual {residual} > 1e-10")

    return Job(f"markov-residual-q{q}-k{k}-n{n}", call, check, lambda r: 1e-6)


def rational_stochastic(rng, q: int) -> list[list[Fraction]]:
    rows = []
    for _ in range(q):
        w = [int(v) for v in rng.integers(1, 10, size=q)]
        rows.append([Fraction(v, sum(w)) for v in w])
    return rows


def exact_enumeration(inputs, rng) -> list[Job]:
    J = rand_fraction(rng, 1, 8, dens=(4,))
    potts = {"kind": "potts", "q": 4, "k": 2, "beta": "1/1", "J": frac_str(J)}
    a_potts = scaled_couplings(1, potts_table(4, J))
    P = rational_stochastic(rng, 2)
    markov = {"kind": "markov", "q": 2, "k": 3, "P": [[frac_str(p) for p in r] for r in P]}
    a_markov = scaled_couplings(1, markov_table(P))
    return [
        verify_job(inputs, rng, potts, a_potts, 2, corrupt=False),    # 4^10 = 2^20 configs
        verify_job(inputs, rng, potts, a_potts, 2, corrupt=True),
        spectrum_job(inputs, rng, 4, 2, 2),
        verify_job(inputs, rng, markov, a_markov, 2, corrupt=False),  # 2^17 configs
        spectrum_job(inputs, rng, 4, 2, 3),                           # 4^22: over the cap
        markov_residual_job(inputs, rng, 2, 3, 1),                    # 2^17 configs
    ]


# --- tree-elimination ---------------------------------------------------------

def correlations_job(inputs, spec: dict, a, n: int) -> Job:
    path = inputs.write(f"{spec['kind']}-q{spec['q']}", spec)
    want = free_pair_defects(a, n)

    def check(out: CliOutput):
        rows = expect_ok(out)["rows"]
        require([r["distance"] for r in rows] == list(range(1, n + 1)), "distances are not 1..n")
        err = max(abs(r["max_defect"] - w) for r, w in zip(rows, want))
        require(err <= 1e-12, f"correlation defect off the (1/q) M^d law by {err:.3g}")

    def perturb(out):
        rows = [dict(r) for r in out.report["rows"]]
        rows[-1]["max_defect"] += 1e-9
        return with_report(out, rows=rows)

    return cli_job(inputs, f"correlations-{spec['kind']}-q{spec['q']}-k{spec['k']}-n{n}",
                   ["correlations", "--model", path, "--n", str(n)], check, perturb)


def tree_elimination(inputs, rng) -> list[Job]:
    J = rand_fraction(rng, 1, 8, dens=(4,))
    potts = {"kind": "potts", "q": 3, "k": 2, "beta": "1/1", "J": frac_str(J)}
    P = rational_stochastic(rng, 2)
    markov = {"kind": "markov", "q": 2, "k": 3, "P": [[frac_str(p) for p in r] for r in P]}
    return [
        correlations_job(inputs, potts, scaled_couplings(1, potts_table(3, J)), 7),   # 382 vertices
        correlations_job(inputs, markov, scaled_couplings(1, markov_table(P)), 5),    # 485 vertices
    ]


# --- classify-batch -----------------------------------------------------------

def classify_job(inputs, name: str, spec: dict, expect: Callable[[dict], None],
                 command: str = "classify") -> Job:
    path = inputs.write(name, spec)

    def check(out: CliOutput):
        expect(expect_ok(out))

    def perturb(out):
        if command == "markov-check":
            return with_report(out, condition_holds=not out.report["condition_holds"])
        flipped = "incommensurable" if out.report["verdict"] == "III_family" else "III_family"
        return with_report(out, verdict=flipped)

    return cli_job(inputs, f"{command}-{name}", [command, "--model", path], check, perturb)


def expect_lattice(q: int, generator: Callable[[Any], bool], sample_ok=None):
    """A III_family verdict, a matching generator and q^4 multipliers."""
    def expect(rep: dict):
        require(rep["verdict"] == "III_family", f"verdict {rep['verdict']}, expected III_family")
        require(generator(rep["generator"]), f"generator {rep['generator']} is not the built one")
        mults = rep["multipliers"]
        require(len(mults) == q**4, f"{len(mults)} multipliers, expected {q**4}")
        if sample_ok is not None:
            for entry in mults[:: max(1, len(mults) // 16)]:
                require(sample_ok(entry["quad"], entry["m"]), f"multiplier {entry} is wrong")
    return expect


def expect_incommensurable(rep: dict):
    require(rep["verdict"] == "incommensurable", f"verdict {rep['verdict']}, expected incommensurable")
    require(rep["generator"] is None and rep["multipliers"] is None, "generator reported")


def exact_table_jobs(inputs, rng, q: int, tag: str) -> list[Job]:
    lam = [[rand_fraction(rng, -12, 12) for _ in range(q)] for _ in range(q)]
    lam[0][1] = lam[0][0] + Fraction(1, 2)
    beta = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    g = table_generator(beta, lam)
    spec = {"kind": "generic", "q": q, "k": 2, "beta": frac_str(beta),
            "lambda": [[frac_str(v) for v in r] for r in lam]}

    def mult_ok(quad, m):
        i, j, k, l = quad
        return beta * (lam[i][j] - lam[k][l]) == m * g

    J = rand_fraction(rng, -8, 8, dens=(1, 2, 3, 5))
    J = J or Fraction(1, 3)
    pbeta, pJ = split_beta(rng, J)
    potts = {"kind": "potts", "q": q, "k": 2, "beta": frac_str(pbeta), "J": frac_str(pJ)}
    return [
        classify_job(inputs, f"exact-q{q}-{tag}", spec,
                     expect_lattice(q, lambda s: Fraction(s) == g, mult_ok)),
        # Potts differences are 0 and +-beta*J, so the generator is |beta*J|.
        classify_job(inputs, f"potts-q{q}-{tag}", potts,
                     expect_lattice(q, lambda s: Fraction(s) == abs(J))),
    ]


def float_table_jobs(inputs, rng, q: int, tag: str) -> list[Job]:
    noise = {"kind": "generic", "q": q, "k": 2, "beta": float(rng.uniform(0.5, 2.0)),
             "lambda": rng.uniform(-1.0, 1.0, size=(q, q)).tolist()}
    # Integer multiples of sqrt(2)*scale whose differences have gcd 1, so g = sqrt(2)*scale.
    ints = rng.integers(-6, 7, size=(q, q))
    ints[0, 1] = ints[0, 0] + 1
    scale = int(rng.integers(1, 4))
    g = math.sqrt(2) * scale
    surd = {"kind": "generic", "q": q, "k": 2, "beta": 1.0,
            "lambda": (math.sqrt(2) * scale * ints).tolist()}
    return [
        classify_job(inputs, f"float-q{q}-{tag}", noise, expect_incommensurable),
        classify_job(inputs, f"sqrt2-q{q}-{tag}", surd,
                     expect_lattice(q, lambda x: x is not None and abs(x - g) <= 1e-9 * g)),
    ]


def stochastic_jobs(inputs, rng, q: int, tag: str) -> list[Job]:
    """Rational stochastic matrices, with and without a geometric lattice.

    Lattice: every row is a permutation of alpha^{m_1..m_q} / S, so
    p_00/p_ij = alpha^{m_00 - m_ij}, the primitive witness is alpha^G with
    G the gcd of the exponent differences, and g = G log(1/alpha).
    No lattice: rows hold weights 1, 2 and 3 (ratios 2 and 3 are
    multiplicatively independent), or for q = 2 the primes 2 and p >= 5.
    """
    alpha = Fraction(*[(1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (3, 7)][int(rng.integers(6))])
    m = [int(v) for v in rng.integers(0, 5, size=q)]
    m[1] = m[0] + int(rng.integers(1, 3))
    weights = [alpha**e for e in m]
    perms = [list(range(q))] + [list(rng.permutation(q)) for _ in range(q - 1)]
    expo = [[m[p] for p in perm] for perm in perms]
    P = [[weights[p] / sum(weights) for p in perm] for perm in perms]
    G = rational_gcd(e - m[0] for e in m).numerator
    witness = alpha**G
    g = G * math.log(1 / alpha)
    exps = [[(expo[0][0] - e) // G for e in row] for row in expo]

    if q == 2:
        p = int(rng.choice([5, 7, 11]))
        free = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, p), Fraction(p - 1, p)]]
    else:
        w = [1, 2, 3] + [int(v) for v in rng.integers(1, 7, size=q - 3)]
        free = [[Fraction(w[i], sum(w)) for i in rng.permutation(q)] for _ in range(q)]

    def lattice_check(rep):
        require(rep["condition_holds"] is True, "lattice matrix reported without a lattice")
        require(rep["alpha"] == frac_str(witness), f"alpha {rep['alpha']}, expected {witness}")
        require(rep["exponents"] == exps, "exponents disagree with the built matrix")

    def free_check(rep):
        require(rep["condition_holds"] is False, "rank-2 ratios reported as one lattice")

    def as_spec(rows):
        return {"kind": "markov", "q": q, "k": 2, "P": [[frac_str(v) for v in r] for r in rows]}

    return [
        classify_job(inputs, f"stoch-q{q}-{tag}", as_spec(P),
                     expect_lattice(q, lambda x: x is not None and abs(x - g) <= 1e-12 * g)),
        classify_job(inputs, f"stoch-q{q}-{tag}", as_spec(P), lattice_check, "markov-check"),
        classify_job(inputs, f"stochfree-q{q}-{tag}", as_spec(free), expect_incommensurable),
        classify_job(inputs, f"stochfree-q{q}-{tag}", as_spec(free), free_check, "markov-check"),
    ]


def classify_batch(inputs, rng) -> list[Job]:
    jobs = []
    for tag in ("a", "b", "c"):
        for q in range(2, 9):
            jobs += exact_table_jobs(inputs, rng, q, tag)
            jobs += float_table_jobs(inputs, rng, q, tag)
            jobs += stochastic_jobs(inputs, rng, q, tag)
    return jobs


JOB_LISTS = {
    "fields-sweep": fields_sweep,
    "exact-enumeration": exact_enumeration,
    "tree-elimination": tree_elimination,
    "classify-batch": classify_batch,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's job list; the same seed writes the same files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return JOB_LISTS[workload](Inputs(workdir), rng)
