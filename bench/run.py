"""treegibbs benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Measures set-up (importing
``treegibbs`` and ``treegibbs.cli`` in fresh interpreters), then runs the
workload in a fresh single-threaded worker interpreter and prints one JSON
object as the last line of standard output: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A fuller record
(pass count, quartiles, failures, self times) goes to ``.bench_out/``.
Exits non-zero without a result when the package cannot be imported from
``src/`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from speed import calibrate, to_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fields-sweep", "exact-enumeration", "tree-elimination", "classify-batch")
SETUP_SAMPLES = 5
TIMEOUT = 170

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import treegibbs, treegibbs.cli; "
    "print(time.perf_counter() - t, treegibbs.__file__)"
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # glibc's adaptive mmap threshold lets large arrays land on the heap, where
    # fragmentation made peak RSS read 606, 638 or 810 MB for the same jobs.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    env.pop("PYTHONSTARTUP", None)
    return env


def import_seconds(env) -> float:
    """Seconds to import the package in a fresh interpreter; fails unless it comes from src/."""
    proc = subprocess.run([sys.executable, "-s", "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import treegibbs from {SRC}:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise SystemExit(f"treegibbs imported from {path}, not from {SRC}")
    return float(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    env = worker_env()
    import_seconds(env)   # the first import also writes the bytecode cache
    setup, kernel = [], []
    for _ in range(SETUP_SAMPLES):
        kernel.append(calibrate())
        setup.append(import_seconds(env))
    kernel.append(calibrate())

    outdir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--outdir", outdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s = to_reference(statistics.median(setup), kernel)
    record["setup_s"] = {"value": setup_s, "raw_samples": setup, "kernel_s": kernel}

    if args.trace:
        metrics = {m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]}
                   for m in per_layer}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"record-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: record[k] for k in ("workload", "seed", "passes", "jobs_per_pass",
                                      "wall_s", "raw_wall_s")}
    summary["failed_frac"] = record["failed"] / record["attempted"]
    summary["failures"] = record["failures"][:3]
    print(json.dumps(summary))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
