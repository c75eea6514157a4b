"""One workload in one fresh, single-threaded interpreter.

Run by ``run.py`` with BLAS/OpenMP pinned to one thread; prints one JSON
record as its last line.  A pass runs every job of the workload once, in
order, timing only the call into treegibbs; outputs are read and checked
after the clock stops.  Passes repeat until the next one would overrun
``--seconds``.  With ``--trace 1`` untraced and traced passes alternate,
and the traced ones supply the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from reference import CheckError
from speed import calibrate, to_reference
from tracer import Tracer

KERNEL_EVERY_S = 0.5   # ~10% of a run goes to the calibration kernel


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


class Runner:
    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0
        self.kernel: list[float] = []       # calibration kernel times, taken between jobs
        self._last_kernel = 0.0

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """One pass over the job list; returns the seconds spent inside treegibbs."""
        gc.collect()
        busy = 0.0
        self.report_bytes = 0
        for job in self.jobs:
            self.attempted += 1
            if tracer is not None:
                tracer.job = job.name
            try:
                start = time.perf_counter()
                raw = job.run()
                busy += time.perf_counter() - start
                out = job.read(raw)
                self.report_bytes += getattr(out, "nbytes", 0)
                job.check(out)
            except CheckError as exc:
                self.failures.append(f"{job.name}: {exc}")
            except Exception:   # a crashing job is a failed job; keep measuring the rest
                self.failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
            if time.perf_counter() - self._last_kernel > KERNEL_EVERY_S:
                self.kernel.append(calibrate())
                self._last_kernel = time.perf_counter()
        return busy


def layer_metrics(tracer: Tracer, runner: Runner, wall: float) -> dict:
    """Per-layer numbers of one traced pass (times in s, counts per pass)."""
    c = tracer.counts
    s = tracer.seconds
    calls = tracer.calls

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    enumerate_s = s("measures._enumerate_configs", "measures._edge_energies")
    return {
        "topology.build_ball.s": s("topology.build_ball"),
        "topology.vertices": c["topology.vertices"],
        "model.parse.s": s("cli.parse_model", "model.model_from_dict"),
        "model.lam_float.calls": c["model.lam_float.calls"],
        "fields.recursion_map.calls": calls("fields.recursion_map"),
        "fields.recursion_map.s": s("fields.recursion_map"),
        "fields.propagate_fields.s": s("fields.propagate_fields"),
        "fields.propagate.vertices_per_s": rate(c["fields.propagate.vertices"],
                                                s("fields.propagate_fields")),
        "fields.ti_fixed_points.s": s("fields.ti_fixed_points"),
        "fields.ti_fixed_points.map_calls": calls("fields.recursion_map", under="fields.ti_fixed_points"),
        "fields.ti_fixed_points.converged_ratio": rate(c["fields.ti_fixed_points.converged"],
                                                       c["fields.ti_fixed_points.starts"]),
        "measures.configs": c["measures.configs"],
        "measures.enumerate.s": enumerate_s,
        "measures.configs_per_s": rate(c["measures.configs"], enumerate_s),
        "measures.marginalize.s": s("measures.marginalize"),
        "measures.alloc_peak_mb": tracer.alloc_peak / 2**20,
        "measures.two_point_correlation.calls": calls("measures.two_point_correlation"),
        "measures.elimination.s": s("measures.two_point_correlation"),
        "measures.elimination.vertex_sweeps": c["measures.elimination.vertex_sweeps"],
        "classifier.classify.calls": calls("classifier.classify"),
        "classifier.classify.s": s("classifier.classify"),
        "classifier.multipliers": c["classifier.multipliers"],
        "classifier.spectrum.s": s("classifier.finite_volume_spectrum",
                                   "classifier.spectrum_lattice_check"),
        "cli.main.self_s": tracer.self_seconds().get("cli.main", 0.0),
        "cli.report_bytes": runner.report_bytes,
        "pass.wall_s": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir)
    try:
        jobs = workloads.build(args.workload, args.seed, args.workdir)
        runner = Runner(jobs)
        tracer = Tracer() if args.trace else None
        plain: list[float] = []
        traced: list[dict] = []
        loop: list[float] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(runner.run_pass())
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    wall = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                traced.append(layer_metrics(tracer, runner, wall))
            loop.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(loop) > args.seconds:
                break
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_pass": len(jobs), "passes": len(plain),
        "wall_s": quartiles([to_reference(w, runner.kernel) for w in plain]),
        "raw_wall_s": quartiles(plain), "pass_walls_s": plain, "kernel_s": runner.kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }
    if tracer is not None:
        # Counts are identical in every traced pass (see counts_repeat); times take the median.
        layers = {name: first if isinstance(first, int) else statistics.median(p[name] for p in traced)
                  for name, first in traced[0].items()}
        layers["trace.overhead_frac"] = layers.pop("pass.wall_s") / record["raw_wall_s"]["median"] - 1
        record["layers"] = layers
        record["counts_repeat"] = all(p[name] == first for p in traced
                                      for name, first in traced[0].items() if isinstance(first, int))
        record["self_s"] = dict(sorted(tracer.self_seconds().items()))
        os.makedirs(args.outdir, exist_ok=True)
        tracer.dump(os.path.join(args.outdir, f"spans-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed, "pass": len(traced)})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
