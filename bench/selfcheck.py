"""Show that every checker can fail: feed each job a perturbed output.

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

Run from the root of a source checkout with ``src`` importable (run.py's
environment, or PYTHONPATH=src).  Each job runs once; its real output must
pass its check, and the output after the job's ``perturb`` must count as a
failure in the same accounting the benchmark uses.  Exits 1 if any real
output fails or any perturbed output passes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import replace

import workloads
from worker import Runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    bad = 0
    for name in args.workload:
        workdir = os.path.join(os.getcwd(), ".bench_work", f"selfcheck-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            for job in workloads.build(name, args.seed, workdir):
                raw = job.run()
                replay = replace(job, call=lambda raw=raw: raw)
                honest = Runner([replay])
                honest.run_pass()
                broken = Runner([replace(replay, read=lambda r, j=job: j.perturb(j.read(r)))])
                broken.run_pass()
                ok = not honest.failures and len(broken.failures) == 1
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name}/{job.name}: "
                      f"real output {'failed: ' + honest.failures[0] if honest.failures else 'passed'}; "
                      f"perturbed output {'rejected' if broken.failures else 'ACCEPTED'}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} checker problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
