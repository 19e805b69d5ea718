"""Benchmark of pre-training, fine-tuning and scoring, end to end or traced per module.

    python3 bench/run.py --workload pretrain-b4 --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout, with numpy's BLAS pinned to one thread. The timed phase
repeats one workload with one seed until ``--seconds`` have passed and
reports the median repetition; ``--trace 1`` instead alternates traced and
untraced training steps and reports the per-module numbers. Every run then
checks the program's outputs against computations made apart from it. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where that is not readable."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            start_ticks = int(fh.read().rsplit(b")", 1)[1].split()[19])
        with open("/proc/uptime", "rb") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0



def _import_program():
    if not os.path.isfile(os.path.join(SRC, "crossmodal", "__init__.py")):
        sys.exit(f"bench: no crossmodal package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import crossmodal
    if not os.path.abspath(crossmodal.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: crossmodal imported from {crossmodal.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # interpreter start-up before this file ran, from /proc in 10 ms ticks
    startup_s = max(0.0, _process_age() - (time.perf_counter() - _T_START))
    args = parse_args(argv)
    _import_program()
    import measure  # imports numpy, after the BLAS pin above
    from workloads import SPECS, Workload

    if args.workload not in SPECS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(SPECS)}")
    out_root = os.path.join(ROOT, ".bench_runs")
    workdir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        job = Workload(args.workload, args.seed, workdir)
        setup_s = startup_s + (time.perf_counter() - _T_START)
        if args.trace:
            result = measure.traced(job, args.seconds, out_root)
        else:
            result = measure.end_to_end(job, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
