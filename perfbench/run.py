#!/usr/bin/env python3
"""Benchmark of the failsynth pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-clean --seed 808 --seconds 30 --trace 0

Workloads: pipeline-clean, gate-mixed, replay-eval (see perfbench/README.md).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced part of the run with ``--trace 1``.
The line before it records the environment, seeds, batches and checks.
Exit code 0 when every output check passed, 1 when one failed, 2 on bad
arguments or a checkout without the failsynth sources.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seeds": {"workload": seed, "config": seed, "prediction_mix": seed},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="pipeline-clean, gate-mixed or replay-eval")
    ap.add_argument("--seed", type=int, default=808)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured time; whole batches, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "failsynth" / "__init__.py").is_file():
        print(f"perfbench: no failsynth sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads; the judge process inherits it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.WORKLOADS)}")
    work = ROOT / ".perfbench_work"
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      work / args.workload)
    try:
        work.rmdir()
    except OSError:
        pass  # another workload's files are still there
    report = out["report"]
    report["environment"] = environment(args.seed)
    for name in report["not_measured"]:
        print(f"perfbench: {name} does not exist; its metrics read 0",
              file=sys.stderr)
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
