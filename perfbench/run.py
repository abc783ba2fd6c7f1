#!/usr/bin/env python3
"""The repo benchmark: one paper-world workload, measured end to end or per layer.

From the root of a checkout:

    python3 perfbench/run.py --workload lbchat-paper --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of traced repeats.  The last stdout line is
the result JSON (``correct``, ``attempted``, ``failed``, ``metrics``);
the line before it holds the host/run manifest and the raw samples.
Without the program sources (``src/repro``) it exits non-zero and
prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the output digests (and the
# repo's goldens) hold only with single-threaded BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files of a run (kernel cache, checkpoints) stay in the checkout.
WORK_ROOT = ROOT / ".perfbench_work"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(WORK_ROOT / "kernels")
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    fused = harness.warm_fused_kernel()
    work_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        measure = harness.measure_traced if args.trace else harness.measure
        outcome = measure(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "manifest": harness.manifest(ROOT, workload, args.seed, args.seconds, bool(args.trace), fused),
        "samples": outcome.samples,
        "check_failures": [f for f in outcome.failures if f],
    }
    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload.name:16s} {name:32s} {value:14.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
