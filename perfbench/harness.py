"""Measurement loops: end-to-end metrics untraced, per-layer metrics traced.

Both loops repeat cold set-ups and runs until the next one would overrun
the time budget, with a floor on repeats so the digest of a repeat can
be compared with the first.  Checks run outside the timed regions and
count a failed run against the attempted ones.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import ENGINE, SETUP, Tracer, layer_metrics, layer_sum_error, traced
from workloads import Workload, build_cold, check_run, digest, receive_rate, run_once, warm_up

#: Cold set-ups and runs per measurement, at least (the digest check
#: needs two runs).
MIN_REPEATS = 2

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("final_loss", "loss"),
    ("receive_rate", "ratio"),
)

#: Units of the per-layer metrics that are not seconds.
_LAYER_UNITS = {
    "sim.world.steps": "count",
    "sim.dataset.frames": "count",
    "sim.bev.frames": "count",
    "core.chat.chats": "count",
    "core.chat.aborted": "count",
    "core.chat.model_share": "ratio",
    "core.psi.psi_maps": "count",
    "net.channel.transfers": "count",
    "net.channel.bytes": "B",
    "net.channel.cut_share": "ratio",
    "core.node.frames_absorbed": "count",
    "core.fleet.instants": "count",
    "core.fleet.node_steps_per_s": "1/s",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "B",
    "engine.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name, "s")


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: One list of check failures per attempted run (empty = correct).
    failures: list[list[str]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)

    def result(self) -> dict:
        """The benchmark's final JSON line."""
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_fused_kernel() -> bool:
    """Load (compiling once if needed) the fused Adam kernel; True if it loaded."""
    from repro.nn._fused import fused_adam_step

    return fused_adam_step() is not None


def _next_fits(started: float, seconds: float, last: float) -> bool:
    return perf_counter() - started + last <= seconds


def _setup(workload: Workload, seed: int, tracer: Tracer | None = None):
    """One cold set-up; returns (context, seconds)."""
    t0 = perf_counter()
    if tracer is None:
        context = build_cold(workload.scale(seed))
    else:
        with traced(tracer), tracer.span(SETUP):
            context = build_cold(workload.scale(seed))
    return context, perf_counter() - t0


def _run(workload, context, seed, checkpoint_dir, reference, tracer=None):
    """One timed run, then its checks outside the timing.

    Returns (result, seconds, digest, failures).
    """
    t0 = perf_counter()
    if tracer is None:
        result = run_once(workload, context, seed, checkpoint_dir)
    else:
        with traced(tracer), tracer.span(ENGINE):
            result = run_once(workload, context, seed, checkpoint_dir)
    seconds = perf_counter() - t0
    run_digest = digest(result)
    failures = check_run(workload, result, run_digest, reference, checkpoint_dir)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return result, seconds, run_digest, failures


def measure(workload: Workload, seed: int, seconds: float, work_dir: Path) -> Outcome:
    """End-to-end metrics, tracing off.

    The first ``MIN_REPEATS`` runs each follow their own cold set-up;
    later runs reuse the last context (``run_method`` copies the
    datasets it mutates), so short runs get more samples.
    """
    outcome = Outcome()
    warm_up(workload, work_dir)
    setups, runs = [], []
    reference = final_loss = rate = None
    started = perf_counter()
    while True:
        if len(setups) < MIN_REPEATS:
            context = None  # free the last context before building the next
            context, took = _setup(workload, seed)
            setups.append(took)
        result, took, run_digest, failures = _run(
            workload, context, seed, work_dir / f"ckpt-{len(runs)}", reference
        )
        runs.append(took)
        outcome.failures.append(failures)
        if reference is None:
            reference, final_loss, rate = run_digest, result.final_loss(), receive_rate(result)
        del result
        gc.collect()
        next_cost = runs[-1] + (setups[-1] if len(setups) < MIN_REPEATS else 0.0)
        if len(runs) >= MIN_REPEATS and not _next_fits(started, seconds, next_cost):
            break
    outcome.samples = {"setup_s": setups, "run_s": runs}
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "peak_rss_mb": peak_rss_mb(),
        "final_loss": final_loss,
        "receive_rate": rate,
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return outcome


def measure_traced(workload: Workload, seed: int, seconds: float, work_dir: Path) -> Outcome:
    """Per-layer metrics: an untraced and a traced set-up and run, repeated.

    Checks on top of the end-to-end ones: a traced run's digest equals the
    untraced run's (the wrappers are transparent), and the traced layer
    rows plus ``engine.unattributed_s`` sum to the traced ``run_s``.
    """
    outcome = Outcome()
    warm_up(workload, work_dir)
    untraced_runs, layer_rows = [], []
    reference = None
    started = perf_counter()
    while True:
        t0 = perf_counter()
        context, _ = _setup(workload, seed)
        result, took, run_digest, failures = _run(
            workload, context, seed, work_dir / "ckpt-untraced", reference
        )
        untraced_runs.append(took)
        outcome.failures.append(failures)
        reference = reference or run_digest
        context = result = None
        gc.collect()

        setup_tracer, run_tracer = Tracer(), Tracer()
        context, _ = _setup(workload, seed, setup_tracer)
        result, _, _, failures = _run(
            workload, context, seed, work_dir / "ckpt-traced", reference, run_tracer
        )
        if setup_tracer.depth or run_tracer.depth:
            failures.append("a span was left open")
        error = layer_sum_error(run_tracer)
        if error > 1e-6:
            failures.append(f"layer rows miss the traced run_s by {error:.2e} of it")
        outcome.failures.append(failures)
        layer_rows.append(layer_metrics(setup_tracer, run_tracer, len(result.nodes)))
        context = result = None
        gc.collect()
        if not _next_fits(started, seconds, perf_counter() - t0):
            break
    values = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    values["trace.overhead_share"] = values["trace.run_s"] / statistics.median(untraced_runs) - 1.0
    outcome.samples = {
        "untraced_run_s": untraced_runs,
        "trace.run_s": [row["trace.run_s"] for row in layer_rows],
    }
    outcome.metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    return outcome


# -- manifest -----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, asked through its C API."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "libscipy_openblas64_*.so")):
        get_num_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        return int(get_num_threads())
    return None


def _commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def manifest(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, fused: bool) -> dict:
    """Host and run manifest: what two results must share to be compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "fused_adam_kernel": fused,
        },
        "run": {
            "commit": _commit(root),
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "sizes": workload.sizes(seed),
        },
    }
