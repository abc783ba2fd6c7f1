"""The benchmark's workloads, how each builds and runs, and its output checks.

A workload is one method trained on the paper world (``PAPER``: 32
vehicles, 1 km town with 50 background cars and 250 pedestrians,
150-sample coresets, 52 MB nominal model) with horizons trimmed so two
cold set-ups and two runs fit one benchmark run.  The workload seed
picks both the world (``WorldConfig.seed``) and the run
(``RunSpec.seed``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.experiments import runner
from repro.experiments.configs import CI, PAPER, ExperimentScale
from repro.experiments.runner import RunResult, RunSpec
from repro.sim.world import WorldConfig

#: Virtual seconds of mobility trace beyond the training horizon.
TRACE_MARGIN_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    method: str
    #: Virtual seconds of expert driving collected per vehicle.
    collect_s: float
    #: Collaborative-training horizon T (virtual seconds).
    horizon_s: float
    #: Barrier checkpoint cadence (virtual seconds), or None.
    checkpoint_every: float | None = None
    base: ExperimentScale = PAPER

    def scale(self, seed: int) -> ExperimentScale:
        """The workload's scale for one seed (the seed picks the world)."""
        return self.base.derived(
            f"{self.name}-seed{seed}",
            world={"seed": seed},
            collect_duration=self.collect_s,
            trace_duration=self.horizon_s + TRACE_MARGIN_S,
            train_duration=self.horizon_s,
        )

    def spec(self, scale: ExperimentScale, seed: int, checkpoint_dir: Path | None) -> RunSpec:
        """The run: default paths (sync chats, fleet batching, one step worker)."""
        return RunSpec(
            method=self.method,
            scale=scale,
            wireless=True,
            seed=seed,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=str(checkpoint_dir) if self.checkpoint_every else None,
        )

    def sizes(self, seed: int) -> dict:
        """The sizes the manifest records."""
        from repro.core.node import NodeConfig

        scale = self.scale(seed)
        world = scale.world
        return {
            "method": self.method,
            "world_seed": world.seed,
            "run_seed": seed,
            "vehicles": world.n_vehicles,
            "map_size_m": world.map_size,
            "background_cars": world.n_background_cars,
            "pedestrians": world.n_pedestrians,
            "collect_s": scale.collect_duration,
            "trace_s": scale.trace_duration,
            "horizon_s": scale.train_duration,
            "train_interval_s": scale.train_interval,
            "coreset_size": scale.coreset_size,
            "nominal_model_bytes": NodeConfig().nominal_model_bytes,
            "checkpoint_every_s": self.checkpoint_every,
        }


#: Why each workload exists: BENCHMARK.json and README.md.  Horizons are
#: the longest at which two cold set-ups and two runs fit a 36 s
#: measurement on a 2-core host; horizons are multiples of the 2 s
#: ``train_interval`` so the train-step check is exact.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lbchat-paper", "LbChat", collect_s=20.0, horizon_s=36.0),
        Workload("sco-paper", "SCO", collect_s=20.0, horizon_s=60.0),
        Workload("dfl-ckpt-paper", "DFL-DDS", collect_s=20.0, horizon_s=60.0, checkpoint_every=15.0),
    )
}


#: The hotpath-smoke world: 3 vehicles on a 400 m map (warm-up and tests).
TINY = CI.derived(
    "perfbench-tiny",
    world=WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=3,
        n_background_cars=2,
        n_pedestrians=5,
        min_route_length=120.0,
    ),
    train_interval=2.0,
    record_interval=10.0,
    coreset_size=6,
)


# -- set-up and run -----------------------------------------------------------


def build_cold(scale: ExperimentScale) -> runner.ExperimentContext:
    """``build_context`` with neither the per-process memo nor a disk cache.

    ``build_context`` memoizes on ``scale.name`` and never reads the disk
    cache; dropping the memo entry first makes every call a full build.
    """
    runner._context_cache.pop(scale.name, None)
    context = runner.build_context(scale)
    runner._context_cache.pop(scale.name, None)
    return context


def run_once(workload: Workload, context, seed: int, checkpoint_dir: Path | None) -> RunResult:
    """One ``run_method`` call; a checkpointed run gets a fresh, empty dir.

    A reused dir would let ``run_with_checkpoints`` resume from the last
    barrier of an earlier run and time a no-op.
    """
    if workload.checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError(f"{workload.name} needs a checkpoint dir")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        checkpoint_dir.mkdir(parents=True)
    spec = workload.spec(context.scale, seed, checkpoint_dir)
    return runner.run_method(context, spec)


def warm_up(workload: Workload, work_dir: Path) -> None:
    """Build and run the workload's method once on the tiny world.

    Imports and first-call costs then land before timing starts; the
    paper-world context is still built cold every time.
    """
    tiny = Workload(
        workload.name,
        workload.method,
        collect_s=10.0,
        horizon_s=10.0,
        checkpoint_every=5.0 if workload.checkpoint_every else None,
        base=TINY,
    )
    checkpoint_dir = work_dir / "warm-up"
    run_once(tiny, build_cold(tiny.scale(0)), 0, checkpoint_dir)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)


# -- outputs ------------------------------------------------------------------


def receive_rate(result: RunResult) -> float:
    """Completed over attempted receives of what the method shares.

    Models for LbChat and DFL-DDS (the §IV-C receive rate).  SCO never
    sends a model, so there it is coresets: chats whose coreset stage
    completed over chats that reached that stage.
    """
    if result.method != "SCO":
        return result.receive_rate
    records = result.trainer.chat_log.records
    attempted = sum(1 for r in records if r.aborted != "assist")
    completed = sum(1 for r in records if r.coresets_exchanged)
    return completed / attempted if attempted else 0.0


def initial_loss(result: RunResult) -> float:
    """Mean fleet validation loss at t = 0."""
    values = []
    for key in result.loss_recorder.keys():
        times, losses = result.loss_recorder.series(key)
        if len(times) == 0 or times[0] != 0.0:
            raise ValueError(f"series {key!r} has no sample at t = 0")
        values.append(losses[0])
    return float(np.mean(values))


def digest(result: RunResult) -> str:
    """SHA-256 over the loss curve, counters, receive counts and chat log."""
    h = hashlib.sha256()
    recorder = result.loss_recorder
    for key in recorder.keys():
        times, losses = recorder.series(key)
        h.update(key.encode())
        h.update(np.ascontiguousarray(times, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(losses, dtype=np.float64).tobytes())
    h.update(json.dumps(sorted(result.counters.items())).encode())
    h.update(f"{result.receive_completed}/{result.receive_attempted}".encode())
    chat_log = getattr(result.trainer, "chat_log", None)
    if chat_log is not None:
        h.update(json.dumps([asdict(r) for r in chat_log.records]).encode())
    return h.hexdigest()


def check_run(
    workload: Workload,
    result: RunResult,
    run_digest: str,
    reference_digest: str | None,
    checkpoint_dir: Path | None,
) -> list[str]:
    """Every output check on one run; returns the failures (empty = correct).

    The dfl-ckpt-paper barrier load re-reads files, so callers run this
    outside the timed region.
    """
    failures = []
    if reference_digest is not None and run_digest != reference_digest:
        failures.append(f"digest {run_digest[:12]} != first repeat {reference_digest[:12]}")
    scale = result.spec.scale
    expected_steps = scale.world.n_vehicles * scale.train_duration / scale.train_interval
    if result.counters.get("train_steps") != expected_steps:
        failures.append(
            f"train_steps {result.counters.get('train_steps')} != {expected_steps:g}"
        )
    final, start = result.final_loss(), initial_loss(result)
    if not (math.isfinite(final) and final < start):
        failures.append(f"final_loss {final} is not finite and below the t=0 loss {start}")
    rate = receive_rate(result)
    if not 0.0 <= rate <= 1.0:
        failures.append(f"receive_rate {rate} outside [0, 1]")
    if workload.checkpoint_every is not None:
        failures.extend(_check_last_barrier(workload, result, checkpoint_dir))
    return failures


def _check_last_barrier(workload: Workload, result: RunResult, checkpoint_dir: Path) -> list[str]:
    """The last barrier is on disk, loads, and its SHA-256 verifies."""
    from repro.checkpoint.format import CheckpointError
    from repro.checkpoint.policy import CheckpointPolicy
    from repro.checkpoint.store import RunStore

    expected = CheckpointPolicy(every=workload.checkpoint_every).barriers(
        result.spec.scale.train_duration
    )
    last, at = expected[-1]
    store = RunStore(checkpoint_dir)
    saved = store.barriers(result.spec)
    if not saved or saved[-1] != last:
        return [f"last saved barrier {saved[-1:]} != expected {last}"]
    try:
        state = store.load_checkpoint(result.spec, last)  # verifies the SHA-256
    except CheckpointError as exc:
        return [f"barrier {last} does not load: {exc}"]
    if float(state["time"]) != at:
        return [f"barrier {last} holds time {state['time']}, expected {at}"]
    return []
