"""Per-layer timing from outside the program.

:func:`traced` wraps the public functions at each layer boundary for the
duration of a ``with`` block and restores the originals afterwards.  A
wrapper records a span (self time = its duration minus its child spans)
and, where the layer has one, a count taken from the call's result.
Wrappers pass arguments and results through untouched, so a traced run
produces the same outputs as an untraced one; the benchmark checks this.

Functions a module imported by name are wrapped where the caller looks
them up (``repro.core.lbchat.pairwise_chat``, not ``repro.core.chat``).
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Root spans the benchmark opens around a set-up and a run.
SETUP, ENGINE = "setup", "engine"


class Tracer:
    """A span stack that accumulates self time, calls and counts per layer."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [layer, start, child seconds]

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()


# -- counts taken from call results -------------------------------------------


def _count_collect(tracer, result):
    tracer.counts["sim.dataset.frames"] += sum(len(d) for d in result.values())


def _count_bev(tracer, result):
    tracer.counts["sim.bev.frames"] += len(result)


def _count_chat(tracer, result):
    tracer.counts["core.chat.chats"] += 1
    tracer.counts["core.chat.aborted"] += bool(result.aborted)
    tracer.counts["core.chat.model_chats"] += result.i_received_model or result.j_received_model


def _count_transfer(tracer, result):
    tracer.counts["net.channel.transfers"] += 1
    tracer.counts["net.channel.bytes"] += result.bytes_delivered
    tracer.counts["net.channel.cut"] += not result.completed


def _count_absorb(tracer, result):
    tracer.counts["core.node.frames_absorbed"] += result


def _count_checkpoint(tracer, result):
    json_path = Path(result)
    tracer.counts["checkpoint.bytes"] += (
        json_path.stat().st_size + json_path.with_suffix(".npz").stat().st_size
    )


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: where it is looked up and which layer it is."""

    module: str
    attr: str  # "name" or "Class.method"
    layer: str
    #: Open the span only under these parent layers; elsewhere the call's
    #: time stays with its parent.
    only_under: tuple[str, ...] = ()
    count: Callable | None = None


BOUNDARIES = (
    # set-up: world driving, dataset collection, BEV rendering, traces
    Boundary("repro.experiments.runner", "collect_fleet_datasets", "sim.dataset.collect", count=_count_collect),
    Boundary("repro.sim.world", "World.step", "sim.world.step"),
    Boundary("repro.sim.dataset", "render_fleet_bev", "sim.bev.render", count=_count_bev),
    Boundary("repro.experiments.runner", "simulate_traces", "sim.traces.simulate"),
    # partner selection
    Boundary("repro.core.trainer_base", "TrainerBase.idle_neighbors", "core.selection.select"),
    Boundary("repro.core.trainer_base", "TrainerBase.contact_estimate", "core.selection.select"),
    Boundary("repro.sim.traces", "MobilityTraces.neighbors", "sim.traces.neighbors"),
    # the chat and what it calls
    Boundary("repro.core.lbchat", "pairwise_chat", "core.chat.chat", count=_count_chat),
    Boundary("repro.core.node", "VehicleNode.evaluate", "core.node.cross_eval", only_under=("core.chat.chat",)),
    Boundary("repro.core.node", "VehicleNode.build_psi_map", "core.psi.psi_map"),
    Boundary("repro.core.chat", "optimize_compression", "core.psi.optimize"),
    Boundary("repro.core.node", "VehicleNode.compress_model", "compression.topk.compress"),
    Boundary("repro.core.chat", "simulate_transfer", "net.channel.transfer", count=_count_transfer),
    Boundary("repro.core.node", "VehicleNode.receive_and_aggregate", "core.node.aggregate"),
    Boundary("repro.core.node", "VehicleNode.absorb_coreset", "core.node.absorb", count=_count_absorb),
    Boundary("repro.core.node", "VehicleNode.refresh_coreset", "core.node.refresh"),
    # fleet training and validation
    Boundary("repro.core.fleet", "FleetEngine.train_step_all", "core.fleet.step"),
    Boundary("repro.nn.bank", "FleetWaypointNet.forward", "nn.bank.forward", only_under=("core.fleet.step",)),
    Boundary("repro.nn.bank", "FleetWaypointNet.backward", "nn.bank.backward"),
    Boundary("repro.nn.bank", "FleetAdam.step", "nn.bank.adam"),
    Boundary("repro.core.fleet", "FleetEngine.evaluate_fleet", "core.fleet.validate"),
    # checkpoints
    Boundary("repro.core.trainer_base", "TrainerBase.checkpoint_barrier", "checkpoint.snapshot"),
    Boundary("repro.checkpoint.store", "RunStore.save_checkpoint", "checkpoint.save", count=_count_checkpoint),
)

#: Layers timed during the set-up and during the run.
SETUP_LAYERS = ("sim.dataset.collect", "sim.world.step", "sim.bev.render", "sim.traces.simulate")
RUN_LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES if b.layer not in SETUP_LAYERS))


def _wrap(tracer: Tracer, boundary: Boundary, original: Callable) -> Callable:
    layer, only_under, count = boundary.layer, boundary.only_under, boundary.count

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if only_under and tracer.parent not in only_under:
            return original(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            count(tracer, result)
        return result

    return wrapper


def resolve(boundary: Boundary) -> tuple[object, str]:
    """The (module or class, attribute name) a boundary patches."""
    owner = importlib.import_module(boundary.module)
    *path, name = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def traced(tracer: Tracer):
    """Wrap every boundary for the block; restore the originals after it."""
    restore = []
    try:
        for boundary in BOUNDARIES:
            owner, name = resolve(boundary)
            original = owner.__dict__[name]
            restore.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, boundary, original))
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def layer_metrics(setup: Tracer, run: Tracer, n_nodes: int) -> dict[str, float]:
    """The per-layer metrics of one traced set-up and one traced run."""
    out = {f"{layer}_s": setup.self_s[layer] for layer in SETUP_LAYERS}
    out["sim.world.steps"] = setup.calls["sim.world.step"]
    out["sim.dataset.frames"] = setup.counts["sim.dataset.frames"]
    out["sim.bev.frames"] = setup.counts["sim.bev.frames"]
    out.update({f"{layer}_s": run.self_s[layer] for layer in RUN_LAYERS})
    chats = run.counts["core.chat.chats"]
    out["core.chat.chats"] = chats
    out["core.chat.aborted"] = run.counts["core.chat.aborted"]
    out["core.chat.model_share"] = run.counts["core.chat.model_chats"] / chats if chats else 0.0
    out["core.psi.psi_maps"] = run.calls["core.psi.psi_map"]
    transfers = run.counts["net.channel.transfers"]
    out["net.channel.transfers"] = transfers
    out["net.channel.bytes"] = run.counts["net.channel.bytes"]
    out["net.channel.cut_share"] = run.counts["net.channel.cut"] / transfers if transfers else 0.0
    out["core.node.frames_absorbed"] = run.counts["core.node.frames_absorbed"]
    instants = run.calls["core.fleet.step"]
    out["core.fleet.instants"] = instants
    train_s = sum(
        run.self_s[layer]
        for layer in ("core.fleet.step", "nn.bank.forward", "nn.bank.backward", "nn.bank.adam")
    )
    out["core.fleet.node_steps_per_s"] = instants * n_nodes / train_s if train_s else 0.0
    saves = run.calls["checkpoint.save"]
    out["checkpoint.saves"] = saves
    out["checkpoint.bytes"] = run.counts["checkpoint.bytes"] / saves if saves else 0.0
    out["engine.unattributed_s"] = run.self_s[ENGINE]
    out["engine.unattributed_share"] = run.self_s[ENGINE] / run.total_s[ENGINE]
    out["trace.run_s"] = run.total_s[ENGINE]
    return out


def layer_sum_error(run: Tracer) -> float:
    """|layer rows + unattributed - traced run_s| as a share of run_s."""
    rows = sum(run.self_s[layer] for layer in RUN_LAYERS) + run.self_s[ENGINE]
    total = run.total_s[ENGINE]
    return abs(rows - total) / total
