"""Fleet-batched training engine over a shared parameter bank.

Every trainer runs all vehicles' local iterations in lock-step — the
discrete-event loop fires each vehicle's train timer at the same
instants, and busy state gates communication only, never training.  The
:class:`FleetEngine` exploits that: when the first vehicle of an instant
fires, it samples every node's minibatch, runs one batched
forward/backward over a :class:`~repro.nn.bank.ParamBank`, and applies a
vectorized Adam step for the whole fleet; the remaining vehicles of the
instant just pick up their precomputed loss.

The engine is strictly an execution strategy.  Nodes keep their own
:class:`~repro.core.node.VehicleNode` API — chats, compression,
psi-probes, checkpoints all operate on per-node views into the bank
(see :mod:`repro.nn.bank`), so attaching the engine changes *where*
tensors live, not what any protocol sees.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.node import _EVAL_CHUNK, VehicleNode
from repro.nn._fused import fused_adam_step
from repro.nn.bank import FleetAdam, FleetWaypointNet, ParamBank, RowAdam
from repro.nn.losses import fleet_waypoint_l1, waypoint_l1
from repro.nn.model import WaypointNet
from repro.nn.optim import Adam
from repro.parallel.stepshard import (
    ShmArena,
    StepShard,
    StepWorkerError,
    StepWorkerPool,
    fork_available,
    partition_rows,
)
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks

__all__ = ["FleetEngine", "FleetIncompatible"]


class FleetIncompatible(ValueError):
    """The node set cannot share one parameter bank."""


class FleetEngine:
    """Batched forward/backward/update for a homogeneous vehicle fleet.

    Construction adopts every node into a shared :class:`ParamBank`
    (rebinding its ``Parameter`` storage to bank views), imports each
    node's optimizer state into one :class:`FleetAdam`, and swaps the
    node's optimizer for a :class:`RowAdam` facade.  Raises
    :class:`FleetIncompatible` when the nodes differ in model structure
    or optimizer hyperparameters — use :meth:`try_build` to fall back to
    per-node training gracefully.
    """

    def __init__(self, nodes: list[VehicleNode], step_workers: int = 1):
        if len(nodes) < 2:
            raise FleetIncompatible("fleet batching needs at least two nodes")
        first = nodes[0]
        if not isinstance(first.model, WaypointNet):
            raise FleetIncompatible(f"cannot batch {type(first.model).__name__}")
        for node in nodes:
            if not isinstance(node.model, WaypointNet):
                raise FleetIncompatible(f"cannot batch {type(node.model).__name__}")
            if type(node.optimizer) is not Adam:
                raise FleetIncompatible(
                    f"cannot batch optimizer {type(node.optimizer).__name__}"
                )
        opt = first.optimizer
        key = (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay)
        for node in nodes:
            o = node.optimizer
            if (o.lr, o.beta1, o.beta2, o.eps, o.weight_decay) != key:
                raise FleetIncompatible("nodes disagree on Adam hyperparameters")
        # When step sharding is requested (and the platform can fork),
        # the parameter/gradient banks and Adam state go into one shared
        # memory arena so forked workers can update their rows in place.
        n = len(nodes)
        requested = max(1, int(step_workers))
        if requested > 1 and not fork_available():
            warnings.warn(
                "step_workers requires the fork start method; "
                "falling back to serial fleet stepping",
                RuntimeWarning,
                stacklevel=2,
            )
            requested = 1
        self.step_workers = requested
        allocator = None
        self._bank_arena: ShmArena | None = None
        if requested > 1:
            n_params = sum(
                int(np.prod(p.data.shape)) if p.data.shape else 1
                for p in first.model.parameters()
            )
            self._bank_arena = ShmArena(
                ShmArena.bytes_for(
                    ((n, n_params), np.float32),  # bank.flat
                    ((n, n_params), np.float32),  # bank.grad_flat
                    ((n, n_params), np.float32),  # optim.m
                    ((n, n_params), np.float32),  # optim.v
                    ((n,), np.int64),  # optim.steps
                )
            )
            allocator = self._bank_arena.alloc
        # Validate everything (structure, batchable layer types) before
        # mutating any node, so a failed build leaves the fleet intact.
        bank = ParamBank(first.model, len(nodes), allocator=allocator)
        try:
            model = FleetWaypointNet(bank, first.model)
            for node in nodes:
                bank._check_compatible(node.model)
        except ValueError as exc:
            raise FleetIncompatible(str(exc)) from exc
        self.nodes = nodes
        self.bank = bank
        self.model = model
        self.optim = FleetAdam(
            bank,
            lr=opt.lr,
            betas=(opt.beta1, opt.beta2),
            eps=opt.eps,
            weight_decay=opt.weight_decay,
            allocator=allocator,
        )
        for row, node in enumerate(nodes):
            self.optim.node_restore(row, node.optimizer.snapshot())
            bank.adopt(row, node.model)
            node.bind_bank(
                bank.row_view(row),
                RowAdam(self.optim, row, node.model.parameters()),
            )
        self._pending: np.ndarray | None = None
        self._consumed = np.ones(len(nodes), dtype=bool)
        self._batch_bufs: tuple[np.ndarray, ...] | None = None
        # The worker pool spawns lazily at the first full-size batched
        # step (the stacked batch shapes are only known then).
        self._pool: StepWorkerPool | None = None
        self._pool_failed = requested <= 1
        self._batch_arena: ShmArena | None = None
        self._shm_batch: tuple[np.ndarray, ...] | None = None
        self._shm_losses: np.ndarray | None = None

    @classmethod
    def try_build(
        cls, nodes: list[VehicleNode], step_workers: int = 1
    ) -> "FleetEngine | None":
        """A :class:`FleetEngine`, or ``None`` if the fleet can't batch."""
        try:
            return cls(nodes, step_workers=step_workers)
        except FleetIncompatible:
            return None

    # -- training ------------------------------------------------------------

    def train_tick(self, row: int) -> float:
        """One vehicle's train event inside the lock-step instant.

        The first vehicle of an instant triggers the batched step for
        the whole fleet; later vehicles of the same instant consume
        their precomputed loss.  A vehicle firing twice without the
        others in between (never in the event loop, possible in direct
        calls) simply starts a fresh batch.
        """
        if self._pending is None or self._consumed[row]:
            self._pending = self.train_step_all()
            self._consumed[:] = False
        self._consumed[row] = True
        return float(self._pending[row])

    def train_step_all(self) -> np.ndarray:
        """One batched minibatch step for every node; per-node losses.

        Minibatches are sampled from each node's own RNG in row order —
        the same draws, in the same order, as per-node lock-step
        training.
        """
        nodes = self.nodes
        samples = [
            node.dataset.sample_batch(
                node.config.batch_size,
                node.rng,
                balance_commands=node.config.balance_commands,
            )
            for node in nodes
        ]
        sizes = {sample[0].shape[0] for sample in samples}
        if len(sizes) > 1:
            # Ragged batches (a dataset still smaller than its batch
            # size) cannot stack; train those rows individually.
            return np.array(
                [self._train_detached(node, s) for node, s in zip(nodes, samples)]
            )
        b = samples[0][0].shape[0]
        if not self._pool_failed and b == nodes[0].config.batch_size:
            losses = self._pool_step(samples, b)
            if losses is not None:
                return losses
        bev, commands, targets = self._stack_batches(samples)
        pred = self.model.forward(bev, commands)
        scalars, _, grad = fleet_waypoint_l1(pred, targets)
        # No zero_grad: the batched backward assigns parameter gradients.
        self.model.backward(grad)
        self.optim.step()
        for node in nodes:
            node.model_version += 1
            node.train_steps += 1
            node._steps_since_refresh += 1
        return np.asarray(scalars, dtype=np.float64)

    def _stack_batches(
        self, samples: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack per-node minibatches into persistent ``(n, b, ...)`` buffers.

        Reusing the buffers step over step avoids re-faulting tens of
        megabytes of freshly mmap'd pages on every training instant.
        """
        bufs = self._batch_bufs
        shapes = tuple((len(samples), *samples[0][k].shape) for k in range(3))
        if bufs is None or tuple(buf.shape for buf in bufs) != shapes:
            bufs = self._batch_bufs = tuple(
                np.empty(shape, dtype=samples[0][k].dtype)
                for k, shape in enumerate(shapes)
            )
        for row, sample in enumerate(samples):
            bufs[0][row] = sample[0]
            bufs[1][row] = sample[1]
            bufs[2][row] = sample[2]
        return bufs

    @staticmethod
    def _train_detached(node: VehicleNode, sample) -> float:
        """Per-node step on an already-sampled batch (ragged fallback)."""
        bev, commands, targets, _ = sample
        pred = node.model.forward(bev, commands)
        scalar, _, grad = waypoint_l1(pred, targets)
        node.model.zero_grad()
        node.model.backward(grad)
        node.optimizer.step()
        node.model_version += 1
        node.train_steps += 1
        node._steps_since_refresh += 1
        return scalar

    # -- step-worker pool ----------------------------------------------------

    def _spawn_pool(self, samples: list) -> None:
        """Fork the step-worker pool around the first full-size batch.

        Allocates the shared batch/loss buffers (shapes are known now),
        slices the bank and optimizer into contiguous row shards, warms
        the fused Adam kernel so workers inherit the loaded library
        instead of racing to compile, and forks one worker per shard.
        Failure to spawn degrades to serial batched stepping.
        """
        n = len(self.nodes)
        try:
            specs = [((n, *samples[0][k].shape), samples[0][k].dtype) for k in range(3)]
            arena = ShmArena(ShmArena.bytes_for(*specs, ((n,), np.float64)))
            bufs = tuple(arena.alloc(shape, dtype) for shape, dtype in specs)
            losses = arena.alloc((n,), np.float64)
            fused_adam_step()
            template = self.nodes[0].model
            shards = []
            for i, (lo, hi) in enumerate(partition_rows(n, self.step_workers)):
                bank_slice = self.bank.slice_rows(lo, hi)
                shards.append(
                    StepShard(
                        i,
                        lo,
                        hi,
                        FleetWaypointNet(bank_slice, template),
                        self.optim.slice_rows(lo, hi, bank_slice),
                        *bufs,
                        losses,
                    )
                )
            pool = StepWorkerPool(shards)
        except (StepWorkerError, OSError, MemoryError) as exc:
            warnings.warn(
                f"could not spawn step workers ({exc}); "
                "falling back to serial fleet stepping",
                RuntimeWarning,
            )
            self._pool_failed = True
            return
        self._batch_arena = arena
        self._shm_batch = bufs
        self._shm_losses = losses
        self._pool = pool
        hooks.count("stepshard.pools_spawned")
        hooks.set_gauge("stepshard.workers", pool.n_workers)

    def _pool_step(self, samples: list, b: int) -> np.ndarray | None:
        """One sharded batched step; None routes to the serial path.

        The parent has already drawn every node's minibatch (keeping all
        RNG consumption in one process, in row order); here it stages the
        stacked batch into the shared buffers and fans the step command
        out to the workers, which update their disjoint bank rows in
        place.  The per-node losses land in shared memory — returning a
        copy *is* the merge.
        """
        if self._pool is None:
            self._spawn_pool(samples)
            if self._pool is None:
                return None
        bev, commands, targets = self._shm_batch
        if samples[0][0].shape != bev.shape[1:]:
            # Batch geometry changed mid-run (never in the event loop);
            # the pre-sized shared buffers can't take it — step serially.
            return None
        for row, sample in enumerate(samples):
            bev[row] = sample[0]
            commands[row] = sample[1]
            targets[row] = sample[2]
        self._pool.step(b)
        hooks.count("stepshard.steps")
        for node in self.nodes:
            node.model_version += 1
            node.train_steps += 1
            node._steps_since_refresh += 1
        return self._shm_losses.copy()

    def close(self) -> None:
        """Stop the step workers (if any) and merge their telemetry.

        Idempotent; the engine keeps working afterwards on the serial
        batched path (the banks themselves stay valid — they are views
        into an arena this object owns).
        """
        pool, self._pool = self._pool, None
        self._pool_failed = True
        if pool is None:
            return
        for shard, counters in pool.close().items():
            for name, value in counters.items():
                hooks.count(f"stepshard.shard{shard}.{name}", value)

    # -- evaluation ----------------------------------------------------------

    def evaluate_fleet(self, dataset: DrivingDataset) -> np.ndarray:
        """Every node's weighted validation loss, one batched forward.

        Nodes whose loss cache fully covers ``dataset`` at their current
        model version keep their cached values (identical semantics to
        :meth:`VehicleNode.per_sample_losses`); the rest are recomputed
        together by broadcasting the shared validation batch against the
        whole bank, then written back to each node's cache.
        """
        nodes = self.nodes
        n_nodes = len(nodes)
        n = len(dataset)
        if n == 0:
            return np.zeros(n_nodes)
        bev, commands, targets, weights = dataset.arrays()
        slots_list: list[np.ndarray] = []
        values: list[np.ndarray | None] = []
        need = []
        for i, node in enumerate(nodes):
            slots, cached = node.cached_losses(dataset)
            slots_list.append(slots)
            values.append(cached)
            if cached is None:
                need.append(i)
        if need:
            fresh = np.empty((n_nodes, n), dtype=np.float32)
            # Keep total forward work per chunk near the per-node cap.
            chunk = max(1, _EVAL_CHUNK // n_nodes)
            for start in range(0, n, chunk):
                sl = slice(start, start + chunk)
                pred = self.model.forward(bev[sl], commands[sl])
                fresh[:, sl] = np.abs(pred - targets[sl]).mean(axis=2)
            for i in need:
                values[i] = fresh[i]
                nodes[i].store_losses(slots_list[i], fresh[i])
        norm = weights / weights.sum()
        return np.array([float(vals @ norm) for vals in values])
