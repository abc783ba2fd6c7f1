"""A vehicle learner node: model + dataset + coreset + training state.

The node bundles everything one vehicle owns in Algorithm 2 and exposes
the operations the chat protocol and the baselines need.  It is
transport-agnostic: all communication timing lives in
:mod:`repro.core.chat` and the trainers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression import CompressedModel, compress_topk, decompress
from repro.core.aggregate import aggregate_models, aggregation_weights
from repro.core.psi import DEFAULT_PSI_GRID, PsiLossMap, build_psi_map
from repro.coreset import (
    Coreset,
    PenaltyConfig,
    merge_coresets,
    penalized_loss,
    reduce_coreset,
)
from repro.nn import Adam, waypoint_l1
from repro.nn.params import get_flat_params, set_flat_params, shared_probe
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks as telemetry

__all__ = ["NodeConfig", "VehicleNode"]

#: Cache-miss evaluations run through the model in batches of at most
#: this many frames — a memory guard for very large datasets.  Kept
#: large so realistic miss sets still evaluate in a single forward,
#: exactly like the pre-vectorization code (batch composition affects
#: BLAS accumulation order, and bit-identity with recorded goldens
#: depends on it).
_EVAL_CHUNK = 8192

#: Slot-vector memos kept per node before the memo table is reset
#: (short-lived subset datasets would otherwise accumulate entries).
_MAX_SLOT_MEMOS = 64


@dataclass(frozen=True)
class NodeConfig:
    """Per-vehicle learning parameters (paper defaults from §IV-A)."""

    coreset_size: int = 150
    batch_size: int = 64
    learning_rate: float = 1e-4
    nominal_model_bytes: int = 52 * 1024 * 1024
    bandwidth_bps: float = 31e6
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    psi_grid: tuple[float, ...] = DEFAULT_PSI_GRID
    #: Rebuild the coreset after this many absorbed coresets/train steps.
    coreset_refresh_steps: int = 25
    #: Merge-and-reduce instead of full rebuilds while the dataset is
    #: growing quickly (§III-D improvement).
    use_merge_reduce: bool = True
    #: Coreset construction strategy: "layered" (Algorithm 1),
    #: "uniform" or "kmeans" (§V alternatives).
    coreset_strategy: str = "layered"
    #: Model compressor: "topk" (§III-C) or "quantize" (the alternative
    #: the paper notes can be dropped in).
    compressor: str = "topk"
    #: Stratify minibatches uniformly over commands — the standard
    #: branched-imitation trick (rare turn branches starve otherwise).
    balance_commands: bool = True
    #: Apply Eq. 6's L2 term during *training* as decoupled weight decay
    #: (evaluations always include it via the penalty config).
    train_with_weight_decay: bool = False
    #: Hard cap on live loss-cache entries (0 = unbounded, the paper
    #: scales).  City-scale fleets set this so per-node resident state
    #: stays O(coreset + validation) instead of growing with every
    #: frame that ever churned through a merge.  Enforced after each
    #: cache write; when even the current-version entries exceed the
    #: budget the cache is dropped wholesale (it is a pure recompute
    #: cache, so correctness is unaffected).
    loss_cache_budget: int = 0


class VehicleNode:
    """One vehicle's learning state and LbChat operations."""

    def __init__(
        self,
        node_id: str,
        model,
        dataset: DrivingDataset,
        config: NodeConfig,
        rng: np.random.Generator,
    ):
        if len(dataset) == 0:
            raise ValueError(f"node {node_id} needs a non-empty local dataset")
        self.node_id = node_id
        self.model = model
        self.dataset = dataset
        self.config = config
        self.rng = rng
        weight_decay = (
            config.penalty.lambda_l2 if config.train_with_weight_decay else 0.0
        )
        self.optimizer = Adam(
            model.parameters(), lr=config.learning_rate, weight_decay=weight_decay
        )
        self.model_version = 0
        self.train_steps = 0
        #: Read-only flat view of this node's bank row once a
        #: :class:`~repro.core.fleet.FleetEngine` adopts the node.
        self._bank_flat: np.ndarray | None = None
        # Loss cache, vectorized: frame ids map to slots in flat
        # version/value arrays, so lookups over a whole dataset are two
        # fancy-indexing operations instead of a per-frame dict walk.
        self._cache_slots: dict[str, int] = {}
        self._cache_versions = np.full(64, -1, dtype=np.int64)
        self._cache_values = np.zeros(64, dtype=np.float32)
        self._cache_epoch = 0
        #: dataset uid -> (generation, epoch, id→slot vector) memo.
        self._slot_memo: dict[int, tuple[int, int, np.ndarray]] = {}
        self._steps_since_refresh = 0
        self.coreset: Coreset = self.refresh_coreset()

    # -- fleet attachment ----------------------------------------------------

    def bind_bank(self, flat_row: np.ndarray, optimizer) -> None:
        """Adopt bank-backed storage (called by ``FleetEngine``).

        ``flat_row`` is a read-only flat view of this node's bank row;
        ``optimizer`` is the per-row facade replacing the standalone
        Adam.  The model's ``Parameter`` objects were already rebound to
        bank views by :meth:`~repro.nn.bank.ParamBank.adopt`, so every
        per-node operation keeps working — this just records the
        zero-copy handles.
        """
        self._bank_flat = flat_row
        self.optimizer = optimizer

    # -- training ------------------------------------------------------------

    def train_step(self) -> float:
        """One weighted minibatch SGD step; returns the batch loss."""
        bev, commands, targets, _ = self.dataset.sample_batch(
            self.config.batch_size,
            self.rng,
            balance_commands=self.config.balance_commands,
        )
        pred = self.model.forward(bev, commands)
        scalar, _, grad = waypoint_l1(pred, targets)
        self.model.zero_grad()
        self.model.backward(grad)
        self.optimizer.step()
        self.model_version += 1
        self.train_steps += 1
        self._steps_since_refresh += 1
        return scalar

    # -- evaluation ------------------------------------------------------------

    def _slots_for(self, dataset: DrivingDataset) -> np.ndarray:
        """Cache-slot row per frame of ``dataset`` (memoized per generation).

        New frame ids are assigned slots on first sight; the resulting
        vector is reused until the dataset mutates or the cache is
        compacted, so the per-id dict walk happens once per dataset
        generation instead of once per evaluation.
        """
        memo = self._slot_memo.get(dataset.uid)
        if (
            memo is not None
            and memo[0] == dataset.generation
            and memo[1] == self._cache_epoch
        ):
            return memo[2]
        ids = dataset.ids
        slots = np.empty(len(ids), dtype=np.intp)
        cache_slots = self._cache_slots
        for i, frame_id in enumerate(ids):
            slot = cache_slots.get(frame_id)
            if slot is None:
                slot = len(cache_slots)
                if slot >= self._cache_versions.size:
                    grown = max(2 * self._cache_versions.size, slot + 1)
                    versions = np.full(grown, -1, dtype=np.int64)
                    versions[: self._cache_versions.size] = self._cache_versions
                    values = np.zeros(grown, dtype=np.float32)
                    values[: self._cache_values.size] = self._cache_values
                    self._cache_versions, self._cache_values = versions, values
                cache_slots[frame_id] = slot
            slots[i] = slot
        if len(self._slot_memo) >= _MAX_SLOT_MEMOS:
            self._slot_memo.clear()
        self._slot_memo[dataset.uid] = (dataset.generation, self._cache_epoch, slots)
        return slots

    def _evict_stale_losses(self) -> None:
        """Drop cache entries from superseded model versions.

        Provably behaviour-neutral: ``model_version`` only increases, so
        a stale entry can never produce a cache hit again — it would
        only sit in memory.  Compacting on refresh bounds the cache by
        the number of frames evaluated at the current version, fixing
        the unbounded growth the per-id dict suffered as frames churned
        through merged/reduced coresets and validation evaluations.
        """
        used = len(self._cache_slots)
        live = self._cache_versions[:used] == self.model_version
        if bool(live.all()):
            return
        remap = np.cumsum(live) - 1  # old slot -> new slot (where live)
        self._cache_slots = {
            frame_id: int(remap[slot])
            for frame_id, slot in self._cache_slots.items()
            if live[slot]
        }
        n_live = len(self._cache_slots)
        capacity = max(64, n_live)
        versions = np.full(capacity, -1, dtype=np.int64)
        values = np.zeros(capacity, dtype=np.float32)
        versions[:n_live] = self._cache_versions[:used][live]
        values[:n_live] = self._cache_values[:used][live]
        self._cache_versions, self._cache_values = versions, values
        self._cache_epoch += 1  # invalidate memoized slot vectors
        self._slot_memo.clear()

    @property
    def loss_cache_size(self) -> int:
        """Number of frames with a (possibly stale) cached loss."""
        return len(self._cache_slots)

    def _enforce_cache_budget(self) -> None:
        """Keep the loss cache within ``config.loss_cache_budget``.

        Tries the behaviour-neutral stale compaction first; if the
        current-version entries alone exceed the budget, drops the
        cache entirely — later evaluations recompute, trading time for
        the bounded footprint city-scale fleets need.
        """
        budget = self.config.loss_cache_budget
        if budget <= 0 or len(self._cache_slots) <= budget:
            return
        self._evict_stale_losses()
        if len(self._cache_slots) <= budget:
            return
        self._cache_slots = {}
        self._cache_versions = np.full(64, -1, dtype=np.int64)
        self._cache_values = np.zeros(64, dtype=np.float32)
        self._cache_epoch += 1
        self._slot_memo.clear()

    def per_sample_losses(self, dataset: DrivingDataset) -> np.ndarray:
        """Per-sample waypoint losses of the current model on ``dataset``.

        Cached by (model version, frame id): Eq. 8 and Algorithm 1 reuse
        losses heavily, and the paper calls out caching them (§III-D).
        Lookups are vectorized over slot arrays; misses are evaluated in
        chunked batched forwards and written back in bulk.
        """
        n = len(dataset)
        losses = np.zeros(n, dtype=np.float32)
        if n == 0:
            return losses
        slots = self._slots_for(dataset)
        hit = self._cache_versions[slots] == self.model_version
        if hit.any():
            losses[hit] = self._cache_values[slots[hit]]
        miss = np.flatnonzero(~hit)
        if miss.size:
            bev, commands, targets, _ = dataset.arrays()
            for start in range(0, miss.size, _EVAL_CHUNK):
                chunk = miss[start : start + _EVAL_CHUNK]
                pred = self.model.infer(bev[chunk], commands[chunk])
                _, per_sample, _ = waypoint_l1(pred, targets[chunk])
                losses[chunk] = per_sample
                chunk_slots = slots[chunk]
                self._cache_values[chunk_slots] = losses[chunk]
                self._cache_versions[chunk_slots] = self.model_version
            self._enforce_cache_budget()
        return losses

    def cached_losses(self, dataset: DrivingDataset) -> tuple[np.ndarray, np.ndarray | None]:
        """``(slots, values)`` if the whole dataset hits the loss cache.

        ``values`` is ``None`` on any miss — the fleet engine then
        recomputes the node's losses in one batched forward and writes
        them back via :meth:`store_losses`.
        """
        slots = self._slots_for(dataset)
        hit = self._cache_versions[slots] == self.model_version
        if hit.all():
            return slots, self._cache_values[slots]
        return slots, None

    def store_losses(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Write externally computed per-sample losses into the cache."""
        self._cache_values[slots] = values
        self._cache_versions[slots] = self.model_version
        self._enforce_cache_budget()

    def evaluate(self, dataset: DrivingDataset, with_penalty: bool = True) -> float:
        """Weighted loss of the current model on ``dataset`` (Eq. 6)."""
        losses = self.per_sample_losses(dataset)
        _, commands, _, weights = dataset.arrays()  # cached views, no re-stack
        if with_penalty and self.config.penalty.enabled:
            return penalized_loss(
                self.flat_params, losses, commands, weights, self.config.penalty
            )
        total = weights.sum()
        return float(losses @ (weights / total))

    def evaluate_params(self, flat: np.ndarray, dataset: DrivingDataset) -> float:
        """Weighted loss (Eq. 6) of *arbitrary* parameters — uncached.

        Scores e.g. a received peer model or a psi-map level on the
        shared :class:`~repro.nn.params.ParamProbe` of this node's
        architecture; passing the probe's own buffer skips the copy.
        """
        probe = shared_probe(self.model)
        probe.load(flat)
        bev, commands, targets, weights = dataset.arrays()
        pred = probe.model.infer(bev, commands)
        scalar, per_sample, _ = waypoint_l1(pred, targets, weights=weights)
        if self.config.penalty.enabled:
            return penalized_loss(probe.flat, per_sample, commands, weights, self.config.penalty)
        return scalar

    # -- coreset ------------------------------------------------------------

    def refresh_coreset(self) -> Coreset:
        """Rebuild the coreset from the local dataset.

        Uses the configured construction strategy — Algorithm 1 layered
        sampling by default, or the §V alternatives.
        """
        from repro.coreset.strategies import build_coreset_with

        losses = self.per_sample_losses(self.dataset)
        self.coreset = build_coreset_with(
            self.config.coreset_strategy,
            self.dataset,
            losses,
            self.config.coreset_size,
            self.rng,
        )
        self._steps_since_refresh = 0
        self._evict_stale_losses()
        telemetry.on_coreset_refresh(self.node_id, len(self.coreset))
        return self.coreset

    def maybe_refresh_coreset(self) -> None:
        """Rebuild the coreset if the refresh interval elapsed."""
        if self._steps_since_refresh >= self.config.coreset_refresh_steps:
            self.refresh_coreset()

    def absorb_coreset(self, received: Coreset) -> int:
        """Expand the local dataset with a received coreset (§III-D).

        Original sample weights are reset to the local convention (all
        equal, per the paper).  Returns the number of new frames.
        Afterwards the own coreset is updated — by merge-and-reduce when
        configured, else it will be rebuilt on the next refresh.
        """
        added = self.dataset.absorb_from(received.data, weight=1.0)
        if added and self.config.use_merge_reduce:
            merged = merge_coresets(self.coreset, received)
            losses = self.per_sample_losses(merged.data)
            self.coreset = reduce_coreset(
                merged, losses, self.config.coreset_size, self.rng
            )
            telemetry.on_coreset_merge(self.node_id, added)
        return added

    # -- model exchange ------------------------------------------------------------

    def build_psi_map(self) -> PsiLossMap:
        """Fit phi: compression level -> loss on the own coreset.

        Every level is written straight into the shared probe's buffer
        and scored there.  The default top-k compressor samples the
        grid from one magnitude sort (see
        :func:`repro.core.psi.build_psi_map`); quantization compresses
        per psi.
        """
        compress_fn = None
        if self.config.compressor != "topk":
            compress_fn = lambda flat, psi: self.compress_model(psi)  # noqa: E731
        coreset = self.coreset.data
        return build_psi_map(
            self.flat_params,
            lambda params: self.evaluate_params(params, coreset),
            psi_grid=self.config.psi_grid,
            compress_fn=compress_fn,
            out=shared_probe(self.model).flat,
        )

    def compress_model(self, psi: float) -> CompressedModel:
        """Compress the current parameters to relative size ~psi.

        Top-k sparsification by default; "quantize" maps psi to the
        nearest bit width (quantization offers discrete size levels).
        """
        flat = self.flat_params
        if self.config.compressor == "quantize":
            from repro.compression import compress_quantize

            bits = int(np.clip(round(psi * 32), 1, 32))
            return compress_quantize(flat, bits, self.config.nominal_model_bytes)
        return compress_topk(flat, psi, self.config.nominal_model_bytes)

    def receive_and_aggregate(
        self,
        compressed: CompressedModel,
        eval_set: DrivingDataset,
        mean_weights: bool = False,
    ) -> tuple[float, float]:
        """Materialize a received model and merge it in with Eq. 8.

        The sparse model is overlaid on the local parameters (unsent
        coordinates keep local values), both models are scored on
        ``eval_set`` (typically C_i ∪ C_j), and the loss-weighted
        combination replaces the local parameters.  ``mean_weights``
        forces a plain 0.5/0.5 average (the §IV-F ablation).

        Returns the (w_local, w_received) weights used.
        """
        local = self.flat_params
        received = decompress(compressed, fill=local)
        if mean_weights:
            weights = (0.5, 0.5)
            merged = aggregate_models(local, received, 1.0, 1.0)
        else:
            loss_local = self.evaluate(eval_set)
            loss_received = self.evaluate_params(received, eval_set)
            merged = aggregate_models(local, received, loss_local, loss_received)
            weights = aggregation_weights(loss_local, loss_received)
        set_flat_params(self.model, merged)
        self.model_version += 1
        return weights

    def replace_model_params(self, flat: np.ndarray) -> None:
        """Overwrite parameters (used by server-based baselines)."""
        set_flat_params(self.model, flat)
        self.model_version += 1

    @property
    def flat_params(self) -> np.ndarray:
        """The model's parameters as one flat float32 vector.

        Bank-attached nodes return a *read-only view* of their bank row
        — zero-copy, always current, safe to hand to compression and
        aggregation (both read before any write-back).  Detached nodes
        concatenate a fresh copy as before.
        """
        if self._bank_flat is not None:
            return self._bank_flat
        return get_flat_params(self.model)

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Full node state as a checkpointable tree.

        The RNG is deliberately absent: trainers re-derive every stream
        at checkpoint barriers (``spawn_rng(seed, f"node-{{id}}@ckpt{{k}}")``),
        so no bit-generator state ever needs to round-trip through disk.
        The loss cache *is* captured — which frames miss determines the
        batch composition of the next evaluation, and BLAS accumulation
        order (hence bit-identity) depends on it.
        """
        from repro.checkpoint.state import dataset_state

        used = len(self._cache_slots)
        cache_ids = sorted(self._cache_slots, key=self._cache_slots.__getitem__)
        return {
            "params": get_flat_params(self.model),
            "optimizer": self.optimizer.snapshot(),
            "model_version": self.model_version,
            "train_steps": self.train_steps,
            "steps_since_refresh": self._steps_since_refresh,
            "dataset": dataset_state(self.dataset),
            "coreset_data": dataset_state(self.coreset.data),
            "coreset_source_weights": self.coreset.source_weights.copy(),
            "cache_ids": cache_ids,
            "cache_versions": self._cache_versions[:used].copy(),
            "cache_values": self._cache_values[:used].copy(),
        }

    def restore(self, state) -> None:
        """Overwrite all node state with a snapshot's contents.

        The slot memo is *not* restored: it is a pure recomputation
        cache keyed by dataset generation, and generation counters start
        over in a resumed process — bumping the cache epoch invalidates
        every stale memo instead.
        """
        from repro.checkpoint.state import dataset_from_state

        set_flat_params(self.model, np.asarray(state["params"]))
        self.optimizer.restore(state["optimizer"])
        self.model_version = int(state["model_version"])
        self.train_steps = int(state["train_steps"])
        self._steps_since_refresh = int(state["steps_since_refresh"])
        self.dataset = dataset_from_state(state["dataset"])
        self.coreset = Coreset(
            data=dataset_from_state(state["coreset_data"]),
            source_weights=np.asarray(state["coreset_source_weights"], dtype=float),
        )
        cache_ids = [str(frame_id) for frame_id in state["cache_ids"]]
        self._cache_slots = {frame_id: i for i, frame_id in enumerate(cache_ids)}
        used = len(cache_ids)
        capacity = max(64, used)
        self._cache_versions = np.full(capacity, -1, dtype=np.int64)
        self._cache_values = np.zeros(capacity, dtype=np.float32)
        self._cache_versions[:used] = np.asarray(state["cache_versions"], dtype=np.int64)
        self._cache_values[:used] = np.asarray(state["cache_values"], dtype=np.float32)
        self._cache_epoch += 1
        self._slot_memo.clear()
