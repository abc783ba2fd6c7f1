"""DP — Decentralized Powerloss gossip learning (Dinani et al.).

Asynchronous gossip: whenever an idle vehicle finds an idle neighbor it
exchanges models (no coresets, no value assessment; a random neighbor —
there is no route sharing to rank them).  The receiver evaluates the
received model on its *local* dataset and derives the merge weight from
a normalized logarithmic function of the loss: a received model with
much lower loss than the local one dominates the merge, and vice versa.

Per §IV-B the method runs under the same communication constraints as
LbChat, with the compression ratio fixed per encounter to fit the
contact duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import decompress
from repro.core.chat import equal_compression_decision
from repro.core.trainer_base import TrainerBase, TrainerConfig
from repro.net.channel import simulate_transfer

__all__ = ["DpConfig", "DpTrainer", "powerloss_weights"]


def powerloss_weights(loss_local: float, loss_received: float) -> tuple[float, float]:
    """Normalized-log loss weights: lower loss -> larger weight.

    Each model's score is ``-log`` of its share of the total loss; the
    weights are the normalized scores.  Equal losses give 0.5/0.5.
    """
    if loss_local < 0 or loss_received < 0:
        raise ValueError("losses must be non-negative")
    total = loss_local + loss_received
    if total <= 0:
        return 0.5, 0.5
    eps = 1e-6
    score_local = -np.log(max(loss_local / total, eps))
    score_received = -np.log(max(loss_received / total, eps))
    denom = score_local + score_received
    if denom <= 0:
        return 0.5, 0.5
    return float(score_local / denom), float(score_received / denom)


@dataclass
class DpConfig(TrainerConfig):
    #: Frames of the local dataset used as the gossip validation slice.
    """DP gossip timeline configuration."""
    validation_slice: int = 64


class DpTrainer(TrainerBase):
    """Loss-based gossip merging without coresets."""

    name = "DP"

    def __init__(self, nodes, traces, validation, config: DpConfig | None = None):
        super().__init__(nodes, traces, validation, config or DpConfig())
        self.config: DpConfig

    def on_scan(self, i: int) -> None:
        """Gossip with a uniformly random idle neighbor."""
        candidates = self.idle_neighbors(i)
        if not candidates:
            return
        rng = self.nodes[i].rng
        j = int(candidates[rng.integers(len(candidates))])
        self._gossip(i, j)

    def _gossip(self, i: int, j: int) -> None:
        now = self.sim.now
        node_i, node_j = self.nodes[i], self.nodes[j]
        estimate = self.contact_estimate(i, j, node_i.config.nominal_model_bytes)
        contact = max(estimate.contact_duration, 1.0)
        bandwidth = min(node_i.config.bandwidth_bps, node_j.config.bandwidth_bps)
        # Raw-bandwidth planning: like DFL-DDS, DP sizes its exchange
        # without loss-aware estimation, so lossy links overrun contacts.
        decision = equal_compression_decision(
            node_i.config.nominal_model_bytes,
            bandwidth,
            self.config.time_budget,
            contact,
        )
        distance_fn = self.pair_distance_fn(i, j)
        deadline = now + min(contact, self.config.time_budget)
        elapsed = 0.0
        for sender, receiver, psi in (
            (node_i, node_j, decision.psi_i),
            (node_j, node_i, decision.psi_j),
        ):
            if psi <= 0:
                continue
            compressed = sender.compress_model(psi)
            sent = simulate_transfer(
                compressed.nominal_bytes,
                distance_fn,
                self.wireless,
                self.config.channel,
                now + elapsed,
                deadline,
            )
            elapsed += sent.elapsed
            self.receive_rate.observe(receiver.node_id, sent.completed)
            if sent.completed:
                self._merge(receiver, decompress(compressed, fill=receiver.flat_params))
        self.occupy(i, elapsed)
        self.occupy(j, elapsed)
        self.note_chat(i, j)
        self.counters.add("gossips")

    def _merge(self, node, received_params: np.ndarray) -> None:
        # Evaluate both models on a slice of the local dataset.
        n = len(node.dataset)
        k = min(self.config.validation_slice, n)
        idx = node.rng.choice(n, size=k, replace=False)
        val = node.dataset.subset(idx)
        loss_local = node.evaluate(val, with_penalty=False)
        loss_received = node.evaluate_params(received_params, val)
        w_local, w_received = powerloss_weights(loss_local, loss_received)
        merged = w_local * node.flat_params + w_received * received_params
        node.replace_model_params(merged.astype(np.float32))
