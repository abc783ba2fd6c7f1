"""LbChat ablation variants (§IV-F plus extras from DESIGN.md).

Each factory returns a fully-wired :class:`~repro.core.lbchat.LbChatTrainer`
whose config masks exactly one coreset-based design:

* ``equal_compression_trainer`` — Eq. 7 replaced by a fixed, contact-
  filling compression ratio (Table V),
* ``mean_aggregation_trainer`` — Eq. 8 replaced by plain averaging
  (Table VI),
* ``no_prioritization_trainer`` — Eq. 5 neighbor ranking replaced by a
  random idle neighbor (extra ablation: isolates route sharing).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces

__all__ = [
    "equal_compression_trainer",
    "mean_aggregation_trainer",
    "no_prioritization_trainer",
]


def _variant(
    nodes,
    traces: MobilityTraces,
    validation: DrivingDataset,
    config: LbChatConfig | None,
    name: str,
    **overrides,
) -> LbChatTrainer:
    # replace() raises TypeError on a field the config does not have.
    config = replace(config if config is not None else LbChatConfig(), **overrides)
    trainer = LbChatTrainer(nodes, traces, validation, config)
    trainer.name = name
    return trainer


def equal_compression_trainer(
    nodes, traces, validation, config: LbChatConfig | None = None
) -> LbChatTrainer:
    """LbChat with Eq. 7 masked: equal compression ratios (§IV-F)."""
    return _variant(
        nodes, traces, validation, config, "LbChat (equal comp.)", equal_compression=True
    )


def mean_aggregation_trainer(
    nodes, traces, validation, config: LbChatConfig | None = None
) -> LbChatTrainer:
    """LbChat with Eq. 8 masked: plain model averaging (§IV-F)."""
    return _variant(
        nodes, traces, validation, config, "LbChat (avg. agg.)", mean_aggregation=True
    )


def no_prioritization_trainer(
    nodes, traces, validation, config: LbChatConfig | None = None
) -> LbChatTrainer:
    """LbChat with Eq. 5 masked: random neighbor choice (extra)."""
    return _variant(
        nodes,
        traces,
        validation,
        config,
        "LbChat (no priority)",
        prioritize_neighbors=False,
    )
