"""Tests for the pairwise chat protocol."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chat import (
    ChatBytesMemo,
    equal_compression_decision,
    estimated_chat_bytes,
    pairwise_chat,
)
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.net import ChannelConfig, WirelessModel
from repro.sim.dataset import DrivingDataset, Frame
from tests.conftest import make_node

CHANNEL = ChannelConfig()
CLEAN = WirelessModel(enabled=False)
LOSSY = WirelessModel()


def run_chat(node_pair, distance=50.0, deadline=60.0, wireless=CLEAN, **kwargs):
    node_a, node_b = node_pair
    return pairwise_chat(
        node_a,
        node_b,
        distance_fn=lambda t: distance,
        start_time=0.0,
        contact_deadline=deadline,
        wireless=wireless,
        channel=CHANNEL,
        time_budget=15.0,
        **kwargs,
    )


class TestFullChat:
    def test_successful_chat_exchanges_everything(self, node_pair):
        outcome = run_chat(node_pair)
        assert outcome.coresets_exchanged
        assert outcome.absorbed_by_i > 0 and outcome.absorbed_by_j > 0
        assert outcome.duration > 0
        assert outcome.psi is not None

    def test_chat_mutates_datasets(self, node_pair):
        node_a, node_b = node_pair
        before_a, before_b = len(node_a.dataset), len(node_b.dataset)
        run_chat(node_pair)
        assert len(node_a.dataset) > before_a
        assert len(node_b.dataset) > before_b

    def test_trained_peer_model_gets_transferred(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(80):
            node_b.train_step()
        outcome = run_chat(node_pair)
        # b's model is valuable to a, so a should have attempted receipt.
        assert outcome.i_attempted
        assert outcome.i_received_model

    def test_out_of_range_aborts_early(self, node_pair):
        outcome = run_chat(node_pair, distance=1000.0, wireless=LOSSY)
        assert outcome.aborted == "assist"
        assert not outcome.coresets_exchanged

    def test_tiny_deadline_cuts_coresets(self, node_pair):
        outcome = run_chat(node_pair, deadline=0.01)
        assert outcome.aborted in ("assist", "coresets")

    def test_duration_bounded_by_budget_plus_overhead(self, node_pair):
        outcome = run_chat(node_pair)
        # Coresets+assist are sub-second; models bounded by T_B.
        assert outcome.duration < 15.0 + 5.0


class TestVariants:
    def test_coreset_only_skips_models(self, node_pair):
        outcome = run_chat(node_pair, coreset_only=True)
        assert outcome.coresets_exchanged
        assert not outcome.i_attempted and not outcome.j_attempted
        assert outcome.psi is None
        assert outcome.absorbed_by_i > 0

    def test_equal_compression_symmetric_psi(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(40):
            node_b.train_step()
        outcome = run_chat(node_pair, equal_compression=True)
        assert outcome.psi.psi_i == pytest.approx(outcome.psi.psi_j)

    def test_mean_aggregation_runs(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(40):
            node_b.train_step()
        outcome = run_chat(node_pair, mean_aggregation=True)
        assert outcome.coresets_exchanged


class TestEdgeCaseRegressions:
    def test_rounded_to_empty_model_is_not_counted_as_reception(
        self, node_pair, monkeypatch
    ):
        """A positive psi whose top-k rounds to zero entries must not be
        counted as an attempted (let alone instantly successful) model
        reception — that inflated the §IV-C receive rate."""
        from repro.core.psi import PsiDecision

        tiny = PsiDecision(psi_i=1e-7, psi_j=1e-7, objective=0.0, exchange_time=0.0)
        monkeypatch.setattr(
            "repro.core.chat.optimize_compression", lambda *a, **k: tiny
        )
        outcome = run_chat(node_pair)
        assert outcome.coresets_exchanged
        assert not outcome.i_attempted and not outcome.j_attempted
        assert not outcome.i_received_model and not outcome.j_received_model

    def test_results_overhead_respects_contact_deadline(self, node_pair):
        """The fixed results-exchange overhead can cross the predicted
        contact deadline; the chat must abort there instead of planning
        Eq. 7 and starting model transfers against a dead pair."""
        node_a, node_b = node_pair
        rate = CHANNEL.bytes_per_second
        transfer_bytes = (
            2 * CHANNEL.assist_info_bytes
            + node_a.coreset.nominal_bytes
            + node_b.coreset.nominal_bytes
            + 2 * 256
        )
        # Deadline clears all three transfers but not the 0.1 s overhead.
        deadline = transfer_bytes / rate + 0.05
        outcome = run_chat(node_pair, deadline=deadline, refresh_coresets=False)
        assert outcome.aborted == "results_overhead"
        assert not outcome.i_attempted and not outcome.j_attempted
        # Coresets made it across before the cutoff and are still absorbed.
        assert outcome.coresets_exchanged
        assert outcome.absorbed_by_i > 0 and outcome.absorbed_by_j > 0

    def test_overhead_not_charged_when_results_transfer_fails(self, node_pair):
        """When the results transfer itself dies, the compute overhead is
        no longer added on top of the failure."""
        node_a, node_b = node_pair
        rate = CHANNEL.bytes_per_second
        transfer_bytes = (
            2 * CHANNEL.assist_info_bytes
            + node_a.coreset.nominal_bytes
            + node_b.coreset.nominal_bytes
        )
        # Deadline lands between the coreset exchange and the (tiny)
        # results payload completing.
        deadline = (transfer_bytes + 256) / rate
        outcome = run_chat(node_pair, deadline=deadline, refresh_coresets=False)
        assert outcome.aborted == "results"
        assert outcome.duration <= deadline + 1e-9


class TestEqualCompressionDecision:
    def test_fills_window(self):
        decision = equal_compression_decision(
            model_size_bytes=52e6, bandwidth_bps=31e6, time_budget=15.0, contact_duration=100.0
        )
        assert decision.exchange_time == pytest.approx(15.0, rel=1e-6)
        assert decision.psi_i == decision.psi_j

    def test_caps_at_one(self):
        decision = equal_compression_decision(
            model_size_bytes=1e6, bandwidth_bps=31e6, time_budget=15.0, contact_duration=100.0
        )
        assert decision.psi_i == 1.0


class TestEstimatedChatBytes:
    def test_includes_coresets_and_model(self, node_pair):
        node_a, node_b = node_pair
        total = estimated_chat_bytes(node_a, node_b, psi_total=1.0)
        expected = (
            node_a.coreset.nominal_bytes
            + node_b.coreset.nominal_bytes
            + node_a.config.nominal_model_bytes
        )
        assert total == expected


class TestChatBytesMemo:
    def test_hit_and_value(self, node_pair):
        node_i, node_j = node_pair
        memo = ChatBytesMemo()
        value = memo.estimate(node_i, node_j, 0.6)
        assert value == estimated_chat_bytes(node_i, node_j, 0.6)
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.estimate(node_i, node_j, 0.6) == value
        assert memo.hits == 1

    def test_invalidated_by_coreset_change(self, node_pair):
        node_i, node_j = node_pair
        memo = ChatBytesMemo()
        before = memo.estimate(node_i, node_j, 1.0)
        # Absorption grows the coreset dataset -> generation bump.
        frame = node_j.dataset.frame(0)
        node_i.coreset.data.add(
            Frame("memo-test-frame", frame.bev, frame.command, frame.waypoints)
        )
        after = memo.estimate(node_i, node_j, 1.0)
        assert memo.misses == 2
        assert after == estimated_chat_bytes(node_i, node_j, 1.0)
        assert after != before

    def test_refresh_swaps_identity(self, node_pair):
        node_i, node_j = node_pair
        memo = ChatBytesMemo()
        memo.estimate(node_i, node_j, 1.0)
        node_i.refresh_coreset()  # new dataset object -> new uid
        memo.estimate(node_i, node_j, 1.0)
        assert memo.misses == 2

    def test_capacity_clears_wholesale(self, node_pair):
        node_i, node_j = node_pair
        memo = ChatBytesMemo()
        memo.max_entries = 2
        memo.estimate(node_i, node_j, 0.1)
        memo.estimate(node_i, node_j, 0.2)
        memo.estimate(node_i, node_j, 0.3)  # evicts everything first
        assert len(memo._table) == 1


#: Long enough for a second chat round: pairs chat at t ~ 0-8, then
#: again after the 60 s cooldown with divergent models.
MEMO_RUN_DURATION = 120.0


def build_trainer(fleet_datasets, traces, seed):
    validation = DrivingDataset()
    for dataset in fleet_datasets.values():
        validation.extend([dataset.frame(i) for i in range(0, len(dataset), 8)])
    nodes = [
        make_node(vid, dataset, coreset_size=10, seed=3)
        for vid, dataset in sorted(fleet_datasets.items())
    ]
    config = LbChatConfig(
        duration=MEMO_RUN_DURATION,
        train_interval=2.0,
        record_interval=20.0,
        wireless_loss=False,
        seed=seed,
    )
    return LbChatTrainer(nodes, traces, validation, config)


def run_digest(trainer) -> tuple:
    grid = np.linspace(0.0, MEMO_RUN_DURATION, 7)
    return (
        tuple(trainer.loss_curve.mean_curve(grid).tolist()),
        tuple(sorted(trainer.counters.snapshot().items())),
        tuple(node.flat_params.tobytes() for node in trainer.nodes),
        tuple(tuple(node.dataset.ids) for node in trainer.nodes),
        trainer.receive_rate.snapshot()["attempted"],
        trainer.receive_rate.snapshot()["completed"],
    )


class TestChatBytesMemoInRun:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(seed=st.sampled_from((1, 2, 3)))
    def test_memo_is_invisible_in_results(self, fleet_datasets, traces, seed):
        """Runs must not be perturbed by the chat-bytes memo.

        The reference trainer bypasses the memo entirely (every estimate
        recomputed); the candidate uses the memoized path.  Digests must
        match bit-for-bit for every seed.
        """
        reference = build_trainer(fleet_datasets, traces, seed)
        reference.estimate_chat_bytes = (
            lambda i, j, psi_total: estimated_chat_bytes(
                reference.nodes[i], reference.nodes[j], psi_total
            )
        )
        candidate = build_trainer(fleet_datasets, traces, seed)
        reference.run()
        candidate.run()
        assert candidate._chat_bytes_memo.misses > 0  # the memo path engaged
        assert run_digest(candidate) == run_digest(reference)
