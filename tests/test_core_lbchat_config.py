"""Tests for LbChat trainer configuration features."""

import numpy as np
import pytest

from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_node


@pytest.fixture()
def setup(fleet_datasets, traces):
    validation = DrivingDataset()
    for dataset in fleet_datasets.values():
        validation.extend([dataset.frame(i) for i in range(0, len(dataset), 10)])
    nodes = [
        make_node(vid, ds, coreset_size=8, seed=4)
        for vid, ds in sorted(fleet_datasets.items())
    ]
    return nodes, traces, validation


def run_trainer(setup, **config_overrides):
    nodes, traces, validation = setup
    config = LbChatConfig(
        duration=100.0,
        train_interval=2.0,
        record_interval=25.0,
        wireless_loss=True,
        seed=1,
    )
    for key, value in config_overrides.items():
        setattr(config, key, value)
    trainer = LbChatTrainer(nodes, traces, validation, config)
    trainer.run()
    return trainer


class TestDynamicTimeBudget:
    def test_runs_and_chats(self, setup):
        trainer = run_trainer(setup, dynamic_time_budget=True)
        assert trainer.counters.get("chats") > 0

    def test_respects_floor(self, setup):
        trainer = run_trainer(
            setup, dynamic_time_budget=True, min_time_budget=3.0, time_budget=15.0
        )
        # Chat durations (minus sub-second coreset/assist time) should
        # not exceed the static budget either way.
        chats = trainer.counters.get("chats")
        if chats:
            mean_duration = trainer.counters.get("chat_seconds") / chats
            assert mean_duration <= 15.0 + 3.0


class TestTrainingDuringChats:
    def test_train_steps_unaffected_by_chatting(self, setup):
        """Local training continues during chats (GPU || radio)."""
        busy = run_trainer(setup)
        nodes, traces, validation = setup
        expected_steps = len(nodes) * int(100.0 / 2.0)
        # All vehicles train at full rate regardless of chat load: the
        # radio never gates training, so the count is exact.
        assert busy.counters.get("chats") > 0
        assert busy.counters.get("train_steps") == expected_steps


class TestMulticast:
    def test_multicast_spreads_coresets(self, setup):
        trainer = run_trainer(setup, multicast_coresets=True)
        assert trainer.counters.get("multicasts") > 0
        assert trainer.counters.get("multicast_receivers") >= trainer.counters.get(
            "multicasts"
        )

    def test_multicast_grows_datasets_faster(self, fleet_datasets, traces):
        from repro.sim.dataset import DrivingDataset

        sizes = {}
        for multicast in (False, True):
            validation = DrivingDataset(
                [fleet_datasets["v0"].frame(i) for i in range(0, 40, 8)]
            )
            nodes = [
                make_node(vid, ds, coreset_size=8, seed=4)
                for vid, ds in sorted(fleet_datasets.items())
            ]
            config = LbChatConfig(
                duration=100.0,
                train_interval=2.0,
                record_interval=50.0,
                wireless_loss=True,
                seed=1,
            )
            config.multicast_coresets = multicast
            trainer = LbChatTrainer(nodes, traces, validation, config)
            trainer.run()
            sizes[multicast] = sum(len(n.dataset) for n in nodes)
        # Multicast must not lose data reach; with few vehicles the
        # pairwise chats may already saturate sharing, so allow parity
        # within a small margin.
        assert sizes[True] >= sizes[False] * 0.9


class TestContentionTracking:
    def test_disabled_by_default(self, setup):
        trainer = run_trainer(setup)
        assert trainer.contention is None

    def test_tracks_chat_windows(self, setup):
        trainer = run_trainer(setup, track_contention=True)
        assert trainer.contention is not None
        if trainer.counters.get("chats") > 0:
            time, peak = trainer.contention.busiest_moment()
            assert peak >= 1


class TestRecording:
    def test_curve_covers_duration(self, setup):
        trainer = run_trainer(setup)
        grid = np.linspace(0.0, 100.0, 5)
        curve = trainer.loss_curve.mean_curve(grid)
        assert len(curve) == 5
        assert np.isfinite(curve).all()
