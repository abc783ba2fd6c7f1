"""Tests for partner-selection policies."""

import numpy as np
import pytest

from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.core.selection import select_longest_contact, select_priority, select_random
from repro.sim.dataset import DrivingDataset
from repro.sim.synthetic_traces import crossing_flows_traces
from repro.sim.traces import MobilityTraces
from tests.conftest import make_node


@pytest.fixture()
def trainer(fleet_datasets):
    nodes = [
        make_node(vid, ds, coreset_size=8, seed=15)
        for vid, ds in sorted(fleet_datasets.items())
    ]
    traces = crossing_flows_traces(len(nodes), duration=300.0, seed=7)
    validation = DrivingDataset(
        [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
    )
    return LbChatTrainer(
        nodes,
        traces,
        validation,
        LbChatConfig(duration=200.0, train_interval=4.0, seed=1),
    )


POLICIES = (select_random, select_longest_contact, select_priority)


class TestPolicies:
    def test_all_return_none_for_no_candidates(self, trainer):
        for policy in POLICIES:
            assert policy(trainer, 0, []) is None, policy.__name__

    def test_all_return_member_of_candidates(self, trainer):
        candidates = [1, 2, 3]
        for policy in POLICIES:
            choice = policy(trainer, 0, candidates)
            if policy is select_priority and choice is None:
                continue  # Eq. 5 may reject all (everyone unreachable)
            assert choice in candidates, policy.__name__

    def test_longest_contact_picks_same_direction(self, trainer):
        # In crossing flows, even-indexed vehicles travel together ->
        # their mutual contact outlasts any cross-flow contact.
        candidates = [1, 2]
        choice = select_longest_contact(trainer, 0, candidates)
        est_same = trainer.contact_estimate(0, 2, 1.0).contact_duration
        est_cross = trainer.contact_estimate(0, 1, 1.0).contact_duration
        if est_same > est_cross:
            assert choice == 2

    def test_random_uses_node_rng(self, trainer):
        choices = {select_random(trainer, 0, [1, 2, 3, 4, 5]) for _ in range(30)}
        assert len(choices) > 1

    def test_priority_returns_none_when_all_scores_zero(self, trainer):
        # Vehicle 0 vs peers far out of range: z = p = 0 for all, and no
        # contact is predicted at all -> the intentional skip (chatting
        # with an unreachable peer would abort at the assist stage).
        far = trainer.traces.positions.copy()
        trainer.traces.positions[:, 1:, :] += 1e6
        try:
            assert select_priority(trainer, 0, [1, 2]) is None
        finally:
            trainer.traces.positions[:] = far

    def test_priority_falls_back_when_scores_zero_but_contact_exists(
        self, fleet_datasets
    ):
        """Regression: Eq. 5 scores all-zero (z truncates because no
        contact fits the anticipated exchange) used to return None and
        idle the vehicle even though reachable neighbors existed; now it
        falls back to the longest reachable contact."""
        # An absurdly large nominal model makes every exchange infeasible
        # within any contact window -> z = 0 -> score = 0 for everyone.
        nodes = [
            make_node(vid, ds, coreset_size=8, seed=15, nominal_model_bytes=10**14)
            for vid, ds in sorted(fleet_datasets.items())
        ]
        # A convoy: all four vehicles drive together 100 m apart, so every
        # pair stays in radio range for the whole trace.
        times = np.arange(0.0, 300.0, 5.0)
        positions = np.zeros((len(times), len(nodes), 2))
        for j in range(len(nodes)):
            positions[:, j, 0] = times * 10.0
            positions[:, j, 1] = 100.0 * j
        traces = MobilityTraces(
            [n.node_id for n in nodes], times, positions
        )
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(duration=200.0, train_interval=4.0, seed=1),
        )
        candidates = [1, 2, 3]
        reachable = [
            j
            for j in candidates
            if trainer.contact_estimate(0, j, 1.0).contact_duration > 0
        ]
        assert reachable, "fixture must provide at least one reachable peer"
        choice = select_priority(trainer, 0, candidates)
        assert choice in reachable
        assert choice == select_longest_contact(trainer, 0, reachable)

