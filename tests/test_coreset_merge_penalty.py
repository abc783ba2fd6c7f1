"""Tests for coreset merge/reduce and the Eq. 6 penalized loss."""

import numpy as np
import pytest

from repro.coreset import (
    PenaltyConfig,
    build_coreset,
    command_loss_entropy,
    merge_coresets,
    penalized_loss,
    reduce_coreset,
)
from repro.nn.params import get_flat_params


@pytest.fixture
def two_coresets(node_pair):
    node_a, node_b = node_pair
    rng = np.random.default_rng(0)
    cs_a = build_coreset(node_a.dataset, node_a.per_sample_losses(node_a.dataset), 10, rng)
    cs_b = build_coreset(node_b.dataset, node_b.per_sample_losses(node_b.dataset), 10, rng)
    return cs_a, cs_b


class TestMerge:
    def test_union_size(self, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        assert len(merged) == len(a) + len(b)  # disjoint ids

    def test_weights_preserved(self, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        assert np.allclose(
            merged.data.weights, np.concatenate([a.data.weights, b.data.weights])
        )

    def test_duplicate_ids_kept_once(self, two_coresets):
        a, _ = two_coresets
        merged = merge_coresets(a, a)
        assert len(merged) == len(a)

    def test_source_weights_length(self, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        assert len(merged.source_weights) == len(merged)


class TestReduce:
    def test_reduces_to_target(self, node, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        losses = node.per_sample_losses(merged.data)
        reduced = reduce_coreset(merged, losses, 10, np.random.default_rng(1))
        assert len(reduced) <= 12

    def test_small_coreset_untouched(self, node, two_coresets):
        a, _ = two_coresets
        losses = node.per_sample_losses(a.data)
        out = reduce_coreset(a, losses, 100, np.random.default_rng(1))
        assert out is a


class TestCommandLossEntropy:
    def test_balanced_losses_zero(self):
        losses = np.array([1.0, 1.0, 1.0, 1.0])
        commands = np.array([0, 1, 2, 3])
        assert command_loss_entropy(losses, commands) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_losses_positive(self):
        losses = np.array([10.0, 0.01, 0.01, 0.01])
        commands = np.array([0, 1, 2, 3])
        assert command_loss_entropy(losses, commands) > 0.5

    def test_single_command_zero(self):
        assert command_loss_entropy(np.array([1.0, 2.0]), np.array([0, 0])) == 0.0

    def test_absent_commands_excluded(self):
        # Only two commands present: max imbalance is log(2), not log(4).
        losses = np.array([10.0, 0.001])
        commands = np.array([0, 1])
        value = command_loss_entropy(losses, commands)
        assert value <= np.log(2) + 1e-9

    def test_zero_losses_zero(self):
        assert command_loss_entropy(np.zeros(4), np.array([0, 1, 2, 3])) == 0.0


class TestPenalizedLoss:
    def test_reduces_to_weighted_mean_when_disabled(self, model):
        config = PenaltyConfig(lambda_l2=0.0, lambda_entropy=0.0)
        losses = np.array([1.0, 3.0])
        value = penalized_loss(
            get_flat_params(model), losses, np.array([0, 1]), np.array([1.0, 1.0]), config
        )
        assert value == pytest.approx(2.0)

    def test_l2_term_added(self, model):
        config = PenaltyConfig(lambda_l2=0.5, lambda_entropy=0.0)
        losses = np.array([1.0])
        value = penalized_loss(get_flat_params(model), losses, np.array([0]), np.array([1.0]), config)
        expected = 1.0 + 0.5 * np.linalg.norm(get_flat_params(model))
        assert value == pytest.approx(expected, rel=1e-5)

    def test_entropy_term_added(self, model):
        config = PenaltyConfig(lambda_l2=0.0, lambda_entropy=1.0)
        losses = np.array([10.0, 0.01])
        commands = np.array([0, 1])
        value = penalized_loss(get_flat_params(model), losses, commands, np.ones(2), config)
        assert value > losses.mean()

    def test_weights_respected(self, model):
        config = PenaltyConfig(lambda_l2=0.0, lambda_entropy=0.0)
        losses = np.array([1.0, 3.0])
        value = penalized_loss(
            get_flat_params(model), losses, np.array([0, 1]), np.array([3.0, 1.0]), config
        )
        assert value == pytest.approx(1.5)

    def test_zero_weight_sum_rejected(self, model):
        with pytest.raises(ValueError):
            penalized_loss(
                get_flat_params(model), np.ones(2), np.zeros(2, int), np.zeros(2), PenaltyConfig()
            )

    def test_enabled_flag(self):
        assert PenaltyConfig().enabled
        assert not PenaltyConfig(lambda_l2=0.0, lambda_entropy=0.0).enabled
