"""Tests for value assessment (§III-B), Eq. 7 optimization, and Eq. 8."""

import numpy as np
import pytest

from repro.core.aggregate import aggregate_models, aggregation_weights
from repro.core.psi import (
    PsiLossMap,
    build_psi_map,
    optimize_compression,
)
from repro.core.value import assess_value, truncated_gain


class TestValue:
    def test_truncated_gain_nonnegative(self):
        assert truncated_gain(1.0, 2.0) == 0.0
        assert truncated_gain(2.0, 1.0) == 1.0

    def test_value_to_i_uses_peer_coreset(self):
        value = assess_value(
            loss_i_on_ci=0.5, loss_i_on_cj=2.0, loss_j_on_cj=0.4, loss_j_on_ci=0.6
        )
        # i is bad on j's data (2.0) while j is good there (0.4).
        assert value.value_to_i == pytest.approx(1.6)
        assert value.value_to_j == pytest.approx(0.1)

    def test_similar_models_no_value(self):
        value = assess_value(0.5, 0.5, 0.5, 0.5)
        assert value.value_to_i == 0.0
        assert value.value_to_j == 0.0

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            assess_value(-0.1, 1.0, 1.0, 1.0)


class TestPsiLossMap:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            PsiLossMap(np.array([0.5]), np.array([1.0]))

    def test_interpolates_between_samples(self):
        psi_map = PsiLossMap(np.array([0.1, 0.5, 1.0]), np.array([3.0, 1.5, 1.0]))
        mid = psi_map.loss_at(0.75)
        assert 1.0 < mid < 1.5

    def test_clamps_outside_range(self):
        psi_map = PsiLossMap(np.array([0.1, 1.0]), np.array([3.0, 1.0]))
        assert psi_map.loss_at(0.0) == pytest.approx(3.0)
        assert psi_map.loss_at(2.0) == pytest.approx(1.0)

    def test_payload_roundtrip(self):
        psi_map = PsiLossMap(np.array([0.1, 1.0]), np.array([3.0, 1.0]))
        assert psi_map.payload() == [(0.1, 3.0), (1.0, 1.0)]

    def test_build_map_decreasing_overall(self, node):
        psi_map = build_psi_map(
            node.flat_params,
            lambda params: node.evaluate_params(params, node.coreset.data),
        )
        # Full model (psi=1) should score no worse than the 5% model.
        assert psi_map.loss_at(1.0) <= psi_map.loss_at(0.05) + 1e-6

    def test_build_map_restores_model(self, node):
        from repro.nn.params import get_flat_params

        before = get_flat_params(node.model).copy()
        flat = node.flat_params
        build_psi_map(
            flat,
            lambda params: node.evaluate_params(params, node.coreset.data),
        )
        assert np.array_equal(get_flat_params(node.model), before)
        assert np.array_equal(flat, before)


def flat_maps(loss_at_one=1.0, loss_at_min=3.0):
    return PsiLossMap(np.array([0.05, 1.0]), np.array([loss_at_min, loss_at_one]))


class TestOptimizeCompression:
    BANDWIDTH = 31e6
    SIZE = 52 * 1024 * 1024

    def test_respects_time_constraint(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=5.0,
            loss_j_on_ci=5.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.exchange_time <= 15.0 + 1e-9

    def test_valuable_models_get_high_psi(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=10.0,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=30.0,
            contact_duration=100.0,
        )
        assert decision.psi_i > 0.5 and decision.psi_j > 0.5

    def test_worthless_models_not_sent(self):
        # Receivers already beat the senders everywhere: gains are zero,
        # so the time award drives psi to 0.
        decision = optimize_compression(
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),
            loss_i_on_cj=0.1,
            loss_j_on_ci=0.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.psi_i == 0.0 and decision.psi_j == 0.0

    def test_asymmetric_value_asymmetric_psi(self):
        decision = optimize_compression(
            flat_maps(),  # i's model: j gains a lot
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),  # j's model: useless to i
            loss_i_on_cj=0.1,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.psi_i > decision.psi_j

    def test_short_contact_limits_exchange(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=10.0,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=3.0,
        )
        assert decision.exchange_time <= 3.0 + 1e-9

    def test_lambda_c_discourages_marginal_sends(self):
        greedy = optimize_compression(
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            loss_i_on_cj=1.1,
            loss_j_on_ci=1.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
            lambda_c=0.0,
        )
        frugal = optimize_compression(
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            loss_i_on_cj=1.1,
            loss_j_on_ci=1.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
            lambda_c=10.0,
        )
        assert frugal.psi_i + frugal.psi_j <= greedy.psi_i + greedy.psi_j


class TestAggregation:
    def test_lower_loss_gets_larger_weight(self):
        w_local, w_received = aggregation_weights(2.0, 1.0)
        assert w_received > w_local
        assert w_local + w_received == pytest.approx(1.0)

    def test_equal_losses_even_split(self):
        assert aggregation_weights(1.0, 1.0) == (0.5, 0.5)

    def test_zero_losses_even_split(self):
        assert aggregation_weights(0.0, 0.0) == (0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aggregation_weights(-1.0, 1.0)

    def test_aggregate_convex_combination(self):
        local = np.zeros(4, dtype=np.float32)
        received = np.ones(4, dtype=np.float32)
        merged = aggregate_models(local, received, loss_local=3.0, loss_received=1.0)
        assert np.allclose(merged, 0.75)  # received weight = 3/4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_models(np.zeros(3), np.zeros(4), 1.0, 1.0)
