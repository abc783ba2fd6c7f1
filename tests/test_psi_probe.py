"""The psi-map probe path against the clone/compress/decompress oracle.

``VehicleNode.build_psi_map`` writes every top-k level straight into a
shared probe buffer, selected by magnitude thresholds from one sort, and
scores it with the cache-free inference forward.  The oracle below is
the earlier implementation: clone the model, compress each level with a
:class:`~repro.compression.TopkPlan`, decompress it into the clone and
score it with the training ``forward``.  The two must agree byte for
byte, including tied cuts (argsort fallback), ``-0.0`` and non-finite
parameters.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import compress_topk, decompress, topk_for_psi, topk_plan
from repro.core.node import NodeConfig, VehicleNode
from repro.core.psi import DEFAULT_PSI_GRID, PsiLossMap, _topk_levels, build_psi_map
from repro.coreset import PenaltyConfig, penalized_loss
from repro.engine.random import spawn_rng
from repro.nn import make_driving_model, waypoint_l1
from repro.nn.params import clone_model, get_flat_params, set_flat_params, shared_probe
from repro.sim.dataset import DrivingDataset, Frame

BEV_SHAPE = (2, 3, 3)
N_WAYPOINTS = 2
NOMINAL_BYTES = 52 * 1024 * 1024

PENALTIES = {
    "eq6": PenaltyConfig(),
    "off": PenaltyConfig(lambda_l2=0.0, lambda_entropy=0.0),
    "l2_only": PenaltyConfig(lambda_l2=1e-3, lambda_entropy=0.0),
}


# -- the oracle: the clone/compress/decompress loop the probe replaced --------


def oracle_psi_map(model, evaluate_on_coreset, nominal_size_bytes, psi_grid, compress_fn=None):
    flat = get_flat_params(model)
    if compress_fn is None:
        plan = topk_plan(flat, nominal_size_bytes)
        compress_fn = lambda _flat, psi: plan.compress(psi)  # noqa: E731
    probe = clone_model(model)
    psis, losses = [], []
    for psi in sorted(psi_grid):
        if psi >= 1.0:
            set_flat_params(probe, flat)
        else:
            compressed = compress_fn(flat, psi)
            set_flat_params(probe, decompress(compressed))
        psis.append(float(psi))
        losses.append(float(evaluate_on_coreset(probe)))
    return PsiLossMap(np.asarray(psis), np.asarray(losses))


def oracle_evaluate(model, dataset: DrivingDataset, penalty: PenaltyConfig) -> float:
    """The earlier ``VehicleNode.evaluate_model_on``: training forward,
    L2 term from a fresh concatenation of the model's parameters."""
    bev, commands, targets, weights = dataset.arrays()
    pred = model.forward(bev, commands)
    scalar, per_sample, _ = waypoint_l1(pred, targets, weights=weights)
    if penalty.enabled:
        return penalized_loss(get_flat_params(model), per_sample, commands, weights, penalty)
    return scalar


def outcome(build) -> tuple:
    """A map's exact bytes, or the error building it raised (non-finite
    losses make the Akima fit refuse)."""
    try:
        psi_map = build()
    except ValueError as err:
        return ("error", str(err))
    return ("map", psi_map.psis.tobytes(), psi_map.losses.tobytes())


# -- a tiny node whose parameters each example overwrites ---------------------


@functools.lru_cache(maxsize=None)
def _tiny_dataset() -> DrivingDataset:
    rng = np.random.default_rng(0)
    return DrivingDataset(
        [
            Frame(
                f"t{i}",
                rng.normal(size=BEV_SHAPE).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
                float(rng.uniform(0.5, 2.0)),
            )
            for i in range(24)
        ]
    )


def tiny_node(model_seed: int, **config) -> VehicleNode:
    model = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=model_seed)
    return VehicleNode(
        "tiny",
        model,
        DrivingDataset(_tiny_dataset().frames()),
        NodeConfig(coreset_size=10, **config),
        spawn_rng(3, "tiny"),
    )


def _params(mode: str, init: np.ndarray, grid, seed: int) -> np.ndarray:
    """Parameters exercising one corner of the threshold selection."""
    rng = np.random.default_rng(seed)
    n = init.size
    if mode == "init":  # as initialized: every bias is exactly 0.0
        return init
    if mode == "few_magnitudes":  # ties at nearly every cut, both signs
        return rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], n).astype(np.float32)
    flat = rng.normal(size=n).astype(np.float32)
    if mode == "signed_zeros":  # cuts inside a run of +0.0 and -0.0
        flat[rng.random(n) < 0.7] = -0.0
        flat[rng.random(n) < 0.2] = 0.0
    elif mode == "tied_cut":  # one tie exactly at the first nonzero cut
        order = np.argsort(np.abs(flat))
        k = next(topk_for_psi(n, p) for p in sorted(grid) if topk_for_psi(n, p) > 0)
        flat[order[n - k - 1]] = -flat[order[n - k]]
    elif mode == "nonfinite":
        hit = rng.choice(n, size=3, replace=False)
        flat[hit] = [np.inf, -np.inf, np.nan][: hit.size]
    return flat


MODES = ("init", "continuous", "few_magnitudes", "signed_zeros", "tied_cut", "nonfinite")
#: psi = 0.001 keeps k = 0 entries of the tiny model's parameters.
GRID_POINTS = (0.001, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf parameters
class TestPsiMapMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        grid=st.lists(st.sampled_from(GRID_POINTS), min_size=2, max_size=7, unique=True),
        penalty=st.sampled_from(sorted(PENALTIES)),
        seed=st.integers(0, 2**16),
    )
    @example(mode="init", grid=list(DEFAULT_PSI_GRID), penalty="eq6", seed=0)
    @example(mode="tied_cut", grid=[0.2, 0.5], penalty="eq6", seed=1)
    @example(mode="few_magnitudes", grid=[0.05, 0.35, 0.75], penalty="off", seed=2)
    @example(mode="signed_zeros", grid=[0.5, 0.75, 0.9], penalty="l2_only", seed=3)
    @example(mode="continuous", grid=[0.001, 0.1, 0.5], penalty="eq6", seed=4)
    @example(mode="nonfinite", grid=[0.001, 0.05, 0.5, 1.0], penalty="off", seed=5)
    @example(mode="nonfinite", grid=[0.05, 0.2], penalty="eq6", seed=6)
    def test_map_is_byte_equal(self, mode, grid, penalty, seed):
        node = tiny_node(seed % 7, psi_grid=tuple(grid), penalty=PENALTIES[penalty])
        set_flat_params(node.model, _params(mode, get_flat_params(node.model), grid, seed))
        coreset = node.coreset.data
        oracle_losses, new_losses = [], []

        def record(into, value):
            into.append(np.float64(value).tobytes())
            return value

        want = outcome(
            lambda: oracle_psi_map(
                node.model,
                lambda m: record(oracle_losses, oracle_evaluate(m, coreset, node.config.penalty)),
                NOMINAL_BYTES,
                grid,
            )
        )
        assert outcome(node.build_psi_map) == want
        # Per-level losses too, including levels whose loss is non-finite.
        outcome(
            lambda: build_psi_map(
                node.flat_params,
                lambda p: record(new_losses, node.evaluate_params(p, coreset)),
                psi_grid=grid,
                out=shared_probe(node.model).flat,
            )
        )
        assert new_losses == oracle_losses


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLevelsMatchDecompress:
    @settings(max_examples=200, deadline=None)
    @given(
        flat=hnp.arrays(
            np.float32,
            st.integers(1, 300),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -0.25]),
                st.floats(width=32, allow_nan=True, allow_infinity=True),
            ),
        ),
        psi=st.floats(0.0, 0.999),
    )
    # A signaling NaN in the top-k must keep its exact bits (a multiply
    # by the keep mask would quiet it): non-finite vectors use argsort.
    @example(
        flat=np.concatenate(
            [np.uint32([0x7F800001]).view(np.float32), np.float32([0.5, 1, 2, 3, 4, 5, 6])]
        ),
        psi=0.75,
    )
    def test_level_is_decompressed_plan(self, flat, psi):
        buf = np.full(flat.size, 7.0, dtype=np.float32)  # stale contents
        _topk_levels(flat)(psi, buf)
        want = decompress(topk_plan(flat, NOMINAL_BYTES).compress(psi))
        assert buf.tobytes() == want.tobytes()


class TestNodeProbes:
    @pytest.mark.parametrize("penalty", sorted(PENALTIES))
    @pytest.mark.parametrize("compressor", ["topk", "quantize"])
    def test_trained_node_map_matches_oracle(self, fleet_datasets, penalty, compressor):
        from tests.conftest import make_node

        node = make_node(
            "v0", fleet_datasets["v0"], penalty=PENALTIES[penalty], compressor=compressor
        )
        for _ in range(3):
            node.train_step()
        compress_fn = None
        if compressor != "topk":
            compress_fn = lambda flat, psi: node.compress_model(psi)  # noqa: E731
        want = oracle_psi_map(
            node.model,
            lambda m: oracle_evaluate(m, node.coreset.data, node.config.penalty),
            NOMINAL_BYTES,
            node.config.psi_grid,
            compress_fn,
        )
        assert outcome(node.build_psi_map) == ("map", want.psis.tobytes(), want.losses.tobytes())

    def test_conv_model_map_matches_oracle(self):
        model = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=1, use_conv=True)
        node = VehicleNode(
            "conv",
            model,
            DrivingDataset(_tiny_dataset().frames()),
            NodeConfig(coreset_size=10),
            spawn_rng(3, "conv"),
        )
        want = oracle_psi_map(
            node.model,
            lambda m: oracle_evaluate(m, node.coreset.data, node.config.penalty),
            NOMINAL_BYTES,
            node.config.psi_grid,
        )
        assert outcome(node.build_psi_map) == ("map", want.psis.tobytes(), want.losses.tobytes())

    def test_received_model_score_matches_clone(self, node_pair):
        """The Eq. 8 probe: a received sparse model overlaid on the local one."""
        local, peer = node_pair
        peer.train_step()
        received = decompress(compress_topk(peer.flat_params, 0.3, NOMINAL_BYTES), fill=local.flat_params)
        clone = clone_model(local.model)
        set_flat_params(clone, received)
        eval_set = local.coreset.data
        want = oracle_evaluate(clone, eval_set, local.config.penalty)
        assert local.evaluate_params(received, eval_set) == want

    def test_probe_leaves_node_model_alone(self, node):
        before = get_flat_params(node.model)
        node.build_psi_map()
        node.evaluate_params(np.zeros_like(before), node.coreset.data)
        assert get_flat_params(node.model).tobytes() == before.tobytes()

    def test_probe_is_shared_per_architecture(self, node_pair):
        a, b = node_pair
        assert shared_probe(a.model) is shared_probe(b.model)
        other = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=0)
        assert shared_probe(other) is not shared_probe(a.model)

    def test_evaluate_params_rejects_wrong_size(self, node):
        with pytest.raises(ValueError):
            node.evaluate_params(np.zeros(3, np.float32), node.coreset.data)

