"""Unit tests for top-k sparsification."""

import numpy as np
import pytest

from repro.compression import (
    compress_topk,
    decompress,
    topk_for_psi,
)

NOMINAL = 52 * 1024 * 1024


class TestTopkForPsi:
    def test_full_psi_keeps_everything(self):
        assert topk_for_psi(1000, 1.0) == 1000

    def test_zero_psi_keeps_nothing(self):
        assert topk_for_psi(1000, 0.0) == 0

    def test_index_value_overhead_halves_k(self):
        # At psi=0.5, pairs cost 8 bytes vs 4 -> k = 0.25 * n.
        assert topk_for_psi(1000, 0.5) == 250

    def test_invalid_psi_rejected(self):
        with pytest.raises(ValueError):
            topk_for_psi(10, 1.5)
        with pytest.raises(ValueError):
            topk_for_psi(10, -0.1)


class TestCompressTopk:
    def test_keeps_largest_magnitudes(self):
        flat = np.array([0.1, -5.0, 0.2, 3.0, -0.05], dtype=np.float32)
        compressed = compress_topk(flat, 0.8, NOMINAL)
        kept = set(compressed.indices.tolist())
        assert 1 in kept and 3 in kept  # the two largest magnitudes

    def test_dense_at_psi_one(self):
        flat = np.arange(10, dtype=np.float32)
        compressed = compress_topk(flat, 1.0, NOMINAL)
        assert compressed.is_dense
        assert compressed.nominal_bytes == NOMINAL
        assert np.array_equal(decompress(compressed), flat)

    def test_empty_at_psi_zero(self):
        compressed = compress_topk(np.ones(10, dtype=np.float32), 0.0, NOMINAL)
        assert compressed.is_empty
        assert compressed.nominal_bytes == 0

    def test_small_positive_psi_rounds_to_empty(self):
        # k = psi * n / 2 rounds to 0: a positive psi can still produce a
        # zero-byte model.  Senders must check nominal_bytes/is_empty, not
        # psi > 0 — see the guard in core.chat (and its regression test).
        compressed = compress_topk(np.ones(10, dtype=np.float32), 0.1, NOMINAL)
        assert compressed.is_empty
        assert compressed.psi == 0.0
        assert compressed.nominal_bytes == 0

    def test_achieved_psi_close_to_target(self):
        flat = np.random.default_rng(0).normal(size=10_000).astype(np.float32)
        compressed = compress_topk(flat, 0.4, NOMINAL)
        assert compressed.psi == pytest.approx(0.4, abs=0.01)
        assert compressed.nominal_bytes == pytest.approx(0.4 * NOMINAL, rel=0.02)

    def test_decompress_zero_fill(self):
        flat = np.array([1.0, -9.0, 2.0, 8.0], dtype=np.float32)
        compressed = compress_topk(flat, 0.9, NOMINAL)
        dense = decompress(compressed)
        for idx in range(4):
            if idx in compressed.indices:
                assert dense[idx] == flat[idx]
            else:
                assert dense[idx] == 0.0

    def test_decompress_overlay_fill(self):
        flat = np.array([1.0, -9.0, 2.0, 8.0], dtype=np.float32)
        fill = np.full(4, 7.0, dtype=np.float32)
        compressed = compress_topk(flat, 0.9, NOMINAL)
        dense = decompress(compressed, fill=fill)
        for idx in range(4):
            expected = flat[idx] if idx in compressed.indices else 7.0
            assert dense[idx] == expected

    def test_decompress_wrong_fill_size_rejected(self):
        compressed = compress_topk(np.ones(4, dtype=np.float32), 0.5, NOMINAL)
        with pytest.raises(ValueError):
            decompress(compressed, fill=np.ones(5, dtype=np.float32))

    def test_indices_sorted(self):
        flat = np.random.default_rng(1).normal(size=100).astype(np.float32)
        compressed = compress_topk(flat, 0.5, NOMINAL)
        assert np.all(np.diff(compressed.indices) > 0)
