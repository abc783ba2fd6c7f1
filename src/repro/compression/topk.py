"""Top-k sparsification with index-value encoding (§III-C).

A model compressed to relative size ``psi`` keeps the ``k`` largest-
magnitude parameters.  For sparse sends each kept parameter costs an
(index, value) pair — 8 bytes instead of 4 — so ``k = psi * n / 2``;
when ``psi == 1`` the dense vector is sent and no index overhead is
paid.  This matches the paper's remark that small-``k`` models are
represented by index-value pairs to further reduce size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompressedModel",
    "topk_for_psi",
    "compress_topk",
    "TopkPlan",
    "topk_plan",
    "decompress",
]

_BYTES_PER_VALUE = 4
_BYTES_PER_PAIR = 8


@dataclass(frozen=True)
class CompressedModel:
    """A sparsified parameter vector plus its size accounting.

    ``nominal_bytes`` is the transfer size used by the communication
    simulator; it scales the *paper's* model size (52 MB by default) by
    the achieved compression so that transfer times match the paper's
    regime even though the numpy model is tiny.
    """

    indices: np.ndarray  # int64 positions of retained entries
    values: np.ndarray  # float32 retained values
    n_total: int  # original parameter count
    psi: float  # achieved relative size S_c / S
    nominal_bytes: int  # bytes to transmit at nominal model scale

    @property
    def is_dense(self) -> bool:
        """Whether every coordinate was retained (psi = 1 send)."""
        return self.indices.size == self.n_total

    @property
    def is_empty(self) -> bool:
        """Whether nothing was retained (psi = 0 send)."""
        return self.indices.size == 0


def topk_for_psi(n_total: int, psi: float) -> int:
    """Number of entries retainable at relative size ``psi``.

    Accounts for index-value overhead on sparse sends; ``psi >= 1`` keeps
    everything (dense send).
    """
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must lie in [0, 1]: {psi}")
    if psi >= 1.0:
        return n_total
    k = int(psi * n_total * _BYTES_PER_VALUE / _BYTES_PER_PAIR)
    return min(k, n_total)


def compress_topk(flat: np.ndarray, psi: float, nominal_size_bytes: int) -> CompressedModel:
    """Sparsify ``flat`` to relative size ``psi`` by magnitude top-k.

    Parameters
    ----------
    flat:
        The flat parameter vector.
    psi:
        Target relative size in [0, 1].
    nominal_size_bytes:
        Uncompressed size of the model at paper scale (e.g. 52 MB); the
        result's :attr:`CompressedModel.nominal_bytes` is derived from it.
    """
    flat = np.asarray(flat, dtype=np.float32)
    n = flat.size
    if psi >= 1.0:
        return CompressedModel(
            indices=np.arange(n, dtype=np.int64),
            values=flat.copy(),
            n_total=n,
            psi=1.0,
            nominal_bytes=nominal_size_bytes,
        )
    k = topk_for_psi(n, psi)
    if k == 0:
        return CompressedModel(
            indices=np.zeros(0, dtype=np.int64),
            values=np.zeros(0, dtype=np.float32),
            n_total=n,
            psi=0.0,
            nominal_bytes=0,
        )
    # argpartition gives the k largest magnitudes in O(n).
    idx = np.argpartition(np.abs(flat), n - k)[n - k :]
    idx.sort()
    achieved_psi = k * _BYTES_PER_PAIR / (n * _BYTES_PER_VALUE)
    return CompressedModel(
        indices=idx.astype(np.int64),
        values=flat[idx].copy(),
        n_total=n,
        psi=float(achieved_psi),
        nominal_bytes=int(round(achieved_psi * nominal_size_bytes)),
    )


@dataclass(frozen=True)
class TopkPlan:
    """A reusable magnitude ordering for compressing one parameter vector.

    Sampling several compression levels of the *same* parameters (the
    overlapped chat's batched psi probe fills ~7 levels per chat, then
    compresses the payload) only needs one full magnitude sort; each
    level is then an O(k) slice instead of a fresh O(n) argpartition of
    the whole vector.
    """

    flat: np.ndarray  # float32 parameter snapshot
    order: np.ndarray  # argsort of |flat|, ascending magnitude
    nominal_size_bytes: int

    def compress(self, psi: float) -> CompressedModel:
        """The plan's parameters sparsified to relative size ``psi``."""
        n = self.flat.size
        if psi >= 1.0:
            return CompressedModel(
                indices=np.arange(n, dtype=np.int64),
                values=self.flat.copy(),
                n_total=n,
                psi=1.0,
                nominal_bytes=self.nominal_size_bytes,
            )
        k = topk_for_psi(n, psi)
        if k == 0:
            return CompressedModel(
                indices=np.zeros(0, dtype=np.int64),
                values=np.zeros(0, dtype=np.float32),
                n_total=n,
                psi=0.0,
                nominal_bytes=0,
            )
        idx = np.sort(self.order[n - k :])
        achieved_psi = k * _BYTES_PER_PAIR / (n * _BYTES_PER_VALUE)
        return CompressedModel(
            indices=idx.astype(np.int64),
            values=self.flat[idx].copy(),
            n_total=n,
            psi=float(achieved_psi),
            nominal_bytes=int(round(achieved_psi * self.nominal_size_bytes)),
        )


def topk_plan(flat: np.ndarray, nominal_size_bytes: int) -> TopkPlan:
    """Sort ``flat`` by magnitude once, for repeated :meth:`TopkPlan.compress`."""
    flat = np.asarray(flat, dtype=np.float32)
    # The default (unstable) argsort decides ties at a cut.  The psi-map
    # fit selects levels by magnitude thresholds instead and falls back
    # to this same call when a cut is tied, so both agree on every level.
    order = np.argsort(np.abs(flat))
    return TopkPlan(flat=flat, order=order, nominal_size_bytes=nominal_size_bytes)


def decompress(compressed: CompressedModel, fill: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a dense vector from a compressed model.

    Unsent positions are zero by default; passing ``fill`` (e.g. the
    receiver's own parameters) overlays the received values on it, which
    is how receivers materialize a sparsified peer model before Eq. 8
    aggregation.
    """
    if fill is None:
        dense = np.zeros(compressed.n_total, dtype=np.float32)
    else:
        if fill.size != compressed.n_total:
            raise ValueError(
                f"fill has {fill.size} entries, expected {compressed.n_total}"
            )
        dense = fill.astype(np.float32, copy=True)
    dense[compressed.indices] = compressed.values
    return dense
