"""Packet-level transfer simulation.

Transfers are simulated in time chunks: each chunk delivers
``bandwidth * goodput_factor(distance)`` bytes, where the goodput factor
folds per-packet loss and MAC retransmissions into throughput (see
:mod:`repro.net.wireless`).  A transfer *fails* by running out of
contact — the vehicles move out of range or the deadline passes — not by
a single unlucky packet, which transport-layer recovery would re-send.

The paper's parameters (§IV-A): 1500-byte packets, 31 Mbps, up to three
retransmissions, 500 m range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.wireless import WirelessModel
from repro.telemetry import hooks as telemetry

__all__ = [
    "ChannelConfig",
    "TransferResult",
    "simulate_transfer",
    "transfer_time_lossless",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Link-layer constants from §IV-A."""

    bandwidth_bps: float = 31e6
    packet_bytes: int = 1500
    max_retransmissions: int = 3
    #: Size of the route/bandwidth assistive message (§III-A): 184 bytes.
    assist_info_bytes: int = 184
    #: Simulation chunk for re-evaluating distance-dependent loss.
    chunk_seconds: float = 0.5

    @property
    def bytes_per_second(self) -> float:
        """Raw link throughput in bytes/s (before loss)."""
        return self.bandwidth_bps / 8.0


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one simulated transfer."""

    completed: bool
    elapsed: float  # seconds spent transmitting (until done or cut off)
    bytes_delivered: float


def transfer_time_lossless(n_bytes: float, config: ChannelConfig) -> float:
    """Time to ship ``n_bytes`` on a clean link (packetization included)."""
    if n_bytes <= 0:
        return 0.0
    n_packets = max(int(-(-n_bytes // config.packet_bytes)), 1)
    return n_packets * config.packet_bytes / config.bytes_per_second


def simulate_transfer(
    n_bytes: float,
    distance_fn: Callable[[float], float],
    wireless: WirelessModel,
    config: ChannelConfig,
    start_time: float,
    deadline: float,
) -> TransferResult:
    """Simulate transferring ``n_bytes`` between two moving vehicles.

    Parameters
    ----------
    n_bytes:
        Payload size (e.g. the nominal compressed model size).
    distance_fn:
        Maps absolute time to inter-vehicle distance; evaluated once per
        chunk so loss tracks the vehicles' actual motion.
    wireless:
        The loss model (possibly disabled for the "w/o loss" case).
    start_time, deadline:
        Transfer window in absolute simulation time.

    Returns
    -------
    TransferResult with ``completed`` false when range or deadline cut
    the transfer short.
    """
    if n_bytes <= 0:
        return TransferResult(True, 0.0, 0.0)
    remaining = float(n_bytes)
    now = start_time
    delivered = 0.0
    result = None
    while now < deadline:
        distance = distance_fn(now)
        if not wireless.in_range(distance):
            break
        rate = config.bytes_per_second * wireless.goodput_factor(distance)
        if rate <= 0:
            break
        chunk = min(config.chunk_seconds, deadline - now)
        can_send = rate * chunk
        if can_send >= remaining:
            elapsed = now - start_time + remaining / rate
            result = TransferResult(True, elapsed, float(n_bytes))
            break
        remaining -= can_send
        delivered += can_send
        now += chunk
    if result is None:
        result = TransferResult(False, now - start_time, delivered)
    telemetry.on_transfer(n_bytes, result, start_time)
    return result
