"""Tofino-specific timing constants used by the delay-queue models.

The values follow the numbers the paper reports or assumes: a 100 Gb/s
recirculation port, ~600 ns per recirculation pass, and a pausable delay
queue released every 100 µs by PFC frames from the packet generator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TofinoTiming:
    """Timing constants of the simulated switch."""

    recirculation_latency_ns: int = 600
    recirc_bandwidth_bps: float = 100e9
    delay_queue_release_interval_ns: int = 100_000


DEFAULT_TIMING = TofinoTiming()

#: minimum Ethernet frame size used for event packets (Section 7.2)
MIN_FRAME_BYTES = 64
