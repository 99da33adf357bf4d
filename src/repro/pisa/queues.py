"""The pausable delay queue and its recirculation baseline (Section 3.2,
Figure 14).

Lucid delays events by parking their packets in a special egress queue of the
recirculation port.  The queue is paused most of the time and released at a
fixed interval by pairs of PFC frames from the packet generator; each release
lets the queued event packets out, their remaining delay is decremented by
their queue residence time, and packets whose delay has not yet expired
recirculate back into the queue.

The alternative (the Figure 14 "baseline") is to recirculate delayed packets
continuously until their delay expires, which costs one full recirculation-port
pass every ~600 ns per delayed event.

:class:`PausableDelayQueue` is the queue's behaviour, event by event (the
oracle the scheduler's pass counts are tested against);
:func:`figure14_point` is the closed form of Figure 14's bandwidth/accuracy
trade-off for both mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.interp.events import MIN_FRAME_BYTES
from repro.interp.network import SchedulerConfig

#: the scheduler's timing constants: recirculation latency and port
#: bandwidth, and the delay queue's release interval
_TIMING = SchedulerConfig()

# the Figure 14 experiment: each event re-delays itself by 1 ms for 1 s; a
# release keeps the queue open for 7 us; a baseline loop (recirculation wire
# and queueing, without a pipeline pass) takes 480 ns
REQUESTED_DELAY_NS = 1_000_000
DURATION_NS = 1_000_000_000
RELEASE_WINDOW_NS = 7_000
BASELINE_LOOP_NS = 480


@dataclass
class DelayedEvent:
    """One event packet parked for delayed execution."""

    event_id: int
    requested_delay_ns: int
    enqueued_at_ns: int
    size_bytes: int = MIN_FRAME_BYTES
    released_at_ns: Optional[int] = None

    @property
    def actual_delay_ns(self) -> Optional[int]:
        if self.released_at_ns is None:
            return None
        return self.released_at_ns - self.enqueued_at_ns

    @property
    def delay_error_ns(self) -> Optional[int]:
        if self.released_at_ns is None:
            return None
        return self.actual_delay_ns - self.requested_delay_ns


class PausableDelayQueue:
    """The PFC-paused egress queue used by Lucid's event scheduler.

    Events enter the queue and are only released when the queue is unpaused,
    which happens every ``release_interval_ns``.  On release, an event whose
    remaining delay has expired is delivered; otherwise it recirculates once
    (consuming one recirculation pass) and re-enters the queue.
    """

    def __init__(self, release_interval_ns: Optional[int] = None):
        self.release_interval_ns = (
            release_interval_ns
            if release_interval_ns is not None
            else _TIMING.delay_release_interval_ns
        )
        self.queue: List[Tuple[DelayedEvent, int]] = []  # (event, deliver_not_before)
        self.now_ns = 0
        self.recirculation_passes = 0
        self.recirculated_bytes = 0
        self.delivered: List[DelayedEvent] = []
        self.buffer_bytes_peak = 0

    def enqueue(self, event: DelayedEvent) -> None:
        if event.requested_delay_ns < 0:
            raise SimulationError("cannot delay an event by a negative time")
        deadline = event.enqueued_at_ns + event.requested_delay_ns
        self.queue.append((event, deadline))
        self._update_peak()

    def _update_peak(self) -> None:
        occupancy = sum(e.size_bytes for e, _ in self.queue)
        self.buffer_bytes_peak = max(self.buffer_bytes_peak, occupancy)

    def run_until_empty(self, start_ns: int = 0) -> None:
        """Advance time in release intervals until every event is delivered."""
        self.now_ns = max(self.now_ns, start_ns)
        guard = 0
        while self.queue:
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - defensive
                raise SimulationError("delay queue did not drain")
            self.now_ns += self.release_interval_ns
            self._release()

    def _release(self) -> None:
        still_queued: List[Tuple[DelayedEvent, int]] = []
        for event, deadline in self.queue:
            if self.now_ns >= deadline:
                event.released_at_ns = self.now_ns
                self.delivered.append(event)
                # the released packet makes one final recirculation pass to
                # reach its handler
                self.recirculation_passes += 1
                self.recirculated_bytes += event.size_bytes
            else:
                # not ready: the packet recirculates once and re-enters the queue
                self.recirculation_passes += 1
                self.recirculated_bytes += event.size_bytes
                still_queued.append((event, deadline))
        self.queue = still_queued
        self._update_peak()


def figure14_point(concurrent_events: int, use_delay_queue: bool = True) -> Tuple[float, float]:
    """One point of Figure 14: the recirculation-port bandwidth (Gb/s) and the
    mean relative delay error of keeping ``concurrent_events`` events
    perpetually delayed for ``DURATION_NS`` (each event, when its delay
    expires, is immediately re-delayed by ``REQUESTED_DELAY_NS``).

    * With the pausable queue, the queue is unpaused once per
      release interval by the first PFC frame of a pair and re-paused
      ``RELEASE_WINDOW_NS`` later by the second.  While the queue is open,
      parked event packets drain, recirculate (one loop takes roughly the
      recirculation latency) and re-enter the queue, so each parked event makes
      ``ceil(release_window / recirculation_latency)`` passes per release.
      A parked event becomes ready somewhere between two releases and waits
      for the next one.  Because the events that request new delays are
      themselves triggered by released events, their phase is biased towards
      "just after a release", so event ``i`` of ``n`` is late by
      ``(i + 1) / n`` of half the release interval (the paper measures errors
      of up to ~50 us for a 100 us release interval).
    * Without the queue (the baseline), every delayed packet loops through the
      recirculation port back-to-back; one loop takes ``BASELINE_LOOP_NS``
      (the recirculation wire + queueing time, without a full pipeline pass),
      so N concurrent events offer ``N * size / BASELINE_LOOP_NS`` of load,
      capped at the port bandwidth.  A delay is quantised to one
      recirculation pass, unless the port is saturated, in which case
      queueing inflates delays proportionally.

    Both hold ``concurrent_events`` minimum-size packets in the buffer.
    """
    n = max(0, concurrent_events)
    if use_delay_queue:
        releases = DURATION_NS // _TIMING.delay_release_interval_ns
        passes_per_release = max(
            1, -(-RELEASE_WINDOW_NS // _TIMING.recirculation_latency_ns)
        )
        passes = releases * n * passes_per_release
        half_interval = _TIMING.delay_release_interval_ns // 2
        errors = [((i + 1) * half_interval) // n for i in range(n)]
    else:
        total_passes = DURATION_NS // BASELINE_LOOP_NS * n
        port_pps = _TIMING.recirc_bandwidth_bps / (MIN_FRAME_BYTES * 8)
        max_passes = int(port_pps * DURATION_NS * 1e-9)
        passes = min(total_passes, max_passes)
        error = _TIMING.recirculation_latency_ns
        if total_passes > max_passes:
            inflation = total_passes / max_passes
            error = int(REQUESTED_DELAY_NS * (inflation - 1)) + error
        errors = [error] * n
    gbps = passes * MIN_FRAME_BYTES * 8 / (DURATION_NS * 1e-9) / 1e9
    relative = [abs(error) / REQUESTED_DELAY_NS for error in errors]
    return gbps, sum(relative) / len(relative) if relative else 0.0
