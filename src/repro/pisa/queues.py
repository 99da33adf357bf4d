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

Both mechanisms are modelled here so the bandwidth/accuracy trade-off of
Figure 14 can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.metrics import OBS as _OBS, REGISTRY as _REGISTRY
from repro.pisa.tofino import MIN_FRAME_BYTES, DEFAULT_TIMING, TofinoTiming

# only touched behind an ``if _OBS.enabled:`` guard (see repro.obs.metrics)
_M_DELAYQ_PARKS = _REGISTRY.counter(
    "repro_pisa_delayq_parks_total",
    "Event packets parked in a pausable delay queue.")
_M_DELAYQ_RELEASES = _REGISTRY.counter(
    "repro_pisa_delayq_releases_total",
    "Delay-queue release windows (PFC unpause cycles).")
_M_DELAYQ_PASSES = _REGISTRY.counter(
    "repro_pisa_delayq_passes_total",
    "Recirculation passes made by parked packets during releases.")


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

    @property
    def relative_error(self) -> Optional[float]:
        if self.released_at_ns is None or self.requested_delay_ns <= 0:
            return None
        return abs(self.delay_error_ns) / self.requested_delay_ns


@dataclass
class DelayMechanismResult:
    """Outcome of delaying a batch of events with one mechanism."""

    mechanism: str
    events: List[DelayedEvent] = field(default_factory=list)
    recirculation_passes: int = 0
    recirculated_bytes: int = 0
    buffer_bytes_peak: int = 0
    duration_ns: int = 0

    def recirc_bandwidth_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.recirculated_bytes * 8 / (self.duration_ns * 1e-9) / 1e9

    def max_abs_error_ns(self) -> int:
        errors = [abs(e.delay_error_ns) for e in self.events if e.delay_error_ns is not None]
        return max(errors) if errors else 0

    def mean_relative_error(self) -> float:
        errors = [e.relative_error for e in self.events if e.relative_error is not None]
        return sum(errors) / len(errors) if errors else 0.0


class PausableDelayQueue:
    """The PFC-paused egress queue used by Lucid's event scheduler.

    Events enter the queue and are only released when the queue is unpaused,
    which happens every ``release_interval_ns``.  On release, an event whose
    remaining delay has expired is delivered; otherwise it recirculates once
    (consuming one recirculation pass) and re-enters the queue.
    """

    def __init__(
        self,
        release_interval_ns: Optional[int] = None,
        timing: TofinoTiming = DEFAULT_TIMING,
    ):
        self.timing = timing
        self.release_interval_ns = (
            release_interval_ns
            if release_interval_ns is not None
            else timing.delay_queue_release_interval_ns
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
        if _OBS.enabled:
            _M_DELAYQ_PARKS.inc()
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
        if _OBS.enabled:
            _M_DELAYQ_RELEASES.inc()
            _M_DELAYQ_PASSES.inc(len(self.queue))
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


def simulate_concurrent_delays(
    concurrent_events: int,
    requested_delay_ns: int = 1_000_000,
    duration_ns: int = 1_000_000_000,
    event_size_bytes: int = MIN_FRAME_BYTES,
    release_interval_ns: int = 100_000,
    release_window_ns: int = 7_000,
    baseline_loop_ns: int = 480,
    use_delay_queue: bool = True,
    timing: TofinoTiming = DEFAULT_TIMING,
) -> DelayMechanismResult:
    """Reproduce one point of Figure 14.

    ``concurrent_events`` events are kept perpetually delayed for
    ``duration_ns`` (each event, when its delay expires, is immediately
    re-delayed - this models the steady state of "delaying N concurrent events
    indefinitely").  Returns the bandwidth consumed on the recirculation port
    and the delay error statistics.

    Mechanism details:

    * With the pausable queue, the queue is unpaused once per
      ``release_interval_ns`` by the first PFC frame of a pair and re-paused
      ``release_window_ns`` later by the second.  While the queue is open,
      parked event packets drain, recirculate (one loop takes roughly the
      recirculation latency) and re-enter the queue, so each parked event makes
      ``ceil(release_window / recirculation_latency)`` passes per release.
    * Without the queue (the baseline), every delayed packet loops through the
      recirculation port back-to-back; one loop takes ``baseline_loop_ns``
      (the recirculation wire + queueing time, without a full pipeline pass),
      so N concurrent events offer ``N * size / baseline_loop_ns`` of load,
      capped at the port bandwidth.
    """
    result = DelayMechanismResult(
        mechanism="delay_queue" if use_delay_queue else "baseline", duration_ns=duration_ns
    )
    if concurrent_events <= 0:
        return result

    if use_delay_queue:
        releases = duration_ns // release_interval_ns
        passes_per_release = max(
            1, -(-release_window_ns // timing.recirculation_latency_ns)
        )
        passes = releases * concurrent_events * passes_per_release
        result.recirculation_passes = passes
        result.recirculated_bytes = passes * event_size_bytes
        result.buffer_bytes_peak = concurrent_events * event_size_bytes
        # Delay error: a parked event becomes ready somewhere between two
        # releases and waits for the next one.  Because the events that request
        # new delays are themselves triggered by released events, their phase
        # is biased towards "just after a release", so the residual error is
        # spread over half the release interval (the paper measures errors of
        # up to ~50 us for a 100 us release interval).
        for i in range(concurrent_events):
            event = DelayedEvent(
                event_id=i,
                requested_delay_ns=requested_delay_ns,
                enqueued_at_ns=0,
                size_bytes=event_size_bytes,
            )
            error = ((i + 1) * (release_interval_ns // 2)) // max(1, concurrent_events)
            event.released_at_ns = event.enqueued_at_ns + requested_delay_ns + error
            result.events.append(event)
        return result

    # baseline: each delayed event recirculates continuously, back to back
    passes_per_event = duration_ns // baseline_loop_ns
    total_passes = passes_per_event * concurrent_events
    port_pps = timing.recirc_bandwidth_bps / (event_size_bytes * 8)
    max_passes = int(port_pps * duration_ns * 1e-9)
    result.recirculation_passes = min(total_passes, max_passes)
    result.recirculated_bytes = result.recirculation_passes * event_size_bytes
    result.buffer_bytes_peak = concurrent_events * event_size_bytes
    saturated = total_passes > max_passes
    for i in range(concurrent_events):
        event = DelayedEvent(
            event_id=i,
            requested_delay_ns=requested_delay_ns,
            enqueued_at_ns=0,
            size_bytes=event_size_bytes,
        )
        # accuracy: quantised to one recirculation pass, unless the port is
        # saturated, in which case queueing inflates delays proportionally
        error = timing.recirculation_latency_ns
        if saturated:
            inflation = total_passes / max_passes
            error = int(requested_delay_ns * (inflation - 1)) + error
        event.released_at_ns = event.enqueued_at_ns + requested_delay_ns + error
        result.events.append(event)
    return result
