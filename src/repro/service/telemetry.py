"""Rolling telemetry for service-mode runs: one JSON object per line.

Every record carries ``schema_version`` (bump it when fields change
meaning) and a ``phase``:

* ``"run"`` — periodic mid-stream sample;
* ``"checkpoint"`` — emitted right after a checkpoint is written (carries
  its path);
* ``"settle"`` — the post-stream drain before final verdicts;
* ``"final"`` — the last record, with the end-of-run invariant verdicts.

Since schema version 2 the emitter is registry-backed: each sample is
written into ``repro_telemetry_*`` gauges on a
:class:`~repro.obs.metrics.MetricsRegistry` (a private, always-enabled one
by default) and the JSONL record is assembled *from those gauges*, so the
record and :meth:`TelemetryEmitter.render_text` (Prometheus text
exposition, dumped by the serve loop on SIGUSR1) can never disagree.

Fields (schema version 2): everything version 1 had — ``t_wall_s``
(seconds since the emitter started), ``sim_ns``, ``events_handled``,
``events_injected``, ``events_per_sec`` (handled per wall second since the
previous record), ``pending_events``, scheduler totals
(``recirculations``, ``recirc_bytes``, ``drops``, ``link_drops``,
``recirc_drops``, ``remote_sends``), the recirculation-queue depths
(``queue_depth``, ``peak_queue_depth`` — on every engine: the scheduler keeps
them), optional ``invariants`` — plus ``events_generated``.

Records may be buffered (``flush_every=N``); the serve loop flushes
explicitly before final checkpoints so a SIGTERM never loses a partial
window.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, TextIO

from repro.interp.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.invariants import InvariantReport

TELEMETRY_SCHEMA_VERSION = 2

#: network-sampled record fields backed by a ``repro_telemetry_<field>``
#: gauge, in record order; (name, help)
_GAUGE_FIELDS = (
    ("sim_ns", "Simulated clock at the last sample."),
    ("events_handled", "Total events handled."),
    ("events_injected", "Total events injected from the traffic stream."),
    ("events_per_sec", "Handled events per wall second since the previous sample."),
    ("pending_events", "Events waiting in the scheduler heap."),
    ("events_generated", "Total events produced by generate statements."),
    ("recirculations", "Total recirculation passes."),
    ("recirc_bytes", "Total bytes through recirculation ports."),
    ("remote_sends", "Total events sent over links."),
    ("drops", "Total handler-declared drops."),
    ("link_drops", "Total remote events lost to down links."),
    ("recirc_drops", "Total local events refused by bounded recirc queues."),
    ("queue_depth", "Current recirculation-queue depth, summed across switches."),
    ("peak_queue_depth", "Peak recirculation-queue depth of any switch."),
)


class TelemetryEmitter:
    """Writes telemetry records to a line-oriented stream.

    ``registry`` defaults to a private, always-enabled
    :class:`~repro.obs.metrics.MetricsRegistry` so sampling works even while
    the process-global registry is disabled.  ``flush_every`` buffers that
    many records between stream flushes (1 = flush each record); callers
    that buffer MUST call :meth:`flush` at shutdown — the serve loop does so
    in its signal-stop path before the final checkpoint.
    """

    def __init__(
        self,
        stream: TextIO,
        scenario: str,
        engine: str,
        seed: int,
        registry: Optional[MetricsRegistry] = None,
        flush_every: int = 1,
    ):
        self._stream = stream
        self.scenario = scenario
        self.engine = engine
        self.seed = seed
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        self._gauges = {
            name: self.registry.gauge(f"repro_telemetry_{name}", help_text)
            for name, help_text in _GAUGE_FIELDS
        }
        self.flush_every = max(1, flush_every)
        self._buffer: List[str] = []
        self._start = time.perf_counter()
        self._last_wall = self._start
        self._last_handled = 0
        self.records_emitted = 0

    # -- sampling ---------------------------------------------------------
    def sample(
        self, network: Network, handled_total: int, injected_total: int,
        rate: float,
    ) -> None:
        """Write one network sample into the registry gauges."""
        totals = network.total_stats()
        gauges = self._gauges
        gauges["sim_ns"].set(network.now_ns)
        gauges["events_handled"].set(handled_total)
        gauges["events_injected"].set(injected_total)
        gauges["events_per_sec"].set(round(rate, 1))
        gauges["pending_events"].set(network.pending_events())
        gauges["events_generated"].set(totals.events_generated)
        gauges["recirculations"].set(totals.recirculations)
        gauges["recirc_bytes"].set(totals.recirculated_bytes)
        gauges["remote_sends"].set(totals.remote_sends)
        gauges["drops"].set(totals.drops)
        gauges["link_drops"].set(totals.link_drops)
        gauges["recirc_drops"].set(totals.recirc_drops)
        gauges["queue_depth"].set(totals.queue_depth)
        gauges["peak_queue_depth"].set(totals.peak_queue_depth)

    def emit(
        self,
        network: Network,
        handled_total: int,
        injected_total: int,
        phase: str = "run",
        invariants: Optional[Sequence[InvariantReport]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Sample the network into the registry and write one record
        (assembled from the registry gauges); returns the record."""
        now = time.perf_counter()
        dt = now - self._last_wall
        rate = (handled_total - self._last_handled) / dt if dt > 0 else 0.0
        self.sample(network, handled_total, injected_total, rate)
        gauges = self._gauges
        record: Dict[str, object] = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "phase": phase,
            "t_wall_s": round(now - self._start, 3),
        }
        for name, _ in _GAUGE_FIELDS:
            record[name] = gauges[name].value
        if invariants is not None:
            record["invariants"] = [
                {"name": r.name, "ok": r.ok, "violations": r.violations}
                for r in invariants
            ]
        if extra:
            record.update(extra)
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        if len(self._buffer) >= self.flush_every:
            self.flush()
        self._last_wall = now
        self._last_handled = handled_total
        self.records_emitted += 1
        return record

    # -- output -----------------------------------------------------------
    def flush(self) -> None:
        """Write any buffered records and flush the underlying stream."""
        if self._buffer:
            self._stream.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._stream.flush()

    @property
    def buffered_records(self) -> int:
        return len(self._buffer)

    def render_text(self) -> str:
        """Prometheus text exposition of the sampling registry."""
        return self.registry.render_text()
