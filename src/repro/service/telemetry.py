"""Rolling telemetry for service-mode runs: one JSON object per line.

Every record carries ``schema_version`` (bump it when fields change
meaning) and a ``phase``:

* ``"run"`` — periodic mid-stream sample;
* ``"checkpoint"`` — emitted right after a checkpoint is written (carries
  its path);
* ``"settle"`` — the post-stream drain before final verdicts;
* ``"final"`` — the last record, with the end-of-run invariant verdicts.

Each record is built straight from the one ledger — ``network.total_stats()``
(the per-switch :class:`~repro.interp.network.SwitchStats` summed),
``network.now_ns`` and ``network.pending_events()`` — and written and
flushed at once.  Serve mode's SIGUSR1 dump reads the same ledger through
the global registry (:mod:`repro.obs.metrics`), so its ``repro_network_*``
values are the record's fields under their metric names.

Fields (schema version 2), in record order after the header
(``schema_version``, ``scenario``, ``engine``, ``seed``, ``phase``,
``t_wall_s`` — seconds since the emitter started): ``sim_ns``,
``events_handled``, ``events_injected`` (the caller's counts),
``events_per_sec`` (handled per wall second since the previous record, or
since the emitter started from ``handled`` events — a resumed run's restored
total, so its first record reads 0),
``pending_events``, ``events_generated``, scheduler totals
(``recirculations``, ``recirc_bytes``, ``remote_sends``, ``drops``,
``link_drops``, ``recirc_drops``), the recirculation-queue depths
(``queue_depth``, ``peak_queue_depth`` — on every engine: the scheduler keeps
them), then optional ``invariants`` and the caller's ``extra`` fields.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Sequence, TextIO

from repro.interp.network import Network
from repro.scenarios.invariants import InvariantReport

TELEMETRY_SCHEMA_VERSION = 2


class TelemetryEmitter:
    """Writes telemetry records to a line-oriented stream, one line per
    :meth:`emit`, flushed as it is written."""

    def __init__(
        self, stream: TextIO, scenario: str, engine: str, seed: int, handled: int = 0
    ):
        self._stream = stream
        self.scenario = scenario
        self.engine = engine
        self.seed = seed
        self._start = time.perf_counter()
        self._last_wall = self._start
        self._last_handled = handled

    def emit(
        self,
        network: Network,
        handled_total: int,
        injected_total: int,
        phase: str = "run",
        invariants: Optional[Sequence[InvariantReport]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Write one record read from ``network``'s ledger; returns it."""
        now = time.perf_counter()
        dt = now - self._last_wall
        rate = (handled_total - self._last_handled) / dt if dt > 0 else 0.0
        totals = network.total_stats()
        record: Dict[str, object] = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "phase": phase,
            "t_wall_s": round(now - self._start, 3),
            "sim_ns": network.now_ns,
            "events_handled": handled_total,
            "events_injected": injected_total,
            "events_per_sec": round(rate, 1),
            "pending_events": network.pending_events(),
            "events_generated": totals.events_generated,
            "recirculations": totals.recirculations,
            "recirc_bytes": totals.recirculated_bytes,
            "remote_sends": totals.remote_sends,
            "drops": totals.drops,
            "link_drops": totals.link_drops,
            "recirc_drops": totals.recirc_drops,
            "queue_depth": totals.queue_depth,
            "peak_queue_depth": totals.peak_queue_depth,
        }
        if invariants is not None:
            record["invariants"] = [
                {"name": r.name, "ok": r.ok, "violations": r.violations}
                for r in invariants
            ]
        if extra:
            record.update(extra)
        self._stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._stream.flush()
        self._last_wall = now
        self._last_handled = handled_total
        return record
