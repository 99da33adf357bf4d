"""Event-lifecycle tracing: span trees over simulated time, exported as
Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).

Every dispatched event becomes one span.  The parent link travels on
``EventInstance.trace_parent``: when a handler generates follow-up events the
scheduler stamps the generating span's id onto each child, so a chain
``generate → handle → recirc → cross-switch hop`` renders as one tree with
flow arrows between switches.

Determinism contract: span ids are ``(seed & 0xFFFF) << 48 | n`` where ``n``
is the dispatch ordinal, and span content is *simulated* time only — no wall
clocks, no engine names.  Since all three engines dispatch the identical
event sequence (pinned by the parity suites), the serialized trace is
byte-identical across engines for the same seed, so traces diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Span", "Tracer", "validate_chrome_trace"]

#: bump when the exported JSON layout changes shape
TRACE_FORMAT_VERSION = 1

# hop classification for a span, derived from where the event came from
HOP_INJECT = "inject"    # external traffic entering the network
HOP_RECIRC = "recirc"    # generated locally, re-entered via the recirc port
HOP_LINK = "link"        # crossed a link from another switch


@dataclass
class Span:
    """One handled event.  Times are simulated nanoseconds."""

    span_id: int
    parent_id: Optional[int]
    name: str
    switch: int
    ts_ns: int
    dur_ns: int
    hop: str
    args: tuple
    delay_ns: int


class Tracer:
    """Collects spans during a run; attach via ``network.tracer = Tracer(seed)``.

    The scheduler calls :meth:`begin_handle` once per dispatched event and
    stamps the returned id onto every event that dispatch generates.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.spans: List[Span] = []
        self._next = 0
        self._id_base = (self.seed & 0xFFFF) << 48

    def begin_handle(self, event, switch_id: int, time_ns: int,
                     dur_ns: int) -> int:
        """Record a span for ``event`` being handled now; returns its id."""
        parent = getattr(event, "trace_parent", None)
        if parent is None:
            hop = HOP_INJECT
        elif event.source == switch_id:
            hop = HOP_RECIRC
        else:
            hop = HOP_LINK
        span_id = self._id_base | self._next
        self._next += 1
        self.spans.append(Span(
            span_id=span_id,
            parent_id=parent,
            name=event.name,
            switch=switch_id,
            ts_ns=time_ns,
            dur_ns=dur_ns,
            hop=hop,
            args=tuple(event.args),
            delay_ns=event.delay_ns,
        ))
        return span_id

    # -- chrome export ----------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event document: one process per switch, "X" complete
        events on the simulated clock, "s"/"f" flow arrows for parent links."""
        events: List[dict] = []
        for switch in sorted({span.switch for span in self.spans}):
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": switch,
                "tid": 0,
                "args": {"name": f"switch {switch}"},
            })
        known = {span.span_id: span for span in self.spans}
        for span in self.spans:
            ts_us = span.ts_ns / 1000.0
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.hop,
                "pid": span.switch,
                "tid": 0,
                "ts": ts_us,
                "dur": span.dur_ns / 1000.0,
                "args": {
                    "span": _hex_id(span.span_id),
                    "parent": _hex_id(span.parent_id) if span.parent_id is not None else "",
                    "event_args": list(span.args),
                    "delay_ns": span.delay_ns,
                },
            })
            parent = known.get(span.parent_id) if span.parent_id is not None else None
            if parent is not None:
                flow_id = _hex_id(span.span_id)
                events.append({
                    "ph": "s",
                    "id": flow_id,
                    "name": "event-flow",
                    "cat": span.hop,
                    "pid": parent.switch,
                    "tid": 0,
                    "ts": parent.ts_ns / 1000.0,
                })
                events.append({
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "name": "event-flow",
                    "cat": span.hop,
                    "pid": span.switch,
                    "tid": 0,
                    "ts": ts_us,
                })
        return {
            "displayTimeUnit": "ns",
            "otherData": {
                "format_version": TRACE_FORMAT_VERSION,
                "seed": self.seed,
                "spans": len(self.spans),
            },
            "traceEvents": events,
        }

    def to_json_bytes(self) -> bytes:
        """Deterministic serialization: sorted keys, no whitespace."""
        return json.dumps(self.chrome_trace(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def write(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the number of spans."""
        payload = self.to_json_bytes()
        with open(path, "wb") as fh:
            fh.write(payload)
            fh.write(b"\n")
        return len(self.spans)


def _hex_id(span_id: int) -> str:
    return f"0x{span_id:x}"


def validate_chrome_trace(doc: dict) -> dict:
    """Structural validation of a Chrome trace document.

    Raises ``ValueError`` on the first problem; returns summary counts on
    success.  Mirrors ``tests/schemas/chrome_trace.schema.json`` for use
    without jsonschema installed.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    counts = {"M": 0, "X": 0, "s": 0, "f": 0}
    span_ids = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in counts:
            raise ValueError(f"traceEvents[{i}]: unknown phase {ph!r}")
        counts[ph] += 1
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"traceEvents[{i}]: {key} must be an int")
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            raise ValueError(f"traceEvents[{i}]: ts must be a non-negative number")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                raise ValueError(f"traceEvents[{i}]: dur must be non-negative")
            args = ev.get("args")
            if not isinstance(args, dict) or "span" not in args:
                raise ValueError(f"traceEvents[{i}]: X event needs args.span")
            span_ids.add(args["span"])
        elif ph in ("s", "f") and "id" not in ev:
            raise ValueError(f"traceEvents[{i}]: flow event needs an id")
    # every parent referenced by an X event must itself exist as a span
    for i, ev in enumerate(events):
        if ev.get("ph") == "X":
            parent = ev["args"].get("parent", "")
            if parent and parent not in span_ids:
                raise ValueError(
                    f"traceEvents[{i}]: parent {parent} has no matching span")
    if counts["s"] != counts["f"]:
        raise ValueError(
            f"unbalanced flow events: {counts['s']} starts, {counts['f']} ends")
    return counts
