"""An in-memory span recorder for the traced pass.

The harness wraps the public functions at each layer boundary (see
``layers.py``); every call becomes one span: name, start, end, parent id and
the run id of the pass it belongs to.  Work that happens hundreds of
thousands of times per pass (handler calls, observer callbacks, traffic
items) is not recorded call by call: the instruments that time it
(``HandlerProfiler``, the timed callbacks in ``layers.py``) charge their
totals to one *aggregate* child span carrying the call count.

A span's self time is its duration minus the time its children cover.
Spans stay in memory until :meth:`SpanRecorder.write` is called at exit.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    def __init__(self, run_prefix):
        self.run_prefix = run_prefix
        self.spans = []
        self._stack = []
        self._charged = {}
        self._runs = 0

    def begin(self, name):
        """Open a span under the innermost open one; returns its id."""
        if self._stack:
            parent = self._stack[-1]
            run = self.spans[parent]["run"]
        else:
            parent = None
            self._runs += 1
            run = f"{self.run_prefix}-{self._runs}"
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "parent": parent, "run": run, "name": name,
             "start": perf_counter(), "end": None}
        )
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid]["end"] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(
                f"span {self.spans[sid]['name']!r} closed while "
                f"{self.spans[popped]['name']!r} was still open"
            )

    @contextmanager
    def span(self, name):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def _aggregate(self, name, parent):
        """The aggregate child ``name`` of span ``parent``, made on first use."""
        sid = self._charged.get((name, parent))
        if sid is None:
            sid = self._charged[(name, parent)] = len(self.spans)
            start = self.spans[parent]["start"]
            self.spans.append(
                {"id": sid, "parent": parent, "run": self.spans[parent]["run"],
                 "name": name, "start": start, "end": start,
                 "aggregate": True, "count": 0}
            )
        return self.spans[sid]

    def charge(self, name, seconds, count=1):
        """Add ``count`` calls that took ``seconds`` together to the aggregate
        child ``name`` of the innermost open span."""
        span = self._aggregate(name, self._stack[-1])
        span["end"] += seconds
        span["count"] += count

    def charger(self, name):
        """:meth:`charge` for per-item use: the returned ``add(seconds)``
        looks the aggregate up again only when the innermost open span has
        changed, so that the recorder's own cost per item stays small."""
        stack = self._stack
        parent = span = None

        def add(seconds, count=1):
            nonlocal parent, span
            if stack[-1] != parent:
                parent = stack[-1]
                span = self._aggregate(name, parent)
            span["end"] += seconds
            span["count"] += count

        return add

    def wrap(self, fn, name, after=None):
        """``fn`` with a span around every call.  ``name`` is the span name,
        or a function of the call's ``(args, kwargs)`` returning it;
        ``after(result)`` runs once the span has closed."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            sid = begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(sid)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- reading the spans back ---------------------------------------------
    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def count(self, name):
        return sum(s.get("count", 1) for s in self.named(name))

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self):
        """Self time per span id: duration minus the children's durations."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_total(self, name):
        own = self.self_times()
        return sum(own[s["id"]] for s in self.named(name))

    def attributed_ratio(self):
        """Share of the root spans' time that some span below the root
        accounts for: 1 minus the time the harness could not attribute."""
        own = self.self_times()
        roots = [s for s in self.spans if s["parent"] is None]
        span_total = sum(s["end"] - s["start"] for s in roots)
        unattributed = sum(own[s["id"]] for s in roots)
        return (span_total - unattributed) / span_total if span_total else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


class Patches:
    """Swap attributes for wrapped versions and put the originals back on
    exit: ``with Patches([(owner, "attr", make), ...]): ...`` installs
    ``make(original)`` as ``owner.attr``."""

    def __init__(self, targets):
        self._targets = targets
        self._saved = []

    def __enter__(self):
        for owner, attr, make in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
