"""A streaming traffic source with a replayable cursor.

Streaming traffic models are lazy generators: they cannot be serialised into
a checkpoint.  What *can* be checkpointed is their position — the seeded
generator is deterministic, so "the same factory, advanced ``consumed``
items" reproduces both the stream remainder **and** the traffic model's side
state (per-flow ground-truth counters, first-packet timestamps) that
settle-time invariants read.

:class:`ReplayableSource` wraps a factory (or a bare iterable) and tracks
that position while behaving as a normal iterator, so it plugs straight into
``Network.run(source=...)``.  It is the one place that pulls traffic, in
lists of ``CHUNK`` items, each pull timed into ``traffic_s`` (so a traffic
model's side state runs up to a chunk ahead of the drain).  It also
implements the ``push_back(item)`` hook the simulator looks for: an
interrupted run returns the one not-yet-due item it holds, instead of
pushing it onto the event heap.  This keeps source-vs-heap tie-breaking
identical when the run resumes, and keeps CONTROL callables (which cannot
be snapshotted) out of the heap.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, Optional, Union

from repro.errors import SimulationError
from repro.interp.network import CONTROL, SourceItem

#: traffic items per pull: the bound on what a run holds undelivered
CHUNK = 1_024


class ReplayableSource:
    """Iterate a traffic stream while tracking a replayable cursor.

    ``source`` is either a zero-arg factory returning a fresh iterable (the
    scenario ``traffic`` convention), called once, or a bare iterable.

    Counters: ``consumed`` is every item yielded (including CONTROL
    actions), ``injected`` counts only events, ``last_ns`` is the latest
    timestamp seen.  Timestamps must not decrease: an item earlier than
    ``last_ns`` raises :class:`SimulationError`.  An item returned via
    :meth:`push_back` is *uncounted* by :meth:`cursor` until it is pulled
    again, so a checkpoint taken while the simulator holds a pending item
    replays that item on resume.  ``traffic_s`` is the time spent pulling.
    """

    __slots__ = ("_items", "_chunk", "consumed", "last_ns", "_controls", "_prev_ns",
                 "_pushed_back", "traffic_s")

    def __init__(self, source: Union[Callable[[], Iterable[SourceItem]], Iterable[SourceItem]]):
        self._items: Iterator[SourceItem] = iter(source() if callable(source) else source)
        self.consumed = 0
        self.last_ns = 0
        #: CONTROL actions among the consumed items
        self._controls = 0
        #: ``last_ns`` before the latest pull: cursor()'s undo of a held item
        self._prev_ns = 0
        self._pushed_back: Optional[SourceItem] = None
        #: the undelivered rest of the latest pull
        self._chunk: Iterator[SourceItem] = iter(())
        self.traffic_s = 0.0

    @property
    def injected(self) -> int:
        return self.consumed - self._controls

    # -- iteration -----------------------------------------------------------
    def __iter__(self) -> "ReplayableSource":
        return self

    def __next__(self) -> SourceItem:
        item = self._pushed_back
        if item is not None:
            self._pushed_back = None
            return item
        item = next(self._chunk, None)
        if item is None:
            # a list iterator lets go of its list once it is used up
            pulled = perf_counter()
            self._chunk = iter(list(islice(self._items, CHUNK)))
            self.traffic_s += perf_counter() - pulled
            item = next(self._chunk)
        time_ns = item[0]
        if time_ns < self.last_ns:
            raise SimulationError(
                f"source went backwards in time: item {self.consumed} is at "
                f"{time_ns} ns, after an item at {self.last_ns} ns"
            )
        self._prev_ns = self.last_ns
        self.last_ns = time_ns
        self.consumed += 1
        if item[1] == CONTROL:
            self._controls += 1
        return item

    # -- simulator hooks -----------------------------------------------------
    def push_back(self, item: SourceItem) -> None:
        """Return the most recently pulled item; it is yielded again first.
        Only the last pulled item may be returned (the cursor can undo
        exactly one pull)."""
        if self._pushed_back is not None:
            raise SimulationError("push_back: an item is already held")
        self._pushed_back = item

    # -- cursor --------------------------------------------------------------
    def peek(self) -> Optional[SourceItem]:
        """The next item without consuming it (``None`` once the stream has
        run dry)."""
        if self._pushed_back is not None:
            return self._pushed_back
        try:
            item = next(self)
        except StopIteration:
            return None
        self.push_back(item)
        return item

    def cursor(self) -> Dict[str, int]:
        """The replayable position: pass ``cursor()["consumed"]`` to
        :meth:`skip` on a freshly built source to reach the same point.
        ``injected``/``last_ns`` are recorded for replay validation.  A
        pushed-back (pulled but undelivered) item is excluded."""
        held = self._pushed_back
        undo = held is not None
        return {"consumed": self.consumed - undo,
                "injected": self.injected - (undo and held[1] != CONTROL),
                "last_ns": self._prev_ns if undo else self.last_ns}

    def skip(self, count: int) -> "ReplayableSource":
        """Advance a *fresh* source past ``count`` items without delivering
        them — the checkpoint-restore replay.  Skipped CONTROL actions are
        discarded, not executed: their effects are part of the restored
        network snapshot.  Replaying re-runs the generator, so traffic-model
        side state (ground-truth counters) is reproduced exactly."""
        if self.consumed or self._pushed_back is not None:
            raise SimulationError("skip() requires a freshly built source")
        for _ in range(count):
            try:
                next(self)
            except StopIteration:
                raise SimulationError(
                    f"source ended after {self.consumed} items while replaying "
                    f"a cursor of {count}: the traffic stream differs from the "
                    f"one that was checkpointed"
                ) from None
        return self
