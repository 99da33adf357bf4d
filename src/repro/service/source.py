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
from operator import itemgetter, length_hint
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import SimulationError
from repro.interp.network import CONTROL, SourceItem

#: traffic items per pull: the bound on what a run holds undelivered
CHUNK = 1_024

_target = itemgetter(1)


class ReplayableSource:
    """Iterate a traffic stream while tracking a replayable cursor.

    ``source`` is either a zero-arg factory returning a fresh iterable (the
    scenario ``traffic`` convention), called once, or a bare iterable.

    Counters: ``consumed`` is every item yielded (including CONTROL
    actions), ``injected`` counts only events, ``last_ns`` is the latest
    timestamp seen.  Timestamps must not decrease: an item earlier than
    ``last_ns`` raises :class:`SimulationError` once every item before it
    has been yielded.  An item returned via :meth:`push_back` is
    *uncounted* by :meth:`cursor` until it is pulled again, so a checkpoint
    taken while the simulator holds a pending item replays that item on
    resume.  ``traffic_s`` is the time spent pulling.  The counters are kept
    per pull: each is read off the position in the latest one.
    """

    __slots__ = ("_items", "_pull", "_chunk", "_before", "_last_before", "_controls",
                 "_backwards", "_pushed_back", "traffic_s")

    def __init__(self, source: Union[Callable[[], Iterable[SourceItem]], Iterable[SourceItem]]):
        self._items: Iterator[SourceItem] = iter(source() if callable(source) else source)
        #: the latest pull, and the iterator delivering it
        self._pull: List[SourceItem] = []
        self._chunk: Iterator[SourceItem] = iter(self._pull)
        #: items, and the timestamp of the last one, before the latest pull
        self._before = 0
        self._last_before = 0
        #: CONTROL actions among the items before the latest pull
        self._controls = 0
        #: the error for the first item of a pull that goes back in time,
        #: raised once the items before it are delivered
        self._backwards: Optional[SimulationError] = None
        self._pushed_back: Optional[SourceItem] = None
        self.traffic_s = 0.0

    @property
    def consumed(self) -> int:
        return self._before + len(self._pull) - length_hint(self._chunk)

    @property
    def last_ns(self) -> int:
        delivered = len(self._pull) - length_hint(self._chunk)
        return self._pull[delivered - 1][0] if delivered else self._last_before

    @property
    def injected(self) -> int:
        delivered = self._pull[:len(self._pull) - length_hint(self._chunk)]
        return self.consumed - self._controls - list(map(_target, delivered)).count(CONTROL)

    # -- iteration -----------------------------------------------------------
    def __iter__(self) -> Iterator[SourceItem]:
        """The items from the next one on: a held item, then each pull's own
        list iterator, so an item costs no call of :meth:`__next__`.  An item
        returned by :meth:`push_back` comes first from the next ``iter`` (or
        ``next``), not from an iterator already running."""
        while True:
            if self._pushed_back is not None:
                yield next(self)
            yield from self._chunk
            try:
                yield self._next_pull()
            except StopIteration:
                return

    def __next__(self) -> SourceItem:
        item = self._pushed_back
        if item is not None:
            self._pushed_back = None
            return item
        item = next(self._chunk, None)
        if item is None:
            item = self._next_pull()
        return item

    def _next_pull(self) -> SourceItem:
        """Pull the next list of items, check its time order once, and
        return its first item."""
        if self._backwards is not None:
            raise self._backwards
        done, self._pull = self._pull, []
        if done:
            self._before += len(done)
            self._last_before = done[-1][0]
            self._controls += list(map(_target, done)).count(CONTROL)
        del done  # a used-up list is let go before the next is built
        pulled = perf_counter()
        items = list(islice(self._items, CHUNK))
        self.traffic_s += perf_counter() - pulled
        last = self._last_before
        for at, item in enumerate(items):
            if item[0] < last:
                self._backwards = SimulationError(
                    f"source went backwards in time: item {self._before + at} is at "
                    f"{item[0]} ns, after an item at {last} ns")
                del items[at:]
                break
            last = item[0]
        self._pull = items
        self._chunk = iter(items)
        return next(self._chunk) if items or self._backwards is None else self._next_pull()

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
        delivered = len(self._pull) - length_hint(self._chunk) - undo
        return {"consumed": self.consumed - undo,
                "injected": self.injected - (undo and held[1] != CONTROL),
                "last_ns": self._pull[delivered - 1][0] if delivered else self._last_before}

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
