"""Runtime event values and the event combinators (Section 3.1).

An event instance is the four-tuple the paper describes: a *name*, carried
*data*, a *time* (here: an extra delay in nanoseconds), and a *place* (a
switch id, a named multicast group, or ``LOCAL``).  ``Event.delay`` and
``Event.locate`` return new values.  **Events are immutable**: nothing may
assign to an instance's fields after construction.  The scheduler relies on
it: every copy of a multicast shares one delivered instance in the heap (see
``Network._schedule_generated``).

``EventInstance`` is a hand-written ``__slots__`` class rather than a frozen
dataclass: event allocation sits on the hottest path of every engine (each
dispatched and each generated event allocates one), and the dataclass
machinery (``__init__`` with default factories, frozen ``__setattr__``)
costs ~6x more per instance than a plain slotted class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

#: sentinel location meaning "the switch that generated the event"
LOCAL = -1

#: minimum Ethernet frame size used for event packets (Section 7.2)
MIN_FRAME_BYTES = 64


class EventInstance:
    """A concrete event awaiting (or undergoing) handling.

    Two events are equal iff name, data, time, place, and source agree —
    regardless of which dispatch generated them (``trace_parent``).
    Instances are immutable (see the module docstring).
    """

    __slots__ = (
        "name",
        "args",
        "delay_ns",
        "location",
        "group",
        "source",
        "trace_parent",
    )

    def __init__(
        self,
        name: str,
        args: Tuple[int, ...] = (),
        delay_ns: int = 0,
        location: int = LOCAL,
        group: Optional[Tuple[int, ...]] = None,
        source: Optional[int] = None,
        trace_parent: Optional[int] = None,
    ) -> None:
        self.name = name
        self.args = args
        self.delay_ns = delay_ns
        self.location = location
        self.group = group
        #: switch that generated the event (filled by the scheduler)
        self.source = source
        #: span id of the dispatch that generated this event, when a tracer is
        #: attached (see :mod:`repro.obs.trace`); pure observability context —
        #: never part of the event's value, never serialised into checkpoints
        #: (tracing is for bounded runs, checkpoints for trace-free long ones)
        self.trace_parent = trace_parent

    def __repr__(self) -> str:
        return (
            f"EventInstance(name={self.name!r}, args={self.args!r}, "
            f"delay_ns={self.delay_ns!r}, location={self.location!r}, "
            f"group={self.group!r}, source={self.source!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EventInstance:
            return NotImplemented
        return (
            self.name == other.name
            and self.args == other.args
            and self.delay_ns == other.delay_ns
            and self.location == other.location
            and self.group == other.group
            and self.source == other.source
        )

    def __hash__(self) -> int:
        return hash(
            (self.name, self.args, self.delay_ns, self.location, self.group, self.source)
        )

    # -- combinators --------------------------------------------------------
    def delay(self, extra_ns: int) -> "EventInstance":
        """``Event.delay(e, t)`` — execute ``e`` at least ``t`` ns in the future."""
        return EventInstance(self.name, self.args, self.delay_ns + int(extra_ns),
                             self.location, self.group, self.source, self.trace_parent)

    def locate(self, location: Union[int, Tuple[int, ...], List[int]]) -> "EventInstance":
        """``Event.locate(e, loc)`` — execute ``e`` at switch ``loc`` (or at every
        member of a group)."""
        where, group = self.location, self.group
        if isinstance(location, (tuple, list)):
            group = tuple(int(l) for l in location)
        else:
            where = int(location)
        return EventInstance(self.name, self.args, self.delay_ns, where, group,
                             self.source, self.trace_parent)

    # -- helpers -------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Wire size of the serialised event packet (used by the recirculation
        and bandwidth models): Ethernet + Lucid header + 4 bytes per argument,
        subject to the minimum frame size."""
        raw = 14 + 13 + 4 * len(self.args)
        return max(MIN_FRAME_BYTES, raw)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable value form (everything except ``trace_parent``,
        which is observability context, not part of the event's value) — the
        wire format of checkpoints
        (:meth:`repro.interp.network.Network.snapshot`)."""
        return {
            "name": self.name,
            "args": list(self.args),
            "delay_ns": self.delay_ns,
            "location": self.location,
            "group": list(self.group) if self.group is not None else None,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EventInstance":
        group = data.get("group")
        return cls(
            name=data["name"],
            args=tuple(data.get("args", ())),
            delay_ns=data.get("delay_ns", 0),
            location=data.get("location", LOCAL),
            group=tuple(group) if group is not None else None,
            source=data.get("source"),
        )
