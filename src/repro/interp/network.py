"""A discrete-event simulation of Lucid switches in a network (Section 3.2).

The network plays the role of the paper's data-plane event scheduler plus the
physical links between switches:

* events generated for the *local* switch re-enter the pipeline through the
  recirculation port (~600 ns per pass in the paper's measurements);
* events located at *another* switch are serialised into event packets and
  forwarded over a link (~1 µs, "bound only by the propagation and queueing
  delays of the physical hardware");
* delayed events sit in the pausable delay queue, which is released every
  ``delay_release_interval_ns`` (100 µs in the paper), so their actual delay is
  quantised to the release interval — the source of the ~50 µs delay error
  measured in Figure 14.

The scheduler owns the recirculation port and the delay queue of every
switch, whatever engine runs its handlers: :meth:`Network._schedule_generated`
charges each local generate its passes and a queue slot (refusing it when
``SchedulerConfig.recirc_queue_capacity`` is reached), the drain releases the
slot when the event comes back, and :class:`SwitchStats` is the one ledger —
the source of the overhead figures of Sections 7.2-7.3, and of the obs
metrics, which are read from it rather than counted beside it.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.frontend.type_checker import CheckedProgram, check_program
from repro.interp.engine import DEFAULT_ENGINE, ENGINE_NAMES, SwitchEngine, make_engine
from repro.interp.events import LOCAL, EventInstance
from repro.interp.interpreter import ExecutionResult, SwitchRuntime
from repro.obs.metrics import OBS as _OBS, REGISTRY
from repro.records import field, record


class _Metrics:
    """The scheduler's instruments in the global registry, *collected*, not
    counted: nothing on the dispatch path touches them.  Before every read of
    the registry, :meth:`collect` sets them from the one ledger — each
    switch's :class:`SwitchStats`, and a pisa switch's pipeline counters — of
    the networks that ran or were restored while obs was enabled (a sharded
    run's coordinator restores the merged ledger of every worker, so its
    metrics are the fleet's).  ``REGISTRY.reset()`` forgets those networks.
    """

    #: id -> network, held until ``REGISTRY.reset()``
    networks: Dict[int, "Network"] = {}
    #: (instrument, SwitchStats field): ledger counters summed over switches
    ledger = [
        (REGISTRY.counter(name, text), stat) for name, stat, text in (
            ("repro_network_events_generated_total", "events_generated",
             "Events produced by generate statements."),
            ("repro_network_events_dropped_total", "drops",
             "Events whose handler declared them dropped."),
            ("repro_network_remote_sends_total", "remote_sends",
             "Events serialised into packets and sent over a link."),
            ("repro_network_link_drops_total", "link_drops",
             "Remote events lost because the link to their target was down."),
            ("repro_network_recirc_drops_total", "recirc_drops",
             "Local events refused admission by a bounded recirculation queue."),
            ("repro_network_orphan_events_total", "orphan_events",
             "Queued events skipped because their target switch does not exist."),
            ("repro_network_recirculations_total", "recirculations",
             "Passes through a recirculation port."),
            ("repro_network_recirc_bytes_total", "recirculated_bytes",
             "Bytes carried through recirculation ports."),
        )
    ]
    events_handled = REGISTRY.counter(
        "repro_network_events_handled_total",
        "Events dispatched to a handler, by event name.", labelnames=("event",))
    recirc_queue_depth = REGISTRY.gauge(
        "repro_network_recirc_queue_depth",
        "Peak in-flight local events of any one switch's recirculation queue.")
    heap_depth = REGISTRY.gauge(
        "repro_network_heap_depth",
        "Pending events in the scheduler heaps.")
    sim_time_ns = REGISTRY.gauge(
        "repro_network_sim_time_ns",
        "Simulated clock, the latest of the observed networks.")
    engine_events = {
        name: REGISTRY.counter(f"repro_engine_{name}_events_total",
                               f"Events dispatched to switches running the {name} engine.")
        for name in ENGINE_NAMES
    }
    pisa_stages = REGISTRY.counter(
        "repro_engine_pisa_stages_traversed_total",
        "Physical stages traversed by PISA-engine events.")
    pisa_tables = REGISTRY.counter(
        "repro_engine_pisa_tables_executed_total",
        "Match-action tables executed by PISA-engine events.")

    @classmethod
    def watch(cls, network: "Network") -> None:
        cls.networks.setdefault(id(network), network)

    @classmethod
    def collect(cls) -> None:
        networks = list(cls.networks.values())
        switches = [switch for network in networks for switch in network.switches.values()]
        for counter, stat in cls.ledger:
            counter.load(sum(getattr(switch.stats, stat) for switch in switches))
        cls.events_handled.reset()  # re-summed from zero on every read
        for switch in switches:
            for name, count in switch.stats.handled_by_event.items():
                child = cls.events_handled.labels(name)
                child.load(child.value + count)
        for name, counter in cls.engine_events.items():
            counter.load(sum(switch.stats.events_handled for switch in switches
                             if switch.engine_name == name))
        pipelines = [switch.engine.pipeline_stats() for switch in switches]
        pipelines = [pipeline for pipeline in pipelines if pipeline is not None]
        cls.pisa_stages.load(sum(pipeline["stages_traversed"] for pipeline in pipelines))
        cls.pisa_tables.load(sum(pipeline["tables_executed"] for pipeline in pipelines))
        cls.recirc_queue_depth.load(
            max((switch.stats.peak_queue_depth for switch in switches), default=0))
        cls.heap_depth.load(sum(len(network._queue) for network in networks))
        cls.sim_time_ns.load(max((network.now_ns for network in networks), default=0))


REGISTRY.add_collector(_Metrics.collect, _Metrics.networks.clear)


def watch_metrics(network: "Network") -> None:
    """Have the global registry read ``network``'s ledger from now on (until
    ``REGISTRY.reset()``), whether or not obs is enabled — how serve mode's
    SIGUSR1 dump shows the network it drives."""
    _Metrics.watch(network)


@record
class SchedulerConfig:
    """Timing constants of the event scheduler and the simulated hardware."""

    #: one pass through the ingress+egress pipeline
    pipeline_latency_ns: int = 400
    #: latency of one recirculation (egress -> recirculation port -> ingress)
    recirculation_latency_ns: int = 600
    #: one-way latency between neighbouring switches
    link_latency_ns: int = 1_000
    #: release interval of the pausable delay queue (100 us in the paper)
    delay_release_interval_ns: int = 100_000
    #: whether delayed events use the pausable queue (True) or recirculate
    #: continuously until their delay expires (the Figure 14 baseline)
    use_delay_queue: bool = True
    #: recirculation port bandwidth (bits/s), for overhead accounting
    recirc_bandwidth_bps: float = 100e9
    #: most local events one switch may have in flight (recirculating or
    #: parked) at once; a generate beyond it is dropped and counted as
    #: ``recirc_drops``.  ``None`` = unbounded
    recirc_queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        # every scheduling latency must be positive: the delay queue divides
        # by its interval, and --shards byte-identity rests on no event being
        # scheduled for its own timestamp (see the _QueuedEvent comment)
        for name, floor in (("pipeline_latency_ns", 1), ("recirculation_latency_ns", 1),
                            ("delay_release_interval_ns", 1), ("link_latency_ns", 0)):
            if getattr(self, name) < floor:
                raise SimulationError(
                    f"SchedulerConfig.{name} must be >= {floor}, got {getattr(self, name)}")
        if self.recirc_bandwidth_bps <= 0:
            raise SimulationError(
                "SchedulerConfig.recirc_bandwidth_bps must be > 0, "
                f"got {self.recirc_bandwidth_bps}")
        if self.recirc_queue_capacity is not None and self.recirc_queue_capacity < 0:
            raise SimulationError(
                "SchedulerConfig.recirc_queue_capacity must be None or >= 0, "
                f"got {self.recirc_queue_capacity}")


@record
class SwitchStats:
    """Per-switch counters collected during simulation."""

    events_handled: int = 0
    events_generated: int = 0
    recirculations: int = 0
    recirculated_bytes: int = 0
    remote_sends: int = 0
    drops: int = 0
    #: remote events lost because the link to their target was down
    link_drops: int = 0
    #: local events lost because the recirculation queue was full
    #: (``SchedulerConfig.recirc_queue_capacity``)
    recirc_drops: int = 0
    #: local events that came back through the recirculation port
    recirculated_events: int = 0
    #: local events in flight (recirculating or parked) now / at most
    queue_depth: int = 0
    peak_queue_depth: int = 0
    #: events this switch generated for a switch id that does not exist (a
    #: group naming a missing member): sent, then skipped when popped
    orphan_events: int = 0
    handled_by_event: Dict[str, int] = field(default_factory=dict)

    def recirc_bandwidth_bps(self, duration_ns: int) -> float:
        if duration_ns <= 0:
            return 0.0
        return self.recirculated_bytes * 8 / (duration_ns * 1e-9)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form; round-trips through :meth:`from_dict`
        (used by :meth:`Network.snapshot`)."""
        return {**self.__dict__, "handled_by_event": dict(self.handled_by_event)}

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "SwitchStats":
        return cls(**{**state, "handled_by_event": dict(state["handled_by_event"])})


class Switch:
    """One Lucid switch: a program instance plus its runtime state.

    ``engine`` names the execution substrate — ``"codegen"`` (the default),
    ``"reference"`` (the tree walker, the oracle the others are tested
    against) or ``"pisa"`` (the compiled pipeline layout, with stage and
    table counts); see :mod:`repro.interp.engine`.  All
    engines are behaviourally identical (pinned by the differential
    conformance and scenario-parity suites).  ``groups`` binds this
    switch's multicast-group members (see :class:`SwitchRuntime`).
    """

    def __init__(self, switch_id: int, checked: CheckedProgram, engine: str = DEFAULT_ENGINE,
                 groups: Optional[Mapping[str, Sequence[int]]] = None):
        self.id = switch_id
        self.runtime = SwitchRuntime(checked, switch_id=switch_id, groups=groups)
        self.engine: SwitchEngine = make_engine(engine, self.runtime)
        self.engine_name = engine
        #: backwards-compatible alias for the engine's executor object
        self.interpreter = self.engine.executor
        self.stats = SwitchStats()
        self.log: List[str] = []
        #: push counter for events generated *by* this switch — the low bits
        #: of their deterministic heap keys (see the _QueuedEvent comment)
        self.origin_seq = 0
        self._key_base = (switch_id + 1) << GEN_KEY_SHIFT

    def array(self, name: str):
        return self.runtime.array(name)

    def bind_extern(self, name: str, fn: Callable[..., int]) -> None:
        self.runtime.bind_extern(name, fn)


# queue entries are plain tuples (time_ns, key, switch_id, event): the heap
# compares them at C speed, and the key field breaks time ties
# deterministically before the (incomparable) event is ever inspected.
#
# The key is *content-derived*, not execution-order-derived, so the same
# seed produces the same pop order no matter how the network is executed —
# in one process, resumed from a snapshot, or partitioned across shard
# workers (repro.shard ships heap entries between workers verbatim):
#
# * externally pushed entries (inject(), re-queued control actions) use a
#   small network-level serial, always < 2**GEN_KEY_SHIFT;
# * generated events use ``((origin_switch + 1) << GEN_KEY_SHIFT) | seq``
#   where ``seq`` is the origin switch's push counter
#   (:attr:`Switch.origin_seq`) — computed by whoever runs the origin
#   switch.  The copies of one multicast take consecutive ``seq`` values in
#   group order.
#
# Externals therefore always win time ties against generated events
# (matching the drain's "source item first" rule), and two
# generated events order by (origin switch, per-origin push order).  An
# event's key depends only on dispatches at strictly earlier timestamps
# (every scheduling latency is positive — SchedulerConfig and add_link
# enforce it), so induction over timestamps gives one global (time, key)
# order, whichever process pushed the entry.
#
# A generated entry carries the *delivered* instance that
# Network._schedule_generated builds once per ``generate`` and shares between
# all copies of a multicast (events are immutable — see repro.interp.events).
# A remote copy arrives after the origin's *delivery table* entry,
# ``Network._delivery[origin][target]`` = pipeline + link latency: filled
# lazily from ``Network.links`` and dropped whole by ``add_link``, the only
# writer of ``links``.  Link *state* (``_down_links``) is kept out of the
# table so fail/restore stay O(1); it is probed only while non-empty.
_QueuedEvent = Tuple[int, int, int, EventInstance]

#: bit position splitting external serial keys from generated-event keys
GEN_KEY_SHIFT = 40

#: sentinel "switch id" for control actions in a streaming event source: an
#: item ``(time_ns, CONTROL, fn)`` calls ``fn(network)`` at ``time_ns`` instead
#: of dispatching an event (used e.g. for scheduled link failures)
CONTROL = -2

#: one item of a streaming event source: ``(time_ns, switch_id, event)``, or
#: ``(time_ns, CONTROL, fn)`` for a control action
SourceItem = Tuple[int, int, Union[EventInstance, Callable[["Network"], None]]]

#: format tag and version of :meth:`Network.snapshot` values; bump the
#: version whenever a field is added/changed so stale checkpoints are
#: refused instead of silently misread
SNAPSHOT_FORMAT = "repro-network-snapshot"
# version 2: heap keys are content-derived (external serial / origin-switch
# composite — see _QueuedEvent) and each switch records its ``origin_seq``
# version 3: the recirculation-queue counters live in each switch's ``stats``
# (a version-2 pisa snapshot kept them in ``engine_state``)
SNAPSHOT_VERSION = 3


@record
class TraceEntry:
    """One handled event, for test assertions and latency measurements
    (``__slots__``: one is allocated per event while anything consumes them)."""

    __slots__ = ("time_ns", "switch_id", "event", "result")
    time_ns: int
    switch_id: int
    event: EventInstance
    result: ExecutionResult


class Network:
    """A set of Lucid switches connected by point-to-point links."""

    def __init__(self, config: Optional[SchedulerConfig] = None, engine: str = DEFAULT_ENGINE):
        self.config = config or SchedulerConfig()
        #: default engine name for switches added to this network (see
        #: :class:`Switch`)
        self.engine = engine
        self.switches: Dict[int, Switch] = {}
        #: declared directed links -> latency; written by :meth:`add_link` only
        self.links: Dict[Tuple[int, int], int] = {}
        #: origin switch -> {target -> pipeline + link latency}: the delivery
        #: tables (see the _QueuedEvent comment), a cache over :attr:`links`
        self._delivery: Dict[int, Dict[int, int]] = {}
        self.now_ns = 0
        self._queue: List[_QueuedEvent] = []
        self._serial = 0
        #: directed link -> number of active failures (overlapping failures
        #: of one link only clear when every one of them has recovered)
        self._down_links: Dict[Tuple[int, int], int] = {}
        self.trace: List[TraceEntry] = []
        self.trace_enabled = True
        self.on_handle: Optional[Callable[[TraceEntry], None]] = None
        #: optional :class:`repro.obs.trace.Tracer` — one span per dispatch,
        #: parent links carried on ``EventInstance.trace_parent``
        self.tracer = None
        #: optional :class:`repro.obs.profile.HandlerProfiler` — per-handler
        #: wall/sim-time accounting, fed by :meth:`run`
        self.profiler = None
        #: key of the heap entry behind the event most recently handed to
        #: ``on_handle``/:attr:`trace` (None for streamed source items) —
        #: lets shard workers reconstruct the global dispatch order
        self._last_pop_key: Optional[int] = None

    # -- topology -------------------------------------------------------------
    def add_switch(self, switch_id: int, program: "CheckedProgram | str",
                   engine: Optional[str] = None,
                   groups: Optional[Mapping[str, Sequence[int]]] = None) -> Switch:
        """Add a switch running ``program`` (source text or a checked program).

        ``engine`` overrides the network-wide engine default for this switch
        (``"reference"``, ``"pisa"``, or ``"codegen"``) — networks may mix
        engines freely, e.g. one PISA-modelled switch inside an interpreted
        fabric.  ``groups`` binds the members of the program's ``const
        group`` declarations on this switch (e.g. ``{"NEIGHBORS": [4, 5]}``);
        a group it does not name keeps its literal's members.
        """
        if switch_id in self.switches:
            raise SimulationError(f"switch {switch_id} already exists")
        checked = check_program(program) if isinstance(program, str) else program
        switch = Switch(switch_id, checked, engine=engine or self.engine, groups=groups)
        self.switches[switch_id] = switch
        return switch

    def add_link(self, a: int, b: int, latency_ns: Optional[int] = None) -> None:
        """Add (or re-declare) a bidirectional link between switches ``a`` and
        ``b``.  The only writer of :attr:`links`: it also drops the delivery
        tables, so sends after it see the new latency."""
        latency = latency_ns if latency_ns is not None else self.config.link_latency_ns
        if latency < 0:
            raise SimulationError(
                f"add_link({a}, {b}): latency_ns must not be negative, got {latency}")
        self.links[(a, b)] = latency
        self.links[(b, a)] = latency
        self._delivery.clear()

    def _delivery_latency(self, src: int, dst: int) -> int:
        """The delivery-table entry for ``src`` -> ``dst``, filled on first
        use: how long after the generating dispatch an undelayed send arrives."""
        table = self._delivery.setdefault(src, {})
        latency = table.get(dst)
        if latency is None:
            latency = table[dst] = self.config.pipeline_latency_ns + self.links.get(
                (src, dst), self.config.link_latency_ns)
        return latency

    def link_latency(self, src: int, dst: int) -> int:
        """Latency of a direct send from ``src`` to ``dst``.

        The simulated fabric is logically full-mesh: a pair with no declared
        link still delivers at the default latency (remote events model an
        overlay on top of whatever underlay routing exists).  Declared links
        only override the latency — and are what :meth:`fail_link` acts on.
        """
        if src == dst:
            return 0
        return self._delivery_latency(src, dst) - self.config.pipeline_latency_ns

    def fail_link(self, a: int, b: int) -> None:
        """Take the ``a``--``b`` link down (both directions): direct remote
        sends between ``a`` and ``b`` are dropped and counted as
        ``link_drops``.  Failures nest: with overlapping failures of the same
        link, the link stays down until every failure has been restored.
        Only the direct (source, target) pair is consulted — sends between
        other pairs are unaffected (see :meth:`link_latency`)."""
        for pair in ((a, b), (b, a)):
            self._down_links[pair] = self._down_links.get(pair, 0) + 1

    def restore_link(self, a: int, b: int) -> None:
        """Undo one :meth:`fail_link` of the ``a``--``b`` link."""
        for pair in ((a, b), (b, a)):
            count = self._down_links.get(pair, 0)
            if count <= 1:
                self._down_links.pop(pair, None)
            else:
                self._down_links[pair] = count - 1

    def link_is_down(self, a: int, b: int) -> bool:
        return (a, b) in self._down_links

    def switch(self, switch_id: int) -> Switch:
        try:
            return self.switches[switch_id]
        except KeyError:
            raise SimulationError(f"no switch with id {switch_id}") from None

    # -- scheduling -------------------------------------------------------------
    def _push(self, time_ns: int, switch_id: int, event: EventInstance) -> None:
        """Queue an *external* entry — an injected event or a re-queued source
        item — under the next network-level serial key (see the _QueuedEvent
        comment; generated events are pushed by :meth:`_schedule_generated`).
        """
        self._serial += 1
        heapq.heappush(self._queue, (time_ns, self._serial, switch_id, event))

    def inject(self, switch_id: int, event: EventInstance, at_ns: Optional[int] = None) -> None:
        """Inject an event (e.g. the arrival of a data packet) from outside."""
        if switch_id not in self.switches:
            raise SimulationError(f"no switch with id {switch_id}")
        time_ns = self.now_ns if at_ns is None else at_ns
        self._push(max(time_ns, self.now_ns), switch_id, event)

    def enqueue_remote(self, time_ns: int, key: int, switch_id: int, event: EventInstance) -> None:
        """Queue a heap entry another process took from its own heap — a
        shard worker's delivery from a peer — under the exact key it carried
        there (see the _QueuedEvent comment).  The barrier protocol
        guarantees ``time_ns`` is still in this network's future, so no
        clock clamping is applied."""
        heapq.heappush(self._queue, (time_ns, key, switch_id, event))

    def _schedule_generated(self, source: Switch, event: EventInstance,
                            trace_parent: Optional[int] = None) -> None:
        """Turn one generated event into heap entries, in one pass.

        Everything that is the same for every copy is computed once: the
        delay (quantised up to the pausable queue's release interval when the
        queue is in use), the recirculation passes a local copy costs, and
        the *delivered* instance — name, args and origin only, shared by all
        copies (events are immutable).  Per target the loop adds a latency —
        the recirculation latency for the origin itself, which also takes a
        slot of the origin's recirculation queue, else the origin's
        delivery-table entry (pipeline + link; see the _QueuedEvent comment)
        unless the link is down — bumps the content-derived key, and pushes
        onto the heap.  Counters accumulate in locals and are flushed once
        after the loop.
        """
        config = self.config
        origin = source.id
        stats = source.stats
        stats.events_generated += 1
        delay_ns = event.delay_ns
        if delay_ns > 0 and config.use_delay_queue:
            # a parked packet recirculates once per release until its delay
            # has expired (the PausableDelayQueue behaviour)
            interval = config.delay_release_interval_ns
            local_passes = -(-delay_ns // interval)
            base = self.now_ns + local_passes * interval
        elif delay_ns > 0:
            # without the pausable queue the packet recirculates
            # continuously until its delay expires
            local_passes = 1 + delay_ns // config.recirculation_latency_ns
            base = self.now_ns + delay_ns
        else:
            local_passes = 1
            base = self.now_ns
        targets = event.group
        if targets is None:
            targets = (origin if event.location == LOCAL else event.location,)
        table = self._delivery.get(origin)
        if table is None:
            table = self._delivery[origin] = {}
        down = self._down_links
        queue = self._queue
        delivered = EventInstance(event.name, event.args, 0, LOCAL, None, origin, trace_parent)
        key_base = source._key_base
        seq = source.origin_seq
        sends = link_drops = local = recirc_drops = 0
        for target in targets:
            if target == origin:
                # local: the event packet re-enters through the recirculation
                # port and holds a slot of its queue until it arrives; a full
                # queue refuses it, counted like a link drop
                capacity = config.recirc_queue_capacity
                depth = stats.queue_depth
                if capacity is not None and depth >= capacity:
                    recirc_drops += 1
                    continue
                depth += 1
                stats.queue_depth = depth
                if depth > stats.peak_queue_depth:
                    stats.peak_queue_depth = depth
                arrival = base + config.recirculation_latency_ns
                local += 1
            else:
                if down and (origin, target) in down:
                    link_drops += 1
                    continue
                latency = table.get(target)
                if latency is None:
                    latency = self._delivery_latency(origin, target)
                arrival = base + latency
                sends += 1
            seq += 1
            heapq.heappush(queue, (arrival, key_base | seq, target, delivered))
        source.origin_seq = seq
        if sends:
            stats.remote_sends += sends
        if link_drops or recirc_drops:
            stats.link_drops += link_drops
            stats.recirc_drops += recirc_drops
        if local:
            passes = local * local_passes
            stats.recirculations += passes
            stats.recirculated_bytes += passes * event.payload_bytes()

    # -- execution -----------------------------------------------------------------
    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None,
            source: Optional[Iterable[SourceItem]] = None, batch: bool = True) -> int:
        """Run the simulation until the queue drains, ``until_ns`` is reached,
        or ``max_events`` have been handled.  Returns the number of events
        handled by this call.

        This is the scheduler's only loop: a merge of the internal event heap
        with ``source``, an iterable of externally injected traffic —
        ``(time_ns, switch_id, event)`` items in non-decreasing time order
        (or ``(time_ns, CONTROL, fn)`` control actions).  A plain heap drain
        is the empty-source case.  The drain holds at most one not-yet-due
        source item, so arbitrarily long workloads run in memory independent
        of their length — *provided tracing is off* (``trace_enabled=False``,
        as the scenario runner configures): with tracing on, :attr:`trace`
        still accumulates one entry per handled event.  On equal timestamps
        the source item runs first, which matches injecting the whole stream
        up front (pre-run injections get earlier serial numbers than
        generated events).  A source item naming an unknown switch is an
        error; a heap entry for one is skipped and counted as an orphan
        (``orphan_events``).

        A run whose source yielded at least one item returns once the source
        is exhausted and the queue is drained up to the last source timestamp
        (or ``until_ns`` when given); later events — e.g. self-perpetuating
        control loops — stay queued for a subsequent plain :meth:`run`.  If
        the run stops early (``max_events``/``until_ns``) while a source item
        is held, the item goes back to the source's ``push_back`` when it has
        one (keeps source-vs-heap tie-breaking identical when the run
        resumes — a checkpoint/restore requirement) and onto the queue
        otherwise, so it is not lost.

        Every event takes the one dispatch body below, with the per-switch
        lookups hoisted out of the loop.  It writes the one ledger,
        :class:`SwitchStats` — obs metrics are read from it, not counted
        beside it (see :class:`_Metrics`).  Who observes a dispatch — a
        :attr:`tracer` span, a :attr:`profiler` sample, a :class:`TraceEntry`
        for :attr:`trace` / ``on_handle`` — is resolved by :meth:`_observers`
        on entry and again after every control action; each costs one
        ``is None`` test per event when absent.  ``batch`` is accepted and
        ignored: there is no second dispatch path to route events through.
        """
        handled = 0
        items = iter(source) if source is not None else None
        pending: Optional[SourceItem] = None
        exhausted = items is None
        last_source_ns: Optional[int] = None
        # nothing later than the horizon is popped: ``until_ns``, or the last
        # source timestamp once a source that yielded anything runs dry
        horizon = until_ns
        queue = self._queue
        switches = self.switches
        pop = heapq.heappop
        hoisted: Dict[int, tuple] = {}
        tracer, profiler, trace, on_handle = self._observers()
        if _OBS.enabled:
            _Metrics.watch(self)
        while True:
            if pending is None and not exhausted:
                pending = next(items, None)
                if pending is None:
                    exhausted = True
                    if until_ns is None:
                        horizon = last_source_ns
            if max_events is not None and handled >= max_events:
                break
            if pending is not None and (not queue or pending[0] <= queue[0][0]):
                time_ns, switch_id, event = pending
                if horizon is not None and time_ns > horizon:
                    break
                pending = None
                key = None  # marks a source item; heap entries carry their key
                if time_ns > self.now_ns:
                    self.now_ns = time_ns
                last_source_ns = self.now_ns
            elif queue:
                if horizon is not None and queue[0][0] > horizon:
                    break
                time_ns, key, switch_id, event = pop(queue)
                if time_ns > self.now_ns:
                    self.now_ns = time_ns
            else:
                break
            if switch_id == CONTROL:
                event(self)
                # the action may have attached or detached an observer —
                # resolve the observers again and drop the stale hoists
                tracer, profiler, trace, on_handle = self._observers()
                hoisted.clear()
                continue
            cached = hoisted.get(switch_id)
            if cached is None:
                switch = switches.get(switch_id)
                if switch is None:
                    if key is None:
                        raise SimulationError(f"no switch with id {switch_id}")
                    # a generate for a switch id that does not exist: skipped,
                    # but counted against the switch that generated it
                    sender = switches.get(event.source)
                    if sender is not None:
                        sender.stats.orphan_events += 1
                    continue
                cached = hoisted[switch_id] = self._hoist(switch)
            switch, runtime, run, stats, by_event, log = cached
            runtime.time_ns = self.now_ns
            if event.source == switch_id:
                # the event was generated here and came back through the
                # recirculation port: it releases its queue slot (an injected
                # event may name this switch as its source and hold none)
                stats.recirculated_events += 1
                if stats.queue_depth > 0:
                    stats.queue_depth -= 1
            span_id = None if tracer is None else tracer.begin_handle(
                event, switch_id, self.now_ns, self.config.pipeline_latency_ns)
            if profiler is None:
                result = run(event)
            else:
                start = perf_counter()
                result = run(event)
                profiler.record(event.name, perf_counter() - start,
                                self.config.pipeline_latency_ns)
            stats.events_handled += 1
            name = event.name
            by_event[name] = by_event.get(name, 0) + 1
            if result.dropped:
                stats.drops += 1
            if result.prints:
                log.extend(result.prints)
            if result.generated:
                for generated in result.generated:
                    self._schedule_generated(switch, generated, span_id)
            handled += 1
            if trace is not None or on_handle is not None:
                entry = TraceEntry(self.now_ns, switch_id, event, result)
                self._last_pop_key = key
                if trace is not None:
                    trace.append(entry)
                if on_handle is not None:
                    on_handle(entry)
        if pending is not None:
            push_back = getattr(source, "push_back", None)
            if push_back is not None:
                push_back(pending)
            else:
                self._push(max(pending[0], self.now_ns), pending[1], pending[2])
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)
        return handled

    def _observers(self) -> tuple:
        """Who observes dispatches, for :meth:`run`: ``(tracer, profiler,
        trace, on_handle)``, each None when absent — ``trace`` is the list to
        append entries to, None with tracing off."""
        return (self.tracer, self.profiler,
                self.trace if self.trace_enabled else None, self.on_handle)

    def _hoist(self, switch: Switch) -> tuple:
        """Per-switch lookups hoisted out of the drain: the switch, its
        runtime, bound engine.run, stats fields and log."""
        return (switch, switch.runtime, switch.engine.run, switch.stats,
                switch.stats.handled_by_event, switch.log)

    def pending_events(self) -> int:
        return len(self._queue)

    # -- checkpointing -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Capture the full simulation state as a JSON-serialisable dict.

        The snapshot is a *versioned value*: clock, scheduler serial, the
        event heap (in its exact internal order, so future pops are
        byte-identical), link failures, and — per switch — array cells,
        read/write counters, the runtime clock and PRNG state, scheduler
        stats, print logs, and any engine-side accounting
        (:meth:`SwitchEngine.snapshot_state`).  It does **not** capture the
        topology, programs, or compiled engines — :meth:`restore` expects an
        identically constructed network — nor the :attr:`trace` (checkpoints
        are for trace-free long runs) or an in-flight streaming source
        (stream cursors are the caller's to checkpoint; see
        ``repro.service``).

        Raises :class:`SimulationError` if the heap holds a CONTROL action:
        control callables are code, not serialisable state.  (Streaming
        sources that support ``push_back`` — the service-mode path — never
        leave CONTROL entries in the heap.)
        """
        queue = []
        for time_ns, key, switch_id, event in self._queue:
            if switch_id == CONTROL:
                raise SimulationError(
                    "cannot snapshot: the event heap holds a CONTROL action "
                    "(a Python callable).  Drain it first, or stream control "
                    "actions through a push_back-capable source."
                )
            queue.append([time_ns, key, switch_id, event.to_dict()])
        switches: Dict[str, Dict[str, object]] = {}
        for sid in sorted(self.switches):
            sw = self.switches[sid]
            entry: Dict[str, object] = {
                "engine": sw.engine_name,
                "time_ns": sw.runtime.time_ns,
                "origin_seq": sw.origin_seq,
                "random_state": sw.runtime.random_state,
                "arrays": {
                    name: {
                        "cells": list(arr.cells),
                        "reads": arr.reads,
                        "writes": arr.writes,
                    }
                    for name, arr in sw.runtime.arrays.items()
                },
                "stats": sw.stats.to_dict(),
                "log": list(sw.log),
            }
            engine_state = sw.engine.snapshot_state()
            if engine_state is not None:
                entry["engine_state"] = engine_state
            switches[str(sid)] = entry
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "now_ns": self.now_ns,
            "serial": self._serial,
            "queue": queue,
            "down_links": [[a, b, count] for (a, b), count in sorted(self._down_links.items())],
            "switches": switches,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Load a :meth:`snapshot` into this network.

        The network must have been constructed identically to the one that
        was snapshotted — same switch ids running the same programs on the
        same engines (topology and code are rebuilt by the caller, state is
        restored here).  Mismatched switch sets, engine names, or array
        shapes are refused.  The determinism guarantee: restore + resume
        produces byte-identical array digests, stats, and event order to the
        uninterrupted run — pinned by ``tests/test_service.py`` and the CI
        soak job across all three engines.
        """
        if state.get("format") != SNAPSHOT_FORMAT:
            raise SimulationError(
                f"not a network snapshot (format={state.get('format')!r})"
            )
        if state.get("version") != SNAPSHOT_VERSION:
            raise SimulationError(
                f"unsupported snapshot version {state.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        snap_ids = {int(sid) for sid in state["switches"]}
        if snap_ids != set(self.switches):
            raise SimulationError(
                f"snapshot switch set {sorted(snap_ids)} does not match this "
                f"network's {sorted(self.switches)}"
            )
        # validate everything before mutating anything, so a failed restore
        # leaves the network untouched
        for sid_key, sw_state in state["switches"].items():
            sw = self.switches[int(sid_key)]
            if sw_state["engine"] != sw.engine_name:
                raise SimulationError(
                    f"switch {sid_key}: snapshot engine '{sw_state['engine']}' "
                    f"!= this network's '{sw.engine_name}'"
                )
            snap_arrays = sw_state["arrays"]
            if set(snap_arrays) != set(sw.runtime.arrays):
                raise SimulationError(
                    f"switch {sid_key}: snapshot arrays {sorted(snap_arrays)} "
                    f"do not match the program's {sorted(sw.runtime.arrays)}"
                )
            for name, arr_state in snap_arrays.items():
                arr = sw.runtime.arrays[name]
                if len(arr_state["cells"]) != arr.size:
                    raise SimulationError(
                        f"switch {sid_key}: array '{name}' has {arr.size} "
                        f"cells but the snapshot holds {len(arr_state['cells'])}"
                    )
        self.now_ns = state["now_ns"]
        self._serial = state["serial"]
        # the stored list is the heap's exact internal order — restoring it
        # verbatim keeps the pop sequence identical (keys are unique, so
        # comparisons never reach the event objects)
        self._queue = [
            (time_ns, key, switch_id, EventInstance.from_dict(event))
            for time_ns, key, switch_id, event in state["queue"]
        ]
        self._down_links = {
            (a, b): count for a, b, count in state.get("down_links", [])
        }
        self.trace.clear()
        for sid_key, sw_state in state["switches"].items():
            sw = self.switches[int(sid_key)]
            sw.runtime.time_ns = sw_state["time_ns"]
            sw.origin_seq = sw_state["origin_seq"]
            sw.runtime.random_state = sw_state["random_state"]
            for name, arr_state in sw_state["arrays"].items():
                arr = sw.runtime.arrays[name]
                # overwrite the cells IN PLACE: generated codegen modules
                # bind the cell list itself (not the RuntimeArray), so the
                # list identity must survive a restore
                arr.cells[:] = arr_state["cells"]
                arr.reads = arr_state["reads"]
                arr.writes = arr_state["writes"]
            sw.stats = SwitchStats.from_dict(sw_state["stats"])
            sw.log[:] = sw_state["log"]
            sw.engine.restore_state(sw_state.get("engine_state"))
        if _OBS.enabled:
            _Metrics.watch(self)

    # -- convenience -------------------------------------------------------------
    def total_stats(self) -> SwitchStats:
        """Network-wide sums of the per-switch counters (``peak_queue_depth``:
        the deepest queue of any one switch)."""
        total = SwitchStats()
        for switch in self.switches.values():
            for name, value in switch.stats.__dict__.items():
                if name == "peak_queue_depth":
                    total.peak_queue_depth = max(total.peak_queue_depth, value)
                elif name != "handled_by_event":
                    setattr(total, name, getattr(total, name) + value)
        return total

    def stats(self) -> Dict[int, Dict[str, object]]:
        """Per-switch counters, engine names, and — for engines that model a
        pipeline — a ``"pipeline"`` dict: the engine's stage occupancy next
        to this switch's events and recirculation-port view (passes, drops,
        bytes, bandwidth, queue depths), read from the same
        :class:`SwitchStats`.
        """
        out: Dict[int, Dict[str, object]] = {}
        for sid in sorted(self.switches):
            switch = self.switches[sid]
            stats = switch.stats
            entry: Dict[str, object] = {"engine": switch.engine_name, **stats.__dict__}
            del entry["handled_by_event"]
            pipeline = switch.engine.pipeline_stats()
            if pipeline is not None:
                pipeline.update(
                    events=stats.events_handled,
                    recirculated_events=stats.recirculated_events,
                    queue_depth=stats.queue_depth,
                    peak_queue_depth=stats.peak_queue_depth,
                    recirc_passes=stats.recirculations,
                    recirc_drops=stats.recirc_drops,
                    recirc_bytes=stats.recirculated_bytes,
                )
                if self.now_ns > 0:
                    bps = stats.recirc_bandwidth_bps(self.now_ns)
                    pipeline["recirc_bandwidth_bps"] = round(bps, 1)
                    pipeline["recirc_utilisation"] = round(
                        min(1.0, bps / self.config.recirc_bandwidth_bps), 6)
                entry["pipeline"] = pipeline
            out[sid] = entry
        return out


def single_switch_network(
    program: "CheckedProgram | str",
    config: Optional[SchedulerConfig] = None,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[Network, Switch]:
    """Convenience constructor for the common one-switch case."""
    network = Network(config=config, engine=engine)
    switch = network.add_switch(0, program)
    return network, switch
