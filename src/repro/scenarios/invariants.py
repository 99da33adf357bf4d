"""Invariant checks, evaluated at end-of-run *or incrementally mid-stream.

Every invariant exposes the streaming pair the service mode needs:
``observe(entry)`` is called per handled event (only for invariants that
need it — state-only invariants keep the drain free of trace entries, which is
what lets million-event scenarios run at full speed), and ``check(network)``
may be called **at any inter-event point**, not just at quiescence.
Invariants whose check is only meaningful once the network has settled
(in-flight sync or routing updates would trip them spuriously) set
``streaming = False`` and are skipped by mid-run evaluation
(``evaluate(..., streaming_only=True)``); their verdict comes from the final
end-of-run evaluation as before.

Observation-based invariants carry state (seen flows, recorded violations),
so they also implement ``snapshot_state()``/``restore_state()`` — the
checkpoint/restore contract of :mod:`repro.service`: a run resumed from a
checkpoint must reach the same verdicts as the uninterrupted run.

Scenario builders (:mod:`repro.scenarios.registry`) construct the instances
they check directly, with their own parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.interp.interpreter import lucid_hash
from repro.interp.network import Network, TraceEntry
from repro.records import field, record

#: cap on recorded violation messages per invariant (the count is exact)
MAX_VIOLATIONS = 8


class Invariant:
    """Base class: subclass and override ``check`` (and optionally
    ``observe`` + ``snapshot_state``/``restore_state``)."""

    name = "invariant"

    #: whether ``check`` is meaningful between any two handled events
    #: (streaming evaluation); ``False`` restricts it to end-of-run, after
    #: the settle horizon, because in-flight control traffic would trip it
    streaming = True

    def observes(self) -> bool:
        """Whether this invariant needs to see every handled event."""
        return type(self).observe is not Invariant.observe

    def reset(self, network: Network, topology) -> None:
        """Called once before the run starts (and again, to re-bind network
        references, before ``restore_state`` when resuming a checkpoint)."""

    def observe(self, entry: TraceEntry) -> None:
        """Called for every handled event (only when ``observes()``) — the
        streaming observation hook."""

    def check(self, network: Network) -> List[str]:
        """Return violation messages (empty when the invariant holds).  Safe
        to call between any two handled events when ``streaming`` is true."""
        return []

    def violation_count(self) -> Optional[int]:
        """Exact number of violations, when it exceeds the recorded messages
        (observation-based invariants cap the messages they keep but count
        every violation).  ``None`` means ``len(check(...))`` is exact."""
        return None

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Optional[Dict[str, object]]:
        """Internal observation state as a JSON-serialisable dict, or
        ``None`` for stateless invariants.  Observation-based invariants
        must implement this (checkpointing refuses otherwise — losing their
        state would silently change verdicts on resume)."""
        return None

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore the state of :meth:`snapshot_state`.  Called after
        :meth:`reset` has re-bound network/topology references."""
        raise NotImplementedError(
            f"invariant '{self.name}' does not implement restore_state"
        )


@record
class InvariantReport:
    """Verdict of one invariant over one run."""

    name: str
    ok: bool
    violations: int = 0
    messages: List[str] = field(default_factory=list)


def evaluate(
    invariants: Sequence[Invariant],
    network: Network,
    streaming_only: bool = False,
) -> List[InvariantReport]:
    """Evaluate invariants against the network's current state.

    With ``streaming_only=True`` (the mid-run/service path) invariants whose
    ``streaming`` flag is false are skipped — their check is only meaningful
    after the settle horizon — so the returned list covers the streaming
    subset only."""
    reports = []
    for inv in invariants:
        if streaming_only and not inv.streaming:
            continue
        messages = inv.check(network)
        count = inv.violation_count()
        if count is None:
            count = len(messages)
        reports.append(
            InvariantReport(
                name=inv.name,
                ok=count == 0 and not messages,
                violations=count,
                messages=messages[:MAX_VIOLATIONS],
            )
        )
    return reports


def observer_callback(
    invariants: Sequence[Invariant],
) -> Optional[Callable[[TraceEntry], None]]:
    """Build the ``Network.on_handle`` callback feeding every observing
    invariant (or ``None`` when no invariant observes) — shared by the batch
    runner and the service mode so the wiring cannot drift."""
    callbacks = [inv.observe for inv in invariants if inv.observes()]
    if not callbacks:
        return None
    if len(callbacks) == 1:
        return callbacks[0]

    def on_handle(entry: TraceEntry, _callbacks=tuple(callbacks)) -> None:
        for callback in _callbacks:
            callback(entry)

    return on_handle


def capture_invariant_states(
    invariants: Sequence[Invariant],
) -> List[Optional[Dict[str, object]]]:
    """Snapshot every invariant's observation state, index-aligned with the
    input.  Observation-based invariants without checkpoint support are
    refused: resuming them with empty state would silently change verdicts."""
    states: List[Optional[Dict[str, object]]] = []
    for inv in invariants:
        state = inv.snapshot_state()
        if state is None and inv.observes():
            raise SimulationError(
                f"invariant '{inv.name}' observes events but does not "
                f"implement snapshot_state(); it cannot be checkpointed"
            )
        states.append(state)
    return states


def restore_invariant_states(
    invariants: Sequence[Invariant],
    states: Sequence[Optional[Dict[str, object]]],
) -> None:
    """Restore states captured by :func:`capture_invariant_states` (call
    each invariant's ``reset`` first to re-bind network references)."""
    if len(states) != len(invariants):
        raise SimulationError(
            f"checkpoint holds {len(states)} invariant states but the "
            f"scenario built {len(invariants)} invariants"
        )
    for inv, state in zip(invariants, states):
        if state is not None:
            inv.restore_state(state)


# ---------------------------------------------------------------------------
# firewall family
# ---------------------------------------------------------------------------
class FirewallSolicitedOnly(Invariant):
    """The firewall never admits an un-solicited inbound flow: every
    ``pkt_in`` forwarded to the trusted port must reverse a previously seen
    outbound flow.  Observation-based (tracks outbound flow keys; memory is
    bounded by distinct flows, not events)."""

    name = "firewall-solicited-only"

    def __init__(self, out_event: str = "pkt_out", in_event: str = "pkt_in",
                 trusted_port: int = 1):
        self.out_event = out_event
        self.in_event = in_event
        self.trusted_port = trusted_port
        self._outbound: Set[Tuple[int, int]] = set()
        self._violations: List[str] = []
        self._count = 0

    def reset(self, network: Network, topology) -> None:
        self._outbound.clear()
        self._violations.clear()
        self._count = 0

    def observe(self, entry: TraceEntry) -> None:
        event = entry.event
        if event.name == self.out_event:
            self._outbound.add((event.args[0], event.args[1]))
        elif event.name == self.in_event and entry.result.forwarded_port == self.trusted_port:
            src, dst = event.args[0], event.args[1]
            if (dst, src) not in self._outbound:
                self._count += 1
                if len(self._violations) < MAX_VIOLATIONS:
                    self._violations.append(
                        f"t={entry.time_ns}ns sw{entry.switch_id}: unsolicited "
                        f"{self.in_event}({src}, {dst}) admitted to trusted port"
                    )

    def check(self, network: Network) -> List[str]:
        return list(self._violations)

    def violation_count(self) -> Optional[int]:
        return self._count

    def snapshot_state(self) -> Dict[str, object]:
        return {
            # tuples encode as the JSON lists they are restored from
            "outbound": sorted(self._outbound),
            "violations": list(self._violations),
            "count": self._count,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._outbound = {(a, b) for a, b in state["outbound"]}
        self._violations = list(state["violations"])
        self._count = state["count"]


class NatMappingsBijective(Invariant):
    """NAT mappings are bijective: every occupied slot holds a distinct flow
    key and a distinct external port (no two flows share a port, no flow
    appears twice)."""

    name = "nat-bijective"

    def __init__(self, key_array: str = "map_key", port_array: str = "map_port",
                 first_port: int = 1024):
        self.key_array = key_array
        self.port_array = port_array
        self.first_port = first_port

    def check(self, network: Network) -> List[str]:
        messages = []
        for sid, switch in network.switches.items():
            keys = switch.array(self.key_array).cells
            ports = switch.array(self.port_array).cells
            seen_keys: Dict[int, int] = {}
            seen_ports: Dict[int, int] = {}
            for idx, key in enumerate(keys):
                if key == 0:
                    continue
                port = ports[idx]
                if key in seen_keys:
                    messages.append(
                        f"sw{sid}: flow key {key} mapped twice "
                        f"(slots {seen_keys[key]} and {idx})"
                    )
                seen_keys.setdefault(key, idx)
                if port != 0:
                    if port <= self.first_port:
                        messages.append(
                            f"sw{sid}: slot {idx} allocated reserved port {port}"
                        )
                    if port in seen_ports:
                        messages.append(
                            f"sw{sid}: external port {port} assigned to two flows "
                            f"(slots {seen_ports[port]} and {idx})"
                        )
                    seen_ports.setdefault(port, idx)
        return messages


# ---------------------------------------------------------------------------
# DNS defense
# ---------------------------------------------------------------------------
class DnsVictimBlocked(Invariant):
    """After enough reflected responses, the victim client is blocked — and a
    designated benign witness client (whose blocked-table cell provably does
    not collide with the victim's) never is.

    When a ``traffic`` model with a ``reflected_emitted`` counter is given,
    the victim half of the check stays vacuous until the emitted reflected
    responses comfortably exceed the blocking threshold (the witness half
    always applies)."""

    name = "dns-victim-blocked"
    #: ground truth counts reflected responses at *emission*, and the source
    #: pulls up to a chunk ahead of the drain: mid-run the victim would look
    #: unblocked after responses it has not handled yet
    streaming = False

    def __init__(self, victim: int = 7, clients: int = 64, seed_a: int = 7,
                 threshold: int = 100, traffic=None):
        self.victim = victim
        self.clients = clients
        self.seed_a = seed_a
        self.threshold = threshold
        self.traffic = traffic
        self.witness = self._pick_witness()

    def _pick_witness(self) -> Optional[int]:
        victim_cell = lucid_hash(10, [self.victim, self.seed_a])
        for client in range(self.clients):
            if client == self.victim:
                continue
            if lucid_hash(10, [client, self.seed_a]) != victim_cell:
                return client
        return None

    def check(self, network: Network) -> List[str]:
        expect_blocked = True
        if self.traffic is not None:
            reflected = getattr(self.traffic, "reflected_emitted", 0)
            expect_blocked = reflected > self.threshold + 8
        messages = []
        for sid, switch in network.switches.items():
            handled = switch.stats.handled_by_event.get("dns_response", 0)
            if handled == 0:
                continue
            blocked = switch.array("blocked").cells
            victim_cell = lucid_hash(10, [self.victim, self.seed_a]) % len(blocked)
            if expect_blocked and blocked[victim_cell] != 1:
                messages.append(
                    f"sw{sid}: victim client {self.victim} not blocked after "
                    f"{handled} responses"
                )
            if self.witness is not None:
                witness_cell = lucid_hash(10, [self.witness, self.seed_a]) % len(blocked)
                if blocked[witness_cell] == 1:
                    messages.append(
                        f"sw{sid}: benign witness client {self.witness} was blocked"
                    )
        return messages


# ---------------------------------------------------------------------------
# sketches
# ---------------------------------------------------------------------------
class SketchConservation(Invariant):
    """Count-min conservation: with no export/aging running, every packet
    increments each sketch row exactly once, so each row sums to the number
    of ``pkt`` events the switch handled."""

    name = "sketch-conservation"

    def __init__(self, rows: Sequence[str] = ("row_a", "row_b"), pkt_event: str = "pkt"):
        self.rows = tuple(rows)
        self.pkt_event = pkt_event

    def check(self, network: Network) -> List[str]:
        messages = []
        for sid, switch in network.switches.items():
            handled = switch.stats.handled_by_event.get(self.pkt_event, 0)
            for row in self.rows:
                total = sum(switch.array(row).cells)
                if total != handled:
                    messages.append(
                        f"sw{sid}: sum({row}) = {total} but {handled} "
                        f"{self.pkt_event} events were handled"
                    )
        return messages


class SketchOverestimates(Invariant):
    """The count-min guarantee: for every tracked heavy-hitter flow, the
    sketch estimate (min across rows) is at least the true emitted count.
    Ground truth comes from the traffic model's per-switch counters."""

    name = "sketch-overestimates"
    #: ground truth counts packets at *emission*; an emitted-but-unhandled
    #: packet would make the sketch look low mid-run
    streaming = False

    def __init__(self, traffic, rows=(("row_a", 5), ("row_b", 211)), width: int = 10):
        self.traffic = traffic
        self.rows = rows
        self.width = width

    def check(self, network: Network) -> List[str]:
        messages = []
        for sid, flows in self.traffic.emitted.items():
            switch = network.switches[sid]
            for (src, dst), true_count in flows.items():
                estimate = None
                for row_name, seed in self.rows:
                    cells = switch.array(row_name).cells
                    idx = lucid_hash(self.width, [src, dst, seed]) % len(cells)
                    value = cells[idx]
                    estimate = value if estimate is None else min(estimate, value)
                if estimate is not None and estimate < true_count:
                    messages.append(
                        f"sw{sid}: flow ({src}, {dst}) estimate {estimate} < "
                        f"true count {true_count}"
                    )
        return messages


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class RipConverged(Invariant):
    """Distance-vector convergence: every switch's advertised distance to the
    destination equals its true hop count in the topology, and its next hop
    is a neighbour that is one hop closer."""

    name = "rip-converged"
    #: convergence is an end-state property; mid-run distances are in flux
    streaming = False

    def __init__(self, dest: int = 0, infinity: int = 1_048_576):
        self.dest = dest
        self.infinity = infinity
        self._topology = None

    def reset(self, network: Network, topology) -> None:
        self._topology = topology

    def check(self, network: Network) -> List[str]:
        if self._topology is None:
            return ["rip-converged: no topology bound (reset was not called)"]
        hops = self._topology.hop_distances_from(self.dest)
        messages = []
        for sid, switch in network.switches.items():
            expected = hops.get(sid)
            dist = switch.array("dist").cells[0]
            if expected is None:
                if dist < self.infinity:
                    messages.append(
                        f"sw{sid}: unreachable from {self.dest} but advertises {dist}"
                    )
                continue
            if dist != expected:
                messages.append(
                    f"sw{sid}: distance {dist} != true hop count {expected}"
                )
                continue
            if sid != self.dest:
                nexthop = switch.array("nexthop").cells[0]
                if nexthop not in self._topology.neighbors(sid):
                    messages.append(f"sw{sid}: next hop {nexthop} is not a neighbour")
                elif hops.get(nexthop) != expected - 1:
                    messages.append(
                        f"sw{sid}: next hop {nexthop} is not one hop closer to "
                        f"{self.dest}"
                    )
        return messages


class RerouteRecovers(Invariant):
    """After a link failure, the rerouter converges: no data packet is
    forwarded into the failed link after ``tolerance_ns``, and at least one
    data packet is successfully rerouted afterwards.  The failure context
    (switch, dead peer, time) is announced via :meth:`announce_failure` by
    the failure control action."""

    name = "reroute-recovers"
    #: right after a failure no packet has been rerouted yet — only the
    #: settled network can be held to "at least one packet rerouted"
    streaming = False

    def __init__(self, tolerance_ns: int = 50_000, data_event: str = "data_pkt"):
        self.tolerance_ns = tolerance_ns
        self.data_event = data_event
        self._failures: List[Tuple[int, int, int]] = []  # (time, switch, dead peer)
        self._violations: List[str] = []
        self._late_count = 0
        self._forwarded_after = 0

    def reset(self, network: Network, topology) -> None:
        self._failures.clear()
        self._violations.clear()
        self._late_count = 0
        self._forwarded_after = 0

    def announce_failure(self, time_ns: int, switch_id: int, dead_peer: int) -> None:
        self._failures.append((time_ns, switch_id, dead_peer))

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "failures": [list(f) for f in self._failures],
            "violations": list(self._violations),
            "late_count": self._late_count,
            "forwarded_after": self._forwarded_after,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._failures = [tuple(f) for f in state["failures"]]
        self._violations = list(state["violations"])
        self._late_count = state["late_count"]
        self._forwarded_after = state["forwarded_after"]

    def observe(self, entry: TraceEntry) -> None:
        if entry.event.name != self.data_event:
            return
        port = entry.result.forwarded_port
        if port is None:
            return
        for fail_ns, switch_id, dead_peer in self._failures:
            if entry.switch_id != switch_id or entry.time_ns < fail_ns:
                continue
            if port == dead_peer:
                if entry.time_ns > fail_ns + self.tolerance_ns:
                    self._late_count += 1
                    if len(self._violations) < MAX_VIOLATIONS:
                        self._violations.append(
                            f"t={entry.time_ns}ns sw{switch_id}: still forwarding "
                            f"into failed link toward {dead_peer} "
                            f"({entry.time_ns - fail_ns}ns after failure)"
                        )
            else:
                self._forwarded_after += 1

    def _never_recovered(self) -> bool:
        return bool(self._failures) and self._forwarded_after == 0

    def check(self, network: Network) -> List[str]:
        messages = list(self._violations)
        if self._never_recovered():
            messages.append(
                "no data packet was rerouted around the failed link"
            )
        return messages

    def violation_count(self) -> Optional[int]:
        return self._late_count + (1 if self._never_recovered() else 0)


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------
class ReplicasConsistent(Invariant):
    """At quiescence, the named arrays are identical on every (replica)
    switch — distributed synchronisation delivered every update."""

    #: replicas legitimately diverge while sync events are in flight
    streaming = False

    def __init__(self, arrays: Sequence[str], switches: Optional[Sequence[int]] = None,
                 name: str = "replicas-consistent"):
        self.arrays = tuple(arrays)
        self.switches = tuple(switches) if switches is not None else None
        self.name = name

    def check(self, network: Network) -> List[str]:
        ids = list(self.switches) if self.switches is not None else sorted(network.switches)
        if len(ids) < 2:
            return []
        messages = []
        reference = ids[0]
        for array_name in self.arrays:
            baseline = network.switches[reference].array(array_name).cells
            for sid in ids[1:]:
                cells = network.switches[sid].array(array_name).cells
                if cells != baseline:
                    diverging = sum(1 for a, b in zip(baseline, cells) if a != b)
                    messages.append(
                        f"array '{array_name}' diverges between sw{reference} and "
                        f"sw{sid} ({diverging} cells differ)"
                    )
        return messages


class NoDrops(Invariant):
    """No switch dropped any packet (used where every flow is benign and
    solicited, e.g. the DFW ring with RTT far above the sync latency)."""

    name = "no-drops"

    def check(self, network: Network) -> List[str]:
        return [
            f"sw{sid}: {switch.stats.drops} packets dropped"
            for sid, switch in network.switches.items()
            if switch.stats.drops > 0
        ]


class SequencerMonotone(Invariant):
    """SRO: the sequencer handed out exactly one sequence number per write
    request, and no replica holds a sequence number above the maximum
    issued."""

    name = "sequencer-monotone"

    def __init__(self, sequencer: int = 0):
        self.sequencer = sequencer

    def check(self, network: Network) -> List[str]:
        messages = []
        seq_switch = network.switches[self.sequencer]
        issued = seq_switch.array("next_seq").cells[0]
        writes = seq_switch.stats.handled_by_event.get("write_req", 0)
        if issued != writes:
            messages.append(
                f"sequencer issued {issued} sequence numbers for {writes} write_req"
            )
        for sid, switch in network.switches.items():
            held = max(switch.array("seqs").cells, default=0)
            if held > issued:
                messages.append(
                    f"sw{sid}: holds sequence number {held} > {issued} ever issued"
                )
        return messages
