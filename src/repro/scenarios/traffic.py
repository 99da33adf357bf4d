"""Streaming traffic models for the scenario engine.

Every model is a factory of lazily generated, time-ordered
``(time_ns, switch_id, EventInstance)`` items — the streaming source protocol
of :meth:`repro.interp.network.Network.run`.  Nothing here materialises an
event list: a million-event scenario holds O(1) traffic state (a seeded RNG,
a small pending heap for request/response pairs, and per-heavy-hitter
counters bounded by the host population, not the event count).

Models compose: :func:`merge` interleaves any number of sorted streams, and
:func:`link_failure_actions` turns a schedule of :class:`LinkFailure`
records into scheduled control actions that fail/restore links mid-run.

Two contracts hold for every model.  **The RNG call order is the stream**:
items and side state are a pure function of the draws a model makes from its
seeded ``random.Random``, so a faster generator must make the same draws in
the same order with the same float operations (``expovariate(lambd)`` is
spelled inline as ``-log(1.0 - random()) / lambd``, exactly what
``random.py`` computes); ``tests/test_workloads.py`` pins every scenario's
stream by digest.  **Injected instances may be shared**: events are
immutable, so items carrying the same event may hold one instance (one per
Zipf rank, per firewall flow direction, per active NAT flow).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import cycle, islice
from math import log
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.interp.events import EventInstance
from repro.interp.network import CONTROL, Network, SourceItem


@dataclass(frozen=True)
class LinkFailure:
    """One link failing (and optionally recovering)."""

    link: Tuple[int, int]
    fail_at_ns: int
    recover_at_ns: Optional[int] = None


def merge(*streams: Iterable[SourceItem]) -> Iterator[SourceItem]:
    """Merge time-ordered streams into one time-ordered stream (stable heap
    merge: ties go to the earlier-listed stream)."""
    return heapq.merge(*streams, key=lambda item: item[0])


def control_action(time_ns: int, fn: Callable[[Network], None]) -> SourceItem:
    """One scheduled control action: ``fn(network)`` runs at ``time_ns``."""
    return (time_ns, CONTROL, fn)


def link_failure_actions(
    failures: Iterable[LinkFailure],
    on_fail: Optional[Callable[[Network, LinkFailure], None]] = None,
    on_recover: Optional[Callable[[Network, LinkFailure], None]] = None,
) -> Iterator[SourceItem]:
    """Turn a link-failure schedule into a stream of control actions.

    Each failure yields a fail action (take the link down, then call
    ``on_fail`` — e.g. to poke a switch's link-status array the way a
    hardware port-down signal would) and, if the failure recovers, a recover
    action.  Assumes the schedule is ordered by ``fail_at_ns`` and downtimes
    do not overlap out of order (true for the streaming generator).
    """
    pending: List[Tuple[int, int, SourceItem]] = []
    serial = 0
    for failure in failures:

        def make_fail(f: LinkFailure) -> Callable[[Network], None]:
            def act(network: Network) -> None:
                network.fail_link(*f.link)
                if on_fail is not None:
                    on_fail(network, f)

            return act

        def make_recover(f: LinkFailure) -> Callable[[Network], None]:
            def act(network: Network) -> None:
                network.restore_link(*f.link)
                if on_recover is not None:
                    on_recover(network, f)

            return act

        while pending and pending[0][0] <= failure.fail_at_ns:
            yield heapq.heappop(pending)[2]
        yield control_action(failure.fail_at_ns, make_fail(failure))
        if failure.recover_at_ns is not None:
            serial += 1
            heapq.heappush(
                pending,
                (
                    failure.recover_at_ns,
                    serial,
                    control_action(failure.recover_at_ns, make_recover(failure)),
                ),
            )
    while pending:
        yield heapq.heappop(pending)[2]


def _zipf_cumulative(n: int, alpha: float) -> List[float]:
    """The cumulative table of a discrete power law over ``n`` ranks,
    P(rank i) ~ 1/(i+1)^alpha: ``bisect_left(table, rng.random())`` draws a
    rank.  O(n) memory, O(log n) per draw — independent of how many samples
    are drawn."""
    weights = [1.0 / (i + 1) ** alpha for i in range(n)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return cumulative


@dataclass
class ZipfPacketTraffic:
    """Zipf-distributed flow mix: a few heavy-hitter flows dominate a long
    uniform-ish tail — the canonical sketch/telemetry workload.

    Emits ``event_name(src, dst)`` (``extra_args`` appended) round-robin over
    the topology's edge switches with exponential inter-arrival gaps; every
    item of one rank carries the same instance.  The per-flow emission counts
    of the ``track_top`` heaviest ranks are recorded in :attr:`emitted`,
    keyed by switch then flow, so invariants can compare sketch estimates
    against ground truth without observing every event.
    """

    event_name: str = "pkt"
    hosts: int = 512
    alpha: float = 1.2
    mean_gap_ns: int = 1_000
    extra_args: Tuple[int, ...] = ()
    track_top: int = 4
    #: filled while streaming: {switch_id: {(src, dst): count}}
    emitted: Dict[int, Dict[Tuple[int, int], int]] = field(default_factory=dict)

    def flow_for_rank(self, rank: int) -> Tuple[int, int]:
        """The deterministic (src, dst) pair of a Zipf rank."""
        src = (rank * 2654435761 + 1) % self.hosts
        dst = (rank * 40503 + 7) % self.hosts
        return src, dst

    def events(
        self, edge: Sequence[int], count: int, seed: int
    ) -> Iterator[SourceItem]:
        cumulative = _zipf_cumulative(self.hosts, self.alpha)
        draw = random.Random(seed).random
        lambd = 1.0 / self.mean_gap_ns
        emitted = self.emitted
        emitted.clear()
        top = self.track_top
        by_rank = [EventInstance(self.event_name, self.flow_for_rank(rank) + self.extra_args)
                   for rank in range(self.hosts)]
        flows = [self.flow_for_rank(rank) for rank in range(top)]
        now = 0.0
        for switch in islice(cycle(edge), count):
            now += -log(1.0 - draw()) / lambd
            rank = bisect_left(cumulative, draw())
            if rank < top:
                per_switch = emitted.get(switch)
                if per_switch is None:
                    per_switch = emitted[switch] = {}
                flow = flows[rank]
                per_switch[flow] = per_switch.get(flow, 0) + 1
            yield (int(now), switch, by_rank[rank])


@dataclass
class FirewallFlowTraffic:
    """Benign enterprise traffic for the stateful-firewall apps: outbound
    flows (``pkt_out``) from trusted hosts, each answered by inbound return
    packets (``pkt_in``) one RTT later.

    The pending-return heap holds only the flows in flight during one RTT —
    bounded by ``rate * rtt``, independent of the total event count.  Records
    the first-packet time of every distinct flow in :attr:`first_packet_ns`
    (bounded by distinct flows) for install-latency measurements.
    """

    hosts: int = 256
    external_hosts: int = 1024
    flow_rate_per_s: float = 50_000.0
    packets_per_flow: int = 2
    inter_packet_ns: int = 10_000
    rtt_ns: int = 200_000
    with_returns: bool = True
    #: return packets enter at the *next* edge switch (distributed-firewall
    #: asymmetric routing: the flow leaves through one border and returns
    #: through another)
    roam_returns: bool = False
    out_event: str = "pkt_out"
    in_event: str = "pkt_in"
    #: filled while streaming: {(src, dst): first outbound packet time}
    first_packet_ns: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def events(
        self, edge: Sequence[int], count: int, seed: int
    ) -> Iterator[SourceItem]:
        rng = random.Random(seed)
        draw, randrange = rng.random, rng.randrange
        self.first_packet_ns.clear()
        rate, hosts, external = self.flow_rate_per_s, self.hosts, self.external_hosts
        packets, gap, rtt = self.packets_per_flow, self.inter_packet_ns, self.rtt_ns
        with_returns, roam = self.with_returns, self.roam_returns
        width = len(edge)
        push, pop = heapq.heappush, heapq.heappop
        pending: List[Tuple[int, int, int, EventInstance]] = []
        serial = emitted = flow_index = 0
        now = 0.0
        while emitted < count:
            now += -log(1.0 - draw()) / rate * 1e9
            start = int(now)
            src = randrange(hosts)
            dst = hosts + randrange(external)
            switch = edge[flow_index % width]
            return_switch = edge[(flow_index + 1) % width] if roam else switch
            flow_index += 1
            while pending and pending[0][0] <= start and emitted < count:
                t, _, sw, event = pop(pending)
                yield (t, sw, event)
                emitted += 1
            if emitted >= count:
                break
            self.first_packet_ns.setdefault((src, dst), start)
            # every packet of the flow carries one instance per direction
            out = EventInstance(self.out_event, (src, dst))
            back = EventInstance(self.in_event, (dst, src)) if with_returns else None
            for p in range(packets):
                t_out = start + p * gap
                serial += 1
                if p == 0:
                    yield (t_out, switch, out)
                    emitted += 1
                else:
                    push(pending, (t_out, serial, switch, out))
                if with_returns:
                    serial += 1
                    push(pending, (t_out + rtt, serial, return_switch, back))
                if emitted >= count:
                    break
        while pending and emitted < count:
            t, _, sw, event = pop(pending)
            yield (t, sw, event)
            emitted += 1


@dataclass
class ScanBurstTraffic:
    """A scan/DDoS burst: unsolicited inbound probes (``pkt_in``) from a
    range of attacker sources against a sweep of internal hosts, at a high
    constant rate inside a burst window."""

    attacker_base: int = 1_000_000
    attackers: int = 32
    target_hosts: int = 256
    start_ns: int = 0
    gap_ns: int = 500
    in_event: str = "pkt_in"

    def events(
        self, edge: Sequence[int], count: int, seed: int
    ) -> Iterator[SourceItem]:
        randrange = random.Random(seed).randrange
        base, attackers, targets = self.attacker_base, self.attackers, self.target_hosts
        name, gap, width = self.in_event, self.gap_ns, len(edge)
        t = self.start_ns
        for i in range(count):
            attacker = base + randrange(attackers)
            # an inbound probe arrives with the attacker as its source
            yield (t, edge[i % width], EventInstance(name, (attacker, i % targets)))
            t += gap


@dataclass(frozen=True)
class DnsPacket:
    """One DNS packet: (time, client, server, is_response)."""

    time_ns: int
    client: int
    server: int
    is_response: bool
    reflected: bool = False


def stream_dns_mix(
    total_packets: int,
    reflected_share: float = 0.3,
    clients: int = 64,
    servers: int = 16,
    victim: int = 7,
    mean_gap_ns: int = 20_000,
    response_delay_ns: int = 50_000,
    seed: int = 11,
) -> Iterator[DnsPacket]:
    """Stream a benign-query/reflected-response mix in time order, lazily.

    Arrivals follow a Poisson process so the stream is ordered by
    construction.  Pending responses (a query's answer arrives
    ``response_delay_ns`` later) sit in a small heap bounded by the number of
    queries in flight during one response delay — independent of
    ``total_packets``.  Reflected responses target ``victim`` with no matching
    query.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    draw, randrange = rng.random, rng.randrange
    lambd = 1.0 / mean_gap_ns
    push, pop = heapq.heappush, heapq.heappop
    pending: List[Tuple[int, int, DnsPacket]] = []  # (time, tiebreak, response)
    emitted = 0
    tiebreak = 0
    now = 0.0
    while emitted < total_packets:
        now += -log(1.0 - draw()) / lambd
        arrival = int(now)
        # release responses that come due before this arrival
        while pending and pending[0][0] <= arrival and emitted < total_packets:
            yield pop(pending)[2]
            emitted += 1
        if emitted >= total_packets:
            break
        if draw() < reflected_share:
            server = randrange(servers)
            yield DnsPacket(
                time_ns=arrival, client=victim, server=server,
                is_response=True, reflected=True,
            )
            emitted += 1
        else:
            client = randrange(clients)
            server = randrange(servers)
            yield DnsPacket(
                time_ns=arrival, client=client, server=server, is_response=False
            )
            emitted += 1
            tiebreak += 1
            push(
                pending,
                (
                    arrival + response_delay_ns,
                    tiebreak,
                    DnsPacket(
                        time_ns=arrival + response_delay_ns,
                        client=client,
                        server=server,
                        is_response=True,
                    ),
                ),
            )
    # drain whatever responses remain due, still in time order
    while pending and emitted < total_packets:
        yield pop(pending)[2]
        emitted += 1


@dataclass
class DnsReflectionTraffic:
    """The DNS-defense workload: benign query/response pairs mixed with
    reflected responses aimed at a victim (:func:`stream_dns_mix` as
    scenario events)."""

    reflected_share: float = 0.3
    clients: int = 64
    servers: int = 16
    victim: int = 7
    mean_gap_ns: int = 20_000
    response_delay_ns: int = 50_000
    #: filled while streaming: reflected responses emitted so far (lets the
    #: victim-blocked invariant stay vacuous below the blocking threshold)
    reflected_emitted: int = 0

    def events(
        self, edge: Sequence[int], count: int, seed: int
    ) -> Iterator[SourceItem]:
        self.reflected_emitted = 0
        for i, packet in enumerate(
            stream_dns_mix(
                count,
                reflected_share=self.reflected_share,
                clients=self.clients,
                servers=self.servers,
                victim=self.victim,
                mean_gap_ns=self.mean_gap_ns,
                response_delay_ns=self.response_delay_ns,
                seed=seed,
            )
        ):
            if packet.reflected:
                self.reflected_emitted += 1
            name = "dns_response" if packet.is_response else "dns_query"
            yield (
                packet.time_ns,
                edge[i % len(edge)],
                EventInstance(name, (packet.client, packet.server)),
            )


@dataclass
class NatChurnTraffic:
    """NAT churn: a rotating population of internal flows (``pkt_internal``)
    with occasional inbound probes (``pkt_external``).  New flows keep
    arriving while old ones re-send, so the mapping table keeps churning."""

    internal_hosts: int = 128
    external_hosts: int = 64
    active_flows: int = 64
    churn_every: int = 16
    probe_share: float = 0.1
    mean_gap_ns: int = 2_000
    first_port: int = 1024

    def events(
        self, edge: Sequence[int], count: int, seed: int
    ) -> Iterator[SourceItem]:
        rng = random.Random(seed)
        draw, randrange = rng.random, rng.randrange
        lambd = 1.0 / self.mean_gap_ns
        internal, external = self.internal_hosts, self.external_hosts
        churn_every, max_active = self.churn_every, self.active_flows
        probe_share, first_port = self.probe_share, self.first_port
        width = len(edge)
        now = 0.0
        next_flow = 0
        # the active flows' pkt_internal instances, oldest first
        active: List[EventInstance] = []
        for i in range(count):
            now += -log(1.0 - draw()) / lambd
            t = int(now)
            switch = edge[i % width]
            if i % churn_every == 0 or not active:
                src = next_flow % internal
                dst = internal + (next_flow * 13 + 5) % external
                next_flow += 1
                active.append(EventInstance("pkt_internal", (src, dst)))
                if len(active) > max_active:
                    active.pop(0)
            if draw() < probe_share:
                port = first_port + randrange(max(1, next_flow + 8))
                dst_ext = internal + randrange(external)
                yield (t, switch, EventInstance("pkt_external", (dst_ext, port)))
            else:
                yield (t, switch, active[randrange(len(active))])
