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
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass, field
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


class _ZipfSampler:
    """Discrete power-law sampler over ``n`` ranks: P(rank i) ~ 1/(i+1)^alpha.

    O(n) memory for the cumulative table, O(log n) per draw — independent of
    how many samples are drawn.
    """

    def __init__(self, n: int, alpha: float):
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        return bisect_left(self._cumulative, rng.random())


@dataclass
class ZipfPacketTraffic:
    """Zipf-distributed flow mix: a few heavy-hitter flows dominate a long
    uniform-ish tail — the canonical sketch/telemetry workload.

    Emits ``event_name(src, dst)`` (``extra_args`` appended) round-robin over
    the topology's edge switches with exponential inter-arrival gaps.  The
    per-flow emission counts of the ``track_top`` heaviest ranks are recorded
    in :attr:`emitted`, keyed by switch then flow, so invariants can compare
    sketch estimates against ground truth without observing every event.
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
        sampler = _ZipfSampler(self.hosts, self.alpha)
        rng = random.Random(seed)
        self.emitted.clear()
        now = 0.0
        for i in range(count):
            now += rng.expovariate(1.0 / self.mean_gap_ns)
            rank = sampler.sample(rng)
            src, dst = self.flow_for_rank(rank)
            switch = edge[i % len(edge)]
            if rank < self.track_top:
                per_switch = self.emitted.setdefault(switch, {})
                per_switch[(src, dst)] = per_switch.get((src, dst), 0) + 1
            yield (
                int(now),
                switch,
                EventInstance(self.event_name, (src, dst) + self.extra_args),
            )


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
        self.first_packet_ns.clear()
        pending: List[Tuple[int, int, int, EventInstance]] = []
        serial = 0
        emitted = 0
        flow_index = 0
        now = 0.0
        while emitted < count:
            now += rng.expovariate(self.flow_rate_per_s) * 1e9
            start = int(now)
            src = rng.randrange(self.hosts)
            dst = self.hosts + rng.randrange(self.external_hosts)
            switch = edge[flow_index % len(edge)]
            return_switch = (
                edge[(flow_index + 1) % len(edge)] if self.roam_returns else switch
            )
            flow_index += 1
            while pending and pending[0][0] <= start and emitted < count:
                t, _, sw, event = heapq.heappop(pending)
                yield (t, sw, event)
                emitted += 1
            if emitted >= count:
                break
            self.first_packet_ns.setdefault((src, dst), start)
            for p in range(self.packets_per_flow):
                t_out = start + p * self.inter_packet_ns
                serial += 1
                if p == 0:
                    yield (t_out, switch, EventInstance(self.out_event, (src, dst)))
                    emitted += 1
                else:
                    heapq.heappush(
                        pending,
                        (t_out, serial, switch, EventInstance(self.out_event, (src, dst))),
                    )
                if self.with_returns:
                    serial += 1
                    heapq.heappush(
                        pending,
                        (
                            t_out + self.rtt_ns,
                            serial,
                            return_switch,
                            EventInstance(self.in_event, (dst, src)),
                        ),
                    )
                if emitted >= count:
                    break
        while pending and emitted < count:
            t, _, sw, event = heapq.heappop(pending)
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
        rng = random.Random(seed)
        t = self.start_ns
        for i in range(count):
            attacker = self.attacker_base + rng.randrange(self.attackers)
            target = i % self.target_hosts
            # an inbound probe arrives with the attacker as its source
            yield (
                t,
                edge[i % len(edge)],
                EventInstance(self.in_event, (attacker, target)),
            )
            t += self.gap_ns


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
    pending: List[Tuple[int, int, DnsPacket]] = []  # (time, tiebreak, response)
    emitted = 0
    tiebreak = 0
    now = 0.0
    while emitted < total_packets:
        now += rng.expovariate(1.0 / mean_gap_ns)
        arrival = int(now)
        # release responses that come due before this arrival
        while pending and pending[0][0] <= arrival and emitted < total_packets:
            yield heapq.heappop(pending)[2]
            emitted += 1
        if emitted >= total_packets:
            break
        if rng.random() < reflected_share:
            server = rng.randrange(servers)
            yield DnsPacket(
                time_ns=arrival, client=victim, server=server,
                is_response=True, reflected=True,
            )
            emitted += 1
        else:
            client = rng.randrange(clients)
            server = rng.randrange(servers)
            yield DnsPacket(
                time_ns=arrival, client=client, server=server, is_response=False
            )
            emitted += 1
            tiebreak += 1
            heapq.heappush(
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
        yield heapq.heappop(pending)[2]
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
        now = 0.0
        next_flow = 0
        active: List[Tuple[int, int]] = []
        for i in range(count):
            now += rng.expovariate(1.0 / self.mean_gap_ns)
            t = int(now)
            switch = edge[i % len(edge)]
            if i % self.churn_every == 0 or not active:
                src = next_flow % self.internal_hosts
                dst = self.internal_hosts + (next_flow * 13 + 5) % self.external_hosts
                next_flow += 1
                active.append((src, dst))
                if len(active) > self.active_flows:
                    active.pop(0)
            if rng.random() < self.probe_share:
                port = self.first_port + rng.randrange(max(1, next_flow + 8))
                dst_ext = self.internal_hosts + rng.randrange(self.external_hosts)
                yield (t, switch, EventInstance("pkt_external", (dst_ext, port)))
            else:
                src, dst = active[rng.randrange(len(active))]
                yield (t, switch, EventInstance("pkt_internal", (src, dst)))
