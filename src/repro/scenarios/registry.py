"""The bundled scenario catalogue.

Each :class:`Scenario` names an application, a topology, a streaming traffic
model, and the invariants that must hold; ``build(events, seed)`` assembles a
fresh :class:`~repro.scenarios.runner.ScenarioSetup` (fresh traffic model and
invariant instances, so runs on different engines cannot contaminate each
other).  The catalogue spans the bundled Figure 9 applications, from a
single-switch heavy-hitter sketch to a 20-switch k=4 fat-tree, a link
failure on a leaf-spine, and the Figure 17 install-latency comparison driven
through the remote controller model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log
from typing import Callable, Dict, Iterator, List

import random

from repro.apps import ALL_APPLICATIONS
from repro.control import remote_install_latencies
from repro.interp.events import EventInstance
from repro.interp.interpreter import lucid_hash
from repro.interp.network import Network, SchedulerConfig, SourceItem
from repro.scenarios import topology as topo
from repro.scenarios import traffic as tm
from repro.scenarios.invariants import (
    DnsVictimBlocked,
    FirewallSolicitedOnly,
    Invariant,
    NoDrops,
    SketchOverestimates,
)
from repro.scenarios.runner import ScenarioSetup

INFINITY = 1_048_576


@dataclass(frozen=True)
class Scenario:
    """One named, registered scenario."""

    name: str
    title: str
    app_key: str
    topology: str
    description: str
    build: Callable[[int, int], ScenarioSetup]


SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario '{scenario.name}' registered twice")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario '{name}'; known: {sorted(SCENARIOS)}"
        ) from None


def _app_source(key: str) -> str:
    return ALL_APPLICATIONS[key].source


def _app_invariants(key: str) -> List[Invariant]:
    """The application's own invariant hooks (the single source of truth for
    per-app defaults); scenario builders append scenario-specific checks."""
    return ALL_APPLICATIONS[key].make_invariants()


# ---------------------------------------------------------------------------
# heavy hitters (CM) — single switch and k=4 fat-tree
# ---------------------------------------------------------------------------
def _build_heavy_hitter(topology: topo.Topology):
    def build(events: int, seed: int) -> ScenarioSetup:
        traffic = tm.ZipfPacketTraffic(event_name="pkt", hosts=512, alpha=1.2)
        return ScenarioSetup(
            topology=topology,
            make_network=lambda engine: topology.build_network(
                _app_source("CM"), engine=engine, name="CM"
            ),
            traffic=lambda: traffic.events(topology.edge, events, seed),
            invariants=_app_invariants("CM") + [SketchOverestimates(traffic)],
            settle_ns=100_000,
        )

    return build


register(
    Scenario(
        name="heavy-hitter-single",
        title="Zipf heavy hitters, one switch",
        app_key="CM",
        topology="single",
        description="Zipf-distributed flow mix through the count-min sketch; "
        "checks sketch conservation and the count-min overestimate guarantee.",
        build=_build_heavy_hitter(topo.single_switch()),
    )
)

register(
    Scenario(
        name="heavy-hitter-fattree",
        title="Zipf heavy hitters, k=4 fat-tree",
        app_key="CM",
        topology="fattree-4",
        description="The same Zipf mix sprayed across the 8 edge switches of "
        "a 20-switch k=4 fat-tree; per-switch sketch invariants must hold "
        "everywhere.",
        build=_build_heavy_hitter(topo.fat_tree(4)),
    )
)


def _build_heavy_hitter_fattree8(events: int, seed: int) -> ScenarioSetup:
    # WAN-scale link latencies (50 us) give the shard barrier a generous
    # conservative lookahead — config.link_latency_ns must match the
    # topology's, since undeclared switch pairs deliver at the config default
    topology = topo.fat_tree(8, latency_ns=50_000)
    config = SchedulerConfig(link_latency_ns=50_000)
    traffic = tm.ZipfPacketTraffic(
        event_name="pkt", hosts=4096, alpha=1.2, mean_gap_ns=200
    )
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("CM"), config=config, engine=engine, name="CM"
        ),
        traffic=lambda: traffic.events(topology.edge, events, seed),
        invariants=_app_invariants("CM") + [SketchOverestimates(traffic)],
        settle_ns=200_000,
    )


register(
    Scenario(
        name="heavy-hitter-fattree8",
        title="Zipf heavy hitters, k=8 fat-tree (shard-scale)",
        app_key="CM",
        topology="fattree-8",
        description="The Zipf mix sprayed across the 32 edge switches of an "
        "80-switch k=8 fat-tree with 50 us WAN links — the sharded-execution "
        "benchmark workload (8 pods split cleanly across worker processes).",
        build=_build_heavy_hitter_fattree8,
    )
)


# ---------------------------------------------------------------------------
# stateful firewall (SFW) — scan burst and install latency
# ---------------------------------------------------------------------------
def _build_sfw_scan_burst(events: int, seed: int) -> ScenarioSetup:
    topology = topo.single_switch()
    benign_events = max(1, (events * 7) // 10)
    scan_events = max(0, events - benign_events)
    benign = tm.FirewallFlowTraffic(hosts=256, external_hosts=1024)
    # the scan begins a third of the way into the benign window; with
    # returns on, each flow contributes 2*packets_per_flow events
    events_per_flow = benign.packets_per_flow * (2 if benign.with_returns else 1)
    mean_flow_gap_ns = 1e9 / benign.flow_rate_per_s
    scan_start = int(benign_events / events_per_flow * mean_flow_gap_ns / 3)
    scan = tm.ScanBurstTraffic(start_ns=scan_start, target_hosts=256)
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("SFW"), engine=engine, name="SFW"
        ),
        traffic=lambda: tm.merge(
            benign.events(topology.edge, benign_events, seed),
            scan.events(topology.edge, scan_events, seed + 1),
        ),
        invariants=_app_invariants("SFW"),
        settle_ns=1_000_000,
    )


register(
    Scenario(
        name="sfw-scan-burst",
        title="Stateful firewall under a scan burst",
        app_key="SFW",
        topology="single",
        description="Benign enterprise flows with returns, plus an inbound "
        "scan/DDoS burst; the firewall must never admit an unsolicited flow.",
        build=_build_sfw_scan_burst,
    )
)


@lru_cache(maxsize=None)
def _sfw_flow_key(src: int, dst: int) -> int:
    """Memoised SFW flow key: the observer hashes every handled packet, and
    flows repeat — ``lucid_hash`` is pure, so the cache cannot diverge."""
    return lucid_hash(32, [src, dst, 10398247])


@lru_cache(maxsize=None)
def _sfw_slots(key: int, size1: int, size2: int):
    """Memoised cuckoo slot pair for one flow key (pure, per table sizes)."""
    return (
        lucid_hash(10, [key, 10398247]) % size1,
        lucid_hash(10, [key, 1295981879]) % size2,
    )


class DataPlaneBeatsRemote(Invariant):
    """The Figure 17 claim at scenario scale: mean flow-installation latency
    with data-plane integrated control beats the Mantis-style remote
    controller on the same flow arrivals.  An install completes at the end of
    whichever pass wrote the key — the first packet's own (0 ns) or a later
    cuckoo recirculation; the controller baseline draws one
    :func:`~repro.control.remote_install_latencies` sample per flow, seeded
    by the run's seed.  :attr:`summary`, filled by :meth:`check`, is Figure
    17's row in :mod:`repro.figures`."""

    name = "dataplane-beats-remote"
    #: recent flows legitimately have installs still in flight mid-run, and
    #: they would be charged the full remaining run
    streaming = False

    def __init__(self, traffic: tm.FirewallFlowTraffic, seed: int):
        self.traffic = traffic
        self.seed = seed
        self._installed: Dict[int, int] = {}
        self._arrays = None
        self.summary: Dict[str, float] = {}

    def reset(self, network: Network, topology) -> None:
        self._installed.clear()
        switch = network.switch(0)
        self._arrays = (
            switch.array("keys1"),
            switch.array("keys2"),
            switch.array("stash"),
        )

    @staticmethod
    def _flow_key(src: int, dst: int) -> int:
        return _sfw_flow_key(src, dst)

    def _is_installed(self, key: int) -> bool:
        keys1, keys2, stash = self._arrays
        h1, h2 = _sfw_slots(key, keys1.size, keys2.size)
        return keys1.cells[h1] == key or keys2.cells[h2] == key or stash.cells[0] == key

    def observe(self, entry) -> None:
        event = entry.event
        if event.name == "pkt_out":
            key = self._flow_key(event.args[0], event.args[1])
        elif event.name == "install":
            key = event.args[0]
        else:
            return
        if key not in self._installed and self._is_installed(key):
            self._installed[key] = entry.time_ns

    def snapshot_state(self) -> Dict[str, object]:
        return {"installed": [[key, t] for key, t in self._installed.items()]}

    def restore_state(self, state: Dict[str, object]) -> None:
        self._installed = {key: t for key, t in state["installed"]}

    def check(self, network: Network) -> List[str]:
        flows = sorted(self.traffic.first_packet_ns.items(), key=lambda kv: kv[1])
        if not flows:
            return []
        latencies = []
        never_installed = 0
        for (src, dst), first_ns in flows:
            done = self._installed.get(self._flow_key(src, dst))
            if done is None:
                # a flow that never installed is charged the full remaining
                # run — a broken install path must FAIL this invariant, not
                # count as a free instant install
                never_installed += 1
                done = network.now_ns
            latencies.append(max(0, done - first_ns))
        latencies.sort()
        mean_dp = sum(latencies) / len(flows)
        remote = remote_install_latencies(len(flows), self.seed)
        mean_remote = sum(remote) / len(flows)
        self.summary = {
            "flows": len(flows),
            "never_installed": never_installed,
            "dataplane_mean_install_ns": round(mean_dp, 1),
            "dataplane_p50_install_ns": latencies[len(flows) // 2],
            "dataplane_p90_install_ns": latencies[len(flows) * 9 // 10],
            "dataplane_max_install_ns": latencies[-1],
            # latency 0: installed during the first packet's own pass
            "first_pass_share": round(latencies.count(0) / len(flows), 4),
            "remote_min_install_ns": min(remote),
            "remote_mean_install_ns": round(mean_remote, 1),
        }
        if mean_dp >= mean_remote:
            return [
                f"data-plane mean install {mean_dp:.0f}ns is not below the "
                f"remote controller's {mean_remote:.0f}ns "
                f"over {len(flows)} flows"
            ]
        return []


def _build_sfw_install_latency(events: int, seed: int) -> ScenarioSetup:
    topology = topo.single_switch()
    traffic = tm.FirewallFlowTraffic(
        hosts=256, external_hosts=1024, with_returns=False, packets_per_flow=2
    )
    latency = DataPlaneBeatsRemote(traffic, seed)
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("SFW"), engine=engine, name="SFW"
        ),
        traffic=lambda: traffic.events(topology.edge, events, seed),
        invariants=[latency],
        settle_ns=1_000_000,
        details=lambda network: dict(latency.summary),
    )


register(
    Scenario(
        name="sfw-install-latency",
        title="Flow-install latency: data plane vs remote controller",
        app_key="SFW",
        topology="single",
        description="Streams outbound flows through the firewall and compares "
        "mean flow-installation latency against the Mantis-style remote "
        "controller model (the Figure 17 comparison, driven by the scenario "
        "engine).",
        build=_build_sfw_install_latency,
    )
)


# ---------------------------------------------------------------------------
# DNS reflection defense
# ---------------------------------------------------------------------------
def _build_dns_reflection(events: int, seed: int) -> ScenarioSetup:
    topology = topo.single_switch()
    traffic = tm.DnsReflectionTraffic(reflected_share=0.3)
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("DNS"), engine=engine, name="DNS"
        ),
        traffic=lambda: traffic.events(topology.edge, events, seed),
        invariants=[DnsVictimBlocked(victim=traffic.victim, traffic=traffic)],
        settle_ns=500_000,
    )


register(
    Scenario(
        name="dns-reflection",
        title="DNS reflection attack vs the closed-loop defense",
        app_key="DNS",
        topology="single",
        description="Benign query/response pairs mixed with reflected "
        "responses aimed at a victim; once the sketch crosses the threshold "
        "the victim must be blocked, while a collision-free benign witness "
        "must never be.",
        build=_build_dns_reflection,
    )
)


# ---------------------------------------------------------------------------
# NAT churn
# ---------------------------------------------------------------------------
def _build_nat_churn(events: int, seed: int) -> ScenarioSetup:
    topology = topo.single_switch()
    traffic = tm.NatChurnTraffic()
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("NAT"), engine=engine, name="NAT"
        ),
        traffic=lambda: traffic.events(topology.edge, events, seed),
        invariants=_app_invariants("NAT"),
        settle_ns=200_000,
    )


register(
    Scenario(
        name="nat-churn",
        title="NAT under flow churn",
        app_key="NAT",
        topology="single",
        description="A rotating population of internal flows plus inbound "
        "probes keeps the translation table churning; mappings must stay "
        "bijective (one flow per slot, one external port per flow).",
        build=_build_nat_churn,
    )
)


# ---------------------------------------------------------------------------
# RIP convergence on a line
# ---------------------------------------------------------------------------
def _build_rip_line(events: int, seed: int) -> ScenarioSetup:
    topology = topo.line(5)
    n = topology.num_switches

    def prepare(network: Network) -> None:
        for sid in range(n):
            network.switch(sid).array("dist").cells[0] = 0 if sid == 0 else INFINITY

    def traffic() -> Iterator[SourceItem]:
        # kick off every switch's advertisement loop, then sprinkle data
        # packets across the convergence window
        for sid in range(n):
            yield (0, sid, EventInstance("periodic_advertise", ()))
        draw = random.Random(seed).random
        lambd = 1.0 / 2_000
        packet = EventInstance("data_pkt", (0,))
        now = 0.0
        for i in range(events):
            now += -log(1.0 - draw()) / lambd
            yield (int(now), i % n, packet)

    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("RIP"), engine=engine, name="RIP"
        ),
        traffic=traffic,
        prepare=prepare,
        invariants=_app_invariants("RIP"),
        # the advertisement period is 1 ms; leave room for diameter+1 rounds
        settle_ns=8_000_000,
    )


register(
    Scenario(
        name="rip-line-convergence",
        title="RIP convergence on a 5-switch line",
        app_key="RIP",
        topology="line-5",
        description="All switches start with infinite distance except the "
        "destination; periodic advertisements must converge every switch to "
        "its true hop count with a next hop one hop closer.",
        build=_build_rip_line,
    )
)


# ---------------------------------------------------------------------------
# fast rerouter: link failure on a leaf-spine
# ---------------------------------------------------------------------------
def _build_reroute_linkfail(events: int, seed: int) -> ScenarioSetup:
    topology = topo.leaf_spine(4, 2)
    leaves = topology.edge
    ports = topology.shortest_path_ports()

    def prepare(network: Network) -> None:
        for sid in range(topology.num_switches):
            switch = network.switch(sid)
            hops = topology.hop_distances_from(sid)
            nexthops = switch.array("nexthops")
            pathlens = switch.array("pathlens")
            for dst in range(topology.num_switches):
                if dst == sid:
                    continue
                nexthops.cells[dst] = ports[(sid, dst)]
                pathlens.cells[dst] = hops[dst]
            linkstat = switch.array("linkstat")
            for peer in topology.neighbors(sid):
                linkstat.cells[peer] = 3

    mean_gap_ns = 2_000
    fail_at = int(events * mean_gap_ns / 3)
    failed_leaf, dead_spine = 0, 4  # leaf 0's lowest-id uplink
    (recovers,) = _app_invariants("RR")  # RerouteRecovers, tolerance 50 us

    def on_fail(network: Network, failure: tm.LinkFailure) -> None:
        # the hardware port-down signal: mark the uplink dead and invalidate
        # the routes that used it, which is what re-triggers route queries
        switch = network.switch(failed_leaf)
        switch.array("linkstat").cells[dead_spine] = 0
        nexthops = switch.array("nexthops")
        pathlens = switch.array("pathlens")
        for dst in range(topology.num_switches):
            if nexthops.cells[dst] == dead_spine:
                pathlens.cells[dst] = INFINITY
        recovers.announce_failure(network.now_ns, failed_leaf, dead_spine)

    def data_packets() -> Iterator[SourceItem]:
        rng = random.Random(seed)
        draw, randrange = rng.random, rng.randrange
        lambd = 1.0 / mean_gap_ns
        width = len(leaves)
        # per source leaf: the other leaves, as the data_pkt each one is sent
        others = [[EventInstance("data_pkt", (dst,)) for dst in leaves if dst != leaf]
                  for leaf in leaves]
        now = 0.0
        for i in range(events):
            now += -log(1.0 - draw()) / lambd
            packets = others[i % width]
            yield (int(now), leaves[i % width], packets[randrange(len(packets))])

    schedule = [
        tm.LinkFailure(link=(failed_leaf, dead_spine), fail_at_ns=fail_at, recover_at_ns=None)
    ]

    def traffic() -> Iterator[SourceItem]:
        return tm.merge(
            data_packets(), tm.link_failure_actions(schedule, on_fail=on_fail)
        )

    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("RR"), engine=engine, name="RR"
        ),
        traffic=traffic,
        prepare=prepare,
        invariants=[recovers],
        settle_ns=1_000_000,
    )


register(
    Scenario(
        name="reroute-leafspine-linkfail",
        title="Fast rerouter around a failed leaf-spine uplink",
        app_key="RR",
        topology="leafspine-4x2",
        description="Leaf-to-leaf traffic on a 4x2 leaf-spine; one uplink "
        "fails mid-run.  The rerouter must stop using the dead uplink within "
        "the tolerance and keep forwarding via the surviving spine.",
        build=_build_reroute_linkfail,
    )
)


# ---------------------------------------------------------------------------
# SRO: sequenced replicated writes on a leaf-spine
# ---------------------------------------------------------------------------
def _build_sro_writes(events: int, seed: int) -> ScenarioSetup:
    topology = topo.leaf_spine(4, 2)
    n = topology.num_switches
    replicas = list(range(n))

    def traffic() -> Iterator[SourceItem]:
        rng = random.Random(seed)
        draw, randrange = rng.random, rng.randrange
        lambd = 1.0 / 5_000
        now = 0.0
        for _ in range(events):
            now += -log(1.0 - draw()) / lambd
            if draw() < 0.75:
                key = randrange(256)
                value = 1 + randrange(1 << 16)
                # all writes enter through the sequencer (switch 0)
                yield (int(now), 0, EventInstance("write_req", (key, value)))
            else:
                key = randrange(256)
                client = randrange(n)
                yield (int(now), randrange(n), EventInstance("read_req", (key, client)))

    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("SRO"),
            engine=engine,
            groups=lambda sid: {"REPLICAS": replicas},
            name="SRO",
        ),
        traffic=traffic,
        invariants=_app_invariants("SRO"),
        settle_ns=500_000,
    )


register(
    Scenario(
        name="sro-replicated-writes",
        title="Strongly consistent replicated arrays on a leaf-spine",
        app_key="SRO",
        topology="leafspine-4x2",
        description="Writes are sequenced at switch 0 and fanned out to all "
        "six replicas, with reads served locally; at quiescence every replica "
        "must hold identical values and no sequence number above what the "
        "sequencer issued.",
        build=_build_sro_writes,
    )
)


# ---------------------------------------------------------------------------
# DFW: asymmetric returns on a border ring
# ---------------------------------------------------------------------------
def _build_dfw_ring(events: int, seed: int) -> ScenarioSetup:
    topology = topo.ring(4)
    n = topology.num_switches
    traffic = tm.FirewallFlowTraffic(
        hosts=256,
        external_hosts=1024,
        flow_rate_per_s=20_000.0,
        roam_returns=True,
    )
    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _app_source("DFW"),
            engine=engine,
            groups=lambda sid: {"PEERS": [s for s in range(n) if s != sid]},
            name="DFW",
        ),
        traffic=lambda: traffic.events(topology.edge, events, seed),
        invariants=_app_invariants("DFW") + [FirewallSolicitedOnly(), NoDrops()],
        settle_ns=500_000,
    )


register(
    Scenario(
        name="dfw-ring-roaming",
        title="Distributed firewall with asymmetric returns",
        app_key="DFW",
        topology="ring-4",
        description="Flows leave through one border switch and return through "
        "another; Bloom-filter sync must admit every return (no drops), the "
        "filters must converge to identical state, and nothing unsolicited "
        "may pass.",
        build=_build_dfw_ring,
    )
)
