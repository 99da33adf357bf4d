"""Direct unit tests for the streaming workload generators in
``repro.scenarios.traffic``: the firewall flow stream, the DNS mix,
link-failure schedules, and every registered scenario's stream by digest.

These pinned the standalone workload generators until they were folded into
the scenario traffic models; each test keeps its id and asserts the same contract
— determinism under a fixed seed, reversed-key return traffic one RTT later,
packet timing, time order, laziness, the DNS mix composition, the link
fail/recover lifecycle — on the implementation that survives.
"""

import hashlib
import inspect
import itertools

from repro.interp.network import CONTROL, Network
from repro.scenarios import SCENARIOS
from repro.scenarios import traffic as tm
from repro.scenarios.traffic import (
    DnsReflectionTraffic,
    FirewallFlowTraffic,
    LinkFailure,
    control_action,
    link_failure_actions,
    merge,
    stream_dns_mix,
)


def flow_events(count, seed, **model):
    return list(FirewallFlowTraffic(**model).events([0], count, seed))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------
class TestFlowWorkload:
    def test_deterministic_under_fixed_seed(self):
        assert flow_events(200, seed=42) == flow_events(200, seed=42)

    def test_different_seeds_differ(self):
        assert flow_events(200, seed=1) != flow_events(200, seed=2)

    def test_iter_flows_streams_the_same_sequence(self):
        # the stream does not depend on how much of it is asked for: a short
        # run is a prefix of a long one
        long_run = FirewallFlowTraffic().events([0], 10_000, seed=7)
        assert list(itertools.islice(long_run, 160)) == flow_events(160, seed=7)

    def test_iter_flows_is_lazy(self):
        stream = FirewallFlowTraffic().events([0], 10**9, seed=3)
        first = list(itertools.islice(stream, 4))
        assert len(first) == 4  # a materialising generator would never return

    def test_key_reverse_key_symmetry(self):
        events = [event for _, _, event in FirewallFlowTraffic().events([0], 400, seed=11)]
        outbound = {event.args for event in events if event.name == "pkt_out"}
        inbound = [event.args for event in events if event.name == "pkt_in"]
        assert inbound
        # a return packet's key, reversed, is the key of an outbound flow
        assert all((dst, src) in outbound for src, dst in inbound)

    def test_return_flow_reverses_outbound_key(self):
        items = flow_events(400, seed=5)
        outbound = {(t, event.args) for t, _, event in items if event.name == "pkt_out"}
        inbound = [(t, event.args) for t, _, event in items if event.name == "pkt_in"]
        assert inbound
        for t, (src, dst) in inbound:
            assert (t - 200_000, (dst, src)) in outbound  # one RTT after its outbound packet

    def test_packet_times_spacing(self):
        traffic = FirewallFlowTraffic(
            packets_per_flow=3, inter_packet_ns=50, with_returns=False, flow_rate_per_s=1_000.0
        )
        times = {}
        for t, _, event in traffic.events([0], 30, seed=1):
            times.setdefault(event.args, []).append(t)
        for key, (start, *_) in list(times.items())[:5]:
            assert times[key] == [start, start + 50, start + 100]

    def test_outbound_arrivals_are_monotone(self):
        times = [t for t, _, _ in flow_events(600, seed=9)]
        assert times == sorted(times)

    def test_poisson_arrivals_deterministic_and_monotone(self):
        def first_packets():
            first = {}
            for t, _, event in FirewallFlowTraffic().events([0], 400, seed=3):
                if event.name == "pkt_out":
                    first.setdefault(event.args, t)
            return first

        first = first_packets()
        assert first == first_packets()
        arrivals = list(first.values())  # insertion order = arrival order
        assert arrivals == sorted(arrivals)


# ---------------------------------------------------------------------------
# DNS
# ---------------------------------------------------------------------------
class TestDnsTraffic:
    def test_generate_deterministic(self):
        a = list(DnsReflectionTraffic().events([0, 1], 300, seed=11))
        b = list(DnsReflectionTraffic().events([0, 1], 300, seed=11))
        assert a == b

    def test_generate_sorted_and_partitioned(self):
        traffic = DnsReflectionTraffic(reflected_share=0.4, victim=5)
        items = list(traffic.events([0], 500, seed=2))
        times = [t for t, _, _ in items]
        assert times == sorted(times)
        queries = [event for _, _, event in items if event.name == "dns_query"]
        responses = [event for _, _, event in items if event.name == "dns_response"]
        assert len(queries) + len(responses) == 500
        # responses are the reflected ones plus at most one answer per query
        assert 0 < traffic.reflected_emitted < len(responses)
        assert len(responses) - traffic.reflected_emitted <= len(queries)

    def test_reflected_target_the_victim(self):
        reflected = [p for p in stream_dns_mix(300, victim=9, seed=4) if p.reflected]
        assert reflected
        assert all(p.client == 9 and p.is_response for p in reflected)

    def test_stream_is_deterministic_and_time_ordered(self):
        a = list(stream_dns_mix(400, seed=13))
        b = list(stream_dns_mix(400, seed=13))
        assert a == b
        times = [p.time_ns for p in a]
        assert times == sorted(times)
        assert len(a) == 400

    def test_stream_mix_composition(self):
        packets = list(stream_dns_mix(600, reflected_share=0.5, victim=3, seed=8))
        reflected = [p for p in packets if p.reflected]
        queries = [p for p in packets if not p.is_response]
        assert reflected and queries
        assert all(p.client == 3 for p in reflected)
        # benign responses answer a previously seen query
        seen = set()
        for p in packets:
            if not p.is_response:
                seen.add((p.client, p.server))
            elif not p.reflected:
                assert (p.client, p.server) in seen


# ---------------------------------------------------------------------------
# link failures
# ---------------------------------------------------------------------------
class TestLinkFailures:
    LINKS = [(0, 1), (1, 2), (2, 3)]

    def test_failed_links_lifecycle(self):
        network = Network()
        for a, b in self.LINKS:
            network.add_link(a, b)
        down_at = {}

        def probe(time_ns):
            return control_action(
                time_ns, lambda net: down_at.update({time_ns: net.link_is_down(0, 1)})
            )

        actions = link_failure_actions([LinkFailure(link=(0, 1), fail_at_ns=100, recover_at_ns=200)])
        network.run(source=merge(actions, [probe(t) for t in (50, 150, 250)]))
        assert down_at == {50: False, 150: True, 250: False}

    def test_iter_random_failures_streams_sorted(self):
        # overlapping downtimes: recoveries interleave with later failures in time order
        schedule = [
            LinkFailure(link=self.LINKS[i % 3], fail_at_ns=100 * i, recover_at_ns=100 * i + 250)
            for i in range(15)
        ]
        times = [t for t, _, _ in link_failure_actions(schedule)]
        assert len(times) == 30
        assert times == sorted(times)

    def test_iter_random_failures_is_lazy(self):
        endless = (
            LinkFailure(link=(0, 1), fail_at_ns=100 * i, recover_at_ns=100 * i + 50)
            for i in itertools.count()
        )
        assert len(list(itertools.islice(link_failure_actions(endless), 3))) == 3


# ---------------------------------------------------------------------------
# every scenario's stream, pinned
# ---------------------------------------------------------------------------
#: sha256 prefixes of each scenario's first 2,000-event stream, recorded
#: before the generators were rewritten for speed: a rewrite that changes
#: one draw, its order, or the float operations on it moves the digest.  The
#: three firewall scenarios' pins were re-recorded when the flows' first-packet
#: times left the traffic model for the invariant reading them; their items
#: hash as before
STREAM_SHA256 = {
    ("dfw-ring-roaming", 1): "ae5f3c6abddaaa20",
    ("dfw-ring-roaming", 2): "d9003d6c1fa450c5",
    ("dns-reflection", 1): "59ad586f43c2e161",
    ("dns-reflection", 2): "09d73f75cb957285",
    ("heavy-hitter-fattree", 1): "7f814ccf4a65dc7d",
    ("heavy-hitter-fattree", 2): "086d6f0ec534252f",
    ("heavy-hitter-fattree8", 1): "3c9c3be088c37140",
    ("heavy-hitter-fattree8", 2): "86425168430ce219",
    ("heavy-hitter-single", 1): "a42b6ed6ce732e0e",
    ("heavy-hitter-single", 2): "5656b32c8daec54b",
    ("nat-churn", 1): "fc95194f8250ffee",
    ("nat-churn", 2): "ddba0481dd5c7309",
    ("reroute-leafspine-linkfail", 1): "2fcac2587824c048",
    ("reroute-leafspine-linkfail", 2): "b5a0e56722715090",
    ("rip-line-convergence", 1): "62bb4aa9a0fbb83c",
    ("rip-line-convergence", 2): "2b48fe83700db26a",
    ("sfw-install-latency", 1): "52e5fa87ea28e400",
    ("sfw-install-latency", 2): "d32892be4f15194c",
    ("sfw-scan-burst", 1): "5b45ad3b88c1f1dd",
    ("sfw-scan-burst", 2): "d253c99aa9fc2885",
    ("sro-replicated-writes", 1): "6c41eb94348d19c3",
    ("sro-replicated-writes", 2): "dd2694c3e0ea7261",
}

#: what a model records while streaming, for the invariants to read
SIDE_STATE = ("emitted", "reflected_emitted")


def stream_digest(setup):
    """sha256 prefix over every ``(time, switch, name, args)`` item of the
    setup's traffic (a CONTROL action by its function's name), then the side
    state of the traffic models its factory closes over."""
    digest = hashlib.sha256()
    for time_ns, switch, what in setup.traffic():
        if switch == CONTROL:
            record = (time_ns, switch, what.__qualname__)
        else:
            record = (time_ns, switch, what.name, what.args)
        digest.update(repr(record).encode())
    models = inspect.getclosurevars(setup.traffic).nonlocals
    for key in sorted(models):
        if type(models[key]).__module__ == tm.__name__:
            for attr in SIDE_STATE:
                if hasattr(models[key], attr):
                    state = (key, attr, getattr(models[key], attr))
                    digest.update(repr(state).encode())
    return digest.hexdigest()[:16]


def test_traffic_streams_match_recorded_digests():
    assert {name for name, _ in STREAM_SHA256} == set(SCENARIOS)
    moved = {
        (name, seed): digest
        for (name, seed), want in sorted(STREAM_SHA256.items())
        if (digest := stream_digest(SCENARIOS[name].build(2_000, seed))) != want
    }
    assert not moved, f"traffic streams moved: {moved}"
    # one immutable instance per Zipf rank: equal flows are the same object
    by_flow = {}
    for _, _, event in tm.ZipfPacketTraffic().events([0, 1], 2_000, seed=1):
        assert by_flow.setdefault(event.args, event) is event
    assert len(by_flow) < 2_000
