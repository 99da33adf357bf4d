"""Tests for the scenario engine: topology generators, per-switch group
binding, the streaming network drain, link failures, accumulating runs, the
invariant machinery, the bundled scenario catalogue (on both engines), and
the CLI.
"""

import bisect
import itertools
import json
import time
import tracemalloc

import pytest

from repro.backend import compiler
from repro.errors import InterpError, SimulationError
from repro.frontend import check_program
from repro.frontend.type_checker import TypeChecker
from repro.interp import ENGINE_NAMES, EventInstance, Network
from repro.scenarios import (
    SCENARIOS,
    fat_tree,
    leaf_spine,
    line,
    network_array_digest,
    ring,
    run_scenario,
    run_scenario_engines,
    single_switch,
)
from repro.scenarios import traffic as tm
from repro.scenarios.invariants import FirewallSolicitedOnly, Invariant
from repro.scenarios.runner import (
    _CHUNK,
    build_result,
    prepare_run,
    run_setup,
    settle_horizon,
)
from repro.scenarios.__main__ import main as cli_main
from repro.apps import ALL_APPLICATIONS


# ---------------------------------------------------------------------------
# topology generators
# ---------------------------------------------------------------------------
class TestTopologies:
    def test_line(self):
        topo = line(4)
        assert topo.num_switches == 4
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(1) == [0, 2]
        assert topo.neighbors(3) == [2]

    def test_ring(self):
        topo = ring(5)
        assert topo.num_switches == 5
        for sid in range(5):
            assert len(topo.neighbors(sid)) == 2
        assert topo.neighbors(0) == [1, 4]

    def test_leaf_spine(self):
        topo = leaf_spine(4, 2)
        assert topo.num_switches == 6
        assert topo.edge == [0, 1, 2, 3]
        for leaf in range(4):
            assert topo.neighbors(leaf) == [4, 5]
        for spine in (4, 5):
            assert topo.neighbors(spine) == [0, 1, 2, 3]

    def test_fat_tree_k4_shape(self):
        topo = fat_tree(4)
        # k=4: 8 edge + 8 aggregation + 4 core switches
        assert topo.num_switches == 20
        assert topo.edge == list(range(8))
        for edge_sw in range(8):
            assert len(topo.neighbors(edge_sw)) == 2  # k/2 uplinks
        for agg in range(8, 16):
            assert len(topo.neighbors(agg)) == 4  # k/2 down + k/2 up
        for core in range(16, 20):
            assert len(topo.neighbors(core)) == 4  # one aggregation per pod

    def test_fat_tree_rejects_odd_arity(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_fat_tree_all_pairs_reachable(self):
        topo = fat_tree(4)
        hops = topo.hop_distances_from(0)
        assert len(hops) == topo.num_switches
        # same pod through aggregation: 2 hops; across pods through core: 4
        assert hops[1] == 2
        assert max(hops.values()) == 4

    def test_shortest_path_ports_decrease_distance(self):
        topo = leaf_spine(3, 2)
        ports = topo.shortest_path_ports()
        for (node, dst), hop in ports.items():
            assert hop in topo.neighbors(node)
            dist = topo.distances_from(dst)
            assert dist[hop] < dist[node]

    def test_line_port_map(self):
        topo = line(4)
        ports = topo.shortest_path_ports()
        assert ports[(0, 3)] == 1
        assert ports[(3, 0)] == 2
        assert ports[(1, 0)] == 0


# ---------------------------------------------------------------------------
# per-switch group binding
# ---------------------------------------------------------------------------
GROUP_PROGRAM = """
const group NEIGHBORS = {1, 2, 3};
event ping();
event pong(int sender_id);
handle ping() {
  mgenerate Event.locate(pong(SELF), NEIGHBORS);
}
handle pong(int sender_id) {
  printf(sender_id);
}
"""


class TestGroupBindings:
    def test_add_switch_accepts_group_bindings(self):
        checked = check_program(GROUP_PROGRAM)
        switch = Network().add_switch(0, checked, groups={"NEIGHBORS": [5, 9]})
        assert switch.runtime.groups["NEIGHBORS"] == (5, 9)
        # the program is untouched: its literal stays what it says
        assert checked.info.consts.groups["NEIGHBORS"] == [1, 2, 3]

    def test_default_literal_still_used(self):
        switch = Network().add_switch(0, check_program(GROUP_PROGRAM))
        assert switch.runtime.groups["NEIGHBORS"] == (1, 2, 3)

    def test_build_network_binds_neighbor_groups_per_switch(self):
        topo = line(3)
        network = topo.build_network(GROUP_PROGRAM)
        assert network.switch(0).runtime.groups["NEIGHBORS"] == (1,)
        assert network.switch(1).runtime.groups["NEIGHBORS"] == (0, 2)
        assert network.switch(2).runtime.groups["NEIGHBORS"] == (1,)
        # one checked program serves all three switches
        assert len({id(network.switch(s).runtime.checked) for s in range(3)}) == 1

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_a_binding_for_an_undeclared_group_is_refused(self, engine):
        checked = check_program(GROUP_PROGRAM)
        with pytest.raises(InterpError, match=r"no group named 'NEIGHBOURS' \(declared: NEIGHBORS\)"):
            Network(engine=engine).add_switch(0, checked, groups={"NEIGHBOURS": [2]})

    def test_a_non_integer_member_is_refused(self):
        with pytest.raises(InterpError, match="group 'NEIGHBORS' members must be integers"):
            Network().add_switch(0, check_program(GROUP_PROGRAM), groups={"NEIGHBORS": [1, "2"]})

    def test_bound_groups_drive_multicast(self):
        topo = line(3)
        network = topo.build_network(GROUP_PROGRAM)
        network.inject(1, EventInstance("ping", ()))
        network.run()
        # switch 1 pinged its topological neighbours 0 and 2: each of them
        # handled a pong naming the sender
        assert network.switch(1).stats.remote_sends == 2
        assert network.switch(0).log == ["1"]
        assert network.switch(2).log == ["1"]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_building_a_network_checks_its_program_once(engine, monkeypatch):
    """Five switches, five different NEIGHBORS sets: one check, and on pisa
    one backend compile — the members are each switch's runtime data."""
    calls = []
    check, compile_checked = TypeChecker.check, compiler.compile_checked
    monkeypatch.setattr(TypeChecker, "check",
                        lambda self: calls.append("check") or check(self))
    monkeypatch.setattr(compiler, "compile_checked",
                        lambda *a, **k: calls.append("compile") or compile_checked(*a, **k))
    network = SCENARIOS["rip-line-convergence"].build(100, 1).make_network(engine)
    assert len({network.switch(s).runtime.groups["NEIGHBORS"] for s in range(5)}) == 5
    assert calls == ["check"] + ["compile"] * (engine == "pisa")


# ---------------------------------------------------------------------------
# streaming drain
# ---------------------------------------------------------------------------
COUNTER_PROGRAM = """
global total = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
event bump(int x);
handle bump(int x) { Array.set(total, 0, plus, x); }
"""


def _bump_stream(count, gap_ns=10):
    for i in range(count):
        yield (i * gap_ns, 0, EventInstance("bump", (1,)))


class TestStreamingRun:
    def test_streaming_matches_materialised_injection(self):
        app = ALL_APPLICATIONS["CM"]
        events = [
            (i * 100, 0, EventInstance("pkt", (i % 7, (i * 3) % 11)))
            for i in range(500)
        ]
        checked = check_program(app.source, name="CM")

        streamed = Network()
        streamed.trace_enabled = False
        streamed.add_switch(0, checked)
        handled_streaming = streamed.run(source=iter(events))

        materialised = Network()
        materialised.trace_enabled = False
        materialised.add_switch(0, checked)
        for t, sid, event in events:
            materialised.inject(sid, event, at_ns=t)
        handled_materialised = materialised.run()

        assert handled_streaming == handled_materialised == 500
        assert network_array_digest(streamed) == network_array_digest(materialised)
        assert streamed.switch(0).stats == materialised.switch(0).stats

    def test_streaming_queue_stays_bounded(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, COUNTER_PROGRAM)
        peak = 0

        def tracking_stream(count):
            nonlocal peak
            for item in _bump_stream(count):
                peak = max(peak, network.pending_events())
                yield item

        network.run(source=tracking_stream(20_000))
        assert network.switch(0).array("total").cells[0] == 20_000
        # the merge holds at most a handful of events, never the whole stream
        assert peak <= 4

    def test_streaming_respects_max_events(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, COUNTER_PROGRAM)
        handled = network.run(source=_bump_stream(100), max_events=30)
        assert handled == 30

    def test_streaming_control_actions_run_at_their_time(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, COUNTER_PROGRAM)
        seen = []

        def action(net):
            seen.append((net.now_ns, net.switch(0).array("total").cells[0]))

        source = itertools.chain(
            _bump_stream(10),  # t = 0..90
            [tm.control_action(95, action)],
            ((100 + i * 10, 0, EventInstance("bump", (1,))) for i in range(5)),
        )
        network.run(source=source)
        assert seen == [(95, 10)]
        assert network.switch(0).array("total").cells[0] == 15

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("trace_enabled", [True, False])
    @pytest.mark.parametrize("side", ["source", "heap"])
    def test_control_attaches_observer(self, side, trace_enabled, engine):
        """An observer attached by a control action sees every later event:
        the observer set is resolved again after the action, whatever was
        attached when the drain started and whichever side — source stream
        or event heap — the items pop from."""
        network = Network(engine=engine)
        network.trace_enabled = trace_enabled
        network.add_switch(0, COUNTER_PROGRAM)
        seen = []

        def attach(net):
            net.on_handle = seen.append
            net.trace_enabled = True

        items = [
            (0, 0, EventInstance("bump", (1,))),
            tm.control_action(5, attach),
            (10, 0, EventInstance("bump", (1,))),
            (20, 0, EventInstance("bump", (1,))),
        ]
        if side == "source":
            handled = network.run(source=iter(items))
        else:
            for time_ns, switch_id, payload in items:
                network._push(time_ns, switch_id, payload)
            handled = network.run()
        assert handled == 3
        assert [entry.time_ns for entry in seen] == [10, 20]
        assert [entry.time_ns for entry in network.trace] == (
            [0, 10, 20] if trace_enabled else [10, 20]
        )

    def test_streaming_with_tracing_enabled_records_entries(self):
        network = Network()
        network.add_switch(0, COUNTER_PROGRAM)
        network.run(source=_bump_stream(5))
        assert len(network.trace) == 5
        assert [t.event.name for t in network.trace] == ["bump"] * 5

    def test_empty_source_drains_queued_events_like_plain_run(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, COUNTER_PROGRAM)
        network.inject(0, EventInstance("bump", (1,)), at_ns=10)
        network.inject(0, EventInstance("bump", (1,)), at_ns=20)
        handled = network.run(source=iter([]))
        assert handled == 2
        assert network.pending_events() == 0
        assert network.switch(0).array("total").cells[0] == 2


# ---------------------------------------------------------------------------
# traffic model combinators
# ---------------------------------------------------------------------------
class TestTrafficModels:
    def test_link_failure_actions_fail_and_recover(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, REMOTE_PROGRAM)
        network.add_switch(1, REMOTE_PROGRAM)
        network.add_link(0, 1)
        observed = []
        actions = tm.link_failure_actions(
            [tm.LinkFailure(link=(0, 1), fail_at_ns=100, recover_at_ns=300)],
            on_fail=lambda net, f: observed.append(("down", net.now_ns, f.link)),
            on_recover=lambda net, f: observed.append(("up", net.now_ns, f.link)),
        )
        pings = [
            (50, 0, EventInstance("ping", ())),    # link up: delivered
            (150, 0, EventInstance("ping", ())),   # link down: dropped
            (350, 0, EventInstance("ping", ())),   # recovered: delivered
        ]
        network.run(source=tm.merge(iter(pings), actions))
        network.run()  # drain the in-flight pongs (due after the last source item)
        assert observed == [("down", 100, (0, 1)), ("up", 300, (0, 1))]
        assert network.switch(0).stats.link_drops == 1
        assert network.switch(1).log == ["1", "1"]


# ---------------------------------------------------------------------------
# link failures
# ---------------------------------------------------------------------------
REMOTE_PROGRAM = """
event ping();
event pong();
handle ping() {
  generate Event.locate(pong(), 1);
}
handle pong() {
  printf(1);
}
"""


class TestLinkFailureSimulation:
    def _network(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, REMOTE_PROGRAM)
        network.add_switch(1, REMOTE_PROGRAM)
        network.add_link(0, 1)
        return network

    def test_events_cross_live_links(self):
        network = self._network()
        network.inject(0, EventInstance("ping", ()))
        network.run()
        assert network.switch(1).log == ["1"]
        assert network.switch(0).stats.link_drops == 0

    def test_failed_link_drops_remote_events(self):
        network = self._network()
        network.fail_link(0, 1)
        network.inject(0, EventInstance("ping", ()))
        network.run()
        assert network.switch(1).log == []
        assert network.switch(0).stats.link_drops == 1
        assert network.total_stats().link_drops == 1

    def test_restore_link_resumes_delivery(self):
        network = self._network()
        network.fail_link(0, 1)
        assert network.link_is_down(1, 0)
        network.restore_link(0, 1)
        network.inject(0, EventInstance("ping", ()))
        network.run()
        assert network.switch(1).log == ["1"]

    def test_overlapping_failures_keep_link_down_until_all_recover(self):
        network = self._network()
        network.fail_link(0, 1)  # failure A
        network.fail_link(0, 1)  # overlapping failure B
        network.restore_link(0, 1)  # A recovers first
        assert network.link_is_down(0, 1)  # B still active
        network.restore_link(0, 1)
        assert not network.link_is_down(0, 1)
        # an extra restore of a healthy link is a no-op
        network.restore_link(0, 1)
        assert not network.link_is_down(0, 1)


# ---------------------------------------------------------------------------
# consecutive runs of one network
# ---------------------------------------------------------------------------
class TestNetworkReset:
    def _run_once(self, network):
        for i in range(50):
            network.inject(0, EventInstance("bump", (1,)), at_ns=i * 10)
        network.run()

    def test_without_reset_runs_accumulate(self):
        network = Network()
        network.trace_enabled = False
        network.add_switch(0, COUNTER_PROGRAM)
        self._run_once(network)
        self._run_once(network)
        # documented accumulate semantics: state and stats carry over
        assert network.switch(0).array("total").cells[0] == 100
        assert network.switch(0).stats.events_handled == 100


# ---------------------------------------------------------------------------
# the bundled scenarios
# ---------------------------------------------------------------------------
#: events per scenario for the differential smoke run: enough to make the
#: invariants non-vacuous, small enough to keep the suite fast
SMOKE_EVENTS = {
    "heavy-hitter-single": 2_000,
    "heavy-hitter-fattree": 2_000,
    "heavy-hitter-fattree8": 2_000,
    "sfw-scan-burst": 1_500,
    "sfw-install-latency": 1_000,
    "dns-reflection": 1_500,
    "nat-churn": 1_500,
    "rip-line-convergence": 800,
    "reroute-leafspine-linkfail": 1_200,
    "sro-replicated-writes": 1_000,
    "dfw-ring-roaming": 1_200,
}


def test_every_scenario_is_covered_by_the_smoke_table():
    assert set(SMOKE_EVENTS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_holds_and_engines_agree(name):
    """Every bundled scenario passes its invariants, and the codegen and
    reference engines produce identical verdicts and final array states."""
    fast, reference = run_scenario_engines(
        SCENARIOS[name], SMOKE_EVENTS[name], seed=1, engines=("codegen", "reference")
    )
    assert fast.ok, [r for r in fast.invariants if not r.ok]
    assert reference.ok
    assert fast.engine == "codegen" and reference.engine == "reference"
    assert fast.events_injected == reference.events_injected
    assert fast.array_digest == reference.array_digest


def test_scenario_results_are_seed_deterministic():
    a = run_scenario(SCENARIOS["nat-churn"], 800, seed=5)
    b = run_scenario(SCENARIOS["nat-churn"], 800, seed=5)
    assert a.array_digest == b.array_digest
    assert a.events_injected == b.events_injected


def test_scenario_traffic_factories_are_lazy():
    """Traffic models must stream: the factory returns an iterator, never a
    materialised list."""
    for name, scenario in SCENARIOS.items():
        setup = scenario.build(10**9, 1)
        source = setup.traffic()
        assert not isinstance(source, (list, tuple)), name
        first = list(itertools.islice(iter(source), 3))
        assert len(first) == 3, name


# ---------------------------------------------------------------------------
# the batch runner streams its traffic a chunk at a time
# ---------------------------------------------------------------------------
def _traced_peak(name, events):
    tracemalloc.start()
    try:
        run_scenario(SCENARIOS[name], events, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["sro-replicated-writes", "heavy-hitter-fattree"])
def test_batch_run_memory_does_not_grow_with_the_event_count(name):
    """Eight times the events, at least two chunks each, in no more than a
    quarter more memory: the run holds one chunk of traffic, not the whole
    stream."""
    run_scenario(SCENARIOS[name], 100, seed=1)  # compile caches off the books
    events = 2 * _CHUNK
    assert _traced_peak(name, 8 * events) <= 1.25 * _traced_peak(name, events)


def test_batch_traffic_is_timed_off_the_drain_and_pulled_a_chunk_at_a_time():
    """A traffic factory that sleeps per item: the sleeps land in
    ``traffic_s``, not ``wall_s``, and the drain never holds more than one
    chunk it has not delivered."""
    pause_s, events = 1e-4, 2 * _CHUNK + 500
    setup = SCENARIOS["heavy-hitter-single"].build(events, 1)
    make_traffic, times, leads = setup.traffic, [], []

    def slow_traffic():
        for item in make_traffic():
            time.sleep(pause_s)
            times.append(item[0])
            yield item

    class Lead(Invariant):
        name = "lead"

        def observe(self, entry):
            # every source item earlier than a handled event has been delivered
            leads.append(len(times) - bisect.bisect_left(times, entry.time_ns))

    setup.traffic = slow_traffic
    setup.invariants.append(Lead())
    result = run_setup(setup, "heavy-hitter-single", 1)
    slept = pause_s * len(times)
    assert len(times) == result.events_injected == events
    assert result.traffic_s >= slept > result.wall_s
    assert max(leads) <= _CHUNK


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_chunked_stream_runs_as_the_whole_list_does(name):
    """The batch runner against the old path kept as the oracle, the whole
    stream handed to ``Network.run`` as one list, over 10,000 events (two
    chunk edges): nothing observable moves."""
    scenario, events = SCENARIOS[name], 10_000
    streamed = run_scenario(scenario, events, seed=1)
    setup = scenario.build(events, 1)
    network, source = prepare_run(setup, "codegen")
    handled = network.run(source=list(source))
    handled += network.run(until_ns=settle_horizon(setup, source.last_ns))
    whole = build_result(setup, name, 1, "codegen", network, source.injected, handled, 0.0)
    assert streamed.verdict_signature() == whole.verdict_signature()
    assert (streamed.events_handled, streamed.sim_ns, streamed.switch_stats, streamed.details) \
        == (whole.events_handled, whole.sim_ns, whole.switch_stats, whole.details)


def test_scan_burst_is_detected_as_unsolicited():
    """The firewall invariant actually fires: feed the scan straight into a
    permissive program that forwards everything to the trusted port."""
    permissive = """
    event pkt_out(int src, int dst);
    event pkt_in(int src, int dst);
    handle pkt_out(int src, int dst) { forward(2); }
    handle pkt_in(int src, int dst) { forward(1); }
    """
    topo = single_switch()
    network = topo.build_network(permissive)
    inv = FirewallSolicitedOnly()
    inv.reset(network, topo)
    network.trace_enabled = False
    network.on_handle = inv.observe
    scan = tm.ScanBurstTraffic()
    network.run(source=scan.events([0], 50, seed=2))
    violations = inv.check(network)
    assert violations, "permissive firewall must violate solicited-only"


def test_install_latency_invariant_keeps_each_flows_first_packet():
    """``DataPlaneBeatsRemote`` records each flow's first ``pkt_out`` as it
    observes it, and its checkpointed state carries those times: a restored
    copy checks to the same Figure 17 row, and a state without them is
    refused, naming the invariant."""
    setup = SCENARIOS["sfw-install-latency"].build(400, 1)
    run_setup(setup, "sfw-install-latency", 1)
    (latency,) = setup.invariants
    state = json.loads(json.dumps(latency.snapshot_state()))
    first = {(src, dst): t for src, dst, t in state["first_packet"]}
    stream = {}
    for t, _, event in setup.traffic():
        if event.name == "pkt_out":
            stream.setdefault(event.args, t)
    assert first == stream and len(first) == latency.summary["flows"] > 100
    twin = type(latency)(seed=1)
    twin.restore_state(state)
    assert twin._first == first
    del state["first_packet"]
    with pytest.raises(SimulationError, match="dataplane-beats-remote"):
        twin.restore_state(state)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_unknown_scenario(self, capsys):
        assert cli_main(["run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_run_all_engines_writes_one_json_entry_each(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        code = cli_main(
            ["run", "nat-churn", "--events", "600", "--all-engines", "--quiet",
             "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engines agree" in out
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert isinstance(payload, list)
        assert [entry["engine"] for entry in payload] == list(ENGINE_NAMES)
        assert all(entry["ok"] is True for entry in payload)
        assert len({entry["array_digest"] for entry in payload}) == 1

    def test_run_reference_engine(self, capsys):
        code = cli_main(["run", "heavy-hitter-single", "--events", "500",
                         "--engine", "reference"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[reference]" in out
