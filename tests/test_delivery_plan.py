"""The generate -> heap path (PR 16): per-origin delivery tables, one shared
delivered instance per multicast, one delay quantisation per generate, and
the pre-shaped ``_EV(...)`` the codegen engine emits for static
``Event.locate`` / ``Event.delay`` chains."""

from __future__ import annotations

import json

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.errors import SimulationError
from repro.frontend import ast
from repro.frontend.type_checker import check_program
from repro.interp.codegen import compile_program, dump_program_source
from repro.interp.events import EventInstance
from repro.interp.network import CONTROL, GEN_KEY_SHIFT, Network, SchedulerConfig
from repro.scenarios import run_scenario
from repro.scenarios.registry import get
from repro.scenarios.runner import network_array_digest
from repro.shard import run_sharded

ENGINES = ["reference", "codegen", "pisa"]

PROGRAM = """
const group ALL = {0, 1, 2};
global seen = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
event ping(int dst);
event fan(int x);
event dfan(int x);
event pong(int x);
handle ping(int dst) { generate Event.locate(pong(dst), dst); }
handle fan(int x) { mgenerate Event.locate(pong(x), ALL); }
handle dfan(int x) { mgenerate Event.delay(Event.locate(pong(x), ALL), 150us); }
handle pong(int x) { Array.set(seen, x, plus, 1); }
"""
CHECKED = check_program(PROGRAM, name="delivery-plan")


def _network(engine="codegen", config=None, switches=3):
    network = Network(config=config, engine=engine)
    for sid in range(switches):
        network.add_switch(sid, CHECKED)
    return network


def _pongs(network):
    return [(t.time_ns, t.switch_id) for t in network.trace if t.event.name == "pong"]


# ---------------------------------------------------------------------------
# (a) the delivery table follows add_link
# ---------------------------------------------------------------------------
def test_add_link_after_the_first_send_changes_the_next_arrival():
    network = _network()
    network.add_link(0, 1, latency_ns=5_000)
    network.inject(0, EventInstance("ping", (1,)), at_ns=0)
    network.inject(0, EventInstance("ping", (2,)), at_ns=0)
    network.run()
    # declared pair at its latency, undeclared pair at the config default
    assert _pongs(network) == [(400 + 1_000, 2), (400 + 5_000, 1)]
    assert network.link_latency(0, 1) == 5_000
    assert network.link_latency(0, 2) == network.config.link_latency_ns

    network.add_link(0, 1, latency_ns=7_000)  # re-declared after the table filled
    network.add_link(0, 2, latency_ns=50)
    assert network.link_latency(0, 1) == network.link_latency(1, 0) == 7_000
    network.trace.clear()
    network.inject(0, EventInstance("ping", (1,)), at_ns=100_000)
    network.inject(0, EventInstance("ping", (2,)), at_ns=100_000)
    network.run()
    assert _pongs(network) == [(100_000 + 400 + 50, 2), (100_000 + 400 + 7_000, 1)]
    assert network.link_latency(3, 3) == 0


# ---------------------------------------------------------------------------
# (b) link failures from mid-stream control actions
# ---------------------------------------------------------------------------
def _failure_stream():
    def ping(t, dst):
        return (t, 0, EventInstance("ping", (dst,)))

    def fan(t):
        return (t, 0, EventInstance("fan", (3,)))

    return [
        ping(0, 1),
        (1_000, CONTROL, lambda net: net.fail_link(0, 1)),
        ping(2_000, 1), ping(2_000, 2), fan(3_000),
        (4_000, CONTROL, lambda net: net.fail_link(1, 0)),      # nested
        ping(5_000, 1),
        (6_000, CONTROL, lambda net: net.restore_link(0, 1)),   # still down once
        ping(7_000, 1), fan(8_000),
        (9_000, CONTROL, lambda net: net.restore_link(0, 1)),
        ping(10_000, 1), fan(11_000),
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_fail_and_restore_link_from_control_items(engine):
    network = _network(engine)
    network.add_link(0, 1, latency_ns=2_500)
    # every number below was recorded from the parent commit (58d013b) on
    # this stream, identical on all three engines
    assert network.run(source=_failure_stream()) == 15
    assert network.run() == 4  # what the last source timestamp left queued
    assert _pongs(network) == [
        (2_900, 1), (3_400, 2), (3_600, 0), (4_400, 2), (8_600, 0), (9_400, 2),
        (11_600, 0), (12_400, 2), (12_900, 1), (13_900, 1),
    ]
    stats = network.switch(0).stats
    assert (stats.link_drops, stats.remote_sends, stats.recirculations) == (5, 7, 3)
    assert stats.events_generated == 9
    assert network.switch(0).origin_seq == 10
    assert not network.link_is_down(0, 1)
    assert network.now_ns == 13_900


# ---------------------------------------------------------------------------
# (c) a group naming the origin: one recirculation plus N-1 sends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["codegen", "pisa"])
def test_group_containing_the_origin_recirculates_once(engine):
    network = _network(engine)
    origin = network.switch(0)
    network.inject(0, EventInstance("fan", (5,)), at_ns=0)
    assert network.run(max_events=1) == 1
    stats = origin.stats
    assert (stats.recirculations, stats.recirculated_bytes, stats.remote_sends) == (1, 64, 2)
    assert (stats.queue_depth, stats.peak_queue_depth) == (1, 1)  # the local copy's slot
    # heap keys key_base | seq, consecutive in group order; one shared instance
    key_base = (0 + 1) << GEN_KEY_SHIFT
    entries = sorted(network._queue, key=lambda entry: entry[1])
    assert [(key, target) for _, key, target, _ in entries] == [
        (key_base | 1, 0), (key_base | 2, 1), (key_base | 3, 2)]
    assert [time_ns for time_ns, *_ in entries] == [600, 1_400, 1_400]
    delivered = entries[0][3]
    assert all(entry[3] is delivered for entry in entries)
    assert delivered == EventInstance("pong", (5,), source=0)
    network.run()
    assert [network.switch(sid).array("seen").cells[5] for sid in range(3)] == [1, 1, 1]
    assert (stats.queue_depth, stats.peak_queue_depth, stats.recirculated_events) == (0, 1, 1)


def test_group_member_without_a_switch_is_counted_as_an_orphan():
    network = _network(switches=2)  # ALL names switch 2, which does not exist
    network.inject(0, EventInstance("fan", (1,)), at_ns=0)
    assert network.run() == 3  # fan, and pong at switches 0 and 1
    assert network.switch(0).stats.remote_sends == 2
    assert network.switch(0).stats.orphan_events == 1
    assert network.total_stats().orphan_events == 1
    assert network.stats()[0]["orphan_events"] == 1
    assert network.pending_events() == 0


# ---------------------------------------------------------------------------
# (d) a delayed multicast is quantised once, identically for every target
# ---------------------------------------------------------------------------
def test_delayed_multicast_quantises_once_for_every_target():
    network = _network()
    network.inject(0, EventInstance("dfan", (2,)), at_ns=10)
    network.run()
    # 150 us rounds up to two 100 us release intervals for all three copies
    assert _pongs(network) == [(10 + 200_000 + 600, 0),
                               (10 + 200_000 + 1_400, 1), (10 + 200_000 + 1_400, 2)]
    # the one local copy is parked over two releases, one pass each (the
    # PausableDelayQueue count; this read 1 while parked copies were charged
    # a single pass whatever their delay)
    assert network.switch(0).stats.recirculations == 2


def test_delay_without_the_queue_charges_extra_recirculation_passes():
    network = _network(config=SchedulerConfig(use_delay_queue=False))
    network.inject(0, EventInstance("dfan", (2,)), at_ns=10)
    network.run()
    assert _pongs(network) == [(10 + 150_000 + 600, 0),
                               (10 + 150_000 + 1_400, 1), (10 + 150_000 + 1_400, 2)]
    stats = network.switch(0).stats
    assert stats.recirculations == 1 + 150_000 // 600
    assert stats.recirculated_bytes == stats.recirculations * 64


# ---------------------------------------------------------------------------
# SchedulerConfig / add_link validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("field, value", [
    ("pipeline_latency_ns", 0), ("recirculation_latency_ns", 0),
    ("delay_release_interval_ns", 0), ("delay_release_interval_ns", -5),
    ("link_latency_ns", -1), ("recirc_queue_capacity", -1),
    # Network.stats() divides by it
    ("recirc_bandwidth_bps", 0), ("recirc_bandwidth_bps", -1.0),
])
def test_scheduler_config_rejects_non_positive_latencies(field, value):
    with pytest.raises(SimulationError, match=field):
        SchedulerConfig(**{field: value})


def test_zero_link_latency_is_allowed_but_negative_links_are_not():
    network = _network(config=SchedulerConfig(link_latency_ns=0))
    network.add_link(0, 1, latency_ns=0)
    with pytest.raises(SimulationError, match="latency_ns"):
        network.add_link(0, 2, latency_ns=-1)
    assert (0, 2) not in network.links


# ---------------------------------------------------------------------------
# (e) the shared instance survives snapshots and the shard pipe
# ---------------------------------------------------------------------------
def _fan_network(engine):
    network = _network(engine)
    network.trace_enabled = False
    for i in range(12):
        name = "dfan" if i % 4 == 3 else "fan"
        network.inject(i % 3, EventInstance(name, (i % 8,)), at_ns=i * 500)
    return network


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_with_multicast_copies_in_the_heap_resumes_identically(engine):
    interrupted = _fan_network(engine)
    interrupted.run(max_events=7)
    events = [entry[3] for entry in interrupted._queue if entry[3].name == "pong"]
    assert len(events) > len({id(event) for event in events}) > 0  # copies share instances
    state = json.loads(json.dumps(interrupted.snapshot()))

    resumed = _fan_network(engine)
    resumed.restore(state)
    resumed.run()
    straight = _fan_network(engine)
    straight.run()
    assert json.dumps(resumed.snapshot()) == json.dumps(straight.snapshot())
    assert network_array_digest(resumed) == network_array_digest(straight)
    assert resumed.stats() == straight.stats()


def test_sharded_multicast_matches_single_process():
    scenario = get("sro-replicated-writes")
    single = run_scenario(scenario, 1_500, seed=11, engine="codegen")
    sharded = run_sharded(scenario, 1_500, seed=11, num_shards=2, engine="codegen")
    assert sharded.array_digest == single.array_digest
    assert ({int(k): v for k, v in sharded.switch_stats.items()}
            == {int(k): v for k, v in single.switch_stats.items()})
    assert sharded.sim_ns == single.sim_ns
    assert sharded.events_handled == single.events_handled


# ---------------------------------------------------------------------------
# (f) codegen folds static locate/delay chains into one _EV(...)
# ---------------------------------------------------------------------------
def _walk(node):
    """Every AST node under ``node`` (statements and expressions)."""
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _walk(item)
    elif isinstance(node, (ast.Stmt, ast.Expr)):
        yield node
        for value in vars(node).values():
            yield from _walk(value)


def _chain_base(expr):
    while isinstance(expr, ast.ECall) and expr.func.startswith("Event."):
        expr = expr.args[0]
    return expr


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_apps_emit_one_preshaped_event_per_static_generate(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)
    info = checked.info
    assert not any(isinstance(n, ast.SGenerate)
                   for fun in info.functions.values() for n in _walk(fun.body))
    generates = sum(1 for handler in info.handlers.values() for n in _walk(handler.body)
                    if isinstance(n, ast.SGenerate))
    # the midend resolves every chain, whatever its base: one pre-shaped
    # _EV(...) per generate, no combinator left to call at run time
    source = dump_program_source(checked)
    assert source.count("_gen.append(_EV(") == generates
    assert source.count(".locate(") + source.count(".delay(") == 0
    assert compile_program(checked).handler_names == sorted(info.handlers)
    network = Network(engine="codegen")
    assert network.add_switch(0, checked).interpreter.fallback_handler_names == []


def test_the_apps_exercise_both_chain_kinds():
    sources = {key: dump_program_source(check_program(app.source, name=key))
               for key, app in ALL_APPLICATIONS.items()}
    assert len(sources) == 10
    assert "_EV('write_ordered', ((v_key), (v_value), (v_seq),), 0, -1, _G_REPLICAS, _SELF)" \
        in sources["SRO"]
    # a chain over an event-typed local (CM's `event record`) is resolved too
    assert not any(".locate(" in source or ".delay(" in source for source in sources.values())
    assert any(isinstance(n, ast.ECall) and n.func.startswith("Event.")
               and isinstance(_chain_base(n), ast.EVar)
               for app in ALL_APPLICATIONS.values()
               for handler in check_program(app.source).info.handlers.values()
               for n in _walk(handler.body))


CHAINS = """
const group PAIR = {1, 2};
event e(int a, int b);
event out(int v);
handle e(int a, int b) {
  generate Event.delay(Event.locate(Event.delay(out(a), 100), b), a + 1);
  generate Event.locate(Event.locate(out(b), PAIR), 2);
  event held = out(7);
  generate Event.locate(held, b);
  int b2 = b + 1;
  generate Event.locate(out(1), b2);
  auto where = PAIR;
  generate Event.locate(out(2), where);
}
"""


def test_chain_folding_matches_the_reference_engine():
    checked = check_program(CHAINS, name="chains")
    source = dump_program_source(checked)
    # delays add (constants fold, the rest is one ALU add); place and group
    # are kept as set; an event- or group-typed local is resolved like a literal
    assert "v__n1_delay = (((100) + (v__n0_op)) & 4294967295)" in source
    assert "_EV('out', ((v_a),), v__n1_delay, v_b, None, _SELF)" in source
    assert "_EV('out', ((v_b),), 0, 2, _G_PAIR, _SELF)" in source
    assert "_EV('out', ((7),), 0, v_b, None, _SELF)" in source
    assert "_EV('out', ((1),), 0, v_b2, None, _SELF)" in source
    assert "_EV('out', ((2),), 0, -1, _G_PAIR, _SELF)" in source
    assert source.count("_gen.append(_EV(") == 5 and ".locate(" not in source
    results = {}
    for engine in ENGINES:
        network = Network(engine=engine)
        switch = network.add_switch(0, checked)
        results[engine] = switch.engine.run(EventInstance("e", (3, 4))).generated
    assert results["codegen"] == results["reference"] == results["pisa"]
    assert [(ev.delay_ns, ev.location, ev.group) for ev in results["codegen"]] == [
        (104, 4, None), (0, 2, (1, 2)), (0, 4, None), (0, 5, None), (0, -1, (1, 2))]
