"""Tests for the interpreter, runtime arrays, events, and the network simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InterpError
from repro.frontend import check_program
from repro.interp import (
    ENGINE_NAMES,
    LOCAL,
    EventInstance,
    Network,
    RuntimeArray,
    SchedulerConfig,
    lucid_hash,
    single_switch_network,
)


# ---------------------------------------------------------------------------
# runtime arrays (property-based)
# ---------------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**40))
def test_array_set_get_roundtrip(size, value):
    array = RuntimeArray(name="t", size=size, cell_width=32)
    array.set(0, value=value)
    assert array.get(0) == value & 0xFFFFFFFF


@given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=50))
def test_array_update_returns_old_value_and_stores_new(values):
    array = RuntimeArray(name="t", size=4, cell_width=32)
    previous = 0
    for value in values:
        old = array.update(1, lambda cur, a: cur, 0, lambda cur, a: a, value)
        assert old == previous
        previous = value
    assert array.get(1) == previous


@given(st.integers(), st.integers(min_value=1, max_value=128))
def test_array_index_wraps_like_hardware(index, size):
    array = RuntimeArray(name="t", size=size, cell_width=32)
    array.set(index, value=7)
    assert array.get(index) == 7


def test_array_cells_respect_width():
    array = RuntimeArray(name="t", size=2, cell_width=8)
    array.set(0, value=0x1FF)
    assert array.get(0) == 0xFF


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=20))
def test_hash_is_deterministic_and_width_bounded(args):
    a = lucid_hash(16, args)
    b = lucid_hash(16, args)
    assert a == b and 0 <= a < 2 ** 16


def test_hash_differs_for_different_seeds():
    assert lucid_hash(32, [1, 2], seed=1) != lucid_hash(32, [1, 2], seed=2)


# ---------------------------------------------------------------------------
# event values / combinators
# ---------------------------------------------------------------------------
def test_event_delay_accumulates():
    e = EventInstance("x", (1,)).delay(100).delay(50)
    assert e.delay_ns == 150


def test_event_locate_single_and_group():
    single = EventInstance("x").locate(4)
    assert (single.location, single.group) == (4, None)
    assert EventInstance("x").locate((1, 2, 3)).group == (1, 2, 3)


def test_event_local_targets_self():
    assert (EventInstance("x").location, EventInstance("x").group) == (LOCAL, None)


def test_event_payload_has_minimum_frame_size():
    assert EventInstance("x", ()).payload_bytes() == 64
    assert EventInstance("x", tuple(range(32))).payload_bytes() > 64


# ---------------------------------------------------------------------------
# interpreter semantics
# ---------------------------------------------------------------------------
COUNTER = """
const int SIZE = 8;
global counts = new Array<<32>>(SIZE);
global totals = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
memop keep(int stored, int x) { return stored; }
event pkt(int dst, int len);
event roll(int idx);
handle pkt(int dst, int len) {
  int c = Array.update(counts, dst, plus, 1, plus, 1);
  if (c > 3) {
    Array.set(totals, 0, plus, len);
    generate roll(dst);
  }
  forward(2);
}
handle roll(int idx) {
  int seen = Array.get(counts, idx);
  printf(seen);
}
"""


def make_counter_network():
    return single_switch_network(check_program(COUNTER))


def test_interpreter_updates_arrays_and_forwards():
    network, switch = make_counter_network()
    for i in range(3):
        network.inject(0, EventInstance("pkt", (1, 100)))
    network.run()
    assert switch.array("counts").get(1) == 3
    assert switch.array("totals").get(0) == 0
    assert switch.stats.events_handled == 3


def test_interpreter_condition_triggers_generate_and_recirculation():
    network, switch = make_counter_network()
    for _ in range(5):
        network.inject(0, EventInstance("pkt", (2, 10)))
    network.run()
    assert switch.array("totals").get(0) == 20  # 4th and 5th packets
    assert switch.stats.recirculations == 2
    assert switch.stats.handled_by_event.get("roll") == 2
    assert switch.log  # printf output captured


def test_interpreter_rejects_wrong_arity_events():
    network, switch = make_counter_network()
    network.inject(0, EventInstance("pkt", (1,)))
    with pytest.raises(InterpError):
        network.run()


def test_events_without_handlers_are_silently_consumed():
    source = "event out(int a); event seen(int a); handle seen(int a) { generate out(a); }"
    network, switch = single_switch_network(check_program(source))
    network.inject(0, EventInstance("seen", (1,)))
    network.run()
    assert switch.stats.events_handled == 2  # seen + out (no-op handler)


def test_short_circuit_evaluation_matches_lucid_semantics():
    source = """
    global t_and = new Array<<32>>(4);
    global t_or = new Array<<32>>(4);
    event e(int a, int b);
    handle e(int a, int b) {
      if (a == 1 && b == 1) { Array.set(t_and, 0, 1); }
      if (a == 1 || b == 9) { Array.set(t_or, 0, 1); }
    }
    """
    network, switch = single_switch_network(check_program(source))
    network.inject(0, EventInstance("e", (1, 0)))
    network.run()
    assert switch.array("t_and").get(0) == 0 and switch.array("t_or").get(0) == 1


def test_match_statement_execution():
    source = """
    global t = new Array<<32>>(4);
    event e(int a, int b);
    handle e(int a, int b) {
      match (a, b) with
      | 1, _ -> { Array.set(t, 0, 10); }
      | _, 2 -> { Array.set(t, 1, 20); }
      | _, _ -> { Array.set(t, 2, 30); }
    }
    """
    checked = check_program(source)
    network, switch = single_switch_network(checked)
    network.inject(0, EventInstance("e", (1, 5)))
    network.inject(0, EventInstance("e", (0, 2)))
    network.inject(0, EventInstance("e", (0, 0)))
    network.run()
    assert switch.array("t").snapshot()[:3] == [10, 20, 30]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_if_and_match_branches_share_handler_scope(engine):
    """Lucid handlers have one flat scope: assignments made inside an if- or
    match-branch are visible after the branch (regression test for the old
    dead ``dict(env) if False else env`` expression in the interpreter)."""
    source = """
    global t_if = new Array<<32>>(4);
    global t_match = new Array<<32>>(4);
    event e(int a);
    handle e(int a) {
      int x = 0;
      if (a == 1) { x = 5; } else { x = 7; }
      Array.set(t_if, 0, x);
      int y = 0;
      match (a) with
      | 1 -> { y = 11; }
      | _ -> { y = 13; }
      Array.set(t_match, 0, y);
    }
    """
    network = Network(engine=engine)
    switch = network.add_switch(0, check_program(source))
    network.inject(0, EventInstance("e", (1,)))
    network.run()
    assert switch.array("t_if").get(0) == 5
    assert switch.array("t_match").get(0) == 11
    network.inject(0, EventInstance("e", (2,)))
    network.run()
    assert switch.array("t_if").get(0) == 7
    assert switch.array("t_match").get(0) == 13


# ---------------------------------------------------------------------------
# memop compilation guards
# ---------------------------------------------------------------------------
MEMOP_PROGRAM = """
global t = new Array<<32>>(4);
memop m(int stored, int x) { return stored + x; }
event e(int v);
handle e(int v) { Array.set(t, 0, m, v); }
"""


def _runtime_with_mutated_memop(mutate):
    from repro.interp import SwitchRuntime

    checked = check_program(MEMOP_PROGRAM)
    mutate(checked.info.memops["m"])
    return SwitchRuntime(checked)


def test_memop_fn_compiles_valid_memop():
    from repro.interp import SwitchRuntime

    runtime = SwitchRuntime(check_program(MEMOP_PROGRAM))
    assert runtime.memop_fn("m")(40, 2) == 42


def test_memop_fn_rejects_unknown_name():
    from repro.interp import SwitchRuntime

    runtime = SwitchRuntime(check_program(MEMOP_PROGRAM))
    with pytest.raises(InterpError, match="nope"):
        runtime.memop_fn("nope")


def test_memop_fn_rejects_empty_body():
    runtime = _runtime_with_mutated_memop(lambda decl: decl.body.clear())
    with pytest.raises(InterpError, match="'m'"):
        runtime.memop_fn("m")


def test_memop_fn_rejects_if_with_empty_branch():
    from repro.frontend import ast as fast
    from repro.frontend.source import dummy_span

    def mutate(decl):
        ret = decl.body[0]
        decl.body[:] = [
            fast.SIf(span=dummy_span(), cond=fast.EBool(span=dummy_span(), value=True),
                     then_body=[ret], else_body=[])
        ]

    runtime = _runtime_with_mutated_memop(mutate)
    with pytest.raises(InterpError, match="'m'"):
        runtime.memop_fn("m")


def test_memop_fn_rejects_duplicate_parameter_names():
    def mutate(decl):
        decl.params[1].name = decl.params[0].name

    runtime = _runtime_with_mutated_memop(mutate)
    with pytest.raises(InterpError, match="'m'"):
        runtime.memop_fn("m")


def test_memop_fn_rejects_non_return_body():
    from repro.frontend import ast as fast
    from repro.frontend.source import dummy_span

    def mutate(decl):
        decl.body[:] = [fast.SAssign(span=dummy_span(), name="stored",
                                     value=fast.EInt(span=dummy_span(), value=1))]

    runtime = _runtime_with_mutated_memop(mutate)
    with pytest.raises(InterpError, match="'m'"):
        runtime.memop_fn("m")


def test_extern_binding_is_called():
    source = "extern fun int report(int v); event e(int v); handle e(int v) { int x = report(v); }"
    network, switch = single_switch_network(check_program(source))
    calls = []
    switch.bind_extern("report", lambda v: calls.append(v) or 0)
    network.inject(0, EventInstance("e", (42,)))
    network.run()
    assert calls == [42]


# ---------------------------------------------------------------------------
# network scheduling
# ---------------------------------------------------------------------------
PINGPONG = """
event ping(int hops);
event pong(int hops);
handle ping(int hops) { generate Event.locate(pong(hops + 1), 1); }
handle pong(int hops) { drop(); }
"""


def test_remote_events_incur_link_latency():
    checked = check_program(PINGPONG)
    network = Network(SchedulerConfig(link_latency_ns=5_000))
    network.add_switch(0, checked)
    network.add_switch(1, checked)
    network.add_link(0, 1, latency_ns=5_000)
    network.inject(0, EventInstance("ping", (0,)), at_ns=0)
    network.run()
    pong = [t for t in network.trace if t.event.name == "pong"][0]
    assert pong.switch_id == 1
    assert pong.time_ns >= 5_000


def test_local_generates_incur_recirculation_latency():
    source = "event a(); event b(); handle a() { generate b(); } handle b() { drop(); }"
    network, switch = single_switch_network(check_program(source))
    network.inject(0, EventInstance("a", ()), at_ns=0)
    network.run()
    b = [t for t in network.trace if t.event.name == "b"][0]
    assert b.time_ns == network.config.recirculation_latency_ns
    assert switch.stats.recirculations == 1


def test_delayed_events_are_quantised_by_the_delay_queue():
    source = "event a(); event b(); handle a() { generate Event.delay(b(), 150us); } handle b() { drop(); }"
    config = SchedulerConfig(delay_release_interval_ns=100_000, use_delay_queue=True)
    network, _ = single_switch_network(check_program(source), config=config)
    network.inject(0, EventInstance("a", ()), at_ns=0)
    network.run()
    b = [t for t in network.trace if t.event.name == "b"][0]
    assert b.time_ns >= 200_000  # rounded up to the next release interval


def test_delay_without_queue_consumes_recirculation_bandwidth():
    source = "event a(); event b(); handle a() { generate Event.delay(b(), 60us); } handle b() { drop(); }"
    config = SchedulerConfig(use_delay_queue=False)
    network, switch = single_switch_network(check_program(source), config=config)
    network.inject(0, EventInstance("a", ()), at_ns=0)
    network.run()
    assert switch.stats.recirculations > 50  # ~one pass per 600 ns of delay


def test_multicast_generates_reach_every_group_member():
    source = """
    const group ALL = {0, 1, 2};
    global hits = new Array<<32>>(4);
    event seed();
    event mark(int x);
    handle seed() { mgenerate Event.locate(mark(1), ALL); }
    handle mark(int x) { Array.set(hits, 0, x); }
    """
    checked = check_program(source)
    network = Network()
    for sid in range(3):
        network.add_switch(sid, checked)
    network.inject(0, EventInstance("seed", ()))
    network.run()
    assert all(network.switch(sid).array("hits").get(0) == 1 for sid in range(3))


def test_run_until_time_bound_stops_early():
    source = "event tick(int n); handle tick(int n) { generate Event.delay(tick(n + 1), 1ms); }"
    network, switch = single_switch_network(check_program(source))
    network.inject(0, EventInstance("tick", (0,)), at_ns=0)
    network.run(until_ns=10_500_000)
    assert 8 <= switch.stats.events_handled <= 12
    assert network.pending_events() == 1


# ---------------------------------------------------------------------------
# hash degenerate widths (w = 0, w > 32, empty argument lists)
# ---------------------------------------------------------------------------
def test_hash_zero_width_is_zero():
    # a zero-bit hash has exactly one value; every engine must agree on it
    assert lucid_hash(0, [1, 2, 3]) == 0
    assert lucid_hash(-4, [99]) == 0


def test_hash_width_beyond_word_keeps_full_crc():
    full = lucid_hash(32, [7, 11])
    assert lucid_hash(33, [7, 11]) == full
    assert lucid_hash(64, [7, 11]) == full
    assert 0 <= full <= 0xFFFFFFFF


def test_hash_empty_args_hashes_seed_word():
    assert lucid_hash(32, []) == lucid_hash(32, [], seed=0)
    assert lucid_hash(32, [], seed=1) != lucid_hash(32, [], seed=2)
    assert 0 <= lucid_hash(16, []) < 2 ** 16


def test_hash_one_bit_width_is_parity_like():
    for args in ([0], [1], [2, 3], [0xFFFFFFFF]):
        assert lucid_hash(1, args) in (0, 1)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_hash_degenerate_widths_agree_across_engines(engine):
    source = """
    global h0 = new Array<<32>>(1);
    global h1 = new Array<<32>>(1);
    global hwide = new Array<<32>>(1);
    global hempty = new Array<<32>>(1);
    event probe(int x, int y);
    handle probe(int x, int y) {
      Array.set(h0, 0, hash<<0>>(x, y));
      Array.set(h1, 0, hash<<1>>(x, y));
      Array.set(hwide, 0, hash<<33>>(x, y));
      Array.set(hempty, 0, hash<<16>>());
    }
    """
    network, switch = single_switch_network(check_program(source), engine=engine)
    network.inject(0, EventInstance("probe", (12, 345)))
    network.run()
    assert switch.array("h0").get(0) == 0
    assert switch.array("h1").get(0) == lucid_hash(1, [12, 345])
    assert switch.array("hwide").get(0) == lucid_hash(33, [12, 345])
    assert switch.array("hempty").get(0) == lucid_hash(16, [])
