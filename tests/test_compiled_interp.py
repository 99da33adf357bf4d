"""Differential conformance suite for the compiled-handler fast path — the
``codegen`` engine, which compiles each handler to flat Python source.

Every bundled application (the ten Figure 9 programs) and the quickstart
example program are driven through both execution engines — the tree-walking
:class:`HandlerInterpreter` (``reference``, the oracle) and the
source-generating :class:`CodegenSwitchRuntime` (``codegen``) — on identical
deterministic event sequences, and the suite asserts the engines are
observationally identical:

* the full network trace (time, switch, event, and the complete
  :class:`ExecutionResult` — generated events, prints, drop/forward/flood);
* the final state of every runtime array, including read/write counters;
* per-switch statistics and printf logs.

A second family of property-style tests sweeps 32-bit boundary operands
(0, 1, 2^31, 2^32-1, ...) through every binary/unary operator and through
``hash<<w>>``, asserting both engines agree and stay masked to 32 bits.
"""

import importlib.util
import pathlib

import pytest

from repro.errors import InterpError
from repro.frontend import ast, check_program
from repro.interp import (
    EventInstance,
    HandlerInterpreter,
    Network,
    SwitchRuntime,
    lucid_hash,
)
from repro.interp.codegen import CodegenSwitchRuntime
from repro.apps import ALL_APPLICATIONS
from repro.ops import apply_binop


# ---------------------------------------------------------------------------
# deterministic synthetic workloads
# ---------------------------------------------------------------------------
def _lcg(seed):
    state = (seed & 0x7FFFFFFF) or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def build_events(checked, count=60, seed=0xC0FFEE):
    """A deterministic event sequence that exercises every handler of the
    program, mixing small argument values (which hit equality/branch logic)
    with full-range 31-bit words."""
    rng = _lcg(seed)
    names = sorted(checked.info.handlers)
    events = []
    for i in range(count):
        name = names[i % len(names)]
        params = checked.info.events[name].params
        args = tuple(
            next(rng) % 16 if (i + j) % 2 == 0 else next(rng)
            for j in range(len(params))
        )
        events.append((EventInstance(name, args), i * 731))
    return events


def run_engine(checked, engine, events, nswitches=1, max_events=400):
    """Run one engine over the event sequence; return everything observable."""
    network = Network(engine=engine)
    for sid in range(nswitches):
        network.add_switch(sid, checked)
    for a in range(nswitches):
        for b in range(a + 1, nswitches):
            network.add_link(a, b)
    for i, (event, at_ns) in enumerate(events):
        network.inject(i % nswitches, event, at_ns=at_ns)
    # max_events bounds self-perpetuating control loops (e.g. periodic scans)
    network.run(max_events=max_events)
    trace = [(t.time_ns, t.switch_id, t.event, t.result) for t in network.trace]
    arrays = {
        sid: {
            name: (arr.snapshot(), arr.reads, arr.writes)
            for name, arr in sw.runtime.arrays.items()
        }
        for sid, sw in network.switches.items()
    }
    stats = {sid: sw.stats for sid, sw in network.switches.items()}
    logs = {sid: list(sw.log) for sid, sw in network.switches.items()}
    return trace, arrays, stats, logs


def assert_engines_agree(checked, events, nswitches=1, max_events=400):
    slow = run_engine(checked, "reference", events, nswitches, max_events)
    fast = run_engine(checked, "codegen", events, nswitches, max_events)
    s_trace, s_arrays, s_stats, s_logs = slow
    f_trace, f_arrays, f_stats, f_logs = fast
    assert len(s_trace) == len(f_trace)
    for i, (s, f) in enumerate(zip(s_trace, f_trace)):
        assert s == f, f"trace diverges at event #{i}: {s} != {f}"
    assert s_arrays == f_arrays
    assert s_stats == f_stats
    assert s_logs == f_logs


# ---------------------------------------------------------------------------
# every bundled application, single switch
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_engines_agree_on_application(key):
    app = ALL_APPLICATIONS[key]
    checked = check_program(app.source, name=key)
    events = build_events(checked)
    assert_engines_agree(checked, events)


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_every_application_handler_actually_compiles(key):
    """Guards against the differential suite passing vacuously: if the
    emitter regressed into its silent tree-walker fallback, both 'engines'
    would be the tree walker and the agreement tests above would prove
    nothing."""
    app = ALL_APPLICATIONS[key]
    checked = check_program(app.source, name=key)
    engine = CodegenSwitchRuntime(SwitchRuntime(checked))
    assert engine.fallback_handler_names == []


# ---------------------------------------------------------------------------
# the example programs
# ---------------------------------------------------------------------------
def _load_example_program(filename, attr="PROGRAM"):
    path = pathlib.Path(__file__).resolve().parent.parent / "examples" / filename
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, attr)


def test_engines_agree_on_quickstart_example():
    source = _load_example_program("quickstart.py")
    checked = check_program(source, name="quickstart")
    events = build_events(checked, count=80)
    assert_engines_agree(checked, events)


# ---------------------------------------------------------------------------
# multi-switch topologies (remote events, multicast, links)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", ["DFW", "DFW(a)", "RIP", "RR"])
def test_engines_agree_on_multi_switch_network(key):
    app = ALL_APPLICATIONS[key]
    checked = check_program(app.source, name=key)
    events = build_events(checked, count=45, seed=0xBEEF)
    assert_engines_agree(checked, events, nswitches=3, max_events=500)


def test_engines_agree_on_firewall_heavy_traffic():
    """The Figure 17 workload shape: many pkt_out/pkt_in pairs, cuckoo
    installs and timeout scans recirculating between them."""
    app = ALL_APPLICATIONS["SFW"]
    checked = check_program(app.source, name="SFW", symbolic_bindings={"TBL_SLOTS": 64})
    rng = _lcg(7)
    events = []
    for i in range(120):
        src, dst = next(rng) % 32, next(rng) % 32
        events.append((EventInstance("pkt_out", (src, dst)), i * 211))
        events.append((EventInstance("pkt_in", (dst, src)), i * 211 + 97))
    events.append((EventInstance("scan_timeouts", (0,)), 300))
    assert_engines_agree(checked, events, max_events=700)


# ---------------------------------------------------------------------------
# 32-bit semantics: boundary sweeps through every operator
# ---------------------------------------------------------------------------
BOUNDARY = [0, 1, 2, 3, 31, 32, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]

_BINOP_SRC = [
    ("+", ast.BinOp.ADD),
    ("-", ast.BinOp.SUB),
    ("*", ast.BinOp.MUL),
    ("/", ast.BinOp.DIV),
    ("%", ast.BinOp.MOD),
    ("&", ast.BinOp.BITAND),
    ("|", ast.BinOp.BITOR),
    ("^", ast.BinOp.BITXOR),
    ("<<", ast.BinOp.SHL),
    (">>", ast.BinOp.SHR),
    ("==", ast.BinOp.EQ),
    ("!=", ast.BinOp.NEQ),
    ("<", ast.BinOp.LT),
    (">", ast.BinOp.GT),
    ("<=", ast.BinOp.LE),
    (">=", ast.BinOp.GE),
    ("&&", ast.BinOp.AND),
    ("||", ast.BinOp.OR),
]

_OPS_PROGRAM = (
    "event e(int a, int b);\n"
    "handle e(int a, int b) {\n"
    + "".join(f"  printf(a {op} b);\n" for op, _ in _BINOP_SRC)
    + "  printf(-a);\n  printf(~a);\n  printf(!a);\n}\n"
)


def _expected_op_results(a, b):
    results = []
    for _, op in _BINOP_SRC:
        if op is ast.BinOp.AND:
            results.append(int(bool(a) and bool(b)))
        elif op is ast.BinOp.OR:
            results.append(int(bool(a) or bool(b)))
        else:
            results.append(apply_binop(op, a, b))
    results.append((-a) & 0xFFFFFFFF)
    results.append(~a & 0xFFFFFFFF)
    results.append(0 if a else 1)
    return [str(r) for r in results]


def _run_ops_program(engine, pairs):
    network = Network(engine=engine)
    switch = network.add_switch(0, check_program(_OPS_PROGRAM))
    for i, (a, b) in enumerate(pairs):
        network.inject(0, EventInstance("e", (a, b)), at_ns=i)
    network.run()
    return switch.log


def test_binop_boundary_semantics_engines_agree():
    pairs = [(a, b) for a in BOUNDARY for b in BOUNDARY]
    slow = _run_ops_program("reference", pairs)
    fast = _run_ops_program("codegen", pairs)
    assert slow == fast
    # and both match the reference semantics, masked to 32 bits
    per_event = len(_BINOP_SRC) + 3
    for i, (a, b) in enumerate(pairs):
        got = slow[i * per_event : (i + 1) * per_event]
        assert got == _expected_op_results(a, b), f"operands {(a, b)}"
        for printed in got:
            assert 0 <= int(printed) < 2**32


def test_apply_binop_stays_masked_on_boundaries():
    for _, op in _BINOP_SRC:
        for a in BOUNDARY:
            for b in BOUNDARY:
                result = apply_binop(op, a, b)
                assert 0 <= result < 2**32, (op, a, b, result)


_HASH_PROGRAM = """
event e(int a, int b);
handle e(int a, int b) {
  printf(hash<<8>>(a, b));
  printf(hash<<16>>(a, b));
  printf(hash<<32>>(a, b));
  printf(hash<<32>>(a));
  printf(hash<<32>>(a, b, a, b));
}
"""


def test_hash_boundary_semantics_engines_agree():
    pairs = [(a, b) for a in BOUNDARY for b in BOUNDARY]

    def run(engine):
        network = Network(engine=engine)
        switch = network.add_switch(0, check_program(_HASH_PROGRAM))
        for i, (a, b) in enumerate(pairs):
            network.inject(0, EventInstance("e", (a, b)), at_ns=i)
        network.run()
        return switch.log

    slow, fast = run("reference"), run("codegen")
    assert slow == fast
    for i, (a, b) in enumerate(pairs):
        w8, w16, w32, w32a, w32r = slow[i * 5 : (i + 1) * 5]
        assert int(w8) == lucid_hash(8, [a, b]) < 2**8
        assert int(w16) == lucid_hash(16, [a, b]) < 2**16
        assert int(w32) == lucid_hash(32, [a, b]) < 2**32
        assert int(w32a) == lucid_hash(32, [a])
        assert int(w32r) == lucid_hash(32, [a, b, a, b])


def test_hash_masks_oversized_arguments():
    # arguments beyond 32 bits hash like their masked value, in both engines
    assert lucid_hash(32, [2**40 + 5]) == lucid_hash(32, [5])
    assert lucid_hash(16, [2**32]) == lucid_hash(16, [0])


def test_effectful_dividend_runs_even_when_the_divisor_is_zero():
    """x / 0 is 0, but x must still be evaluated: a Sys.random dividend
    advances the switch PRNG on the tree walker, so it must on codegen too
    (found by ``python -m repro.fuzz --count 50 --seed 0``, case 30)."""
    source = """
    event e(int a);
    handle e(int a) {
      int q = (Sys.random(0) / 0);
      int r = (Sys.random(0) % 0);
      printf(q + r);
      printf(Sys.random(0));
    }
    """
    checked = check_program(source)
    events = [(EventInstance("e", (i,)), i * 10) for i in range(3)]
    assert_engines_agree(checked, events)


# ---------------------------------------------------------------------------
# function-inlining parity
# ---------------------------------------------------------------------------
def test_inlined_fun_locals_reset_between_call_sites():
    """A fun inlined at two call sites must not share state: every call
    must reset the callee's branch-locals so the second call cannot
    observe values left behind by the first (regression test: the tree
    walker gives each call a fresh environment, so a branch-local that
    shadows a const must fall back to the const when the branch is not
    taken)."""
    source = """
    const int C = 7;
    global t = new Array<<32>>(4);
    fun int f(int a) {
      if (a == 1) { int C = 99; }
      return C;
    }
    event e();
    handle e() {
      int x = f(1);
      int y = f(0);
      Array.set(t, 0, x + y);
      printf(x); printf(y);
    }
    """
    checked = check_program(source)
    assert_engines_agree(checked, [(EventInstance("e", ()), 0)])
    network = Network(engine="codegen")
    switch = network.add_switch(0, checked)
    network.inject(0, EventInstance("e", ()))
    network.run()
    assert switch.log == ["99", "7"]
    assert switch.array("t").get(0) == 106


def test_inlined_fun_repeated_calls_with_branch_locals():
    """Same fun, same call site, invoked by consecutive events: stale
    locals must not leak across handler invocations either."""
    source = """
    const int D = 3;
    global t = new Array<<32>>(4);
    fun int g(int a) {
      if (a > 10) { int D = 50; }
      return D + a;
    }
    event e(int a);
    handle e(int a) { Array.set(t, 0, g(a)); }
    """
    checked = check_program(source)
    events = [(EventInstance("e", (20,)), 0), (EventInstance("e", (1,)), 10)]
    assert_engines_agree(checked, events)


# ---------------------------------------------------------------------------
# engine-level parity details
# ---------------------------------------------------------------------------
def test_compiled_engine_is_drop_in_for_handler_interpreter():
    source = """
    global t = new Array<<32>>(4);
    memop plus(int stored, int x) { return stored + x; }
    fun int double(int v) { return v + v; }
    event e(int v);
    handle e(int v) { Array.set(t, 0, plus, double(v)); }
    """
    checked = check_program(source)
    slow_rt, fast_rt = SwitchRuntime(checked), SwitchRuntime(checked)
    slow, fast = HandlerInterpreter(slow_rt), CodegenSwitchRuntime(fast_rt)
    for engine, rt in ((slow, slow_rt), (fast, fast_rt)):
        result = engine.run(EventInstance("e", (21,)))
        assert list(result.generated) == [] and not result.dropped
        assert rt.array("t").get(0) == 42
        assert engine.call_function("double", [10]) == 20


def test_compiled_engine_rejects_wrong_arity_like_tree_walker():
    checked = check_program("event e(int a); handle e(int a) { drop(); }")
    fast = CodegenSwitchRuntime(SwitchRuntime(checked))
    slow = HandlerInterpreter(SwitchRuntime(checked))
    for engine in (fast, slow):
        with pytest.raises(InterpError):
            engine.run(EventInstance("e", (1, 2)))


def test_compiled_engine_ignores_events_without_handlers():
    checked = check_program("event e(int a); handle e(int a) { drop(); }")
    fast = CodegenSwitchRuntime(SwitchRuntime(checked))
    result = fast.run(EventInstance("unknown", (1,)))
    assert list(result.generated) == [] and not result.dropped


def test_compiled_engine_sees_late_bound_externs():
    source = "extern fun int probe(int v); event e(int v); handle e(int v) { int x = probe(v); printf(x); }"
    network = Network(engine="codegen")
    switch = network.add_switch(0, source)
    # bind AFTER the handlers were compiled: the fast path must pick it up
    switch.bind_extern("probe", lambda v: v * 3)
    network.inject(0, EventInstance("e", (14,)))
    network.run()
    assert switch.log == ["42"]


def test_event_equality_ignores_allocation_serial():
    a = EventInstance("x", (1, 2))
    b = EventInstance("x", (1, 2))
    assert a is not b and a == b
    assert a.delay(5) != a  # but the event value itself still matters
