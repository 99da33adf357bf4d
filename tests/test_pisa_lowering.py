"""The PISA stage plan: the layout lowered once to one function per handler.

Behavioural parity of the ``pisa`` engine with ``reference`` and ``codegen``
is pinned elsewhere (``tests/test_engines.py``, the fuzz corpus, the
scenario CLI's ``--all-engines``).  This file pins what is specific to the
lowering in :mod:`repro.pisa.pipeline`: the shared operator, hash and memop
templates, that plans are shared between switches while state is not, the
per-pass counts recorded from the interpretive executor this lowering
replaced, the corners of the metadata model the interpreter used to resolve
per read, and the stateful tables inlined on the arrays' cell lists.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pisa_pass_recorder import pass_summary_for_case, pass_summary_for_scenario
from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import compile_program
from repro.errors import InterpError
from repro.frontend import ast, check_program
from repro.frontend.source import dummy_span
from repro.fuzz.case import load_case
from repro.interp.codegen import dump_program_source
from repro.interp.engine import CodegenEngine, ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, SwitchRuntime, memop_shape, memop_template
from repro.interp.network import Network
from repro.midend.normalize import NOp, Var
from repro.obs.profile import StageProfiler
from repro.ops import (
    MASK32,
    apply_binop,
    binop_template,
    hash_namespace,
    hash_template,
    lucid_hash,
)
from repro.pisa.pipeline import PisaPipeline
from repro.scenarios import registry
from repro.scenarios.runner import network_array_digest, prepare_run, settle_horizon

from test_compiled_interp import BOUNDARY

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden" / "pisa_passes.json").read_text())


# ---------------------------------------------------------------------------
# (a) the operator templates equal the functions they sit next to
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("op", list(ast.BinOp), ids=lambda op: op.name)
def test_binop_template_equals_apply_binop(op):
    fn = eval("lambda a, b: " + binop_template(op, "a", "b"))
    for a in BOUNDARY:
        for b in BOUNDARY:
            assert fn(a, b) == apply_binop(op, a, b), (op, a, b)


@pytest.mark.parametrize("width", [0, 1, 8, 16, 31, 32, 40])
def test_hash_template_equals_lucid_hash(width):
    names = hash_namespace([1, 2, 3])
    for arity in (0, 1, 2):
        args = ["a", "b"][:arity]
        fn = eval("lambda a, b: " + hash_template(width, args), names)
        for a in BOUNDARY:
            for b in BOUNDARY:
                assert fn(a, b) == lucid_hash(width, [a, b][:arity]), (width, a, b)


def test_template_move_left_the_codegen_module_unchanged():
    app = ALL_APPLICATIONS["SFW"]
    source = dump_program_source(check_program(app.source, name="SFW"))
    assert hashlib.sha256(source.encode()).hexdigest() == GOLDEN["codegen_sfw_sha256"], (
        "the codegen module generated for SFW changed; if intended, update "
        "codegen_sfw_sha256 in tests/golden/pisa_passes.json"
    )


#: name -> source: the ten bundled apps and the corpus under tests/regressions
PROGRAMS = {key: app.source for key, app in sorted(ALL_APPLICATIONS.items())}
PROGRAMS.update((path.name, load_case(str(path)).source)
                for path in sorted((HERE / "regressions").glob("*.json")))


@pytest.mark.parametrize("name", PROGRAMS)
def test_memop_template_equals_memop_fn(name):
    """The rendering both emitters inline, masked as they mask it, against
    the closure the reference walker calls through ``RuntimeArray``."""
    checked = check_program(PROGRAMS[name], name=name)
    runtime = SwitchRuntime(checked)
    for memop in checked.info.memops:
        closure = runtime.memop_fn(memop)
        template = memop_template(memop_shape(checked.info, memop), checked.info, "s", "l")
        fn = eval("lambda s, l: " + template)
        for width in (8, 16, 32):
            cell = (1 << width) - 1
            for s in BOUNDARY:
                for l in BOUNDARY:
                    assert fn(s, l) & (MASK32 & cell) == closure(s, l) & cell, (
                        memop, width, s, l)


def test_the_sweep_covers_every_memop_body_form():
    forms = set()
    for name, source in PROGRAMS.items():
        info = check_program(source, name=name).info
        forms.update(memop_shape(info, memop).cond is None for memop in info.memops)
    assert forms == {True, False}


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_memop_move_left_every_codegen_module_unchanged(key):
    source = dump_program_source(check_program(ALL_APPLICATIONS[key].source, name=key))
    assert hashlib.sha256(source.encode()).hexdigest() == GOLDEN["codegen_sha256"][key], (
        f"the codegen module generated for {key} changed; if intended, update "
        "codegen_sha256 in tests/golden/pisa_passes.json"
    )


# ---------------------------------------------------------------------------
# (b) every bundled handler lowers; plans are shared, state is not
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_every_handler_of_every_app_lowers(key):
    app = ALL_APPLICATIONS[key]
    pipeline = PisaPipeline(compile_program(app.source, name=key))
    module = pipeline.source()
    compile(module, f"<plan:{key}>", "exec")
    assert set(pipeline.plan.handler_sources) == set(pipeline.info.handlers)
    for handler in pipeline.info.handlers:
        text = pipeline.source(handler)
        compile(text, f"<plan:{key}:{handler}>", "exec")
        assert text.startswith(f"def _h_{handler}(_args):")
        assert text in module.replace("\n    ", "\n")
    occupied = [i for i, s in enumerate(pipeline.layout.stages) if s.merged_tables]
    for stage in occupied:
        assert f"# stage {stage}\n" in module
    # stateful tables are inlined: no memop binding, no RuntimeArray call
    assert not re.search(r"\b_M_", module)
    assert not re.search(r"_A_\w+\.(get|set|update)\(", module)


SHARED = """
global hits = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
event pkt(int idx);
handle pkt(int idx) { Array.set(hits, idx, plus, 1); }
"""


def test_switches_share_code_objects_but_not_arrays():
    network = Network(engine="pisa")
    checked = check_program(SHARED, name="shared")
    a = network.add_switch(0, checked)
    b = network.add_switch(1, checked)
    pa, pb = a.engine.pipeline, b.engine.pipeline
    assert pa.plan is pb.plan
    assert pa._handlers["pkt"] is not pb._handlers["pkt"]
    assert pa._handlers["pkt"].__code__ is pb._handlers["pkt"].__code__
    network.inject(0, EventInstance("pkt", (3,)))
    network.run()
    assert a.array("hits").snapshot()[3] == 1
    assert b.array("hits").snapshot() == [0] * 8


# ---------------------------------------------------------------------------
# (c) per-pass counts equal the interpretive executor's (recorded from the
#     parent commit by tests/pisa_pass_recorder.py)
# ---------------------------------------------------------------------------
def test_scenario_passes_match_golden():
    golden = dict(GOLDEN["scenario"])
    name, events, seed = golden.pop("name"), golden.pop("events"), golden.pop("seed")
    assert pass_summary_for_scenario(name, events, seed) == golden


@pytest.mark.parametrize("case", sorted(GOLDEN["regressions"]))
def test_regression_passes_match_golden(case):
    path = os.path.join(HERE, "regressions", case)
    assert pass_summary_for_case(path) == GOLDEN["regressions"][case]


def test_pisa_counters_are_the_sums_of_the_passes():
    """A pisa switch's counters are the sums (the peak: the maximum) of its
    passes' counts, each pass's read off the stage profiler, which the plan
    feeds stage by stage, apart from the epilogue that adds up the counters."""
    setup = registry.get("sfw-install-latency").build(1000, 1)
    network, source = prepare_run(setup, "pisa", profile=True)
    passes = {}
    for sid, switch in network.switches.items():
        def profiled(event, run=switch.engine.run, rows=switch.engine.pipeline.stage_prof.rows,
                     out=passes.setdefault(sid, [])):
            before = rows()
            result = run(event)
            out.append([sum(after[key] - row[key] for row, after in zip(before, rows()))
                        for key in ("events", "tables_executed")])
            return result

        switch.engine.run = profiled
    network.run(source=list(source))
    network.run(until_ns=settle_horizon(setup, source.last_ns))
    for sid, switch in network.switches.items():
        stages = [count for count, _ in passes[sid]]
        assert len(stages) == switch.stats.events_handled > 0
        assert switch.engine.pipeline.counters() == {
            "stages_traversed": sum(stages),
            "max_stages_traversed": max(stages),
            "tables_executed": sum(tables for _, tables in passes[sid]),
        }


# ---------------------------------------------------------------------------
# (d) the metadata model, and what is looked up per pass rather than bound
# ---------------------------------------------------------------------------
METADATA = """
const int K = 5;
global a = new Array<<32>>(4);
global b = new Array<<32>>(4);
global c = new Array<<32>>(4);
event e(int x);
handle e(int x) {
  int t = x + 1;
  int u = t + 2;
  int v = u + 3;
  int w = x + 9;
  Array.set(a, 0, t);
  Array.set(b, 0, v);
  Array.set(c, 0, w);
}
"""


def _op_tables(compiled):
    return {
        table.stmt.dst: table
        for stage in compiled.layout.stages
        for table in stage.atomic_tables()
        if isinstance(table.stmt, NOp)
    }


def test_metadata_defaults_const_then_written_then_zero():
    """The layout is patched the way no checked program can be written: one
    table reads the constant ``K`` as a metadata field, the next *writes* a
    field of that name, the third reads it back; a fourth reads a field
    nothing ever wrote."""
    compiled = compile_program(METADATA, name="metadata")
    ops = _op_tables(compiled)
    ops["t"].stmt.rhs = Var("K")                       # t = x + K      (const: 5)
    ops["u"].stmt.dst = "K"                            # K = t + 2      (now written)
    ops["u"].writes = {"K"}
    ops["v"].stmt.lhs = Var("K")                       # v = K + 3      (the written K)
    ops["v"].reads = {"K"}
    ops["w"].stmt.rhs = Var("ghost")                   # w = x + ghost  (never written)
    ops["w"].reads = {"x", "ghost"}
    pipeline = PisaPipeline(compiled)
    pipeline.run(EventInstance("e", (1,)))
    assert pipeline.array("a").snapshot()[0] == 1 + 5
    assert pipeline.array("b").snapshot()[0] == (1 + 5) + 2 + 3
    assert pipeline.array("c").snapshot()[0] == 1 + 0


EXTERN = """
extern fun int probe(int v);
global seen = new Array<<32>>(4);
event e(int v);
handle e(int v) { int x = probe(v); Array.set(seen, 0, v); }
"""


def test_extern_and_stage_profiler_attached_after_the_first_event():
    pipeline = PisaPipeline(compile_program(EXTERN, name="extern"))
    pipeline.run(EventInstance("e", (7,)))                   # unbound: inert
    first = pipeline.counters()
    calls = []
    pipeline.runtime.bind_extern("probe", lambda v: calls.append(v) or 0)
    pipeline.stage_prof = StageProfiler(len(pipeline.layout.stages))
    pipeline.run(EventInstance("e", (8,)))
    second = {name: count - first[name] for name, count in pipeline.counters().items()}
    assert calls == [8]
    assert first["tables_executed"] == second["tables_executed"] > 0
    rows = pipeline.stage_prof.rows()
    assert sum(row["events"] for row in rows) == second["stages_traversed"]
    assert sum(row["tables_executed"] for row in rows) == second["tables_executed"]


def test_process_stamps_the_clock():
    """A pass reads the runtime clock wherever its owner set it."""
    source = """
    global at = new Array<<32>>(2);
    event e(int i);
    handle e(int i) { int now = Sys.time(); Array.set(at, i, now); }
    """
    pipeline = PisaPipeline(compile_program(source, name="clock"))
    pipeline.runtime.time_ns = 1234
    pipeline.run(EventInstance("e", (0,)))
    pipeline.run(EventInstance("e", (1,)))                   # keeps the clock
    assert pipeline.runtime.time_ns == 1234
    assert pipeline.array("at").snapshot() == [1234, 1234]


def test_pass_result_fields_and_unhandled_events():
    """A pass returns a plain ExecutionResult; its counts go to the pipeline,
    and an event with no handler counts nothing."""
    pipeline = PisaPipeline(compile_program(SHARED, name="shared"))
    result = pipeline.run(EventInstance("nobody_handles_this", (1, 2)))
    assert type(result) is ExecutionResult
    assert (list(result.generated), list(result.prints), result.dropped, result.flooded,
            result.forwarded_port) == ([], [], False, False, None)
    assert not hasattr(result, "__dict__")
    assert pipeline.counters() == {
        "stages_traversed": 0, "max_stages_traversed": 0, "tables_executed": 0}
    pipeline.run(EventInstance("pkt", (1,)))
    assert pipeline.counters() == {
        "stages_traversed": 1, "max_stages_traversed": 1, "tables_executed": 1}


# ---------------------------------------------------------------------------
# (e) checkpoints: a plan bound before restore reads the restored state
# ---------------------------------------------------------------------------
RELAY = """
global hits = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
event pkt(int idx, int hops);
handle pkt(int idx, int hops) {
  Array.set(hits, idx, plus, 1);
  if (hops > 0) {
    if (idx == 0) {
      generate Event.delay(pkt(idx + 1, hops - 1), 500);
    } else {
      generate Event.locate(pkt(idx, hops - 1), (SELF + 1) % 3);
    }
  }
}
"""


def _relay_network():
    network = Network(engine="pisa")
    checked = check_program(RELAY, name="relay")
    for sid in range(3):
        network.add_switch(sid, checked)
    for sid in range(3):
        network.add_link(sid, (sid + 1) % 3)
    for i in range(30):
        network.inject(i % 3, EventInstance("pkt", (i % 8, 5)), at_ns=i * 1_000)
    return network


def test_snapshot_restore_resume_is_byte_identical():
    interrupted = _relay_network()
    interrupted.run(max_events=40)
    assert interrupted.pending_events() > 0
    state = json.loads(json.dumps(interrupted.snapshot()))

    fresh = _relay_network()          # plans bound here, before the restore
    fresh.run(max_events=5)           # and already run against other state
    fresh.restore(state)
    fresh.run()

    straight = _relay_network()
    straight.run()
    assert json.dumps(fresh.snapshot(), sort_keys=True) == json.dumps(
        straight.snapshot(), sort_keys=True
    )
    assert network_array_digest(fresh) == network_array_digest(straight)
    assert fresh.stats() == straight.stats()


# ---------------------------------------------------------------------------
# argument-count mismatch: a clear error on every engine, no state touched
# ---------------------------------------------------------------------------
ARITY = """
global a = new Array<<32>>(4);
event e(int x, int y);
handle e(int x, int y) { Array.set(a, x, y); }
"""


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("args", [(1,), (1, 2, 3)], ids=["short", "long"])
def test_wrong_argument_count_is_rejected_on_every_engine(engine, args):
    network = Network(engine=engine)
    switch = network.add_switch(0, check_program(ARITY, name="arity"))
    network.inject(0, EventInstance("e", args))
    with pytest.raises(InterpError) as error:
        network.run()
    assert error.value.message == (
        f"event 'e' carries {len(args)} arguments but the handler expects 2"
    )
    assert switch.array("a").snapshot() == [0, 0, 0, 0]
    assert switch.array("a").writes == 0


# ---------------------------------------------------------------------------
# (f) stateful tables: a malformed memop fails where and how it always did
# ---------------------------------------------------------------------------
MEMOP = """
const int K = 3;
global t = new Array<<32>>(4);
memop m(int stored, int x) { if (stored < K) { return stored + x; } else { return x; } }
event e(int v);
handle e(int v) { Array.set(t, 0, m, v); }
"""


def _expr(text):
    """``text`` parsed as the returned expression of a throwaway memop."""
    program = check_program(f"memop p(int stored, int x) {{ return {text}; }}")
    return program.info.memops["p"].body[0].value


def _return(text):
    return ast.SReturn(span=dummy_span(), value=_expr(text))


def _drop_a_parameter(decl):
    del decl.params[1]


def _collide_parameters(decl):
    decl.params[1].name = decl.params[0].name


def _empty_body(decl):
    decl.body.clear()


def _assign_instead_of_return(decl):
    decl.body[:] = [ast.SAssign(span=dummy_span(), name="stored", value=_expr("1"))]


def _empty_else(decl):
    decl.body[0].else_body.clear()


def _else_without_return(decl):
    decl.body[0].else_body[:] = [ast.SReturn(span=dummy_span(), value=None)]


def _undefined_variable(decl):
    decl.body[0].then_body[:] = [_return("stored + x")]
    decl.body[0].then_body[0].value.right.name = "ghost"


def _call_in_condition(decl):
    decl.body[0].cond = ast.ECall(span=dummy_span(), func="Sys.time", args=[])


MALFORMED = [
    (_drop_a_parameter, "memop 'm' must take exactly two parameters (found 1)"),
    (_collide_parameters,
     "memop 'm' declares both parameters with the same name 'stored'"),
    (_empty_body, "memop 'm' has an empty body"),
    (_assign_instead_of_return,
     "memop 'm' body must be a single return statement or an if statement "
     "with one return in each branch"),
    (_empty_else, "memop 'm' must return a value in both branches of its if statement"),
    (_else_without_return,
     "memop 'm': the else-branch must be a 'return <expr>;' statement"),
    (_undefined_variable, "undefined variable 'ghost' in memop 'm'"),
    (_call_in_condition, "expression is not allowed in memop 'm'"),
]


@pytest.mark.parametrize("mutate,message", MALFORMED,
                         ids=[mutate.__name__.strip("_") for mutate, _ in MALFORMED])
def test_malformed_memop_fails_at_plan_lowering_like_memop_fn(mutate, message):
    """The declarations are built directly: the front end stops every one."""
    compiled = compile_program(MEMOP, name="malformed")
    mutate(compiled.checked.info.memops["m"])
    with pytest.raises(InterpError) as lowering:
        PisaPipeline(compiled)
    assert lowering.value.message == message
    runtime = SwitchRuntime(compiled.checked)
    with pytest.raises(InterpError) as closure:
        runtime.memop_fn("m")
    assert closure.value.message == message
    # codegen prints the memop into its module: it fails when the switch is built
    with pytest.raises(InterpError) as printing:
        CodegenEngine(runtime)
    assert printing.value.message == message


def test_zero_size_array_fails_at_plan_lowering():
    compiled = compile_program(MEMOP, name="zero-size")
    compiled.checked.info.globals["t"].size = 0
    with pytest.raises(InterpError) as lowering:
        PisaPipeline(compiled)
    assert lowering.value.message == "array 't' has zero size"


# ---------------------------------------------------------------------------
# (g) stateful tables: cells and counters at the corners, on every engine
# ---------------------------------------------------------------------------
CORNERS = """
global a8 = new Array<<8>>(4);
global b8 = new Array<<8>>(4);
global c16 = new Array<<16>>(4);
global d16 = new Array<<16>>(4);
global e8 = new Array<<8>>(4);
global f16 = new Array<<16>>(4);
global out = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
memop keep(int stored, int x) { return stored; }
memop capped(int stored, int x) { if (stored < x) { return stored + 1; } else { return 0; } }
event fill(int i, int v);
event probe(int i, int v);
handle fill(int i, int v) {
  Array.set(a8, i, v);
  Array.set(b8, i, plus, v);
  Array.set(c16, i, capped, v);
  Array.setm(d16, i, plus, v);
}
handle probe(int i, int v) {
  int x = Array.get(a8, i);
  int y = Array.get(b8, i, capped, v);
  int z = Array.getm(c16, i, plus, v);
  int w = Array.update(d16, i, keep, 0, x + y);
  v = Array.update(e8, v, plus, v, capped, v);
  Array.set(f16, i, w + z);
  Array.set(out, i, v);
}
"""


def _array_state(network):
    return {
        (sid, name): (array.snapshot(), array.reads, array.writes)
        for sid, switch in network.switches.items()
        for name, array in switch.runtime.arrays.items()
    }


def _run_corners(engine):
    network = Network(engine=engine)
    network.add_switch(0, check_program(CORNERS, name="corners"))
    at_ns = 0
    for i in (0, 1, 2, 3, 4, 7, 2**31 + 1, 2**32 - 1):
        for v in (0, 1, 255, 256, 65535, 65536, 2**32 - 1):
            for event in ("fill", "probe", "probe"):
                network.inject(0, EventInstance(event, (i, v)), at_ns=at_ns)
                at_ns += 1_000
    network.run()
    return _array_state(network)


def test_stateful_corners_agree_on_every_engine():
    """8- and 16-bit cells; get / set / update with no memop, a plain-return
    memop and an ``if`` memop; indices past the size and at 2^32-1; and an
    ``Array.update`` whose destination is also its index and both arguments."""
    reference = _run_corners("reference")
    assert all(reads + writes for _, reads, writes in reference.values())
    assert any(cell > 255 for cell in reference[0, "f16"][0])
    assert _run_corners("codegen") == reference
    assert _run_corners("pisa") == reference


def test_read_write_counters_agree_on_the_firewall_scenario():
    """Array digests cover cells only; the counters are state too."""
    def run(engine):
        setup = registry.get("sfw-install-latency").build(3000, 1)
        network, source = prepare_run(setup, engine)
        network.run(source=list(source))
        network.run(until_ns=settle_horizon(setup, source.last_ns))
        return {key: counts for key, (_, *counts) in _array_state(network).items()}

    reference = run("reference")
    assert sum(reads + writes for reads, writes in reference.values()) > 3000
    assert run("codegen") == reference
    assert run("pisa") == reference


def test_the_pisa_path_does_not_import_codegen():
    """The shared memop lowering lives beside ``memop_fn`` so that running
    on ``pisa`` does not pay codegen's import in set-up time and memory."""
    script = (
        "import sys\n"
        "from repro.scenarios import registry\n"
        "from repro.scenarios.runner import prepare_run\n"
        "prepare_run(registry.get('sfw-install-latency').build(10, 1), 'pisa')\n"
        "sys.exit('repro.interp.codegen' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0
