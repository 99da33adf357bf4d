"""The PISA stage plan: the layout lowered once to one function per handler.

Behavioural parity of the ``pisa`` engine with ``reference`` and ``codegen``
is pinned elsewhere (``tests/test_engines.py``, the fuzz corpus, the
scenario CLI's ``--all-engines``).  This file pins what is specific to the
lowering in :mod:`repro.pisa.pipeline`: the shared operator templates, that
plans are shared between switches while state is not, the per-pass counts
recorded from the interpretive executor this lowering replaced, and the
corners of the metadata model the interpreter used to resolve per read.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from pisa_pass_recorder import pass_summary_for_case, pass_summary_for_scenario
from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import compile_program
from repro.errors import InterpError
from repro.frontend import ast, check_program
from repro.interp.codegen import dump_program_source
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.midend.normalize import NOp, Var
from repro.obs.profile import StageProfiler
from repro.ops import apply_binop, binop_template, hash_namespace, hash_template, lucid_hash
from repro.pisa.pipeline import PipelinePassResult, PisaPipeline
from repro.scenarios.runner import network_array_digest

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
    pipeline.process(EventInstance("e", (1,)))
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
    first = pipeline.process(EventInstance("e", (7,)))       # unbound: inert
    calls = []
    pipeline.runtime.bind_extern("probe", lambda v: calls.append(v) or 0)
    pipeline.stage_prof = StageProfiler(len(pipeline.layout.stages))
    second = pipeline.process(EventInstance("e", (8,)))
    assert calls == [8]
    assert first.tables_executed == second.tables_executed > 0
    rows = pipeline.stage_prof.rows()
    assert sum(row["events"] for row in rows) == second.stages_traversed
    assert sum(row["tables_executed"] for row in rows) == second.tables_executed


def test_process_stamps_the_clock():
    source = """
    global at = new Array<<32>>(2);
    event e(int i);
    handle e(int i) { int now = Sys.time(); Array.set(at, i, now); }
    """
    pipeline = PisaPipeline(compile_program(source, name="clock"))
    pipeline.process(EventInstance("e", (0,)), time_ns=1234)
    pipeline.process(EventInstance("e", (1,)))               # keeps the clock
    assert pipeline.runtime.time_ns == 1234
    assert pipeline.array("at").snapshot() == [1234, 1234]


def test_pass_result_fields_and_unhandled_events():
    pipeline = PisaPipeline(compile_program(SHARED, name="shared"))
    result = pipeline.process(EventInstance("nobody_handles_this", (1, 2)))
    assert isinstance(result, PipelinePassResult)
    assert (result.generated, result.prints, result.dropped, result.flooded,
            result.forwarded_port, result.stages_traversed,
            result.tables_executed) == ([], [], False, False, None, 0, 0)
    assert not hasattr(result, "__dict__")


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
