"""The PISA stage plan: the layout lowered once to one function per handler.

Behavioural parity of the ``pisa`` engine with ``reference`` and ``codegen``
is pinned elsewhere (``tests/test_engines.py``, the fuzz corpus, the
scenario CLI's ``--all-engines``).  This file pins what is specific to the
lowering in :mod:`repro.pisa.pipeline`: the shared operator, hash and memop
templates (and the P4 ``RegisterAction`` each stateful table prints, run by a
small P4-16 evaluator), that plans are shared between switches while state is not, the
per-pass counts recorded from the interpretive executor this lowering
replaced, the corners of the metadata model the interpreter used to resolve
per read, and the stateful tables inlined on the arrays' cell lists.
"""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from pisa_pass_recorder import (
    pass_summary_for_case,
    pass_summary_for_scenario,
    recorded_passes,
    summarise,
)
from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import compile_checked, compile_program
from repro.backend.p4gen import _sanitize
from repro.backend.tables import TableKind
from repro.errors import ConstError, InterpError, MemopError
from repro.frontend import ast, check_program
from repro.frontend.source import dummy_span
from repro.fuzz.case import load_case
from repro.interp.arrays import RuntimeArray
from repro.interp.codegen import compile_program as codegen_module, dump_program_source
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, SwitchRuntime, memop_shape, memop_template
from repro.interp.network import Network
from repro.midend.normalize import Const, NOp, Var
from repro.obs.profile import StageProfiler
from repro.ops import (
    MASK32,
    apply_binop,
    binop_template,
    hash_namespace,
    hash_template,
    lucid_hash,
)
from repro.pisa.pipeline import PisaPipeline, lower_layout
from repro.scenarios import registry
from repro.scenarios.runner import network_array_digest, prepare_run, settle_horizon

from test_compiled_interp import BOUNDARY, build_events, run_engine
from test_emit import _oracle_op

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
        template = memop_template(memop_shape(checked.info, memop), "s", "l")
        fn = eval("lambda s, l: " + template)
        for width in (8, 16, 32):
            cell = (1 << width) - 1
            for s in BOUNDARY:
                for l in BOUNDARY:
                    assert fn(s, l) & (MASK32 & cell) == closure(s, l) & cell, (
                        memop, width, s, l)


#: P4-16's binary operators over ``bit<w>``, loosest first (C's precedence:
#: a bitwise operator binds looser than a comparison)
_P4_LEVELS = {op: level for level, ops in enumerate(
    [("|",), ("^",), ("&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-")]) for op in ops}
_P4_COMPARE = {"==": int.__eq__, "!=": int.__ne__, "<": int.__lt__, ">": int.__gt__,
               "<=": int.__le__, ">=": int.__ge__}
_P4_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][\w.]*|[<>=!]=|\S)")


class RegisterAction:
    """One printed ``RegisterAction``, run as P4-16 runs it: ``mem`` and
    ``rv`` are ``bit<w>``, a metadata field ``bit<32>``, a literal takes the
    width of the other operand, ``+`` / ``-`` wrap at the width, a
    comparison is a ``bool`` (the only thing ``if`` takes) and mixing two
    widths is an error.  The body is ``rv = e;``, ``mem = e;`` and
    ``if (e) { ... } else { ... }``."""

    def __init__(self, text):
        self.width = int(re.search(r"inout bit<(\d+)> mem", text).group(1))
        self.tokens = _P4_TOKEN.findall(text[text.index("{", text.index("void apply")) + 1:])

    def run(self, mem, md):
        """``(rv, mem)`` after the action, on a cell holding ``mem``, with
        metadata field ``md.<name>`` holding ``md[name]``."""
        self.env = {"mem": (mem, self.width), "rv": (0, self.width)}
        self.env.update((f"md.{name}", (value, 32)) for name, value in md.items())
        self._block(0, True)
        return self.env["rv"][0], self.env["mem"][0]

    def _block(self, i, live):
        toks = self.tokens
        while toks[i] != "}":
            if toks[i] == "if":
                assert toks[i + 1] == "(", toks[i:]
                (cond, kind), i = self._expr(i + 2, 0)
                assert kind == "bool" and toks[i:i + 2] == [")", "{"], toks[i:]
                i = self._block(i + 2, live and cond)
                if toks[i] == "else":
                    assert toks[i + 1] == "{", toks[i:]
                    i = self._block(i + 2, live and not cond)
                continue
            target = toks[i]
            assert target in ("rv", "mem") and toks[i + 1] == "=", toks[i:]
            (value, kind), i = self._expr(i + 2, 0)
            assert kind in (self.width, None) and toks[i] == ";", (kind, toks[i:])
            if live:
                self.env[target] = (value % (1 << self.width), self.width)
            i += 1
        return i + 1

    def _expr(self, i, level):
        toks = self.tokens
        if toks[i] == "(":
            left, i = self._expr(i + 1, 0)
            assert toks[i] == ")", toks[i:]
            i += 1
        elif toks[i].isdigit():
            left, i = (int(toks[i]), None), i + 1
        else:
            left, i = self.env[toks[i]], i + 1
        while _P4_LEVELS.get(toks[i], -1) >= level:
            op = toks[i]
            right, i = self._expr(i + 1, _P4_LEVELS[op] + 1)
            left = self._apply(op, left, right)
        return left, i

    @staticmethod
    def _apply(op, left, right):
        (a, wa), (b, wb) = left, right
        assert "bool" not in (wa, wb) and (None in (wa, wb) or wa == wb), (op, wa, wb)
        width = wb if wa is None else wa
        if op in _P4_COMPARE:
            return int(_P4_COMPARE[op](a, b)), "bool"
        value = {"+": a + b, "-": a - b, "&": a & b, "|": a | b, "^": a ^ b}[op]
        return (value if width is None else value % (1 << width)), width


def _register_actions(source, name):
    """Each ``NArrayOp`` of ``source`` with the RegisterAction printed for it."""
    compiled = compile_program(source, name=name)
    text = compiled.p4.full_text()
    for stage in compiled.layout.stages:
        for merged in stage.merged_tables:
            for table in merged.members:
                if table.kind is TableKind.MEMORY:
                    start = text.index(f"    ra_{_sanitize(table.name)} = {{\n")
                    yield table.stmt, RegisterAction(text[start:text.index("\n    };", start)])


#: Section 4.2's atomic read-modify-write with two different sides: the
#: update returns plus(old, a) and stores lower(old, b); the get writes nothing
TWO_SIDES = """
global r = new Array<<32>>(4);
global s = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
memop lower(int stored, int x) { if (x < stored) { return x; } else { return stored; } }
event e(int a, int b);
handle e(int a, int b) {
  int u = Array.update(r, 0, plus, a, lower, b);
  int g = Array.get(s, 0, plus, a);
  printf(u, g);
}
"""


#: the printed programs: the apps, the corpus, and two that pin the printer
PRINTED = dict(PROGRAMS, **{
    "two-sides": TWO_SIDES,
    # Lucid binds & tighter than ==, P4 looser: the printed side is bracketed
    "bitwise-condition": """
global t = new Array<<32>>(4);
memop m(int stored, int x) { if (stored & x == 0) { return x; } else { return stored | 1; } }
event e(int a);
handle e(int a) { int v = Array.update(t, 0, m, a, m, a + 1); printf(v); }
""",
})


@pytest.mark.parametrize("name", PRINTED)
def test_printed_register_action_equals_runtime_array(name):
    """Every stateful table's printed RegisterAction, run on the boundary
    cells and arguments, returns (``rv``) and stores (``mem``) what
    ``RuntimeArray.get`` / ``set`` / ``update`` with ``memop_fn`` do."""
    runtime = SwitchRuntime(check_program(PRINTED[name], name=name))
    for stmt, action in _register_actions(PRINTED[name], name):
        fields = sorted({a.name for a in stmt.args if isinstance(a, Var)})
        for values in itertools.product(BOUNDARY, repeat=len(fields)):
            md = dict(zip(fields, values))
            a, b = [md[x.name] if isinstance(x, Var) else x.value for x in stmt.args + [Const(0)] * 2][:2]
            for cell in BOUNDARY:
                array = RuntimeArray(stmt.array, 1, action.width)
                array.cells[0] = cell & array.mask
                rv = _oracle_op(array, runtime, stmt.method, stmt.memops, len(stmt.args), 0, a, b)
                got = action.run(cell & array.mask, {_sanitize(f): v for f, v in md.items()})
                assert got == (rv, array.cells[0]), (stmt, md, cell)


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
# (c') the plain plan and the timed one a stage profiler binds count alike
#      ("golden" in their names: CI runs them under two hash seeds)
# ---------------------------------------------------------------------------
@contextmanager
def stage_profiled(after):
    """Every pipeline built inside gets a :class:`StageProfiler` before its
    pass number ``after`` (0: before the first); yields the list of
    ``(pipeline, its counters when the profiler came)``."""
    attached = []
    original = PisaPipeline.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        run, passes = self.run, itertools.count()

        def attaching(event):
            if next(passes) == after:
                self.stage_prof = StageProfiler(len(self.layout.stages))
                attached.append((self, self.counters()))
            return run(event)

        self.run = attaching

    PisaPipeline.__init__ = patched
    try:
        yield attached
    finally:
        PisaPipeline.__init__ = original


def assert_profiled_agree(observe, after=3):
    """``observe()`` (passes, digests, ...) is the same run with a stage
    profiler from the start or from pass ``after`` on, and each profiler's
    rows sum to what its pipeline counted after it came."""
    plain = observe()
    for start in (0, after):
        with stage_profiled(start) as attached:
            assert observe() == plain, f"profiled from pass {start}"
        assert attached or start, "no pipeline ran"
        for pipeline, before in attached:
            rows, counters = pipeline.stage_prof.rows(), pipeline.counters()
            assert sum(row["events"] for row in rows) == \
                counters["stages_traversed"] - before["stages_traversed"]
            assert sum(row["tables_executed"] for row in rows) == \
                counters["tables_executed"] - before["tables_executed"]


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_golden_counts_hold_under_a_stage_profiler_on_every_app(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)

    def observe():
        with recorded_passes() as records:
            observed = run_engine(checked, "pisa", build_events(checked), nswitches=2)
        return summarise(records), observed

    assert_profiled_agree(observe)


@pytest.mark.parametrize("case", sorted(os.listdir(HERE / "regressions")))
def test_golden_counts_hold_under_a_stage_profiler_on_regressions(case):
    assert_profiled_agree(lambda: pass_summary_for_case(HERE / "regressions" / case), after=1)


@pytest.mark.parametrize("name", ["sfw-install-latency", "sro-replicated-writes",
                                  "dfw-ring-roaming"])
def test_golden_counts_hold_under_a_stage_profiler_on_scenarios(name):
    assert_profiled_agree(lambda: pass_summary_for_scenario(name, 600, 1), after=100)


WIDE = (
    "global hits = new Array<<32>>(4);\nevent pkt(int x, int y);\n"
    "handle pkt(int x, int y) {\n  int acc = y;\n"
    + "".join(f"  if (x > {i}) {{ acc = acc + {i + 1}; }}\n" for i in range(70))
    + "  Array.set(hits, 0, acc);\n}\n"
)


def test_golden_counts_of_a_handler_with_70_path_conditions():
    """70 flags, so a pass's path index runs past 64 bits: the plan lowers,
    runs, and counts what the layout says each pass runs."""
    compiled = compile_checked(check_program(WIDE, name="wide"))
    stages = [[table for table in stage.atomic_tables() if table.handler == "pkt"]
              for stage in compiled.layout.stages]
    plain, timed = PisaPipeline(compiled), PisaPipeline(compiled)
    timed.stage_prof = StageProfiler(len(stages))
    assert len(plain.plan.paths["pkt"].flag_tables) >= 64
    expected = {"stages_traversed": 0, "max_stages_traversed": 0, "tables_executed": 0}
    for x in (0, 1, 35, 63, 64, 65, 69, 70, 2**31, 66, 64):
        # every condition is ``x > i``: which tables run is known up front
        ran = [sum(all(cond.op.value == ">" and x > cond.rhs.value
                       for cond in table.path_conditions) for table in tables)
               for tables in stages]
        expected["stages_traversed"] += sum(map(bool, ran))
        expected["max_stages_traversed"] = max(expected["max_stages_traversed"],
                                               sum(map(bool, ran)))
        expected["tables_executed"] += sum(ran)
        for pipeline in (plain, timed):
            pipeline.run(EventInstance("pkt", (x, 7)))
            assert pipeline.counters() == expected
            assert pipeline.array("hits").snapshot()[0] == 7 + sum(range(1, min(x, 70) + 1))
    rows = timed.stage_prof.rows()
    assert sum(row["events"] for row in rows) == expected["stages_traversed"]
    assert sum(row["tables_executed"] for row in rows) == expected["tables_executed"]
    assert len(plain.path_counts["pkt"]) == 9     # x = 70 and 2**31 take one path


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_effect_free_plan_handlers_return_the_shared_empty_result(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)
    codegen = codegen_module(checked).handler_sources
    plan = lower_layout(compile_checked(checked)).handler_sources
    empty = {name for name, text in codegen.items() if "return _EMPTY_R\n" in text}
    assert empty and empty == {name for name, text in plan.items() if "return _EMPTY_R\n" in text}


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
# (f) stateful tables: a malformed memop never reaches the plan or memop_fn
# ---------------------------------------------------------------------------
MEMOP_DECL = "memop m(int stored, int x) { if (stored < K) { return stored + x; } else { return x; } }"
MEMOP = f"""
const int K = 3;
global t = new Array<<32>>(4);
{MEMOP_DECL}
event e(int v);
handle e(int v) {{ Array.set(t, 0, m, v); }}
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


#: (the mutation of a checked declaration, the same fault written in the
#: source, the front end's message for it)
MALFORMED = [
    (_drop_a_parameter,
     "memop m(int stored) { if (stored < K) { return stored + 1; } else { return 0; } }",
     "memop 'm' must take exactly two parameters"),
    (_collide_parameters,
     "memop m(int stored, int stored) { if (stored < K) { return stored + 1; } else { return 0; } }",
     "memop 'm' declares both parameters with the same name 'stored'"),
    (_empty_body, "memop m(int stored, int x) { }",
     "memop 'm' body must be a single return statement"),
    (_assign_instead_of_return, "memop m(int stored, int x) { stored = 1; }",
     "memop 'm' body must be a single return statement"),
    (_empty_else, "memop m(int stored, int x) { if (stored < K) { return stored + x; } else { } }",
     "the else-branch of a memop's if statement must contain exactly one return"),
    (_else_without_return,
     "memop m(int stored, int x) { if (stored < K) { return stored + x; } else { return; } }",
     "a memop must return a value"),
    (_undefined_variable,
     "memop m(int stored, int x) { if (stored < K) { return stored + ghost; } else { return x; } }",
     "'ghost' is neither a parameter of the memop nor a declared constant"),
    (_call_in_condition,
     "memop m(int stored, int x) { if (Sys.time()) { return stored + x; } else { return x; } }",
     "a memop condition must be a single comparison"),
]


@pytest.mark.parametrize("mutate,written,message", MALFORMED,
                         ids=[mutate.__name__.strip("_") for mutate, _, _ in MALFORMED])
def test_malformed_memop_fails_at_plan_lowering_like_memop_fn(mutate, written, message):
    """Written in the source, each malformed declaration is refused by the
    front end, so neither plan lowering nor ``memop_fn`` meets it.  Built
    directly on a checked program, it changes nothing: plan lowering,
    ``memop_fn`` and every engine run the shape ``check_program`` kept."""
    with pytest.raises(MemopError, match=re.escape(message)):
        compile_program(MEMOP.replace(MEMOP_DECL, written), name="malformed")
    compiled = compile_program(MEMOP, name="malformed")
    mutate(compiled.checked.info.memops["m"])
    PisaPipeline(compiled)
    memop = SwitchRuntime(compiled.checked).memop_fn("m")
    assert [memop(stored, 5) for stored in (0, 2, 3, 9)] == [5, 7, 5, 5]
    for engine in ENGINE_NAMES:
        network = Network(engine=engine)
        switch = network.add_switch(0, compiled.checked)
        for v in (1, 5, 2):  # then-branch 0 + 1, then-branch 1 + 5, else-branch 2
            network.inject(0, EventInstance("e", (v,)))
        network.run()
        assert switch.array("t").snapshot() == [2, 0, 0, 0], engine


def test_zero_size_array_fails_at_plan_lowering():
    """A zero-size array never reaches plan lowering: the front end refuses
    it where it is declared."""
    with pytest.raises(ConstError, match="global 't' has non-positive size 0") as err:
        compile_program(MEMOP.replace("Array<<32>>(4)", "Array<<32>>(0)"), name="zero-size")
    assert err.value.span.text.startswith("global t")


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
