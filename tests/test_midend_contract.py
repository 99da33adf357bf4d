"""One midend, express or refuse; well-typed means compilable.

``codegen`` and ``pisa`` (and the P4) start from the same
:class:`~repro.midend.normalize.NormalizedHandler`, which ``check_program``
computes once as its last step.  This file pins the contract that makes
that safe: the midend lowers a handler to exactly what the tree walker
computes, or ``check_program`` refuses the program with a ``TypeError_``
naming the construct in the user's names, on the offending line — so every
program that checks compiles.  Shapes the midend *fixed* live in
``tests/regressions/`` (replayed on all three engines); the shapes it
*refuses* are below, with the codegen module read as the stage plan without
stages.
"""

import copy
import re
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.backend import MergeOptions, build_layout, generate_p4
from repro.backend.compiler import compile_checked
from repro.errors import TypeError_
from repro.frontend import ast, check_program
from repro.fuzz.case import load_case
from repro.fuzz.gen import CaseGenerator
from repro.interp.codegen import dump_program_source
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.midend.inline import Inliner
from repro.midend.normalize import normalize_program
from repro.pisa.pipeline import lower_layout
from repro.scenarios import SCENARIOS


def _run(checked, engine, events, externs=None, switches=1):
    """Everything observable of ``events`` injected at switch 0."""
    network = Network(engine=engine)
    nodes = [network.add_switch(sid, checked) for sid in range(switches)]
    for name, fn in (externs or {}).items():
        nodes[0].bind_extern(name, fn)
    for i, (name, args) in enumerate(events):
        network.inject(0, EventInstance(name, args), at_ns=i * 1_000_000)
    network.run(max_events=200)
    return (
        [(t.time_ns, t.switch_id, t.event, t.result) for t in network.trace],
        [list(node.log) for node in nodes],
        [{name: (a.snapshot(), a.reads, a.writes) for name, a in node.runtime.arrays.items()}
         for node in nodes],
    )


# ---------------------------------------------------------------------------
# refused: check_program raises a TypeError_ naming the construct
# ---------------------------------------------------------------------------
PRELUDE = """
const int C = 7;
const group PAIR = {1, 2};
global t = new Array<<32>>(4);
event e(int v);
event g(int v);
handle g(int v) { printf(v); }
"""

#: the mark on the line a refusal's span must sit on
HERE = "// refused here"

#: name -> (declarations + ``handle e``, what the refusal must say)
REFUSED = {
    # a callee local declared in an arm shadows a constant: the tree walker
    # reads the local on one path, the constant on the other
    "callee-local-unassigned-on-a-path": (
        """fun int f(int a) {
          if (a == 1) { int C = 99; }
          return C; // refused here
        }
        handle e(int v) { printf(f(v)); }""",
        "local 'C' of function 'f' can be read on a path that has not assigned it"),
    # an event-typed local re-bound in an arm: its value depends on the path
    "event-local-rebound-in-an-arm": (
        """handle e(int v) {
          event out = g(v);
          if (v == 1) { out = Event.delay(out, 5000); } // refused here
          generate out;
        }""",
        "'out' is re-bound in a branch arm"),
    "group-local-rebound-in-an-arm": (
        """handle e(int v) {
          auto where = PAIR;
          if (v == 1) { where = {0}; } // refused here
          generate Event.locate(g(v), where);
        }""",
        "'where' is re-bound in a branch arm"),
    "local-shadows-a-constant": (
        """fun int f() { return C; }
        handle e(int v) {
          int C = 99; // refused here
          printf(C); printf(f());
        }""",
        "local 'C' shadows a constant"),
    "event-printed": (
        """handle e(int v) {
          event held = g(v);
          printf(held); // refused here
        }""",
        "'held' is an event, group or array"),
    "group-printed": (
        """handle e(int v) {
          printf(PAIR); // refused here
        }""",
        "'PAIR' is an event, group or array"),
    "array-held-in-a-local": (
        """handle e(int v) {
          auto arr = t; // refused here
          Array.set(arr, 0, v); printf(arr);
        }""",
        "'t' is an event, group or array"),
}

#: a name only the midend mints: an inlined callee's local, a normaliser
#: temporary, a ``Sys.*`` metadata field
COMPILER_NAME = re.compile(r"_inl\d|_n\d|'__")


@pytest.mark.parametrize("name", REFUSED)
def test_a_refused_shape_is_named_counted_and_runs_as_the_reference(name):
    """The shape never reaches an engine: ``check_program`` refuses it, with
    the midend's message in the user's names, on the offending line."""
    body, needle = REFUSED[name]
    with pytest.raises(TypeError_) as refusal:
        check_program(PRELUDE + body, name=name)
    message, span = refusal.value.message, refusal.value.span
    assert needle in message and not COMPILER_NAME.search(message)
    assert span.source.line_text(span.line).endswith(HERE)


def _scenario_programs():
    """Every checked program a scenario builds (one per group-binding set)."""
    for name in sorted(SCENARIOS):
        network = SCENARIOS[name].build(50, 1).make_network("reference")
        yield from {id(s.runtime.checked): s.runtime.checked
                    for s in network.switches.values()}.values()


def _fuzz_programs(seed, count):
    generator = CaseGenerator(seed)
    return (check_program(generator.generate(i).source) for i in range(count))


#: corpus part -> (its checked programs, at least how many)
CORPUS = {
    "apps": (lambda: (check_program(app.source, name=key)
                      for key, app in ALL_APPLICATIONS.items()), 10),
    "scenarios": (_scenario_programs, len(SCENARIOS)),
    "regressions": (lambda: (check_program(load_case(str(path)).source, name=path.name)
                             for path in (Path(__file__).parent / "regressions").glob("*.json")),
                    18),
    "fuzz-seed0": (lambda: _fuzz_programs(0, 300), 300),
    "fuzz-seed3": (lambda: _fuzz_programs(3, 120), 120),
}


def _both_p4_styles(checked):
    """The lucid and naive P4 of ``checked`` however many stages it needs:
    ``compile_program`` would refuse the fuzz programs the Tofino cannot hold."""
    layout = compile_checked(checked).layout
    naive = build_layout(checked.info, checked.normalized, options=MergeOptions(optimize=False))
    return (generate_p4(checked.info, layout, style="lucid"),
            generate_p4(checked.info, naive, style="naive"))


@pytest.mark.parametrize("part", CORPUS)
def test_every_checked_program_in_the_corpus_compiles_to_both_p4_styles(part):
    """A program that checks compiles (the refused shapes are above)."""
    programs, at_least = CORPUS[part]
    printed = [_both_p4_styles(checked) for checked in programs()]
    assert len(printed) >= at_least
    assert all(lucid.full_text() and naive.full_text() for lucid, naive in printed)


def test_one_checked_program_is_inlined_once_per_handler(monkeypatch):
    """Checking inlines; codegen, pisa and both P4 styles reuse its result."""
    inlined = []
    inline_handler = Inliner.inline_handler
    monkeypatch.setattr(Inliner, "inline_handler",
                        lambda self, handler: inlined.append(handler.name)
                        or inline_handler(self, handler))
    checked = check_program(ALL_APPLICATIONS["SFW"].source, name="SFW")
    for engine in ("codegen", "pisa"):
        Network(engine=engine).add_switch(0, checked)
    _both_p4_styles(checked)
    assert sorted(inlined) == sorted(checked.info.handlers)


# ---------------------------------------------------------------------------
# expressed: shapes a reproducer file cannot hold
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_an_extern_call_yields_its_result_on_every_engine(engine):
    source = """
    extern fun int probe(int v);
    event e(int v);
    handle e(int v) { int x = probe(v); printf(x); probe(x + 1); }
    """
    checked = check_program(source, name="extern")
    calls = []
    externs = {"probe": lambda v: calls.append(v) or v * 3}
    assert _run(checked, engine, [("e", (14,))], externs)[1] == [["42"]]
    assert calls == [14, 43]
    assert _run(checked, engine, [("e", (14,))])[1] == [["0"]]     # unbound: 0


def test_the_count_min_sketch_wraps_its_epoch_on_every_engine():
    checked = check_program(ALL_APPLICATIONS["CM"].source, name="CM")
    generated = {}
    for engine in ENGINE_NAMES:
        trace, _, _ = _run(checked, engine, [("export_cell", (1023,))])
        generated[engine] = [ev.name for ev in trace[0][3].generated]
    assert generated["reference"] == ["cell_record", "bump_epoch", "export_cell"]
    assert generated["codegen"] == generated["pisa"] == generated["reference"]


# ---------------------------------------------------------------------------
# codegen is the stage plan without stages
# ---------------------------------------------------------------------------
CONTROL = re.compile(r"(if|elif) .*:|else:|pass|def _h_\w+\(_args\):|return .*")


def _handler_lines(source):
    """The lines of every ``_h_<event>`` in a dump, stripped."""
    body = source[source.index("def _h_"):source.rindex("    return {")]
    return [line.strip() for line in body.split("\n") if line.strip()]


def _is_prologue(line):
    """The argument check, a parameter bind, or an effect local's initial value."""
    return (line.startswith(("if len(_args)", "raise _IE(\"event '"))
            or re.fullmatch(r"v_\w+ = int\(_args\[\d+\]\)", line)
            or re.fullmatch(r"_(gen|prints|drop|fwd|flood) = (\[\]|False|None)", line))


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_every_statement_codegen_prints_is_a_line_of_the_stage_plan(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)
    module = dump_program_source(checked)
    plan = lower_layout(compile_checked(checked)).source
    # the plan's own: a table's name after its path condition, and the uid
    # tagging an effect that data-flow reordering may have moved
    plan_lines = {re.sub(r"\.append\(\(\d+, (.*)\)\)$", r".append(\1)", line)
                  for line in _handler_lines(plan)}
    statements = [line for line in _handler_lines(module)
                  if not CONTROL.fullmatch(line) and not _is_prologue(line)]
    assert len(statements) > 3
    assert [line for line in statements if line not in plan_lines] == []
    # and no lowering of its own is left in the text
    for gone in ("_UNDEF", "_chk(", "_undef(", "_resolve(", ".locate(", ".delay(", "while True"):
        assert gone not in module


# ---------------------------------------------------------------------------
# the midend copies what it rewrites
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", ["SFW", "DNS"])  # the two apps that inline most
def test_inliner_and_normaliser_leave_their_input_alone(key):
    info = check_program(ALL_APPLICATIONS[key].source, name=key).info
    handlers, functions = copy.deepcopy((info.handlers, info.functions))
    assert functions and any(
        info.is_function(call.func)
        for decl in handlers.values() for stmt in ast.walk_stmts(decl.body)
        for expr in ast.stmt_exprs(stmt) for call in ast.expr_calls(expr))
    first = normalize_program(info)
    second = normalize_program(info)
    assert info.handlers == handlers and info.functions == functions
    assert first == second and first.keys() == info.handlers.keys()
