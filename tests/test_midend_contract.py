"""One midend, express or refuse.

``codegen`` and ``pisa`` (and the P4) start from the same
:class:`~repro.midend.normalize.NormalizedHandler`.  This file pins the
contract that makes that safe: the midend lowers a handler to exactly what
the tree walker computes, or refuses it with a ``TypeError_`` naming the
construct — which ``compile_checked`` raises and ``codegen`` turns into a
counted, explained tree-walker fallback.  Shapes the midend *fixed* live in
``tests/regressions/`` (replayed on all three engines); the shapes it
*refuses* are below, with the codegen module read as the stage plan without
stages.
"""

import copy
import re

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import CompilerOptions, compile_checked
from repro.errors import TypeError_
from repro.frontend import ast, check_program
from repro.fuzz.gen import CaseGenerator
from repro.interp.codegen import compile_program, dump_program_source
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.midend.normalize import normalize_program
from repro.obs import REGISTRY, disable, enable
from repro.pisa.pipeline import lower_layout


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
# refused: a TypeError_ naming the construct, a counted fallback = reference
# ---------------------------------------------------------------------------
PRELUDE = """
const int C = 7;
const group PAIR = {1, 2};
global t = new Array<<32>>(4);
event e(int v);
event g(int v);
handle g(int v) { printf(v); }
"""

#: name -> (declarations + ``handle e``, what the refusal must say)
REFUSED = {
    # (c) a callee local declared in an arm shadows a constant: the tree
    # walker reads the local on one path, the constant on the other
    "callee-local-unassigned-on-a-path": (
        "fun int f(int a) { if (a == 1) { int C = 99; } return C; }"
        "handle e(int v) { printf(f(v)); }",
        "can be read on a path that has not assigned it"),
    # (d) an event-typed local re-bound in an arm: its value depends on the path
    "event-local-rebound-in-an-arm": (
        "handle e(int v) { event out = g(v); if (v == 1) { out = Event.delay(out, 5000); }"
        " generate out; }",
        "'out' is re-bound in a branch arm"),
    "group-local-rebound-in-an-arm": (
        "handle e(int v) { auto where = PAIR; if (v == 1) { where = {0}; }"
        " generate Event.locate(g(v), where); }",
        "'where' is re-bound in a branch arm"),
    "local-shadows-a-constant": (
        "fun int f() { return C; } handle e(int v) { int C = 99; printf(C); printf(f()); }",
        "local 'C' shadows a constant"),
    "event-printed": (
        "handle e(int v) { event held = g(v); printf(held); }",
        "'held' is an event, group or array"),
    "group-printed": (
        "handle e(int v) { printf(PAIR); }",
        "'PAIR' is an event, group or array"),
    "array-held-in-a-local": (
        "handle e(int v) { auto arr = t; Array.set(arr, 0, v); printf(arr); }",
        "'t' is an event, group or array"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_a_refused_shape_is_named_counted_and_runs_as_the_reference(name):
    body, needle = REFUSED[name]
    checked = check_program(PRELUDE + body, name=name)
    with pytest.raises(TypeError_) as refusal:
        compile_checked(checked, CompilerOptions(emit_p4=False))
    assert needle in refusal.value.message
    module = compile_program(checked)
    assert module.fallback_names == ["e"] and module.handler_names == ["g"]
    assert needle in module.fallback_reasons["e"]
    assert f"# fallback e: {module.fallback_reasons['e']}\n" in module.source
    assert "def _h_e(" not in module.source
    events = [("e", (0,)), ("e", (1,))]
    reference = _run(checked, "reference", events, switches=3)
    assert reference[1][0]                       # it printed something
    assert _run(checked, "codegen", events, switches=3) == reference


def test_fallback_handlers_are_counted_by_reason_once_per_module():
    body, needle = REFUSED["event-printed"]
    checked = check_program(PRELUDE + body + "event counted();", name="counted")
    REGISTRY.reset()
    enable()
    try:
        network = Network(engine="codegen")
        switches = [network.add_switch(sid, checked) for sid in range(3)]
        reason = switches[0].interpreter.module.fallback_reasons["e"]
        assert needle in reason
        # at module compile time, not per switch and not per event
        assert REGISTRY.value("repro_engine_codegen_fallback_handlers_total", [reason]) == 1
        network.inject(0, EventInstance("e", (1,)))
        network.run()
        assert REGISTRY.value("repro_engine_codegen_fallback_handlers_total", [reason]) == 1
        assert REGISTRY.value("repro_engine_codegen_fallbacks_total") == 1
    finally:
        disable()
        REGISTRY.reset()
    assert [s.interpreter.fallback_handler_names for s in switches] == [["e"]] * 3


def test_zero_fallbacks_over_the_fuzzers_first_200_cases():
    """Refusals are for shapes no app and no generated program has (the apps:
    ``test_bundled_apps_lower_without_fallback``)."""
    generator = CaseGenerator(0)
    handlers = 0
    for index in range(200):
        checked = check_program(generator.generate(index).source)
        assert compile_program(checked).fallback_reasons == {}, index
        handlers += len(checked.info.handlers)
    assert handlers > 300


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
    plan = lower_layout(compile_checked(checked, CompilerOptions(emit_p4=False))).source
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
