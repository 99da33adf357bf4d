"""Tests for the mid-end and backend: inlining, normalisation, atomic tables,
path conditions, data-flow reordering, greedy merging, and P4 generation."""

import os
import re
import time

import pytest

from repro.backend import (
    MergeOptions,
    TableKind,
    atomic_tables,
    build_layout,
    compile_checked,
    compile_program,
    count_lucid_loc,
)
from repro.backend.reorder import _conditions_disjoint, build_dataflow_graph
from repro.backend.tables import AtomicTable
from repro.errors import LayoutError
from repro.frontend import check_program
from repro.frontend.ast import BinOp
from repro.fuzz.case import load_case
from repro.interp.events import EventInstance
from repro.interp.network import single_switch_network
from repro.midend import normalize_program
from repro.midend.normalize import Const, NArrayOp, NCond, NGenerate, NIf, NOp, Var
from repro.ops import OpKind, apply_binop, binops
from repro.pisa.pipeline import lower_layout


FIGURE6 = """
const int NUM_HOSTS = 64;
const int NUM_PORTS = 16;
const int NUM_PORTS_X2 = 32;
const int NUM_PORTS_X3 = 48;
global nexthops = new Array<<32>>(NUM_HOSTS);
global pcts = new Array<<32>>(NUM_PORTS_X3);
global hcts = new Array<<32>>(NUM_HOSTS);
memop plus(int cur, int x){return cur + x;}
event count_pkt(int dst, int proto);
handle count_pkt(int dst, int proto) {
  int idx = Array.get(nexthops, dst);
  if (proto != TCP) {
    if (proto == UDP) {
      idx = idx + NUM_PORTS;
    } else {
      idx = idx + NUM_PORTS_X2;
    }
  }
  Array.set(pcts, idx, plus, 1);
  if (proto == TCP) {
    Array.set(hcts, dst, plus, 1);
  }
}
"""


@pytest.fixture(scope="module")
def figure6_compiled():
    return compile_program(FIGURE6, name="figure6")


@pytest.fixture(scope="module")
def figure6_normalized():
    checked = check_program(FIGURE6)
    return checked, normalize_program(checked.info)


# -- normalisation ---------------------------------------------------------------
def test_normalized_handler_has_atomic_statements(figure6_normalized):
    _, normalized = figure6_normalized
    handler = normalized["count_pkt"]
    kinds = {type(s) for s in handler.flat_statements()}
    assert kinds <= {NOp, NArrayOp, NIf, NGenerate} | kinds
    assert len(handler.array_ops()) == 3


def test_normalized_conditions_are_simple(figure6_normalized):
    _, normalized = figure6_normalized
    for stmt in normalized["count_pkt"].flat_statements():
        if isinstance(stmt, NIf):
            assert stmt.cond.op.value in ("==", "!=", "<", ">", "<=", ">=")


def test_function_inlining_removes_calls():
    source = """
    global t0 = new Array<<32>>(8);
    global t1 = new Array<<32>>(8);
    memop plus(int a, int b) { return a + b; }
    fun int bump(Array<<32>> arr, int i) { return Array.get(arr, i, plus, 1); }
    event e(int i);
    handle e(int i) { int v = bump(t0, i); int w = bump(t1, v); }
    """
    checked = check_program(source)
    normalized = normalize_program(checked.info)
    ops = normalized["e"].array_ops()
    assert len(ops) == 2 and {op.array for op in ops} == {"t0", "t1"}


def test_generate_resolution_tracks_delay_and_location():
    source = """
    const group PEERS = {2, 3};
    event ping(int x);
    event pong(int x);
    handle ping(int x) {
      event p = pong(x);
      generate Event.delay(Event.locate(p, 5), 10ms);
      mgenerate Event.locate(pong(x), PEERS);
    }
    """
    checked = check_program(source)
    gens = normalize_program(checked.info)["ping"].generates()
    assert len(gens) == 2
    delayed = gens[0]
    assert delayed.event == "pong"
    assert getattr(delayed.delay, "value", None) == 10_000_000
    assert getattr(delayed.location, "value", None) == 5
    assert gens[1].group == "PEERS" and gens[1].multicast


# -- atomic tables ---------------------------------------------------------------------
def test_table_graph_kinds_and_longest_path(figure6_normalized):
    _, normalized = figure6_normalized
    handler = normalized["count_pkt"]
    tables, depth = atomic_tables(handler)
    kinds = [t.kind for t in tables]
    assert kinds.count(TableKind.MEMORY) == 3
    # an ``if`` takes a uid (its branch table's, in Figure 6(1)) but no table
    flat = handler.flat_statements()
    assert sum(isinstance(s, NIf) for s in flat) >= 2
    assert [(t.uid, t.stmt) for t in tables] == [
        (uid, s) for uid, s in enumerate(flat) if not isinstance(s, NIf)]
    # the longest control path includes the branch tables (unoptimised cost)
    assert depth >= 6


def test_branch_inlining_removes_branch_tables(figure6_normalized):
    _, normalized = figure6_normalized
    ordered, _ = atomic_tables(normalized["count_pkt"])
    assert all(not isinstance(t.stmt, NIf) for t in ordered)
    # the idx adjustments only run on non-TCP paths
    conditional = [t for t in ordered if t.path_conditions]
    assert conditional, "some tables should carry path conditions"


def test_table_after_join_has_no_conditions(figure6_normalized):
    _, normalized = figure6_normalized
    ordered, _ = atomic_tables(normalized["count_pkt"])
    pcts_tables = [t for t in ordered if t.array == "pcts"]
    assert pcts_tables and pcts_tables[0].path_conditions == []


def test_dataflow_graph_orders_raw_dependencies(figure6_normalized):
    _, normalized = figure6_normalized
    ordered, _ = atomic_tables(normalized["count_pkt"])
    dataflow = build_dataflow_graph(ordered)
    raw = [d for d in dataflow.deps if d.kind == "raw"]
    assert raw, "reading idx after writing it must create RAW dependencies"


def test_sibling_if_repeats_enclosing_test_once():
    """A table's path conditions are its enclosing ``if`` chain: a repeat
    survives only where the program nests the same test."""
    case = load_case(os.path.join(
        os.path.dirname(__file__), "regressions", "sibling-if-repeats-enclosing-test.json"))
    handler = normalize_program(check_program(case.source).info)["e"]
    shown = {t.array: [c.show() for c in t.path_conditions]
             for t in atomic_tables(handler)[0]}
    assert shown == {
        "ta": ["h > 0", "h > 0"],  # really nested under the test twice
        "tb": ["h > 0", "h <= 0"],
        "tc": ["h > 0"],  # after the inner if: only the enclosing test
    }


def test_wide_handler_compiles_in_linear_time():
    """24 sequential ``if``s are 2**24 control paths; the layout reads the
    tree and never enumerates them."""
    ifs = "\n".join(f"  if (x == {i}) {{ acc = acc + {i + 1}; }}" for i in range(24))
    source = (
        "global hits = new Array<<32>>(4);\nevent pkt(int x, int y);\n"
        f"handle pkt(int x, int y) {{\n  int acc = y;\n{ifs}\n  Array.set(hits, 0, acc);\n}}\n"
    )
    started = time.perf_counter()
    compiled = compile_program(source, emit_naive_p4=True)
    plan = lower_layout(compiled)
    elapsed = time.perf_counter() - started
    assert compiled.unoptimized_stages() == 1 + 2 * 24 + 1
    assert compiled.p4 is not None and compiled.naive_p4 is not None
    assert len(re.findall(r"_f\d+ = v_x == ", plan.source)) == 24  # each test once, into its flag
    assert elapsed < 2.0, f"compiling and lowering 24 sequential ifs took {elapsed:.2f} s"

    def run(engine):
        network, switch = single_switch_network(compiled.checked, engine=engine)
        for x, y in ((0, 7), (23, 1), (24, 5), (11, 0)):
            network.inject(0, EventInstance("pkt", (x, y)))
            network.run()
        return [switch.array("hits").snapshot(), network.trace]

    assert run("pisa") == run("reference")
    assert run("reference")[0][0] == 0 + 12  # the last event: y = 0, x == 11 adds 12


def test_mutually_exclusive_branches_share_a_stage(figure6_compiled):
    # Figure 6(3): the two idx adjustments are in exclusive branches and the
    # optimised layout needs only 3 stages
    assert figure6_compiled.stages() == 3


# -- layout / optimisation -------------------------------------------------------------
def test_optimized_layout_uses_fewer_stages_than_unoptimized(figure6_compiled):
    assert figure6_compiled.stages() < figure6_compiled.unoptimized_stages()
    assert figure6_compiled.stage_ratio() > 1.0


def test_array_stages_follow_declaration_order(figure6_compiled):
    stages = figure6_compiled.layout.array_stages
    assert stages["nexthops"] <= stages["pcts"]


def test_unoptimized_option_places_one_table_per_stage():
    checked = check_program(FIGURE6)
    normalized = normalize_program(checked.info)
    layout = build_layout(checked.info, normalized, options=MergeOptions(optimize=False))
    assert layout.num_stages() >= layout.total_atomic_tables() - 2  # branch-free tables, 1 per stage


def test_merge_without_reordering_is_worse_or_equal():
    checked = check_program(FIGURE6)
    normalized = normalize_program(checked.info)
    full = build_layout(checked.info, normalized, options=MergeOptions())
    no_reorder = build_layout(checked.info, normalized, options=MergeOptions(reorder=False))
    assert no_reorder.num_stages() >= full.num_stages()


COMPARISONS = binops(OpKind.COMPARISON)


def _table(uid, conditions=(), writes=()):
    return AtomicTable(uid=uid, name=f"t{uid}", kind=TableKind.OPERATION, handler="h",
                       stmt=NOp(), writes=set(writes), path_conditions=list(conditions))


@pytest.mark.parametrize("op2", COMPARISONS, ids=lambda op: op.name)
@pytest.mark.parametrize("op1", COMPARISONS, ids=lambda op: op.name)
def test_conditions_disjoint_is_sound(op1, op2):
    """Brute force over ``x op1 a`` then ``x op2 b``: when the rule lets the
    two tables share a stage, no value may satisfy both tests.  A table that
    writes ``x`` in between (or the first table itself) makes the second test
    one of a new value, so then neither test may be satisfiable at all."""
    values = range(8)
    for a in range(4):
        for b in range(4):
            first = NCond(Var("x"), op1, Const(a))
            second = NCond(Var("x"), op2, Const(b))
            for writer in (None, "first", "between"):
                tables = [
                    _table(0, [first], writes={"x"} if writer == "first" else ()),
                    _table(1, writes={"x"} if writer == "between" else ()),
                    _table(2, [second]),
                ]
                if not _conditions_disjoint(tables, 0, 2):
                    continue
                if writer is None:
                    both = [x for x in values
                            if apply_binop(op1, x, a) and apply_binop(op2, x, b)]
                else:
                    both = [(x, y) for x in values for y in values
                            if apply_binop(op1, x, a) and apply_binop(op2, y, b)]
                assert not both, (
                    f"x {op1.value} {a} and x {op2.value} {b} (writer {writer}) "
                    f"share a stage, yet both hold at {both[0]}"
                )


def test_conditions_disjoint_finds_exclusive_arms():
    """The oracle above is not vacuous: each comparison and its negation, and
    two equalities with different constants, are found exclusive."""
    for op in COMPARISONS:
        tables = [_table(0, [NCond(Var("x"), op, Const(2))]),
                  _table(1, [NCond(Var("x"), op, Const(2)).negate()])]
        assert _conditions_disjoint(tables, 0, 1)
    tables = [_table(0, [NCond(Var("x"), BinOp.EQ, Const(1))]),
              _table(1, [NCond(Var("x"), BinOp.EQ, Const(2))])]
    assert _conditions_disjoint(tables, 0, 1)


def test_stage_limit_enforcement():
    # thirteen dependent additions and the store need 14 stages: the compiler
    # refuses them, and the engines still lower and run them
    chain = "\n".join(f"  int a{i + 1} = a{i} + {i + 1};" for i in range(13))
    source = ("global out = new Array<<32>>(4);\nevent e(int a0);\n"
              f"handle e(int a0) {{\n{chain}\n  Array.set(out, 0, a13);\n}}\n")
    with pytest.raises(LayoutError,
                       match="program 'chain' requires 14 stages but the target provides 12"):
        compile_program(source, name="chain")

    checked = check_program(source, name="chain")
    lowered = compile_checked(checked)
    assert lowered.stages() == 14 and not lowered.layout.fits()
    assert lowered.p4 is None
    cells = {}
    for engine in ("reference", "pisa"):
        network, switch = single_switch_network(checked, engine=engine)
        network.inject(0, EventInstance("e", (5,)))
        network.run()
        cells[engine] = switch.array("out").snapshot()
    assert cells["pisa"] == cells["reference"]
    assert cells["reference"][0] == 5 + sum(range(1, 14))


def test_alu_instructions_per_stage_counts_all_tables(figure6_compiled):
    per_stage = figure6_compiled.alu_instructions_per_stage()
    assert sum(per_stage) == figure6_compiled.layout.total_atomic_tables()
    assert max(per_stage) >= 2  # nexthops_get and hcts_fset share stage 0


# -- P4 generation -----------------------------------------------------------------------
def test_p4_contains_register_per_global(figure6_compiled):
    text = figure6_compiled.p4.full_text()
    for name in ("reg_nexthops", "reg_pcts", "reg_hcts"):
        assert name in text


def test_p4_contains_event_header_and_parser(figure6_compiled):
    text = figure6_compiled.p4.full_text()
    assert "header ev_count_pkt_t" in text
    assert "parse_ev_count_pkt" in text
    assert "event_dispatcher" in text


def test_p4_register_action_reflects_memop(figure6_compiled):
    text = figure6_compiled.p4.full_text()
    assert "RegisterAction" in text and "mem = mem + 1" in text.replace("  ", " ")


def test_p4_line_counts_sum_to_total(figure6_compiled):
    counts = figure6_compiled.p4.line_counts()
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")


def test_naive_p4_is_longer_than_compiler_p4():
    compiled = compile_program(FIGURE6, emit_naive_p4=True)
    assert compiled.naive_p4_loc() >= compiled.p4_loc()


def test_lucid_loc_ignores_comments_and_blank_lines():
    source = "// comment\n\nconst int X = 1;\n/* block\ncomment */\nconst int Y = 2;\n"
    assert count_lucid_loc(source) == 2
