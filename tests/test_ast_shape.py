"""The AST's shape is written down once, in :mod:`repro.frontend.ast`.

Its traversal (``walk_stmts``, ``stmt_exprs``, ``walk_expr``) must reach
exactly the nodes that a walk of every dataclass field reaches, and the
shrinker, which addresses expressions through it, must be able to simplify
each of them.  An empty statement ``;`` is no node at all: a program holding
some compiles and runs exactly like the same program without them.
"""

import pytest

from ast_golden_recorder import sources
from repro.backend import compile_program
from repro.core import check_program
from repro.frontend import ast, parse_program
from repro.frontend.unparse import unparse
from repro.fuzz.case import FuzzCase
from repro.fuzz.diff import run_differential
from repro.fuzz.shrink import _mutations
from repro.interp.engine import ENGINE_NAMES

#: every bundled program, the regression corpus and fuzz seed 0 cases 0-99
PROGRAMS = sources()


def _field_walk(node, out, slot=None):
    """Append ``(node, slot)`` for every expression and statement below
    ``node``, pre-order, found by walking each node's dataclass fields — not
    the traversal under test.  ``slot`` is ``(holder, key)``: where ``node``
    is held, a list index or an attribute name."""
    if isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            _field_walk(item, out, (node, index))
    elif isinstance(node, (ast.Expr, ast.Stmt, ast.Decl)):
        if not isinstance(node, ast.Decl):
            out.append((node, slot))
        for name, value in vars(node).items():
            if name != "span":
                _field_walk(value, out, (node, name))
    return out


def _shared_walk(decl):
    """The same nodes through :mod:`repro.frontend.ast`'s traversal: a
    declaration's own expression (a constant's value, an array's size), then
    its body's statements, each followed by its expressions."""
    out = [sub for value in vars(decl).values() if isinstance(value, ast.Expr)
           for sub in ast.walk_expr(value)]
    for stmt in ast.walk_stmts(getattr(decl, "body", [])):
        out.append(stmt)
        out.extend(sub for root in ast.stmt_exprs(stmt) for sub in ast.walk_expr(root))
    return out


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_the_shared_traversal_reaches_every_field_node(label):
    for decl in parse_program(PROGRAMS[label]).decls:
        expected = [node for node, _ in _field_walk(decl, [])]
        assert [id(node) for node in _shared_walk(decl)] == [id(node) for node in expected], (
            decl.name)


@pytest.mark.parametrize("label", sorted(
    label for label in PROGRAMS if label.startswith(("app:", "regression:"))))
def test_the_shrinker_can_simplify_every_expression(label):
    """Every expression in a handler or ``fun`` body (the statements the
    shrinker addresses) that is not already the literal 0 or 1 is offered
    as the literal 0 (over the bundled apps and the regression corpus; the
    fuzz cases would take ten times as long)."""
    program = parse_program(PROGRAMS[label])
    offered = {candidate.source for candidate in _mutations(FuzzCase(source=PROGRAMS[label]))}
    missed = []
    for decl_index, decl in enumerate(program.decls):
        if not isinstance(decl, (ast.DHandler, ast.DFun)):
            continue
        for k, (node, _) in enumerate(_field_walk(decl, [])):
            if not isinstance(node, ast.Expr) or (
                    isinstance(node, ast.EInt) and node.value in (0, 1)):
                continue
            mutated = ast.clone(program)
            live, (holder, key) = _field_walk(mutated.decls[decl_index], [])[k]
            zero = ast.EInt(span=live.span, value=0)
            if isinstance(holder, list):
                holder[key] = zero
            else:
                setattr(holder, key, zero)
            if unparse(mutated) not in offered:
                missed.append((decl.name, k, type(node).__name__))
    assert missed == []


WITH_EMPTY_STATEMENTS = """
const int K = 3;
global hits = new Array<<32>>(8);
global counts = new Array<<32>>(8);
global seen = new Array<<32>>(8);
memop plus(int stored, int x) { ; return stored + x; }
fun int twice(int v) { ; return v + v; ; }
event pkt(int a, int b);
handle pkt(int a, int b) {
  ;
  int t = twice(a);
  if (t > K) ; else Array.set(hits, 1, t);
  if (b == 2) int u = Array.update(counts, 2, plus, 1, plus, 1); else ;
  match (b) with
  | 0 -> { ; Array.set(seen, 0, t); }
  | 1 -> { ; }
  | _ -> { Array.set(seen, 1, b); ; }
  ;
}
"""

WITHOUT = """
const int K = 3;
global hits = new Array<<32>>(8);
global counts = new Array<<32>>(8);
global seen = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
fun int twice(int v) { return v + v; }
event pkt(int a, int b);
handle pkt(int a, int b) {
  int t = twice(a);
  if (t > K) { } else { Array.set(hits, 1, t); }
  if (b == 2) { int u = Array.update(counts, 2, plus, 1, plus, 1); }
  match (b) with
  | 0 -> { Array.set(seen, 0, t); }
  | 1 -> { }
  | _ -> { Array.set(seen, 1, b); }
}
"""


def test_an_empty_statement_is_no_statement():
    with_empty, without = parse_program(WITH_EMPTY_STATEMENTS), parse_program(WITHOUT)
    assert repr(with_empty.decls) == repr(without.decls)
    assert (repr(check_program(WITH_EMPTY_STATEMENTS).normalized)
            == repr(check_program(WITHOUT).normalized))
    assert compile_program(WITH_EMPTY_STATEMENTS).p4 == compile_program(WITHOUT).p4
    events = [(i * 1_000, 0, "pkt", (a, b)) for i, (a, b) in enumerate(
        [(0, 0), (1, 1), (2, 2), (5, 0), (1, 2), (0, 1), (3, 7)])]
    digests = []
    for source in (WITH_EMPTY_STATEMENTS, WITHOUT):
        outcome = run_differential(FuzzCase(source=source, events=events), engines=ENGINE_NAMES)
        assert outcome.ok, outcome.summary()
        digests.append({engine: result.digest for engine, result in outcome.results.items()})
    assert digests[0] == digests[1] and set(digests[0]) == set(ENGINE_NAMES)
    assert len(set(digests[0].values())) == 1
