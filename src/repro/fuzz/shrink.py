"""Greedy shrinking of failing fuzz cases into minimal reproducers.

The shrinker parses the case's source back into an AST and repeatedly tries
semantics-shrinking mutations — drop an injection, drop a statement, unwrap
a branch into its body, simplify an expression to one of its operands or a
small literal, drop a whole declaration, collapse the topology to one
switch — keeping a mutation only when the mutated case (a) still passes the
type checker (the same validity oracle the generator uses) and (b) still
fails the caller-supplied predicate (normally "the engines still diverge").
Mutations are ordered coarse-to-fine and the loop runs to a fixpoint, so
the survivor is 1-minimal with respect to the mutation set: removing any
single remaining piece either breaks the program or makes the bug
disappear.

A statement is addressed by its declaration index, a descent of block
steps and its index in the block it ends in; a block step is (statement
index, index into :func:`~repro.frontend.ast.child_blocks` of that
statement).  An expression is addressed by its statement's address and its
index in the pre-order walk of that statement's expressions.  Both orders
are :mod:`repro.frontend.ast`'s, so every expression and every nested block
the AST has is reachable.  Every candidate is produced by resolving an
address against a fresh :func:`~repro.frontend.ast.clone` — the working AST
is never mutated in place.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.errors import LucidError
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.type_checker import check_program
from repro.frontend.unparse import unparse
from repro.fuzz.case import FuzzCase


def _checks(case: FuzzCase) -> bool:
    try:
        check_program(case.source)
    except LucidError:
        return False
    return True


def _with_program(case: FuzzCase, program: ast.Program) -> FuzzCase:
    return dataclasses.replace(case, source=unparse(program))


# ---------------------------------------------------------------------------
# addressing
# ---------------------------------------------------------------------------
#: one descent step: (statement index, child-block index)
_Step = Tuple[int, int]
#: a statement address: (decl index, descent steps, index in final block)
_Addr = Tuple[int, Tuple[_Step, ...], int]


def _block_addresses(
    decl_index: int, steps: Tuple[_Step, ...], block: Sequence[ast.Stmt]
) -> Iterator[_Addr]:
    for i, stmt in enumerate(block):
        yield (decl_index, steps, i)
        for k, body in enumerate(ast.child_blocks(stmt)):
            yield from _block_addresses(decl_index, steps + ((i, k),), body)


def _stmt_addresses(program: ast.Program) -> List[_Addr]:
    out: List[_Addr] = []
    for decl_index, decl in enumerate(program.decls):
        if isinstance(decl, (ast.DHandler, ast.DFun)):
            out.extend(_block_addresses(decl_index, (), decl.body))
    return out


def _resolve_block(program: ast.Program, decl_index: int, steps: Tuple[_Step, ...]) -> List[ast.Stmt]:
    block: List[ast.Stmt] = program.decls[decl_index].body  # type: ignore[union-attr]
    for index, arm in steps:
        block = ast.child_blocks(block[index])[arm]
    return block


def _stmt_expr_walk(stmt: ast.Stmt) -> List[ast.Expr]:
    """Every expression of ``stmt`` (not of its nested blocks), pre-order:
    an expression's address within its statement is its index here."""
    return [sub for root in ast.stmt_exprs(stmt) for sub in ast.walk_expr(root)]


def _replace_expr(stmt: ast.Stmt, target: int, value: ast.Expr) -> None:
    """Put ``value`` in place of the ``target``-th expression of
    :func:`_stmt_expr_walk`."""
    order = itertools.count()

    def visit(expr: ast.Expr) -> ast.Expr:
        if next(order) == target:
            return value
        ast.map_subexprs(expr, visit)
        return expr

    ast.map_subexprs(stmt, visit)


def _replacements_for(expr: ast.Expr) -> List[ast.Expr]:
    """Smaller expressions a given expression may shrink to."""
    out = ast.subexprs(expr)
    if not (isinstance(expr, ast.EInt) and expr.value in (0, 1)):
        out.append(ast.EInt(span=expr.span, value=0))
        out.append(ast.EInt(span=expr.span, value=1))
    return out


# ---------------------------------------------------------------------------
# the mutation stream (coarse to fine)
# ---------------------------------------------------------------------------
def _mutations(case: FuzzCase) -> Iterator[FuzzCase]:
    # 1. traffic: drop one injection
    for i in range(len(case.events)):
        yield dataclasses.replace(case, events=case.events[:i] + case.events[i + 1 :])
    # 2. topology: collapse to one switch
    if case.switches > 1:
        yield dataclasses.replace(
            case,
            switches=1,
            links=[],
            events=[(t, 0, n, a) for t, _sid, n, a in case.events],
        )
    # 3. traffic: zero one injection's time / args
    for i, (time_ns, switch_id, name, args) in enumerate(case.events):
        if time_ns != 0:
            events = list(case.events)
            events[i] = (0, switch_id, name, args)
            yield dataclasses.replace(case, events=events)
        if any(args):
            events = list(case.events)
            events[i] = (time_ns, switch_id, name, tuple(0 for _ in args))
            yield dataclasses.replace(case, events=events)
    try:
        program = parse_program(case.source)
    except LucidError:  # pragma: no cover - cases come from unparse
        return
    # 4. drop one whole declaration
    for i in range(len(program.decls)):
        mutated = ast.clone(program)
        del mutated.decls[i]
        yield _with_program(case, mutated)
    addresses = _stmt_addresses(program)
    # 5. drop one statement (anywhere, deepest first so inner noise goes early)
    for decl_index, steps, index in reversed(addresses):
        mutated = ast.clone(program)
        block = _resolve_block(mutated, decl_index, steps)
        del block[index]
        yield _with_program(case, mutated)
    # 6. unwrap a statement with nested blocks into one of them
    for decl_index, steps, index in addresses:
        stmt = _resolve_block(program, decl_index, steps)[index]
        for arm in range(len(ast.child_blocks(stmt))):
            mutated = ast.clone(program)
            block = _resolve_block(mutated, decl_index, steps)
            block[index : index + 1] = ast.child_blocks(block[index])[arm]
            yield _with_program(case, mutated)
    # 7. simplify one expression
    for decl_index, steps, index in addresses:
        stmt = _resolve_block(program, decl_index, steps)[index]
        for target, expr in enumerate(_stmt_expr_walk(stmt)):
            for replacement in _replacements_for(expr):
                mutated = ast.clone(program)
                live = _resolve_block(mutated, decl_index, steps)[index]
                _replace_expr(live, target, ast.clone(replacement))
                yield _with_program(case, mutated)


# ---------------------------------------------------------------------------
# the greedy loop
# ---------------------------------------------------------------------------
def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_evaluations: int = 600,
) -> FuzzCase:
    """Reduce ``case`` while ``still_fails`` keeps returning True.

    ``still_fails`` should re-run the differential check and return whether
    the divergence (or crash) is still present.  Candidates that fail the
    type checker are skipped without consuming an evaluation.  Returns the
    smallest failing case found (the original if nothing could be removed).
    """
    current = case
    evaluations = 0
    improved = True
    while improved and evaluations < max_evaluations:
        improved = False
        for candidate in _mutations(current):
            if evaluations >= max_evaluations:
                break
            if (
                candidate.source == current.source
                and candidate.events == current.events
                and candidate.switches == current.switches
            ):
                continue
            if not _checks(candidate):
                continue
            evaluations += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current
