"""Syntactic validation of memops (Section 4.2, Appendix C).

A memop is a function that must compile to *one* stateful-ALU instruction.
The paper defines three syntactic constraints:

1. the body is either a single ``return`` statement, or an ``if`` statement
   with exactly one ``return`` in each branch;
2. each variable is used at most once per expression; and
3. only ALU-supported operators are used.

Two further rules fall out of the uniform-memop design discussed in
Appendix C (every memop must be usable in *any* Array method, including
``Array.update`` which packs two memops into one sALU instruction):

4. a memop takes exactly two parameters — the stored (memory) value first and
   one value of local state second; and
5. conditions must be *simple* comparisons (no ``&&`` / ``||`` compound
   conditions), because a compound condition is only legal in some Array
   methods.

Violations are reported as :class:`~repro.errors.MemopError` with the exact
span of the offending construct, reproducing the paper's "source-level error
messages point out exactly where any such mistakes occur".

A memop that passes comes out as its :class:`MemopShape` — the condition
and the returned values, each constant folded to its value — which
:func:`~repro.frontend.type_checker.check_program` keeps on
:attr:`ProgramInfo.memop_shapes`.  Everything downstream — the interpreter's
closure, the engines' source template, the P4 printer — reads that shape
(:func:`memop_shape` looks it up) and spells it with
:meth:`MemopShape.render`, so this module is the one place that takes a
memop body apart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import InterpError, MemopError
from repro.frontend import ast
from repro.frontend.const_eval import ConstEnv
from repro.frontend.symbols import ProgramInfo
from repro.ops import BINOPS, OpKind, binops

#: whether a name may be read in the memop being checked
Scope = Callable[[str], bool]

#: how a printer spells ``left op right``, over its operands' text
Spelling = Callable[[ast.BinOp, str, str], str]


class MemopShape(NamedTuple):
    """A checked memop body: ``return value;`` when ``cond`` is ``None``,
    else ``if (cond) { return value; } else { return orelse; }`` with
    ``cond`` one comparison.  Its
    expressions are what :func:`check_memop` admits, with every constant
    folded to an :class:`~repro.frontend.ast.EInt`: integer literals, the
    two parameters, and one operator over those."""

    name: str
    stored: str  # the parameter bound to the cell's old value
    local: str  # the parameter bound to the call's argument
    cond: Optional[ast.Expr]
    value: ast.Expr
    orelse: Optional[ast.Expr]

    def render(self, spell: Spelling, stored: str,
               local: str) -> Tuple[Optional[str], str, Optional[str]]:
        """``(cond, value, orelse)`` as text, each parameter written as
        ``stored`` / ``local`` and each operator as ``spell`` writes it."""

        def text(expr: ast.Expr) -> str:
            if isinstance(expr, ast.EBinary):
                return spell(expr.op, text(expr.left), text(expr.right))
            if isinstance(expr, ast.EVar):
                return stored if expr.name == self.stored else local
            return str(expr.value)

        return (None if self.cond is None else text(self.cond), text(self.value),
                None if self.orelse is None else text(self.orelse))


def check_memop(memop: ast.DMemop, consts: Optional[ConstEnv] = None) -> MemopShape:
    """Validate one memop declaration into its :class:`MemopShape`; raise
    :class:`MemopError` on failure.  Its body may read its two parameters
    and the constants of ``consts`` (the built-in ones when omitted)."""
    consts = ConstEnv() if consts is None else consts
    _check_params(memop)
    stored, local = (p.name for p in memop.params)

    def scope(name: str) -> bool:
        return name in (stored, local) or name in consts

    def folded(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.EBinary):
            return ast.EBinary(expr.span, expr.op, folded(expr.left), folded(expr.right))
        if isinstance(expr, ast.EBool):
            return ast.EInt(expr.span, int(expr.value))
        if isinstance(expr, ast.EVar) and expr.name not in (stored, local):
            return ast.EInt(expr.span, consts.lookup(expr.name))
        return expr

    body = memop.body
    if len(body) == 1 and isinstance(body[0], ast.SReturn):
        value = folded(_check_return(body[0], scope))
        return MemopShape(memop.name, stored, local, None, value, None)
    if len(body) == 1 and isinstance(body[0], ast.SIf):
        cond, value, orelse = map(folded, _check_if_body(body[0], scope))
        return MemopShape(memop.name, stored, local, cond, value, orelse)
    span = memop.body[0].span if memop.body else memop.span
    raise MemopError(
        f"memop '{memop.name}' body must be a single return statement or an if "
        "statement with one return in each branch",
        span,
    )


def check_all_memops(program: ast.Program,
                     consts: Optional[ConstEnv] = None) -> Dict[str, MemopShape]:
    """Validate every memop declared in ``program``: name -> shape."""
    return {memop.name: check_memop(memop, consts) for memop in program.memops()}


def memop_shape(info: ProgramInfo, name: str) -> MemopShape:
    """The shape :func:`~repro.frontend.type_checker.check_program` kept for
    memop ``name``."""
    shape = info.memop_shapes.get(name)
    if shape is None:
        raise InterpError(f"no memop named '{name}'")
    return shape


# ---------------------------------------------------------------------------
# rule 4: exactly two parameters, stored value first
# ---------------------------------------------------------------------------
def _check_params(memop: ast.DMemop) -> None:
    if len(memop.params) != 2:
        raise MemopError(
            f"memop '{memop.name}' must take exactly two parameters (the stored "
            f"memory value and one local value), found {len(memop.params)}; "
            "reading more than one piece of local state cannot fit in a single "
            "stateful ALU when used with Array.update",
            memop.span,
        )
    for param in memop.params:
        if not isinstance(param.ty, ast.TInt):
            raise MemopError(
                f"memop parameter '{param.name}' must be an int (stateful ALUs "
                "operate on integer register cells)",
                param.span,
            )
    if memop.params[0].name == memop.params[1].name:
        raise MemopError(
            f"memop '{memop.name}' declares both parameters with the same name "
            f"'{memop.params[0].name}'; the stored value would be inaccessible",
            memop.params[1].span,
        )


# ---------------------------------------------------------------------------
# rule 1: body shape
# ---------------------------------------------------------------------------
def _check_if_body(stmt: ast.SIf, scope: Scope) -> Tuple[ast.Expr, ast.Expr, ast.Expr]:
    """``(cond, then value, else value)`` of a checked ``if`` body."""
    _check_condition(stmt.cond, scope)
    values = []
    for branch_name, branch in (("then", stmt.then_body), ("else", stmt.else_body)):
        if len(branch) != 1 or not isinstance(branch[0], ast.SReturn):
            span = branch[0].span if branch else stmt.span
            raise MemopError(
                f"the {branch_name}-branch of a memop's if statement must contain "
                "exactly one return statement",
                span,
            )
        values.append(_check_return(branch[0], scope))
    return stmt.cond, values[0], values[1]


def _check_return(stmt: ast.SReturn, scope: Scope) -> ast.Expr:
    """The value a checked ``return`` statement returns."""
    if stmt.value is None:
        raise MemopError("a memop must return a value", stmt.span)
    _check_value_expr(stmt.value, scope)
    return stmt.value


# ---------------------------------------------------------------------------
# rules 2, 3, 5: expression restrictions
# ---------------------------------------------------------------------------
def _check_condition(cond: ast.Expr, scope: Scope) -> None:
    """Conditions must be a single comparison between two sides that are
    each what a return value may be."""
    kind = BINOPS[cond.op].kind if isinstance(cond, ast.EBinary) else None
    if kind is OpKind.LOGICAL:
        raise MemopError(
            "compound conditional expressions (&&, ||) are not allowed in memops: "
            "an Array.update call packs two memops into one stateful ALU and "
            "cannot also evaluate a compound condition",
            cond.span,
        )
    _check_variables(cond, scope)
    if kind is not OpKind.COMPARISON:
        raise MemopError(
            "a memop condition must be a single comparison between the stored value, "
            "the local argument, or constants",
            cond.span,
        )
    _check_value_expr_rec(cond.left, depth=0)
    _check_value_expr_rec(cond.right, depth=0)


def _check_value_expr(expr: ast.Expr, scope: Scope) -> None:
    """Returned values must be evaluable by the sALU arithmetic unit."""
    _check_variables(expr, scope)
    _check_value_expr_rec(expr, depth=0)


def _check_value_expr_rec(expr: ast.Expr, depth: int) -> None:
    if isinstance(expr, (ast.EInt, ast.EBool, ast.EVar)):
        return
    if isinstance(expr, ast.EBinary):
        if BINOPS[expr.op].kind is not OpKind.SALU_ARITHMETIC:
            supported = " ".join(op.value for op in binops(OpKind.SALU_ARITHMETIC))
            raise MemopError(
                f"operator '{expr.op.value}' is not supported by the stateful ALU "
                f"(supported: {supported})",
                expr.span,
            )
        if depth >= 1:
            raise MemopError(
                "memop return expressions may apply at most one arithmetic "
                "operator (a single stateful-ALU instruction)",
                expr.span,
            )
        _check_operand(expr.left)
        _check_operand(expr.right)
        _check_value_expr_rec(expr.left, depth + 1)
        _check_value_expr_rec(expr.right, depth + 1)
        return
    if isinstance(expr, ast.ECall):
        raise MemopError("function calls are not allowed inside memops", expr.span)
    if isinstance(expr, ast.EUnary):
        raise MemopError(
            f"unary operator '{expr.op.value}' is not supported inside memops", expr.span
        )
    raise MemopError("expression is too complex for a stateful ALU", expr.span)


def _check_operand(expr: ast.Expr) -> None:
    # a nested binary is left to the depth check in _check_value_expr_rec
    if isinstance(expr, (ast.EInt, ast.EBool, ast.EVar, ast.EBinary)):
        return
    raise MemopError(
        "memop operands must be the stored value, the local argument, or constants",
        expr.span,
    )


def _check_variables(expr: ast.Expr, scope: Scope) -> None:
    """Every variable is in scope — a stateful ALU reads the cell, one local
    value and immediates, nothing else — and (rule 2) used at most once per
    expression."""
    counts: Dict[str, List[ast.EVar]] = {}
    for sub in ast.walk_expr(expr):
        if isinstance(sub, ast.EVar):
            if not scope(sub.name):
                raise MemopError(
                    f"'{sub.name}' is neither a parameter of the memop nor a declared constant",
                    sub.span,
                )
            counts.setdefault(sub.name, []).append(sub)
    for name, uses in counts.items():
        if len(uses) > 1:
            raise MemopError(
                f"variable '{name}' is used {len(uses)} times in one expression; "
                "a stateful ALU can read each operand only once",
                uses[1].span,
            )
