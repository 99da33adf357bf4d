"""Compile-time constant evaluation.

Lucid programs size their global arrays with ``const`` declarations (and
``symbolic size`` placeholders bound by the harness).  This module folds
constant expressions, resolves the ``size`` of every ``global`` declaration,
and builds the constant environment that later phases (type checker,
interpreter, backend) consult.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConstError
from repro.frontend import ast
from repro.ops import BINOPS, apply_binop, apply_unop
from repro.records import field, record

#: the most cells one register array may have: one stage's register SRAM
#: (the Tofino resource model's per-stage default, in 32-bit words)
STAGE_REGISTER_CELLS = 128 * 1024


#: Built-in constants available to every program.  ``SELF`` is the switch's
#: own location and is bound at runtime; it still needs a compile-time stand-in
#: so constant folding of unrelated expressions does not fail.
BUILTIN_CONSTS: Dict[str, int] = {
    "TCP": 6,
    "UDP": 17,
    "ICMP": 1,
    "DNS_PORT": 53,
    "RECIRC_PORT": 196,
}


@record
class ConstEnv:
    """A resolved mapping from constant names to integer values."""

    values: Dict[str, int] = field(default_factory=dict)
    groups: Dict[str, list] = field(default_factory=dict)

    def lookup(self, name: str) -> Optional[int]:
        if name in self.values:
            return self.values[name]
        return BUILTIN_CONSTS.get(name)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None


def eval_const_expr(expr: ast.Expr, env: ConstEnv) -> int:
    """Evaluate ``expr`` to an integer using only compile-time information,
    in the engines' 32-bit arithmetic (:mod:`repro.ops`): a constant means
    what its expression computes at runtime.  Refused: a name that is not a
    constant, and a zero divisor."""
    if isinstance(expr, ast.EInt):
        return expr.value
    if isinstance(expr, ast.EBool):
        return 1 if expr.value else 0
    if isinstance(expr, ast.EVar):
        value = env.lookup(expr.name)
        if value is None:
            raise ConstError(f"'{expr.name}' is not a compile-time constant", expr.span)
        return value
    if isinstance(expr, ast.EUnary):
        return apply_unop(expr.op, eval_const_expr(expr.operand, env))
    if isinstance(expr, ast.EBinary):
        left = eval_const_expr(expr.left, env)
        right = eval_const_expr(expr.right, env)
        if right == 0 and BINOPS[expr.op].divides:
            raise ConstError(
                f"division by zero ('{expr.op.value}') in constant expression", expr.span
            )
        return apply_binop(expr.op, left, right)
    raise ConstError("expression is not a compile-time constant", expr.span)


def build_const_env(
    program: ast.Program,
    symbolic_bindings: Optional[Dict[str, int]] = None,
) -> ConstEnv:
    """Fold all ``const`` and ``symbolic`` declarations of ``program``.

    ``symbolic_bindings`` lets a harness override the default value of
    ``symbolic size`` declarations (e.g. to sweep table sizes in benchmarks).
    A ``const group`` records its literal's members in :attr:`ConstEnv.groups`
    and is no integer constant: a switch may bind other members
    (:class:`~repro.interp.interpreter.SwitchRuntime`), as a Tofino's control
    plane writes a multicast group's members into the replication engine.
    """
    env = ConstEnv()
    bindings = symbolic_bindings or {}
    for decl in program.decls:
        if isinstance(decl, ast.DSymbolic):
            env.values[decl.name] = bindings.get(decl.name, decl.default)
        elif isinstance(decl, ast.DConst):
            if isinstance(decl.ty, ast.TGroup):
                if not isinstance(decl.value, ast.EGroup):
                    raise ConstError(
                        f"group constant '{decl.name}' must be initialised with a group literal",
                        decl.span,
                    )
                env.groups[decl.name] = [eval_const_expr(m, env) for m in decl.value.members]
            else:
                env.values[decl.name] = eval_const_expr(decl.value, env)
    return env


def resolve_global_sizes(program: ast.Program, env: ConstEnv) -> None:
    """Fill in the ``size`` field of every global declaration, in place.  An
    array lives in one stage, so it may not outgrow that stage's SRAM."""
    for decl in program.globals():
        size = eval_const_expr(decl.size_expr, env)
        if size <= 0:
            raise ConstError(
                f"global '{decl.name}' has non-positive size {size}", decl.span
            )
        if size > STAGE_REGISTER_CELLS:
            raise ConstError(
                f"global '{decl.name}' has {size} cells, more than the "
                f"{STAGE_REGISTER_CELLS} of one stage's register SRAM",
                decl.span,
            )
        decl.size = size
