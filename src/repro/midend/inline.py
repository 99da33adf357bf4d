"""Function inlining (the first step of handler compilation, Section 6.1).

Lucid ``fun`` declarations are always inlined into the handlers that call
them: a PISA pipeline has no notion of a call, so every handler must become a
self-contained slice of tables.  Inlining proceeds per call site:

1. every formal parameter becomes a fresh local bound to the actual argument
   (array-typed formals are substituted *syntactically*, because arrays are
   compile-time objects, not runtime values; so is a literal or variable
   argument of a parameter the callee never assigns);
2. the callee body is copied with locals renamed to fresh names;
3. ``return`` statements are rewritten to assign a fresh result variable
   (after a *returnify* pass that pushes trailing statements into the
   non-returning branches, so every return is in tail position); and
4. the call expression is replaced by the result variable.

The pass is applied to innermost calls first and repeats until no user
function calls remain, so functions that call functions are handled.

What an inlined call must keep, because the tree walker — the oracle of
every engine — does: **a callee has one flat scope** (one rename map per
callee body, so a local declared in a branch arm is the same local after
the arm; a path that reads it unassigned is refused by the normaliser's
definite-assignment pass, not given a value); **parameters are by value**
(one the callee assigns is always copied); **a call right of ``&&`` /
``||`` runs only when the left operand does not decide**; and **effects keep
their left-to-right order** (a ``Sys.random`` or extern call left of a
hoisted callee body is bound to a temp ahead of it).
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Set

from repro.errors import TypeError_
from repro.frontend import ast
from repro.frontend.symbols import ProgramInfo
from repro.ops import BINOPS, OpKind
from repro.records import field, record


class FreshNames:
    """Generates fresh variable names that cannot collide with user names."""

    def __init__(self, prefix: str = "_t"):
        self.prefix = prefix
        self.counter = itertools.count()

    def fresh(self, hint: str = "") -> str:
        suffix = f"_{hint}" if hint else ""
        return f"{self.prefix}{next(self.counter)}{suffix}"


# ---------------------------------------------------------------------------
# returnify: push trailing statements into branches so returns are tail-only
# ---------------------------------------------------------------------------
def _match_has_wildcard(stmt: ast.SMatch) -> bool:
    return any(all(v is None for v in pat) for pat, _ in stmt.branches)


def _contains_return(stmts: List[ast.Stmt]) -> bool:
    """True when any path through ``stmts`` contains a return."""
    return any(isinstance(stmt, ast.SReturn) for stmt in ast.walk_stmts(stmts))


def _block_returns(stmts: List[ast.Stmt]) -> bool:
    """True when every path through ``stmts`` ends in a return."""
    for stmt in stmts:
        if isinstance(stmt, ast.SReturn):
            return True
        if isinstance(stmt, ast.SIf):
            if _block_returns(stmt.then_body) and _block_returns(stmt.else_body):
                return True
        if isinstance(stmt, ast.SMatch):
            # exhaustive only with a wildcard arm: integer scrutinees can
            # always miss every literal pattern
            if _match_has_wildcard(stmt) and all(
                _block_returns(body) for _, body in stmt.branches
            ):
                return True
    return False


def returnify(stmts: List[ast.Stmt]) -> List[ast.Stmt]:
    """Rewrite ``stmts`` so that every ``return`` is in tail position.

    ``if (c) { return a; } rest`` becomes ``if (c) { return a; } else { rest }``
    — and, crucially, a branch that only returns on *some* of its paths (for
    example ``if (c) { if (d) { return a; } } rest``) receives ``rest`` and is
    then returnified again, so the c∧d path does not fall through into a
    second copy of ``rest``.  ``match`` statements are treated like ``if``:
    every non-returning arm receives ``rest``, and a wildcard arm is
    synthesised when the patterns are not exhaustive so the fall-through path
    still runs ``rest`` exactly once.
    """
    result: List[ast.Stmt] = []
    for i, stmt in enumerate(stmts):
        if isinstance(stmt, (ast.SIf, ast.SMatch)) and _contains_return([stmt]):
            rest = stmts[i + 1 :]
            if isinstance(stmt, ast.SIf):
                then_body = stmt.then_body
                else_body = stmt.else_body
                if rest and not _block_returns(then_body):
                    then_body = then_body + ast.clone(rest)
                if rest and not _block_returns(else_body):
                    else_body = else_body + ast.clone(rest)
                result.append(
                    ast.SIf(
                        span=stmt.span,
                        cond=stmt.cond,
                        then_body=returnify(then_body),
                        else_body=returnify(else_body),
                    )
                )
            else:
                branches = [(list(pat), body) for pat, body in stmt.branches]
                if rest and not _match_has_wildcard(stmt):
                    branches.append(([None] * len(stmt.scrutinees), []))
                new_branches = []
                for pat, body in branches:
                    if rest and not _block_returns(body):
                        body = body + ast.clone(rest)
                    new_branches.append((pat, returnify(body)))
                result.append(
                    ast.SMatch(span=stmt.span, scrutinees=stmt.scrutinees, branches=new_branches)
                )
            return result
        if isinstance(stmt, ast.SIf):
            result.append(
                ast.SIf(
                    span=stmt.span,
                    cond=stmt.cond,
                    then_body=returnify(stmt.then_body),
                    else_body=returnify(stmt.else_body),
                )
            )
            continue
        if isinstance(stmt, ast.SMatch):
            result.append(
                ast.SMatch(
                    span=stmt.span,
                    scrutinees=stmt.scrutinees,
                    branches=[(list(pat), returnify(body)) for pat, body in stmt.branches],
                )
            )
            continue
        if isinstance(stmt, ast.SReturn):
            result.append(stmt)
            return result  # statements after an unconditional return are dead
        result.append(stmt)
    return result


def eliminate_returns(stmts: List[ast.Stmt]) -> List[ast.Stmt]:
    """Rewrite a handler body so no ``return`` statements remain while
    preserving which statements execute: returnify (every return becomes
    tail-position) and then drop the bare returns.  Handlers may only use
    bare ``return;`` (the type checker rejects value returns), so this loses
    nothing — but without it, normalisation would silently *drop* an early
    return and let the trailing statements run.  ``stmts`` is left as it is
    (``returnify`` builds every block anew)."""
    return _replace_returns(returnify(stmts), None)


# ---------------------------------------------------------------------------
# renaming / substitution helpers
# ---------------------------------------------------------------------------
def _rename_expr(expr: ast.Expr, renames: Dict[str, ast.Expr]) -> ast.Expr:
    """``expr``, rewritten in place, with every renamed variable replaced by
    a copy of what it is renamed to."""
    if isinstance(expr, ast.EVar):
        return ast.clone(renames[expr.name]) if expr.name in renames else expr
    ast.map_subexprs(expr, lambda sub: _rename_expr(sub, renames))
    return expr


def _rename_stmts(stmts: List[ast.Stmt], renames: Dict[str, ast.Expr], fresh: FreshNames) -> None:
    """Substitute ``renames`` in ``stmts`` (in place, in textual order),
    freshening local declarations.  ``renames`` is the callee's one flat
    scope: it grows whatever block declares a name, and a name declared
    twice (or a parameter declared again — :meth:`Inliner._inline_call` has
    copied every parameter the callee writes) stays one local."""
    for stmt in ast.walk_stmts(stmts):
        ast.map_subexprs(stmt, lambda expr: _rename_expr(expr, renames))
        if isinstance(stmt, ast.SLocal) and stmt.name not in renames:
            renames[stmt.name] = ast.EVar(span=stmt.span, name=fresh.fresh(stmt.name))
        if isinstance(stmt, (ast.SLocal, ast.SAssign)):
            target = renames.get(stmt.name)
            stmt.name = target.name if isinstance(target, ast.EVar) else stmt.name


def assigned_names(stmts: List[ast.Stmt]) -> Set[str]:
    """Every name ``stmts`` declare or assign."""
    return {s.name for s in ast.walk_stmts(stmts) if isinstance(s, (ast.SLocal, ast.SAssign))}


def _replace_returns(stmts: List[ast.Stmt], result_var: Optional[str]) -> List[ast.Stmt]:
    """``stmts`` (rewritten in place) with every ``return e;`` assigning
    ``result_var`` — or dropped, when there is no value or no variable."""
    out: List[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.SReturn):
            if stmt.value is not None and result_var is not None:
                out.append(ast.SAssign(span=stmt.span, name=result_var, value=stmt.value))
            continue
        for block in ast.child_blocks(stmt):
            block[:] = _replace_returns(block, result_var)
        out.append(stmt)
    return out


# ---------------------------------------------------------------------------
# the inliner
# ---------------------------------------------------------------------------
@record
class Inliner:
    """Inlines user function calls inside one handler body."""

    info: ProgramInfo
    fresh: FreshNames = field(default_factory=lambda: FreshNames(prefix="_inl"))
    max_depth: int = 64
    #: a callee's local or copied parameter, by its fresh name -> how a
    #: refusal names it: ``'C' of function 'f'``
    origins: Dict[str, str] = field(default_factory=dict)

    def inline_handler(self, handler: ast.DHandler) -> ast.DHandler:
        self._check_names(assigned_names(handler.body) | {p.name for p in handler.params}, handler)
        body = ast.clone(handler.body)
        body = self._inline_block(body, depth=0)
        return ast.DHandler(span=handler.span, name=handler.name, params=handler.params, body=body)

    @staticmethod
    def _check_names(names: Set[str], decl: ast.Decl) -> None:
        """Refuse a user's name that could be one the midend mints."""
        for name in names:
            if re.match(r"_inl\d|_n\d|__", name):
                raise TypeError_(f"'{name}' is a name of the compiler's own making", decl.span)

    # -- statements -------------------------------------------------------
    def _inline_block(self, stmts: List[ast.Stmt], depth: int) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        for stmt in stmts:
            out.extend(self._inline_stmt(stmt, depth))
        return out

    def _inline_stmt(self, stmt: ast.Stmt, depth: int) -> List[ast.Stmt]:
        prefix: List[ast.Stmt] = []
        if isinstance(stmt, ast.SMatch):
            stmt.scrutinees = self._inline_siblings(stmt.scrutinees, prefix, depth)
        else:
            ast.map_subexprs(stmt, lambda expr: self._inline_expr(expr, prefix, depth))
        for block in ast.child_blocks(stmt):
            block[:] = self._inline_block(block, depth)
        return prefix + [stmt]

    # -- expressions ------------------------------------------------------
    def _inline_expr(self, expr: ast.Expr, prefix: List[ast.Stmt], depth: int) -> ast.Expr:
        if depth > self.max_depth:
            raise TypeError_("function inlining exceeded the maximum depth", expr.span)
        if isinstance(expr, ast.EUnary):
            expr.operand = self._inline_expr(expr.operand, prefix, depth)
        elif isinstance(expr, ast.EBinary) and BINOPS[expr.op].kind is OpKind.LOGICAL:
            return self._inline_short_circuit(expr, prefix, depth)
        elif isinstance(expr, ast.EBinary):
            expr.left, expr.right = self._inline_siblings([expr.left, expr.right], prefix, depth)
        elif isinstance(expr, ast.EGroup):
            expr.members = self._inline_siblings(expr.members, prefix, depth)
        elif isinstance(expr, (ast.EEvent, ast.ECall)):
            expr.args = self._inline_siblings(expr.args, prefix, depth)
            if isinstance(expr, ast.ECall) and self.info.is_function(expr.func):
                return self._inline_call(expr, prefix, depth)
        return expr

    def _inline_siblings(
        self, exprs: List[ast.Expr], prefix: List[ast.Stmt], depth: int
    ) -> List[ast.Expr]:
        """Inline sibling expressions, which evaluate left to right.  A callee
        body lands in ``prefix``, ahead of the whole statement; an earlier
        sibling whose evaluation is observable (it draws from the PRNG or
        calls an extern) is bound to a temp ahead of it, to keep its place."""
        done: List[ast.Expr] = []
        for expr in exprs:
            mark = len(prefix)
            expr = self._inline_expr(expr, prefix, depth)
            if len(prefix) > mark:
                for i, earlier in enumerate(done):
                    if any(isinstance(sub, ast.ECall)
                           and (sub.func == "Sys.random" or sub.func in self.info.externs)
                           for sub in ast.walk_expr(earlier)):
                        done[i] = self._bind(earlier, "arg", prefix, at=mark)
                        mark += 1
            done.append(expr)
        return done

    def _bind(self, value: ast.Expr, hint: str, prefix: List[ast.Stmt],
              at: Optional[int] = None) -> ast.EVar:
        """``prefix`` gains ``auto <fresh local> = value`` (at index ``at``)."""
        name = self.fresh.fresh(hint)
        local = ast.SLocal(span=value.span, ty=ast.TAuto(span=value.span), name=name, init=value)
        prefix.insert(len(prefix) if at is None else at, local)
        return ast.EVar(span=value.span, name=name)

    def _inline_short_circuit(
        self, expr: ast.EBinary, prefix: List[ast.Stmt], depth: int
    ) -> ast.Expr:
        """``a && f(x)`` / ``a || f(x)``: the callee's body runs only when
        ``a`` does not decide the result, as in the tree walker — ``t = 0; if
        (a) { <body>; t = (f(x) != 0); }`` (``t = 1; if (!a)`` for ``||``)."""
        expr.left = self._inline_expr(expr.left, prefix, depth)
        guarded: List[ast.Stmt] = []
        expr.right = self._inline_expr(expr.right, guarded, depth)
        if not guarded:
            return expr
        decided = 0 if expr.op is ast.BinOp.AND else 1
        result = self._bind(ast.EInt(span=expr.span, value=decided), "sc", prefix)
        truth = ast.EBinary(span=expr.span, op=ast.BinOp.NEQ, left=expr.right,
                            right=ast.EInt(span=expr.span, value=0))
        guarded.append(ast.SAssign(span=expr.span, name=result.name, value=truth))
        undecided = expr.left if decided == 0 else ast.EUnary(
            span=expr.span, op=ast.UnOp.NOT, operand=expr.left)
        prefix.append(ast.SIf(span=expr.span, cond=undecided, then_body=guarded, else_body=[]))
        return result

    def _inline_call(self, call: ast.ECall, prefix: List[ast.Stmt], depth: int) -> ast.Expr:
        fun = self.info.functions[call.func]
        written = assigned_names(fun.body)
        self._check_names(written | {p.name for p in fun.params}, fun)
        renames: Dict[str, ast.Expr] = {}
        substituted: Set[str] = set()
        for param, arg in zip(fun.params, call.args):
            by_name = isinstance(param.ty, ast.TArray) or (
                isinstance(arg, ast.EVar) and self.info.is_global(arg.name)
            )
            if by_name and param.name in written:
                raise TypeError_(
                    f"function '{fun.name}' assigns its array parameter '{param.name}'", call.span
                )
            if by_name or (
                isinstance(arg, (ast.EInt, ast.EBool, ast.EVar)) and param.name not in written
            ):
                # arrays (and direct global references) substitute syntactically;
                # so does an atom nothing in the callee can overwrite
                renames[param.name] = arg
                substituted.add(param.name)
            else:
                renames[param.name] = self._bind(arg, param.name, prefix)

        body = ast.clone(fun.body)
        _rename_stmts(body, renames, self.fresh)
        self.origins.update((target.name, f"'{name}' of function '{fun.name}'")
                            for name, target in renames.items() if name not in substituted)
        body = self._inline_block(returnify(body), depth + 1)

        if isinstance(fun.ret, ast.TVoid):
            prefix.extend(_replace_returns(body, None))
            return ast.EInt(span=call.span, value=0)
        result = self._bind(ast.EInt(span=call.span, value=0), f"{fun.name}_ret", prefix)
        prefix.extend(_replace_returns(body, result.name))
        return result
