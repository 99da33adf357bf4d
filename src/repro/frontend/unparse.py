"""Render an AST back into parseable Lucid source.

The fuzzer builds programs as ASTs (cheap to mutate and shrink) but the
engines' entry points, the regression corpus, and human triage all want
concrete syntax — so this module is the inverse of
:mod:`repro.frontend.parser`.  The contract is *round-tripping*, not
formatting fidelity: ``parse_program(unparse(program))`` must yield a program
with the same semantics (operands are parenthesised conservatively rather
than by reconstructing precedence).

One syntactic trap is the ``<<w>>`` size-bracket ambiguity: ``a << 2 >> b``
would lex as a size bracket if it ever appeared unparenthesised after a
callee name.  Because every binary expression is printed inside parentheses,
a shift's right operand is always followed by ``)`` and the ambiguity cannot
arise.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------
def unparse_type(ty: ast.TypeExpr) -> str:
    if isinstance(ty, ast.TInt):
        return "int"
    if isinstance(ty, ast.TBool):
        return "bool"
    if isinstance(ty, ast.TVoid):
        return "void"
    if isinstance(ty, ast.TEvent):
        return "event"
    if isinstance(ty, ast.TGroup):
        return "group"
    if isinstance(ty, ast.TArray):
        return f"Array<<{ty.width}>>"
    if isinstance(ty, ast.TAuto):
        return "auto"
    raise ValueError(f"cannot unparse type {ty!r}")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------
def unparse_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.EInt):
        if expr.value < 0:
            # negative literals do not exist in the surface syntax
            return f"(0 - {-expr.value})"
        return str(expr.value)
    if isinstance(expr, ast.EBool):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.EVar):
        return expr.name
    if isinstance(expr, ast.EUnary):
        return f"{expr.op.value}({unparse_expr(expr.operand)})"
    if isinstance(expr, ast.EBinary):
        return f"({unparse_expr(expr.left)} {expr.op.value} {unparse_expr(expr.right)})"
    if isinstance(expr, ast.ECall):
        size = f"<<{expr.size_args[0]}>>" if expr.size_args else ""
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"{expr.func}{size}({args})"
    if isinstance(expr, ast.EEvent):
        # event constructors are plain calls in the surface syntax; the type
        # checker rewrites them back into EEvent nodes
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.EGroup):
        return "{" + ", ".join(unparse_expr(m) for m in expr.members) + "}"
    raise ValueError(f"cannot unparse expression {expr!r}")


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------
def _unparse_stmt(stmt: ast.Stmt, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, ast.SLocal):
        out.append(f"{pad}{unparse_type(stmt.ty)} {stmt.name} = {unparse_expr(stmt.init)};")
        return
    if isinstance(stmt, ast.SAssign):
        out.append(f"{pad}{stmt.name} = {unparse_expr(stmt.value)};")
        return
    if isinstance(stmt, ast.SIf):
        out.append(f"{pad}if ({unparse_expr(stmt.cond)}) {{")
        _unparse_block(stmt.then_body, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}}} else {{")
            _unparse_block(stmt.else_body, indent + 1, out)
        out.append(f"{pad}}}")
        return
    if isinstance(stmt, ast.SMatch):
        scrutinees = ", ".join(unparse_expr(e) for e in stmt.scrutinees)
        out.append(f"{pad}match ({scrutinees}) with")
        for pattern, body in stmt.branches:
            pat = ", ".join("_" if v is None else str(v) for v in pattern)
            out.append(f"{pad}| {pat} -> {{")
            _unparse_block(body, indent + 1, out)
            out.append(f"{pad}}}")
        return
    if isinstance(stmt, ast.SReturn):
        if stmt.value is None:
            out.append(f"{pad}return;")
        else:
            out.append(f"{pad}return {unparse_expr(stmt.value)};")
        return
    if isinstance(stmt, ast.SGenerate):
        keyword = "mgenerate" if stmt.multicast else "generate"
        out.append(f"{pad}{keyword} {unparse_expr(stmt.event)};")
        return
    if isinstance(stmt, ast.SExpr):
        out.append(f"{pad}{unparse_expr(stmt.expr)};")
        return
    raise ValueError(f"cannot unparse statement {stmt!r}")


def _unparse_block(stmts: List[ast.Stmt], indent: int, out: List[str]) -> None:
    for stmt in stmts:
        _unparse_stmt(stmt, indent, out)


def unparse_stmts(stmts: List[ast.Stmt], indent: int = 0) -> str:
    out: List[str] = []
    _unparse_block(stmts, indent, out)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# declarations / programs
# ---------------------------------------------------------------------------
def _unparse_params(params: List[ast.Param]) -> str:
    return ", ".join(f"{unparse_type(p.ty)} {p.name}" for p in params)


def unparse_decl(decl: ast.Decl) -> str:
    if isinstance(decl, ast.DConst):
        if isinstance(decl.ty, ast.TGroup):
            return f"const group {decl.name} = {unparse_expr(decl.value)};"
        return f"const {unparse_type(decl.ty)} {decl.name} = {unparse_expr(decl.value)};"
    if isinstance(decl, ast.DSymbolic):
        return f"symbolic size {decl.name} = {decl.default};"
    if isinstance(decl, ast.DGlobal):
        return f"global {decl.name} = new Array<<{decl.cell_width}>>({unparse_expr(decl.size_expr)});"
    if isinstance(decl, ast.DExtern):
        return f"extern fun {unparse_type(decl.ret)} {decl.name}({_unparse_params(decl.params)});"
    if isinstance(decl, ast.DEvent):
        return f"event {decl.name}({_unparse_params(decl.params)});"
    if isinstance(decl, ast.DHandler):
        body = unparse_stmts(decl.body, indent=1)
        inner = f"\n{body}\n" if body else ""
        return f"handle {decl.name}({_unparse_params(decl.params)}) {{{inner}}}"
    if isinstance(decl, ast.DFun):
        body = unparse_stmts(decl.body, indent=1)
        inner = f"\n{body}\n" if body else ""
        return (
            f"fun {unparse_type(decl.ret)} {decl.name}"
            f"({_unparse_params(decl.params)}) {{{inner}}}"
        )
    if isinstance(decl, ast.DMemop):
        body = unparse_stmts(decl.body, indent=1)
        inner = f"\n{body}\n" if body else ""
        return f"memop {decl.name}({_unparse_params(decl.params)}) {{{inner}}}"
    raise ValueError(f"cannot unparse declaration {decl!r}")


def unparse(program: ast.Program) -> str:
    """Render a whole program; the result parses back to an equivalent AST."""
    return "\n".join(unparse_decl(d) for d in program.decls) + "\n"
