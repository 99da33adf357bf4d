"""Abstract syntax tree for Lucid programs.

The node set covers the language as presented in the paper:

* declarations: ``const``, ``global`` arrays, ``event``,
  ``handle``, ``fun``, ``memop``, ``const group``, ``extern``;
* statements: local declarations, assignment, ``if``/``else``, ``return``,
  ``generate`` / ``mgenerate``, expression statements, ``match`` (a small
  extension used by some of the applications);
* expressions: literals, variables, unary/binary operators, calls (including
  the built-in ``Array``/``Event``/``Sys`` modules and ``hash``), and event
  constructor expressions.

Every node carries a :class:`~repro.frontend.source.Span` so later phases can
report source-anchored diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.frontend.source import Span, dummy_span


# ---------------------------------------------------------------------------
# Types (surface syntax)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TypeExpr:
    """Base class of surface type expressions."""

    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class TInt(TypeExpr):
    """``int`` — a 32-bit word, the one integer type (a width is written only
    where something masks to it: ``Array<<w>>`` cells and ``hash<<w>>``)."""


@dataclass(frozen=True)
class TBool(TypeExpr):
    """``bool``."""


@dataclass(frozen=True)
class TVoid(TypeExpr):
    """``void`` — the return type of handlers and of functions with no value."""


@dataclass(frozen=True)
class TEvent(TypeExpr):
    """``event`` — a first-class event value awaiting ``generate``."""


@dataclass(frozen=True)
class TGroup(TypeExpr):
    """``group`` — a multicast group of switch locations."""


@dataclass(frozen=True)
class TArray(TypeExpr):
    """``Array<<w>>`` — a persistent register array of w-bit cells, 1 <= w <= 32."""

    width: int = 32


@dataclass(frozen=True)
class TAuto(TypeExpr):
    """``auto`` — a local takes the type of its initialiser."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class BinOp(enum.Enum):
    """Binary operators of the expression language, spelled as their tokens;
    what each one means is :data:`repro.ops.BINOPS`."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    BITAND = "&"
    BITOR = "|"
    BITXOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"


class UnOp(enum.Enum):
    """Unary operators."""

    NOT = "!"
    NEG = "-"
    BITNOT = "~"


@dataclass
class Expr:
    """Base class for expressions."""

    span: Span = field(repr=False)


@dataclass
class EInt(Expr):
    """Integer literal (already normalised to a plain int; times are ns)."""

    value: int = 0


@dataclass
class EBool(Expr):
    """Boolean literal."""

    value: bool = False


@dataclass
class EVar(Expr):
    """A variable reference (local, parameter, const, or global)."""

    name: str = ""


@dataclass
class EUnary(Expr):
    """Unary operator application."""

    op: UnOp = UnOp.NOT
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class EBinary(Expr):
    """Binary operator application."""

    op: BinOp = BinOp.ADD
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class ECall(Expr):
    """A call.  ``func`` is a dotted path such as ``Array.get`` or ``incr``."""

    func: str = ""
    args: List[Expr] = field(default_factory=list)
    size_args: List[int] = field(default_factory=list)  # e.g. hash<<16>>(...)


@dataclass
class EEvent(Expr):
    """An event-constructor expression, e.g. ``route_reply(SELF, dst, len)``.

    Event constructors are syntactically calls; the parser produces
    :class:`ECall` and the type checker rewrites calls whose callee is a
    declared event into :class:`EEvent`.
    """

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class EGroup(Expr):
    """A group literal, e.g. ``{2, 3}``."""

    members: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass
class Stmt:
    """Base class for statements."""

    span: Span = field(repr=False)


@dataclass
class SLocal(Stmt):
    """A local variable declaration: ``int x = e;`` or ``event ev = e;``."""

    ty: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    init: Expr = None  # type: ignore[assignment]


@dataclass
class SAssign(Stmt):
    """Assignment to an existing local: ``x = e;``."""

    name: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class SIf(Stmt):
    """``if (cond) { ... } else { ... }`` — the else branch may be empty."""

    cond: Expr = None  # type: ignore[assignment]
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class SMatch(Stmt):
    """``match (e1, e2) with | pat -> { ... }`` — used by some applications."""

    scrutinees: List[Expr] = field(default_factory=list)
    branches: List[Tuple[List[Optional[int]], List[Stmt]]] = field(default_factory=list)


@dataclass
class SReturn(Stmt):
    """``return e;`` or ``return;``."""

    value: Optional[Expr] = None


@dataclass
class SGenerate(Stmt):
    """``generate e;`` — schedule an event (possibly wrapped in combinators)."""

    event: Expr = None  # type: ignore[assignment]
    multicast: bool = False  # True for ``mgenerate``


@dataclass
class SExpr(Stmt):
    """An expression evaluated for its effect, e.g. ``Array.set(...);``."""

    expr: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------
@dataclass
class Param:
    """A formal parameter ``ty name``."""

    ty: TypeExpr
    name: str
    span: Span = field(repr=False, default_factory=dummy_span)


@dataclass
class Decl:
    """Base class for top-level declarations."""

    span: Span = field(repr=False)


@dataclass
class DConst(Decl):
    """``const int NAME = expr;`` or ``const group NAME = {..};``."""

    ty: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class DSymbolic(Decl):
    """``symbolic size name;`` — a size left free for the harness to bind."""

    name: str = ""
    default: int = 1024


@dataclass
class DExtern(Decl):
    """``extern fun int name(params);`` — a function supplied by the harness."""

    ret: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    params: List[Param] = field(default_factory=list)


@dataclass
class DGlobal(Decl):
    """``global name = new Array<<w>>(size);``

    Globals are ordered; their declaration index is their abstract pipeline
    stage in the type-and-effect system (Section 5).
    """

    name: str = ""
    cell_width: int = 32
    size_expr: Expr = None  # type: ignore[assignment]
    size: Optional[int] = None  # filled by constant evaluation


@dataclass
class DEvent(Decl):
    """``event name(params);`` — declares an event and its payload."""

    name: str = ""
    params: List[Param] = field(default_factory=list)


@dataclass
class DHandler(Decl):
    """``handle name(params) { body }`` — the computation run for an event."""

    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class DFun(Decl):
    """``fun ret name(params) { body }`` — an ordinary (inlined) function."""

    ret: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class DMemop(Decl):
    """``memop name(int stored, int local) { body }`` — a stateful-ALU op."""

    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Program:
    """A parsed Lucid program: an ordered list of declarations."""

    decls: List[Decl] = field(default_factory=list)
    name: str = "<program>"

    # -- convenience accessors -------------------------------------------
    def consts(self) -> List[DConst]:
        return [d for d in self.decls if isinstance(d, DConst)]

    def globals(self) -> List[DGlobal]:
        return [d for d in self.decls if isinstance(d, DGlobal)]

    def events(self) -> List[DEvent]:
        return [d for d in self.decls if isinstance(d, DEvent)]

    def handlers(self) -> List[DHandler]:
        return [d for d in self.decls if isinstance(d, DHandler)]

    def functions(self) -> List[DFun]:
        return [d for d in self.decls if isinstance(d, DFun)]

    def memops(self) -> List[DMemop]:
        return [d for d in self.decls if isinstance(d, DMemop)]

    def externs(self) -> List[DExtern]:
        return [d for d in self.decls if isinstance(d, DExtern)]

    def symbolics(self) -> List[DSymbolic]:
        return [d for d in self.decls if isinstance(d, DSymbolic)]

    def handler(self, name: str) -> Optional[DHandler]:
        for d in self.handlers():
            if d.name == name:
                return d
        return None

    def event(self, name: str) -> Optional[DEvent]:
        for d in self.events():
            if d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# Node children: the one table
# ---------------------------------------------------------------------------
#: The fields of each node kind that hold its direct sub-expressions, in
#: evaluation (and source) order: an expression's operands, a statement's own
#: expressions.  A field holds one expression, a list of them, or (only
#: ``SReturn.value``) None.  This table and :func:`child_blocks` are the only
#: place that says which fields of a node are its children; every traversal,
#: mapper and address below (and the checker's, inliner's and shrinker's)
#: reads them.
_SUBEXPR_FIELDS = {
    EUnary: ("operand",),
    EBinary: ("left", "right"),
    ECall: ("args",),
    EEvent: ("args",),
    EGroup: ("members",),
    SLocal: ("init",),
    SAssign: ("value",),
    SIf: ("cond",),
    SMatch: ("scrutinees",),
    SReturn: ("value",),
    SGenerate: ("event",),
    SExpr: ("expr",),
}


def subexprs(node) -> List[Expr]:
    """The direct sub-expressions of an expression or statement, in order
    (not recursing into a statement's nested blocks)."""
    out: List[Expr] = []
    for name in _SUBEXPR_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if type(value) is list:
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def map_subexprs(node, fn: Callable[[Expr], Expr]) -> None:
    """Replace each direct sub-expression of ``node`` (an expression or a
    statement) by ``fn`` of it, in place and in order; a list field becomes
    a new list."""
    for name in _SUBEXPR_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if type(value) is list:
            setattr(node, name, [fn(item) for item in value])
        elif value is not None:
            setattr(node, name, fn(value))


def child_blocks(stmt: Stmt) -> List[List[Stmt]]:
    """The statement lists nested directly in ``stmt``, in source order: an
    ``if``'s two arms, a ``match``'s arm bodies.  The lists themselves, so a
    caller may rewrite them in place."""
    if type(stmt) is SIf:
        return [stmt.then_body, stmt.else_body]
    if type(stmt) is SMatch:
        return [body for _, body in stmt.branches]
    return []


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for sub in subexprs(expr):
        yield from walk_expr(sub)


def walk_stmts(stmts: Sequence[Stmt]):
    """Yield every statement in ``stmts``, recursing into blocks, pre-order."""
    for stmt in stmts:
        yield stmt
        for block in child_blocks(stmt):
            yield from walk_stmts(block)


def stmt_exprs(stmt: Stmt) -> List[Expr]:
    """Return the immediate expressions of a statement (not recursing into
    nested statements)."""
    return subexprs(stmt)


def clone(node):
    """A structural copy of ``node`` — an expression, a statement, or a list
    or tuple of them: every mutable node (a non-frozen dataclass, which
    covers the normalised statements of :mod:`repro.midend.normalize` too),
    list and tuple below it is fresh; spans, frozen type expressions and
    operands, enums, ints and strings are immutable and stay shared."""
    cls = type(node)
    if cls is list:
        return [clone(item) for item in node]
    if cls is tuple:
        return tuple([clone(item) for item in node])
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or params.frozen:
        return node
    copy = cls.__new__(cls)
    copy.__dict__.update({name: clone(value) for name, value in node.__dict__.items()})
    return copy


def expr_calls(expr: Expr) -> List[ECall]:
    """All calls appearing in ``expr`` (pre-order)."""
    return [e for e in walk_expr(expr) if isinstance(e, ECall)]
