"""Normalisation of handler bodies into atomic statements (Section 6.1).

After function inlining, the compiler "uses subexpression elimination to
reduce a handler's body into a graph of statements that are each simple enough
to execute with at most one Tofino ALU".  This module performs that reduction:

* every expression is flattened into three-address form — a binary operation
  over two *operands* (locals or constants) assigned to a destination local;
  a ``&&``/``||`` takes 0/1 operands (others are tested ``!= 0`` first), so
  the P4's bitwise ``&``/``|`` compute it;
* every Array method call becomes a single memory operation whose index is an
  operand;
* every ``if`` condition becomes a simple comparison between an operand and a
  constant or another operand;
* ``match`` statements are lowered to nested ``if`` chains;
* ``generate`` statements are resolved to the event being generated, its
  argument operands, and its delay / location operands (tracking event- and
  group-typed locals and the ``Event.delay`` / ``Event.locate`` combinators).

The result, a :class:`NormalizedHandler`, is the one lowering input of every
engine but the tree walker: the backend's atomic table construction (and so
the ``pisa`` engine and the P4) and the ``codegen`` engine's printer.
:func:`~repro.frontend.type_checker.check_program` runs
:func:`normalize_program` as its last step and keeps the result on
``CheckedProgram.normalized``, so every consumer reads one lowering.

**Express or refuse.**  A handler is lowered to exactly what the tree walker
(:mod:`repro.interp.interpreter`) computes, or :class:`TypeError_` is raised
naming the construct, with the user's names and the span of the offending
statement; nothing is silently lowered to something else, and the refusal
surfaces at ``check_program``, so no engine sees a program the pipeline
cannot run.  What is refused: an event- or group-typed local re-bound in a
branch arm, or a local assigned while an event-typed local holds it (such
values are tracked symbolically, in textual order, their operands read at
the ``generate``); an
event, group or array used where an integer operand is needed; a local that
shadows a constant; a local read on a path that has not assigned it
(uninitialised metadata reads as zero on hardware, as an error or a shadowed
constant in the tree walker); an Array method on anything but a global; a
group literal with a non-constant member.  One documented width: a sum of
``Event.delay`` amounts with a non-constant part is a 32-bit ALU add.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple, Union

from repro.errors import TypeError_
from repro.frontend import ast
from repro.frontend.memop_check import MemopShape, memop_shape
from repro.frontend.symbols import ARRAY_METHODS, EVENT_COMBINATORS, ProgramInfo
from repro.midend.inline import Inliner, eliminate_returns
from repro.ops import BINOPS, UNOPS, OpKind
from repro.records import field, record


# ---------------------------------------------------------------------------
# operands and normalised statements
# ---------------------------------------------------------------------------
@record(frozen=True)
class Const:
    """A compile-time integer operand."""

    value: int

    def show(self) -> str:
        return str(self.value)


@record(frozen=True)
class Var:
    """A local variable (P4 metadata field) operand."""

    name: str

    def show(self) -> str:
        return self.name


Operand = Union[Const, Var]


def operand_vars(*operands: Optional[Operand]) -> List[str]:
    return [op.name for op in operands if isinstance(op, Var)]


@record
class NStmt:
    """Base class of normalised statements."""

    span: object = field(repr=False, default=None)


@record
class NCopy(NStmt):
    """``dst = src`` — a move of an operand into a local."""

    dst: str = ""
    src: Operand = Const(0)


@record
class NOp(NStmt):
    """``dst = lhs op rhs`` — one stateless ALU operation."""

    dst: str = ""
    op: ast.BinOp = ast.BinOp.ADD
    lhs: Operand = Const(0)
    rhs: Operand = Const(0)


@record
class NHash(NStmt):
    """``dst = hash<<width>>(args...)`` — one hash-unit invocation."""

    dst: str = ""
    width: int = 32
    args: List[Operand] = field(default_factory=list)


@record
class NArrayOp(NStmt):
    """One stateful-ALU operation on a global register array."""

    method: str = "Array.get"  # Array.get / set / update / getm / setm
    array: str = ""
    index: Operand = Const(0)
    dst: Optional[str] = None
    memops: List[str] = field(default_factory=list)
    args: List[Operand] = field(default_factory=list)


class ArrayCall(NamedTuple):
    """How one ``Array`` call is one stateful-ALU instruction: whether it
    returns a value computed from the cell's old value (``reads``) and
    whether it stores one (``writes``), and the memop and argument of each
    side.  A read without a memop returns the old cell; a write without one
    stores its argument."""

    reads: bool
    writes: bool
    get_memop: Optional[MemopShape]
    get_arg: Operand
    set_memop: Optional[MemopShape]
    set_arg: Operand


def array_call(info: ProgramInfo, stmt: NArrayOp) -> ArrayCall:
    """The routing of ``stmt``'s memops and arguments, as
    ``RuntimeArray.get`` / ``set`` / ``update`` take them: an update takes
    (get, set) memops and arguments, and one argument serves both sides."""
    reads = stmt.method not in ("Array.set", "Array.setm")
    writes = stmt.method not in ("Array.get", "Array.getm")
    memops = [memop_shape(info, name) for name in stmt.memops] + [None, None]
    get_arg = stmt.args[0] if stmt.args else Const(0)
    if not reads:
        return ArrayCall(False, True, None, get_arg, memops[0], get_arg)
    set_arg = stmt.args[1] if len(stmt.args) > 1 else get_arg
    return ArrayCall(True, writes, memops[0], get_arg, memops[1] if writes else None, set_arg)


@record
class NPrim(NStmt):
    """A primitive action: drop(), forward(port), flood(), printf(...), a
    ``Sys.*`` read, or ``extern:<name>`` — a call of an extern function, whose
    result (0 while the extern is unbound) goes to ``dst``."""

    prim: str = "drop"
    args: List[Operand] = field(default_factory=list)
    dst: Optional[str] = None


#: a multicast group: the name of a ``const group``, or a literal's members
Group = Union[str, Tuple[int, ...]]


@record
class NGenerate(NStmt):
    """A resolved ``generate``: the event name, payload operands, and the
    delay / location operands applied by combinators."""

    event: str = ""
    args: List[Operand] = field(default_factory=list)
    delay: Operand = Const(0)
    location: Operand = Const(-1)  # -1 == SELF / local
    group: Optional[Group] = None  # set by a locate on a group: a multicast
    multicast: bool = False


@record
class NCond:
    """A simple branch condition ``lhs op rhs``."""

    lhs: Operand
    op: ast.BinOp
    rhs: Operand

    def negate(self) -> "NCond":
        return NCond(self.lhs, BINOPS[self.op].negation, self.rhs)

    def show(self) -> str:
        return f"{self.lhs.show()} {self.op.value} {self.rhs.show()}"


@record
class NIf(NStmt):
    """``if (cond) { then } else { else }`` with a simple condition."""

    cond: NCond = None  # type: ignore[assignment]
    then_body: List[NStmt] = field(default_factory=list)
    else_body: List[NStmt] = field(default_factory=list)


def stmt_reads(stmt: NStmt) -> List[str]:
    """The locals ``stmt`` itself reads (of an ``NIf``: its condition's)."""
    if isinstance(stmt, NIf):
        return operand_vars(stmt.cond.lhs, stmt.cond.rhs)
    if isinstance(stmt, NOp):
        return operand_vars(stmt.lhs, stmt.rhs)
    if isinstance(stmt, NCopy):
        return operand_vars(stmt.src)
    if isinstance(stmt, NArrayOp):
        return operand_vars(stmt.index, *stmt.args)
    if isinstance(stmt, NGenerate):
        return operand_vars(stmt.delay, stmt.location, *stmt.args)
    return operand_vars(*stmt.args)  # NHash, NPrim


def stmt_writes(stmt: NStmt) -> Set[str]:
    """The locals ``stmt`` itself writes.  A ``Sys.*`` primitive publishes its
    result through a well-known metadata field, which the copy after it reads."""
    names = {stmt.dst} if getattr(stmt, "dst", None) else set()
    if isinstance(stmt, NPrim) and stmt.prim in ("Sys.time", "Sys.self", "Sys.random"):
        names.add(f"__{stmt.prim.replace('.', '_')}")
    return names


@record
class NormalizedHandler:
    """A handler reduced to atomic statements."""

    name: str
    params: List[str]
    body: List[NStmt]

    def flat_statements(self) -> List[NStmt]:
        """All statements in the body, flattening branches (pre-order)."""
        return _flatten(self.body)

    def array_ops(self) -> List[NArrayOp]:
        return [s for s in self.flat_statements() if isinstance(s, NArrayOp)]

    def generates(self) -> List[NGenerate]:
        return [s for s in self.flat_statements() if isinstance(s, NGenerate)]


# ---------------------------------------------------------------------------
# the normaliser
# ---------------------------------------------------------------------------
class Normalizer:
    """Normalises one handler body; see :func:`normalize_handler`."""

    def __init__(self, info: ProgramInfo, handler: ast.DHandler, origins: Mapping[str, str]):
        self.info = info
        self.origins = origins
        self.counter = itertools.count()
        #: how often the handler's text reads each name (our own temporaries:
        #: never); a binding may absorb the definition of what only it reads
        self.reads = collections.Counter(
            sub.name
            for stmt in ast.walk_stmts(handler.body)
            for expr in ast.stmt_exprs(stmt)
            for sub in ast.walk_expr(expr)
            if isinstance(sub, ast.EVar)
        )
        #: event- and group-typed locals are not materialised: a name maps to
        #: the value it holds (an event: the ``generate`` it would become)
        #: *in textual order*, which is execution order only while no branch
        #: arm re-binds a name bound outside it
        self.symbolic: Dict[str, Union[NGenerate, Group]] = {}
        #: the names an enclosing arm found bound on entry
        self.frozen: FrozenSet[str] = frozenset()

    def fresh(self, hint: str = "t") -> str:
        return f"_n{next(self.counter)}_{hint}"

    def spell(self, name: str) -> str:
        """Local ``name`` as a refusal shows it: an inlined callee's by its
        own name (:attr:`Inliner.origins`)."""
        return self.origins.get(name, f"'{name}'")

    # -- expressions -> operands -----------------------------------------
    def _const_of(self, expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, ast.EInt):
            return expr.value
        if isinstance(expr, ast.EBool):
            return 1 if expr.value else 0
        if isinstance(expr, ast.EVar) and expr.name not in self.info.globals:
            return self.info.consts.lookup(expr.name)
        return None

    def to_operand(self, expr: ast.Expr, out: List[NStmt]) -> Operand:
        """Flatten ``expr`` into an operand, emitting helper statements."""
        const = self._const_of(expr)
        if const is not None:
            return Const(const)
        if isinstance(expr, ast.EVar):
            if (
                expr.name in self.symbolic
                or expr.name in self.info.consts.groups
                or self.info.is_global(expr.name)
            ):
                raise TypeError_(
                    f"{self.spell(expr.name)} is an event, group or array: "
                    "it has no integer operand form",
                    expr.span,
                )
            return Var(expr.name)
        if isinstance(expr, ast.EUnary):
            inner = self.to_operand(expr.operand, out)
            op, const, operand_first = UNOPS[expr.op].alu
            lhs, rhs = (inner, Const(const)) if operand_first else (Const(const), inner)
            dst = self.fresh("un")
            out.append(NOp(span=expr.span, dst=dst, op=op, lhs=lhs, rhs=rhs))
            return Var(dst)
        if isinstance(expr, ast.EBinary):
            if BINOPS[expr.op].kind is OpKind.LOGICAL:
                if self._has_side_effects(expr.right):
                    return self._short_circuit(expr, out)
                lhs = self._truth(expr.left, out)
                rhs = self._truth(expr.right, out)
            else:
                lhs = self.to_operand(expr.left, out)
                rhs = self.to_operand(expr.right, out)
            dst = self.fresh("op")
            out.append(NOp(span=expr.span, dst=dst, op=expr.op, lhs=lhs, rhs=rhs))
            return Var(dst)
        if isinstance(expr, ast.ECall) and expr.func not in EVENT_COMBINATORS:
            return self._call_to_operand(expr, out)
        raise TypeError_(
            "an event or group value has no integer operand form", getattr(expr, "span", None)
        )

    def _truth(self, expr: ast.Expr, out: List[NStmt]) -> Operand:
        """An operand of a strict ``&&``/``||``, made 0/1-valued (``!= 0``)
        unless it is already — a comparison, ``!``, ``&&``/``||``, a boolean
        literal, the constants 0 and 1 — so that the P4's bitwise ``&``/``|``
        computes the logical connective."""
        operand = self.to_operand(expr, out)
        if isinstance(operand, Const) and operand.value in (0, 1):
            return operand
        if isinstance(expr, ast.EBinary) and BINOPS[expr.op].kind.truth_valued:
            return operand
        if isinstance(expr, ast.EUnary) and UNOPS[expr.op].kind.truth_valued:
            return operand
        dst = self.fresh("truth")
        out.append(NOp(span=expr.span, dst=dst, op=ast.BinOp.NEQ, lhs=operand, rhs=Const(0)))
        return Var(dst)

    def _has_side_effects(self, expr: ast.Expr) -> bool:
        """True when evaluating ``expr`` mutates observable state: register
        arrays, the shared PRNG, or an extern.  (``Sys.time``/``Sys.self``
        only read, so evaluating them unconditionally is unobservable.)"""
        for sub in ast.walk_expr(expr):
            if isinstance(sub, ast.ECall) and (
                sub.func in ARRAY_METHODS
                or sub.func == "Sys.random"
                or sub.func in self.info.externs
            ):
                return True
        return False

    def _short_circuit(self, expr: ast.EBinary, out: List[NStmt]) -> Operand:
        """Lower ``a && b`` / ``a || b`` with the interpreter's short-circuit
        semantics: the right operand's side effects (array ops, Sys.random)
        happen only when the left operand does not decide the result.  The
        strict :func:`repro.ops.apply_binop` forms are observationally
        identical for pure operands (the common case, which keeps its
        single-ALU lowering), so this branchier form is emitted only when the
        right operand has side effects."""
        lhs = self.to_operand(expr.left, out)
        dst = self.fresh("bool")
        branch: List[NStmt] = []
        rhs = self.to_operand(expr.right, branch)
        branch.append(NOp(span=expr.span, dst=dst, op=ast.BinOp.NEQ, lhs=rhs, rhs=Const(0)))
        # dst = 0; if (lhs != 0) { dst = (rhs != 0); }  — for ||: dst = 1; if (lhs == 0)
        decided = 0 if expr.op is ast.BinOp.AND else 1
        out.append(NCopy(span=expr.span, dst=dst, src=Const(decided)))
        cond = NCond(lhs, ast.BinOp.EQ if decided else ast.BinOp.NEQ, Const(0))
        out.append(NIf(span=expr.span, cond=cond, then_body=branch, else_body=[]))
        return Var(dst)

    def _call_to_operand(self, expr: ast.ECall, out: List[NStmt]) -> Operand:
        func = expr.func
        if func in ARRAY_METHODS:
            return Var(self._array_call(expr, out, want_result=True).dst)
        if func == "hash":
            args = [self.to_operand(a, out) for a in expr.args]
            dst = self.fresh("hash")
            width = expr.size_args[0] if expr.size_args else 32
            out.append(NHash(span=expr.span, dst=dst, width=width, args=args))
            return Var(dst)
        if func in ("Sys.time", "Sys.self", "Sys.random"):
            # Sys.random's optional bound argument must ride along: dropping
            # it would make the pipeline draw unbounded values while the
            # interpreters reduce modulo the bound
            args = [self.to_operand(a, out) for a in expr.args]
            dst = self.fresh(func.split(".")[-1])
            out.append(NPrim(span=expr.span, prim=func, args=args))
            out.append(NCopy(span=expr.span, dst=dst, src=Var(f"__{func.replace('.', '_')}")))
            return Var(dst)
        if func in self.info.externs:
            args = [self.to_operand(a, out) for a in expr.args]
            dst = self.fresh(func)
            out.append(NPrim(span=expr.span, prim=f"extern:{func}", args=args, dst=dst))
            return Var(dst)
        raise TypeError_(f"call to '{func}' should have been inlined or is unsupported", expr.span)

    def _array_call(self, expr: ast.ECall, out: List[NStmt], want_result: bool) -> NArrayOp:
        func = expr.func
        array_arg = expr.args[0]
        if not isinstance(array_arg, ast.EVar) or not self.info.is_global(array_arg.name):
            raise TypeError_(
                f"after inlining, the array argument of {func} must be a global", array_arg.span
            )
        index = self.to_operand(expr.args[1], out)
        rest = expr.args[2:]
        memops: List[str] = []
        args: List[Operand] = []
        for arg in rest:
            if isinstance(arg, ast.EVar) and self.info.is_memop(arg.name):
                memops.append(arg.name)
            else:
                args.append(self.to_operand(arg, out))
        dst = self.fresh(f"{array_arg.name}_val") if (
            want_result or func in ("Array.get", "Array.getm", "Array.update")
        ) else None
        stmt = NArrayOp(
            span=expr.span,
            method=func,
            array=array_arg.name,
            index=index,
            dst=dst,
            memops=memops,
            args=args,
        )
        out.append(stmt)
        return stmt

    # -- event values ------------------------------------------------------
    def _event_value(self, expr: ast.EEvent, out: List[NStmt]) -> NGenerate:
        args = [self.to_operand(a, out) for a in expr.args]
        return NGenerate(event=expr.name, args=args)

    def _combinator_value(self, expr: ast.ECall, out: List[NStmt]) -> NGenerate:
        base = self._resolve_event_expr(expr.args[0], out)
        value = dataclasses.replace(base)
        if expr.func == "Event.delay":
            # delays add up (EventInstance.delay); constants fold exactly
            extra = self.to_operand(expr.args[1], out)
            if isinstance(base.delay, Const) and isinstance(extra, Const):
                value.delay = Const(base.delay.value + extra.value)
            elif base.delay == Const(0):
                value.delay = extra
            elif extra != Const(0):
                value.delay = Var(self.fresh("delay"))
                out.append(NOp(span=expr.span, dst=value.delay.name, op=ast.BinOp.ADD,
                               lhs=base.delay, rhs=extra))
        else:  # Event.locate / Event.sslocate: a group sets the group, an int the place
            group = self._group_of(expr.args[1])
            if group is not None:
                value.group = group
            else:
                value.location = self.to_operand(expr.args[1], out)
        return value

    def _group_of(self, expr: ast.Expr) -> Optional[Group]:
        """The group ``expr`` denotes — a literal's members, a group constant
        by name (its members are bound per switch), what a group-typed local
        holds — or None when it denotes no group."""
        if isinstance(expr, ast.EGroup):
            members = tuple(self._const_of(member) for member in expr.members)
            if None in members:
                raise TypeError_("group literals must contain constants", expr.span)
            return members
        if isinstance(expr, ast.EVar):
            held = self.symbolic.get(expr.name)
            if isinstance(held, (str, tuple)):
                return held
            if expr.name in self.info.consts.groups:
                return expr.name
        return None

    def _resolve_event_expr(self, expr: ast.Expr, out: List[NStmt]) -> NGenerate:
        if isinstance(expr, ast.EEvent):
            return self._event_value(expr, out)
        if isinstance(expr, ast.ECall) and expr.func in EVENT_COMBINATORS:
            return self._combinator_value(expr, out)
        if isinstance(expr, ast.EVar):
            if isinstance(self.symbolic.get(expr.name), NGenerate):
                return self.symbolic[expr.name]
            raise TypeError_(
                f"{self.spell(expr.name)} does not name an event value created in this handler",
                expr.span,
            )
        raise TypeError_("generate expects an event expression", getattr(expr, "span", None))

    # -- conditions --------------------------------------------------------
    def _cond_of(self, expr: ast.Expr, out: List[NStmt]) -> NCond:
        if isinstance(expr, ast.EBinary) and BINOPS[expr.op].kind is OpKind.COMPARISON:
            lhs = self.to_operand(expr.left, out)
            rhs = self.to_operand(expr.right, out)
            return NCond(lhs, expr.op, rhs)
        if isinstance(expr, ast.EUnary) and expr.op is ast.UnOp.NOT:
            inner = self._cond_of(expr.operand, out)
            return inner.negate()
        # compound or bare conditions: evaluate to an operand and test != 0
        operand = self.to_operand(expr, out)
        return NCond(operand, ast.BinOp.NEQ, Const(0))

    # -- statements --------------------------------------------------------
    def normalize_block(self, stmts: List[ast.Stmt]) -> List[NStmt]:
        out: List[NStmt] = []
        for stmt in stmts:
            self._normalize_stmt(stmt, out)
        return out

    def _arm(self, stmts: List[ast.Stmt]) -> List[NStmt]:
        """One branch arm: what it binds symbolically ends with it, and it may
        not re-bind what was bound on entry (see :attr:`symbolic`)."""
        saved = self.symbolic, self.frozen
        self.symbolic, self.frozen = dict(self.symbolic), frozenset(self.symbolic)
        try:
            return self.normalize_block(stmts)
        finally:
            self.symbolic, self.frozen = saved

    def _normalize_stmt(self, stmt: ast.Stmt, out: List[NStmt]) -> None:
        if isinstance(stmt, ast.SLocal):
            self._normalize_binding(stmt.name, stmt.init, stmt.span, out)
            return
        if isinstance(stmt, ast.SAssign):
            self._normalize_binding(stmt.name, stmt.value, stmt.span, out)
            return
        if isinstance(stmt, ast.SIf):
            cond = self._cond_of(stmt.cond, out)
            then_body = self._arm(stmt.then_body)
            else_body = self._arm(stmt.else_body)
            out.append(NIf(span=stmt.span, cond=cond, then_body=then_body, else_body=else_body))
            return
        if isinstance(stmt, ast.SMatch):
            out.extend(self._normalize_match(stmt))
            return
        if isinstance(stmt, ast.SGenerate):
            value = self._resolve_event_expr(stmt.event, out)
            multicast = stmt.multicast or value.group is not None
            out.append(dataclasses.replace(value, span=stmt.span, multicast=multicast))
            return
        if isinstance(stmt, ast.SExpr):
            self._normalize_effect_expr(stmt.expr, out)
            return
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _normalize_binding(self, name: str, init: ast.Expr, span, out: List[NStmt]) -> None:
        # event- and group-typed bindings are tracked symbolically, not materialised
        held: Union[NGenerate, Group, None] = self._group_of(init)
        if isinstance(init, ast.EEvent) or (
            isinstance(init, ast.ECall) and init.func in EVENT_COMBINATORS
        ) or (isinstance(init, ast.EVar) and isinstance(self.symbolic.get(init.name), NGenerate)):
            held = self._resolve_event_expr(init, out)
        if name in self.frozen and (held is not None or name in self.symbolic):
            raise TypeError_(
                f"event- or group-typed local {self.spell(name)} is re-bound in a branch arm: "
                "its value would depend on the path taken",
                span,
            )
        self.symbolic.pop(name, None)
        if held is not None:
            self.symbolic[name] = held
            return
        if any(isinstance(v, NGenerate) and name in stmt_reads(v) for v in self.symbolic.values()):
            raise TypeError_(
                f"{self.spell(name)} is assigned while an event-typed local holds it", span)
        operand = self.to_operand(init, out)
        # collapse `x = tmp` where tmp was just computed and nothing else
        # reads it, by renaming in place
        if (
            isinstance(operand, Var)
            and self.reads[operand.name] <= 1
            and out
            and isinstance(out[-1], (NOp, NHash, NCopy, NArrayOp, NPrim))
            and out[-1].dst == operand.name
        ):
            out[-1].dst = name
        else:
            out.append(NCopy(span=span, dst=name, src=operand))

    def _normalize_effect_expr(self, expr: ast.Expr, out: List[NStmt]) -> None:
        if isinstance(expr, ast.ECall):
            func = expr.func
            if func in ARRAY_METHODS:
                self._array_call(expr, out, want_result=False)
                return
            if func in ("drop", "forward", "flood", "printf"):
                args = [self.to_operand(a, out) for a in expr.args]
                out.append(NPrim(span=expr.span, prim=func, args=args))
                return
        # any other expression: evaluate for its (non-)effect
        self.to_operand(expr, out)

    def _normalize_match(self, stmt: ast.SMatch) -> List[NStmt]:
        out: List[NStmt] = []
        scrutinees = [self.to_operand(e, out) for e in stmt.scrutinees]

        # fold from the last branch backwards; an arm matches only when ALL
        # of its literal patterns hold, so every nested condition level must
        # fall through to the remaining arm chain, not to an empty else —
        # otherwise `match (x, y) with | 2, 0 -> A | _, _ -> B` silently runs
        # neither body when x == 2 but y != 0.  The chain is copied per
        # level: branch paths are mutually exclusive at runtime, so each copy
        # can execute at most once per pass.
        chain: List[NStmt] = []
        for pattern, body in reversed(stmt.branches):
            conds = [
                NCond(scrutinee, ast.BinOp.EQ, Const(value))
                for scrutinee, value in zip(scrutinees, pattern)
                if value is not None
            ]
            body_norm = self._arm(body)
            if not conds:
                chain = body_norm
                continue
            current = body_norm
            for extra in reversed(conds[1:]):
                current = [
                    NIf(
                        span=stmt.span,
                        cond=extra,
                        then_body=current,
                        else_body=ast.clone(chain),
                    )
                ]
            chain = [NIf(span=stmt.span, cond=conds[0], then_body=current, else_body=chain)]
        out.extend(chain)
        return out


    # -- passes over the normalised body -----------------------------------
    def snapshot_conditions(self, stmts: List[NStmt]) -> List[NStmt]:
        """The backend (:func:`repro.backend.tables.atomic_tables`) re-tests an
        ``if``'s condition at every table of both arms, and the arms' tables
        run in one pass: where an arm overwrites a condition operand and any
        table of the ``if`` can run after that write, test a snapshot taken
        ahead of the ``if`` instead."""
        out: List[NStmt] = []
        for stmt in stmts:
            if isinstance(stmt, NIf):
                stmt.then_body = self.snapshot_conditions(stmt.then_body)
                stmt.else_body = self.snapshot_conditions(stmt.else_body)
                arms = [
                    [s for s in _flatten(arm) if not isinstance(s, NIf)]
                    for arm in (stmt.then_body, stmt.else_body)
                ]
                for side in ("lhs", "rhs"):
                    operand = getattr(stmt.cond, side)
                    if isinstance(operand, Var) and any(
                        operand.name in stmt_writes(s) and (i + 1 < len(arm) or other)
                        for arm, other in (arms, arms[::-1])
                        for i, s in enumerate(arm)
                    ):
                        held = Var(self.fresh(operand.name))
                        out.append(NCopy(span=stmt.span, dst=held.name, src=operand))
                        stmt.cond = dataclasses.replace(stmt.cond, **{side: held})
            out.append(stmt)
        return out

    def check_assigned(self, stmts: List[NStmt], assigned: Set[str], written: Set[str]) -> Set[str]:
        """Definite assignment: refuse a body in which a local some statement
        writes can be read on a path that has not written it.  Returns what is
        assigned on every path through ``stmts``."""
        for stmt in stmts:
            for name in stmt_reads(stmt):
                if name in written and name not in assigned:
                    raise TypeError_(f"local {self.spell(name)} can be read on a path "
                                     "that has not assigned it", stmt.span)
            if isinstance(stmt, NIf):
                assigned = (self.check_assigned(stmt.then_body, set(assigned), written)
                            & self.check_assigned(stmt.else_body, set(assigned), written))
            else:
                assigned |= stmt_writes(stmt)
        return assigned


def _flatten(stmts: List[NStmt]) -> List[NStmt]:
    """Every statement under ``stmts``, branches included, pre-order."""
    out: List[NStmt] = []
    for stmt in stmts:
        out.append(stmt)
        if isinstance(stmt, NIf):
            out += _flatten(stmt.then_body) + _flatten(stmt.else_body)
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def normalize_handler(info: ProgramInfo, handler: ast.DHandler,
                      origins: Mapping[str, str] = MappingProxyType({})) -> NormalizedHandler:
    """Normalise one (already inlined) handler, or refuse it (see the module
    docstring) with a :class:`TypeError_`; ``origins`` names the inlined
    callees' locals (:attr:`Inliner.origins`)."""
    params = [p.name for p in handler.params]
    declared = [(p.name, p.span) for p in handler.params] + [
        (stmt.name, stmt.span) for stmt in ast.walk_stmts(handler.body)
        if isinstance(stmt, (ast.SLocal, ast.SAssign))]
    for name, span in declared:
        # the handler's scope is flat, and an inlined callee reads the constant
        if name == "SELF" or name in info.consts or info.is_global(name):
            raise TypeError_(f"local '{name}' shadows a constant or a global", span)
    normalizer = Normalizer(info, handler, origins)
    # handlers may exit early with a bare `return;` — restructure so the
    # statements it skips are actually skipped (a pipeline has no "return",
    # only branches), instead of silently dropping the return
    body = normalizer.normalize_block(eliminate_returns(handler.body))
    body = normalizer.snapshot_conditions(body)
    written = set().union(*(stmt_writes(stmt) for stmt in _flatten(body)))
    normalizer.check_assigned(body, set(params), written)
    return NormalizedHandler(name=handler.name, params=params, body=body)


def normalize_program(info: ProgramInfo) -> Dict[str, NormalizedHandler]:
    """Inline functions and normalise every handler of a checked program
    (the last step of :func:`~repro.frontend.type_checker.check_program`)."""
    inliner = Inliner(info)
    return {
        name: normalize_handler(info, inliner.inline_handler(handler), inliner.origins)
        for name, handler in info.handlers.items()
    }
