"""Lucid's type checker and ordered effect checker (Sections 4 and 5).

:func:`check_program` is the whole check: parsing, memop checks, this
checker, then the midend, so that a program it accepts compiles.  The
checker performs, in one pass over each handler / function body:

* ordinary type checking (undefined variables, arity and argument types of
  calls, event payloads, return types, condition types, ...);
* memop *usage* checking (memops may only be passed to Array methods; Array
  methods must receive declared memops);
* the ordered type-and-effect analysis: every access to a global array is
  collected into a branch-aware :class:`~repro.frontend.effects.EffectSummary`
  and replayed through a :class:`~repro.frontend.effects.StageTracker`, which
  raises :class:`~repro.errors.OrderError` with source-level messages when a
  handler accesses globals out of declaration order or twice in one pass.

Functions (``fun``) are given polymorphic effect summaries so they can be
checked once and reused at any call site whose argument stages are compatible
— the practical version of the Appendix A system.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import OrderError, TypeError_
from repro.frontend import ast
from repro.frontend.effects import (
    BranchAccess,
    ConcreteAccess,
    EffectSummary,
    ParamAccess,
    StageTracker,
    validate_summary_order,
)
from repro.frontend.memop_check import check_all_memops
from repro.frontend.parser import parse_program
from repro.frontend.symbols import (
    ARRAY_METHODS,
    BUILTIN_FUNCTIONS,
    EVENT_COMBINATORS,
    ProgramInfo,
    collect_program_info,
)
from repro.frontend.types import (
    ArrayTy,
    BoolTy,
    EventTy,
    GroupTy,
    IntTy,
    Ty,
    VoidTy,
    compatible,
    from_surface,
)
from repro.ops import BINOPS, UNOPS, OpKind
from repro.records import field, record

if TYPE_CHECKING:  # pragma: no cover - the midend imports the frontend
    from repro.midend.normalize import NormalizedHandler


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@record
class HandlerCheckResult:
    """Per-handler results of checking: the ordered trace of global accesses
    (useful to the backend and to tests) and the final abstract stage."""

    name: str
    trace: List[ConcreteAccess] = field(default_factory=list)
    end_stage: int = 0


@record
class CheckedProgram:
    """A program that passed all frontend checks and the midend: every
    handler has a lowering, which the engines and the backend share.

    One checked program serves every switch running it: what differs between
    them (``SELF``, group members, externs, state) is each switch's
    :class:`~repro.interp.interpreter.SwitchRuntime`.  So each further
    lowering is cached on the object it comes from — the layout and
    codegen's module on this one, the stage plan on the layout's
    :class:`~repro.backend.compiler.CompiledProgram`."""

    program: ast.Program
    info: ProgramInfo
    handler_results: Dict[str, HandlerCheckResult] = field(default_factory=dict)
    #: handler name -> its inlined, normalised body (:func:`check_program`)
    normalized: Dict[str, NormalizedHandler] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.program.name


# ---------------------------------------------------------------------------
# event-constructor resolution (ECall -> EEvent)
# ---------------------------------------------------------------------------
def resolve_event_constructors(program: ast.Program, info: ProgramInfo) -> None:
    """Rewrite calls whose callee is a declared event into event expressions."""

    def resolve(expr: ast.Expr) -> ast.Expr:
        ast.map_subexprs(expr, resolve)
        if isinstance(expr, ast.ECall) and info.is_event(expr.func):
            return ast.EEvent(span=expr.span, name=expr.func, args=expr.args)
        return expr

    for decl in program.decls:
        if isinstance(decl, (ast.DHandler, ast.DFun, ast.DMemop)):
            for stmt in ast.walk_stmts(decl.body):
                ast.map_subexprs(stmt, resolve)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------
class _BodyContext:
    """Typing environment for one handler / function body."""

    def __init__(
        self,
        kind: str,
        name: str,
        env: Dict[str, Ty],
        array_params: Dict[str, int],
        ret: Ty,
    ):
        self.kind = kind  # "handler" | "fun"
        self.name = name
        self.env = env
        self.array_params = array_params  # param name -> param index
        self.ret = ret

    def child(self) -> "_BodyContext":
        return _BodyContext(self.kind, self.name, dict(self.env), self.array_params, self.ret)


class TypeChecker:
    """Checks one program; see :func:`check_program` for the entry point."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        self.fun_summaries: Dict[str, EffectSummary] = {}
        self.fun_rets: Dict[str, Ty] = {}
        self._checking: set = set()  # recursion detection for fun

    # -- top level --------------------------------------------------------
    def check(self) -> CheckedProgram:
        program = self.info.program
        resolve_event_constructors(program, self.info)
        # functions first (their summaries are needed at handler call sites)
        for fun in program.functions():
            self._summarise_function(fun.name)
        handler_results: Dict[str, HandlerCheckResult] = {}
        for handler in program.handlers():
            handler_results[handler.name] = self._check_handler(handler)
        return CheckedProgram(
            program=program,
            info=self.info,
            handler_results=handler_results,
        )

    # -- functions ---------------------------------------------------------
    def _summarise_function(self, name: str) -> Tuple[EffectSummary, Ty]:
        if name in self.fun_summaries:
            return self.fun_summaries[name], self.fun_rets[name]
        fun = self.info.functions[name]
        if name in self._checking:
            raise TypeError_(
                f"function '{name}' is recursive; recursion is only possible through "
                "events (generate), not function calls",
                fun.span,
            )
        self._checking.add(name)
        env: Dict[str, Ty] = {}
        array_params: Dict[str, int] = {}
        for index, param in enumerate(fun.params):
            ty = from_surface(param.ty)
            env[param.name] = ty
            if isinstance(ty, ArrayTy):
                array_params[param.name] = index
        ret = from_surface(fun.ret)
        ctx = _BodyContext("fun", name, env, array_params, ret)
        summary = self._check_block(fun.body, ctx)
        validate_summary_order(summary, self.info.global_order)
        self._checking.discard(name)
        self.fun_summaries[name] = summary
        self.fun_rets[name] = ret
        return summary, ret

    # -- handlers ----------------------------------------------------------
    def _check_handler(self, handler: ast.DHandler) -> HandlerCheckResult:
        env: Dict[str, Ty] = {}
        for param in handler.params:
            ty = from_surface(param.ty)
            if isinstance(ty, ArrayTy):
                raise TypeError_(
                    f"handler '{handler.name}' parameter '{param.name}' has array type; "
                    "events cannot carry persistent arrays",
                    param.span,
                )
            env[param.name] = ty
        ctx = _BodyContext("handler", handler.name, env, {}, VoidTy())
        summary = self._check_block(handler.body, ctx)
        tracker = StageTracker(self.info.global_order)
        tracker.replay(summary)
        return HandlerCheckResult(
            name=handler.name,
            trace=list(tracker.trace),
            end_stage=tracker.current,
        )

    # -- statements --------------------------------------------------------
    def _check_block(self, stmts: List[ast.Stmt], ctx: _BodyContext) -> EffectSummary:
        summary = EffectSummary()
        for stmt in stmts:
            summary.extend(self._check_stmt(stmt, ctx))
        return summary

    def _check_stmt(self, stmt: ast.Stmt, ctx: _BodyContext) -> EffectSummary:
        if isinstance(stmt, ast.SLocal):
            return self._check_local(stmt, ctx)
        if isinstance(stmt, ast.SAssign):
            return self._check_assign(stmt, ctx)
        if isinstance(stmt, ast.SIf):
            return self._check_if(stmt, ctx)
        if isinstance(stmt, ast.SMatch):
            return self._check_match(stmt, ctx)
        if isinstance(stmt, ast.SReturn):
            return self._check_return(stmt, ctx)
        if isinstance(stmt, ast.SGenerate):
            return self._check_generate(stmt, ctx)
        if isinstance(stmt, ast.SExpr):
            _, effects = self._check_expr(stmt.expr, ctx)
            return effects
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _check_local(self, stmt: ast.SLocal, ctx: _BodyContext) -> EffectSummary:
        actual, effects = self._check_expr(stmt.init, ctx)
        declared = actual if isinstance(stmt.ty, ast.TAuto) else from_surface(stmt.ty)
        if not compatible(declared, actual):
            raise TypeError_(
                f"cannot initialise '{stmt.name}' of type {declared} with a value of "
                f"type {actual}",
                stmt.span,
            )
        if stmt.name in ctx.env and isinstance(ctx.env[stmt.name], ArrayTy):
            raise TypeError_(f"'{stmt.name}' shadows an array parameter", stmt.span)
        ctx.env[stmt.name] = declared
        return effects

    def _check_assign(self, stmt: ast.SAssign, ctx: _BodyContext) -> EffectSummary:
        if stmt.name not in ctx.env:
            if self.info.is_global(stmt.name):
                raise TypeError_(
                    f"cannot assign directly to global '{stmt.name}'; use Array.set",
                    stmt.span,
                )
            raise TypeError_(f"assignment to undeclared variable '{stmt.name}'", stmt.span)
        declared = ctx.env[stmt.name]
        actual, effects = self._check_expr(stmt.value, ctx)
        if not compatible(declared, actual):
            raise TypeError_(
                f"cannot assign a value of type {actual} to '{stmt.name}' of type {declared}",
                stmt.span,
            )
        return effects

    def _check_if(self, stmt: ast.SIf, ctx: _BodyContext) -> EffectSummary:
        cond_ty, cond_effects = self._check_expr(stmt.cond, ctx)
        if not isinstance(cond_ty, (BoolTy, IntTy)):
            raise TypeError_(f"if-condition must be a boolean, found {cond_ty}", stmt.cond.span)
        then_summary = self._check_block(stmt.then_body, ctx.child())
        else_summary = self._check_block(stmt.else_body, ctx.child())
        result = cond_effects
        result.append(BranchAccess([then_summary, else_summary]))
        return result

    def _check_match(self, stmt: ast.SMatch, ctx: _BodyContext) -> EffectSummary:
        result = EffectSummary()
        for scrutinee in stmt.scrutinees:
            ty, effects = self._check_expr(scrutinee, ctx)
            if not isinstance(ty, (IntTy, BoolTy)):
                raise TypeError_(f"match scrutinee must be an integer, found {ty}", scrutinee.span)
            result.extend(effects)
        alternatives = []
        for pattern, body in stmt.branches:
            if len(pattern) != len(stmt.scrutinees):
                raise TypeError_(
                    f"match pattern has {len(pattern)} fields but there are "
                    f"{len(stmt.scrutinees)} scrutinees",
                    stmt.span,
                )
            alternatives.append(self._check_block(body, ctx.child()))
        result.append(BranchAccess(alternatives))
        return result

    def _check_return(self, stmt: ast.SReturn, ctx: _BodyContext) -> EffectSummary:
        if ctx.kind == "handler":
            if stmt.value is not None:
                raise TypeError_("handlers do not return values", stmt.span)
            return EffectSummary()
        if stmt.value is None:
            if not isinstance(ctx.ret, VoidTy):
                raise TypeError_(
                    f"function '{ctx.name}' must return a value of type {ctx.ret}", stmt.span
                )
            return EffectSummary()
        actual, effects = self._check_expr(stmt.value, ctx)
        if isinstance(ctx.ret, VoidTy):
            raise TypeError_(f"void function '{ctx.name}' cannot return a value", stmt.span)
        if not compatible(ctx.ret, actual):
            raise TypeError_(
                f"function '{ctx.name}' returns {ctx.ret} but this statement returns {actual}",
                stmt.span,
            )
        return effects

    def _check_generate(self, stmt: ast.SGenerate, ctx: _BodyContext) -> EffectSummary:
        ty, effects = self._check_expr(stmt.event, ctx)
        if not isinstance(ty, EventTy):
            raise TypeError_(
                f"generate expects an event, found {ty}", stmt.event.span
            )
        return effects

    # -- expressions -------------------------------------------------------
    def _check_expr(self, expr: ast.Expr, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        if isinstance(expr, ast.EInt):
            return IntTy(), EffectSummary()
        if isinstance(expr, ast.EBool):
            return BoolTy(), EffectSummary()
        if isinstance(expr, ast.EVar):
            return self._check_var(expr, ctx), EffectSummary()
        if isinstance(expr, ast.EUnary):
            return self._check_unary(expr, ctx)
        if isinstance(expr, ast.EBinary):
            return self._check_binary(expr, ctx)
        if isinstance(expr, ast.EGroup):
            effects = EffectSummary()
            for member in expr.members:
                ty, member_effects = self._check_expr(member, ctx)
                if not isinstance(ty, (IntTy, BoolTy)):
                    raise TypeError_("group members must be integers (locations)", member.span)
                effects.extend(member_effects)
            return GroupTy(), effects
        if isinstance(expr, ast.EEvent):
            return self._check_event_ctor(expr, ctx)
        if isinstance(expr, ast.ECall):
            return self._check_call(expr, ctx)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _check_var(self, expr: ast.EVar, ctx: _BodyContext) -> Ty:
        name = expr.name
        if name in ctx.env:
            return ctx.env[name]
        if self.info.is_global(name):
            g = self.info.globals[name]
            return ArrayTy(width=g.cell_width, stage=g.stage, global_name=name)
        if name in self.info.consts.groups:
            return GroupTy()
        if name in self.info.consts:
            return IntTy()
        if name == "SELF":
            return IntTy()
        if self.info.is_memop(name):
            raise TypeError_(
                f"memop '{name}' may only be used as an argument to an Array method",
                expr.span,
            )
        raise TypeError_(f"undefined variable '{name}'", expr.span)

    def _check_unary(self, expr: ast.EUnary, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        ty, effects = self._check_expr(expr.operand, ctx)
        if UNOPS[expr.op].kind is OpKind.LOGICAL:
            if not isinstance(ty, (BoolTy, IntTy)):
                raise TypeError_(f"'{expr.op.value}' expects a boolean, found {ty}", expr.span)
            return BoolTy(), effects
        if not isinstance(ty, IntTy):
            raise TypeError_(f"'{expr.op.value}' expects an integer, found {ty}", expr.span)
        return ty, effects

    def _check_binary(self, expr: ast.EBinary, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        left_ty, effects = self._check_expr(expr.left, ctx)
        right_ty, right_effects = self._check_expr(expr.right, ctx)
        effects.extend(right_effects)
        kind = BINOPS[expr.op].kind
        if kind is OpKind.LOGICAL:
            for ty, side in ((left_ty, expr.left), (right_ty, expr.right)):
                if not isinstance(ty, (BoolTy, IntTy)):
                    raise TypeError_(f"'{expr.op.value}' expects booleans, found {ty}", side.span)
            return BoolTy(), effects
        if kind is OpKind.COMPARISON:
            if isinstance(left_ty, (ArrayTy, EventTy)) or isinstance(right_ty, (ArrayTy, EventTy)):
                raise TypeError_(
                    f"cannot compare values of type {left_ty} and {right_ty}", expr.span
                )
            return BoolTy(), effects
        for ty, side in ((left_ty, expr.left), (right_ty, expr.right)):
            if not isinstance(ty, (IntTy, BoolTy)):
                raise TypeError_(
                    f"arithmetic operator '{expr.op.value}' expects integers, found {ty}",
                    side.span,
                )
        return IntTy(), effects

    def _check_event_ctor(self, expr: ast.EEvent, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        event = self.info.events.get(expr.name)
        if event is None:
            raise TypeError_(f"undefined event '{expr.name}'", expr.span)
        if len(expr.args) != len(event.params):
            raise TypeError_(
                f"event '{expr.name}' expects {len(event.params)} arguments, "
                f"found {len(expr.args)}",
                expr.span,
            )
        effects = EffectSummary()
        for arg, param in zip(expr.args, event.params):
            arg_ty, arg_effects = self._check_expr(arg, ctx)
            effects.extend(arg_effects)
            expected = from_surface(param.ty)
            if not compatible(expected, arg_ty):
                raise TypeError_(
                    f"argument '{param.name}' of event '{expr.name}' expects {expected}, "
                    f"found {arg_ty}",
                    arg.span,
                )
        return EventTy(), effects

    # -- calls -------------------------------------------------------------
    def _check_call(self, expr: ast.ECall, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        func = expr.func
        if func in ARRAY_METHODS:
            return self._check_array_method(expr, ctx)
        if func in EVENT_COMBINATORS:
            return self._check_event_combinator(expr, ctx)
        if func == "hash":
            return self._check_hash(expr, ctx)
        if func in ("Sys.time", "Sys.self", "Sys.random"):
            _, effects = self._check_args(expr, ctx)
            return IntTy(), effects
        if func in ("drop", "forward", "flood", "printf"):
            _, effects = self._check_args(expr, ctx)
            return VoidTy(), effects
        if self.info.is_function(func):
            return self._check_user_call(expr, ctx)
        if func in self.info.externs:
            extern = self.info.externs[func]
            if len(expr.args) != len(extern.params):
                raise TypeError_(
                    f"extern '{func}' expects {len(extern.params)} arguments, "
                    f"found {len(expr.args)}",
                    expr.span,
                )
            _, effects = self._check_args(expr, ctx)
            return from_surface(extern.ret), effects
        if self.info.is_memop(func):
            raise TypeError_(
                f"memop '{func}' cannot be called directly; pass it to an Array method",
                expr.span,
            )
        if self.info.is_event(func):
            event_expr = ast.EEvent(span=expr.span, name=func, args=expr.args)
            return self._check_event_ctor(event_expr, ctx)
        raise TypeError_(f"call to undefined function '{func}'", expr.span)

    def _check_args(self, expr: ast.ECall, ctx: _BodyContext) -> Tuple[List[Ty], EffectSummary]:
        effects = EffectSummary()
        types: List[Ty] = []
        for arg in expr.args:
            ty, arg_effects = self._check_expr(arg, ctx)
            types.append(ty)
            effects.extend(arg_effects)
        return types, effects

    def _array_access(
        self, array_expr: ast.Expr, ctx: _BodyContext, method: str
    ) -> Tuple[ArrayTy, EffectSummary]:
        """Type the array argument of an Array method and produce its access."""
        ty, effects = self._check_expr(array_expr, ctx)
        if not isinstance(ty, ArrayTy):
            raise TypeError_(
                f"the first argument of {method} must be a global array, found {ty}",
                array_expr.span,
            )
        if ty.stage is not None and ty.global_name is not None:
            effects.append(ConcreteAccess(ty.stage, ty.global_name, array_expr.span))
        elif isinstance(array_expr, ast.EVar) and array_expr.name in ctx.array_params:
            effects.append(
                ParamAccess(ctx.array_params[array_expr.name], array_expr.name, array_expr.span)
            )
        return ty, effects

    def _check_memop_arg(self, arg: ast.Expr, method: str) -> str:
        if not isinstance(arg, ast.EVar) or not self.info.is_memop(arg.name):
            raise TypeError_(
                f"{method} expects the name of a declared memop here", arg.span
            )
        return arg.name

    def _check_array_method(self, expr: ast.ECall, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        func = expr.func
        arities = BUILTIN_FUNCTIONS[func]
        if len(expr.args) not in arities:
            raise TypeError_(
                f"{func} expects {' or '.join(str(a) for a in arities)} arguments, "
                f"found {len(expr.args)}",
                expr.span,
            )
        array_ty, effects = self._array_access(expr.args[0], ctx, func)
        # index argument
        idx_ty, idx_effects = self._check_expr(expr.args[1], ctx)
        effects.extend(idx_effects)
        if not isinstance(idx_ty, (IntTy, BoolTy)):
            raise TypeError_(f"{func} index must be an integer, found {idx_ty}", expr.args[1].span)
        rest = expr.args[2:]
        value_ty = IntTy()
        if func == "Array.get":
            # Array.get(arr, idx) | Array.get(arr, idx, memop, arg)
            if len(rest) >= 1:
                self._check_memop_arg(rest[0], func)
            if len(rest) >= 2:
                self._check_int_arg(rest[1], ctx, effects, func)
            return value_ty, effects
        if func in ("Array.getm", "Array.setm"):
            self._check_memop_arg(rest[0], func)
            self._check_int_arg(rest[1], ctx, effects, func)
            return (value_ty if func == "Array.getm" else VoidTy()), effects
        if func == "Array.set":
            # Array.set(arr, idx, value) | Array.set(arr, idx, memop, arg)
            if len(rest) == 1:
                self._check_int_arg(rest[0], ctx, effects, func)
            else:
                self._check_memop_arg(rest[0], func)
                self._check_int_arg(rest[1], ctx, effects, func)
            return VoidTy(), effects
        if func == "Array.update":
            # Array.update(arr, idx, get_memop, get_arg, set_memop, set_arg)
            if len(rest) == 3:
                self._check_memop_arg(rest[0], func)
                self._check_int_arg(rest[1], ctx, effects, func)
                self._check_int_arg(rest[2], ctx, effects, func)
            else:
                self._check_memop_arg(rest[0], func)
                self._check_int_arg(rest[1], ctx, effects, func)
                self._check_memop_arg(rest[2], func)
                self._check_int_arg(rest[3], ctx, effects, func)
            return value_ty, effects
        raise AssertionError(f"unhandled array method {func}")

    def _check_int_arg(
        self, arg: ast.Expr, ctx: _BodyContext, effects: EffectSummary, func: str
    ) -> None:
        ty, arg_effects = self._check_expr(arg, ctx)
        effects.extend(arg_effects)
        if not isinstance(ty, (IntTy, BoolTy)):
            raise TypeError_(f"{func} expects an integer argument here, found {ty}", arg.span)

    def _check_event_combinator(
        self, expr: ast.ECall, ctx: _BodyContext
    ) -> Tuple[Ty, EffectSummary]:
        if len(expr.args) != 2:
            raise TypeError_(f"{expr.func} expects 2 arguments, found {len(expr.args)}", expr.span)
        event_ty, effects = self._check_expr(expr.args[0], ctx)
        if not isinstance(event_ty, EventTy):
            raise TypeError_(
                f"the first argument of {expr.func} must be an event, found {event_ty}",
                expr.args[0].span,
            )
        arg_ty, arg_effects = self._check_expr(expr.args[1], ctx)
        effects.extend(arg_effects)
        if expr.func == "Event.delay":
            if not isinstance(arg_ty, (IntTy, BoolTy)):
                raise TypeError_(
                    f"Event.delay expects a time in nanoseconds, found {arg_ty}",
                    expr.args[1].span,
                )
        else:  # locate / sslocate
            if not isinstance(arg_ty, (IntTy, BoolTy, GroupTy)):
                raise TypeError_(
                    f"{expr.func} expects a location or group, found {arg_ty}",
                    expr.args[1].span,
                )
        return EventTy(), effects

    def _check_hash(self, expr: ast.ECall, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        arg_tys, effects = self._check_args(expr, ctx)
        # hash units fold integer words only: an event or group argument has
        # no word representation and each engine would fail differently
        for arg, ty in zip(expr.args, arg_tys):
            if not isinstance(ty, (IntTy, BoolTy)):
                raise TypeError_(f"hash arguments must be integers, found {ty}", arg.span)
        return IntTy(), effects

    def _check_user_call(self, expr: ast.ECall, ctx: _BodyContext) -> Tuple[Ty, EffectSummary]:
        fun = self.info.functions[expr.func]
        summary, ret = self._summarise_function(expr.func)
        if len(expr.args) != len(fun.params):
            raise TypeError_(
                f"function '{expr.func}' expects {len(fun.params)} arguments, "
                f"found {len(expr.args)}",
                expr.span,
            )
        effects = EffectSummary()
        bindings: Dict[int, ConcreteAccess] = {}
        for index, (arg, param) in enumerate(zip(expr.args, fun.params)):
            arg_ty, arg_effects = self._check_expr(arg, ctx)
            effects.extend(arg_effects)
            expected = from_surface(param.ty)
            if not compatible(expected, arg_ty):
                raise TypeError_(
                    f"argument '{param.name}' of '{expr.func}' expects {expected}, "
                    f"found {arg_ty}",
                    arg.span,
                )
            if isinstance(expected, ArrayTy):
                if not isinstance(arg_ty, ArrayTy):
                    raise TypeError_(
                        f"argument '{param.name}' of '{expr.func}' must be a global array",
                        arg.span,
                    )
                if arg_ty.stage is not None and arg_ty.global_name is not None:
                    bindings[index] = ConcreteAccess(arg_ty.stage, arg_ty.global_name, arg.span)
        effects.extend(summary.substitute(bindings))
        return ret, effects


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------
def check_program(
    source: "str | ast.Program",
    name: str = "<string>",
    symbolic_bindings: Optional[Dict[str, int]] = None,
) -> CheckedProgram:
    """Parse (if needed) and fully check a Lucid program.

    Checking ends with the midend (:func:`~repro.midend.normalize.normalize_program`):
    a handler it cannot lower exactly is refused here, with its
    :class:`~repro.errors.TypeError_`, so a program that checks compiles.

    Raises :class:`~repro.errors.LucidError` subclasses on any failure; returns
    a :class:`CheckedProgram` on success.
    """
    from repro.midend.normalize import normalize_program  # the midend imports the frontend

    program = parse_program(source, name=name) if isinstance(source, str) else source
    info = collect_program_info(program, symbolic_bindings)
    info.memop_shapes = check_all_memops(program, info.consts)
    checked = TypeChecker(info).check()
    checked.normalized = normalize_program(info)
    return checked
