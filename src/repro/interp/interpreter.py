"""Direct interpretation of checked Lucid handlers.

The interpreter plays the role of the Lucid repository's own interpreter: it
executes handler bodies over runtime arrays so applications can be prototyped
and tested without a Tofino.  One call to :meth:`HandlerInterpreter.run`
corresponds to one pass of an event packet through the pipeline: it runs the
handler atomically, applies its stateful operations, and returns the list of
events the handler generated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InterpError
from repro.frontend import ast
from repro.frontend.memop_check import MemopShape, memop_shape
from repro.frontend.symbols import ARRAY_METHODS, EVENT_COMBINATORS, ProgramInfo
from repro.frontend.type_checker import CheckedProgram
from repro.interp.arrays import RuntimeArray
from repro.interp.events import EventInstance
from repro.ops import apply_binop, apply_unop, binop_template, lucid_hash, mask32

__all__ = [
    "ExecutionResult",
    "HandlerInterpreter",
    "SwitchRuntime",
    "lucid_hash",
]


class _ReturnValue(Exception):
    """Internal control flow for ``return`` statements."""

    def __init__(self, value: Optional[int]):
        self.value = value


class ExecutionResult:
    """What one handler invocation produced.

    A hand-written ``__slots__`` class (one is allocated per dispatched
    event, so construction cost is hot-path cost), and what every engine
    returns.  ``generated`` and ``prints`` may be any sequence — the compiled
    engines reuse shared empty tuples for handlers that provably
    generate/print nothing — so equality normalises both sides to lists.
    """

    __slots__ = ("generated", "prints", "dropped", "forwarded_port", "flooded")

    def __init__(
        self,
        generated: Optional[List[EventInstance]] = None,
        prints: Optional[List[str]] = None,
        dropped: bool = False,
        forwarded_port: Optional[int] = None,
        flooded: bool = False,
    ) -> None:
        self.generated = [] if generated is None else generated
        self.prints = [] if prints is None else prints
        self.dropped = dropped
        self.forwarded_port = forwarded_port
        self.flooded = flooded

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(generated={self.generated!r}, prints={self.prints!r}, "
            f"dropped={self.dropped!r}, forwarded_port={self.forwarded_port!r}, "
            f"flooded={self.flooded!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return (
            list(self.generated) == list(other.generated)
            and list(self.prints) == list(other.prints)
            and self.dropped == other.dropped
            and self.forwarded_port == other.forwarded_port
            and self.flooded == other.flooded
        )


class SwitchRuntime:
    """Per-switch runtime state: arrays, memops, externs, group members, and
    the clock.

    ``groups`` binds this switch's members of ``const group`` declarations
    (e.g. a topology's ``{"NEIGHBORS": [4, 5]}``), as a control plane writes
    a multicast group into the replication engine; a group it does not name
    keeps the members of the program's literal."""

    def __init__(self, checked: CheckedProgram, switch_id: int = 0,
                 groups: Optional[Mapping[str, Sequence[int]]] = None):
        self.checked = checked
        self.info: ProgramInfo = checked.info
        self.switch_id = switch_id
        self.time_ns = 0
        self.arrays: Dict[str, RuntimeArray] = {
            g.name: RuntimeArray(name=g.name, size=g.size, cell_width=g.cell_width)
            for g in self.info.globals.values()
        }
        #: group name -> this switch's members
        self.groups: Dict[str, Tuple[int, ...]] = {
            name: tuple(members) for name, members in self.info.consts.groups.items()
        }
        for name, members in (groups or {}).items():
            if name not in self.groups:
                raise InterpError(f"program declares no group named '{name}' "
                                  f"(declared: {', '.join(self.groups) or 'none'})")
            if not all(isinstance(m, int) for m in members):
                raise InterpError(f"group '{name}' members must be integers, got {members!r}")
            self.groups[name] = tuple(members)
        self.externs: Dict[str, Callable[..., int]] = {}
        self.random_state = 0x12345678
        self._memop_cache: Dict[str, Callable[[int, int], int]] = {}

    # -- bindings ------------------------------------------------------------
    def bind_extern(self, name: str, fn: Callable[..., int]) -> None:
        if name not in self.info.externs:
            raise InterpError(f"program declares no extern named '{name}'")
        self.externs[name] = fn

    def array(self, name: str) -> RuntimeArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise InterpError(f"no global array named '{name}'") from None

    # -- memops ----------------------------------------------------------------
    def memop_fn(self, name: str) -> Callable[[int, int], int]:
        """Compile (and cache) a memop declaration into a Python callable:
        the closure form of what :func:`memop_template` renders as source,
        and the oracle that rendering is swept against."""
        if name in self._memop_cache:
            return self._memop_cache[name]
        shape = memop_shape(self.info, name)

        def compile_expr(expr: ast.Expr) -> Callable[[int, int], int]:
            return _compile_memop_expr(expr, name, shape.stored, shape.local, self.info)

        if shape.cond is None:
            value_fn = compile_expr(shape.value)

            def run(stored: int, local: int) -> int:
                return mask32(value_fn(stored, local))

        else:
            cond_fn, value_fn, else_fn = map(
                compile_expr, (shape.cond, shape.value, shape.orelse))

            def run(stored: int, local: int) -> int:
                if cond_fn(stored, local):
                    return mask32(value_fn(stored, local))
                return mask32(else_fn(stored, local))

        self._memop_cache[name] = run
        return run

    # -- misc -------------------------------------------------------------------
    def random(self, bound: Optional[int] = None) -> int:
        # xorshift32: deterministic, seedable, and fast
        x = self.random_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.random_state = x & 0xFFFFFFFF
        if bound:
            return self.random_state % bound
        return self.random_state


def memop_template(shape: MemopShape, info: ProgramInfo, stored: str, local: str) -> str:
    """``shape`` as a Python expression over two operand source strings: the
    cell's old value and the call's argument (each may appear several times,
    so callers pass atoms).  Like :meth:`SwitchRuntime.memop_fn`'s closure
    before its final mask, which callers fold into the cell-width mask."""

    def render(expr: ast.Expr) -> str:
        if isinstance(expr, ast.EInt):
            return repr(expr.value)
        if isinstance(expr, ast.EBool):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.EVar):
            if expr.name == shape.stored:
                return stored
            if expr.name == shape.local:
                return local
            const = info.consts.lookup(expr.name)
            if const is not None:
                return repr(const)
            raise InterpError(
                f"undefined variable '{expr.name}' in memop '{shape.name}'"
            )
        if isinstance(expr, ast.EBinary):
            return binop_template(expr.op, render(expr.left), render(expr.right))
        raise InterpError(f"expression is not allowed in memop '{shape.name}'")

    if shape.cond is None:
        return render(shape.value)
    cond = render(shape.cond)
    return f"(({render(shape.value)}) if ({cond}) else ({render(shape.orelse)}))"


def _compile_memop_expr(
    expr: ast.Expr, memop_name: str, stored_name: str, local_name: str, info: ProgramInfo
) -> Callable[[int, int], int]:
    """Compile a memop-body expression into a closure over ``(stored, local)``.

    Memop bodies are restricted to pure arithmetic over the two parameters
    and program constants; the AST is walked once at compile time instead of
    on every stateful operation.
    """
    if isinstance(expr, ast.EInt):
        value = expr.value
        return lambda stored, local: value
    if isinstance(expr, ast.EBool):
        value = 1 if expr.value else 0
        return lambda stored, local: value
    if isinstance(expr, ast.EVar):
        if expr.name == stored_name:
            return lambda stored, local: stored
        if expr.name == local_name:
            return lambda stored, local: local
        const = info.consts.lookup(expr.name)
        if const is not None:
            return lambda stored, local: const
        raise InterpError(
            f"undefined variable '{expr.name}' in memop '{memop_name}'"
        )
    if isinstance(expr, ast.EBinary):
        left = _compile_memop_expr(expr.left, memop_name, stored_name, local_name, info)
        right = _compile_memop_expr(expr.right, memop_name, stored_name, local_name, info)
        op = expr.op
        return lambda stored, local: apply_binop(op, left(stored, local), right(stored, local))
    raise InterpError(f"expression is not allowed in memop '{memop_name}'")


class HandlerInterpreter:
    """Executes handlers of one program against a :class:`SwitchRuntime`."""

    def __init__(self, runtime: SwitchRuntime):
        self.runtime = runtime
        self.info = runtime.info

    # -- public entry --------------------------------------------------------
    def run(self, event: EventInstance) -> ExecutionResult:
        """Run the handler for ``event`` once, atomically."""
        handler = self.info.handlers.get(event.name)
        if handler is None:
            # events without handlers are legal: they exit the switch (e.g.
            # packets forwarded to end hosts); nothing happens locally.
            return ExecutionResult()
        if len(event.args) != len(handler.params):
            raise InterpError(
                f"event '{event.name}' carries {len(event.args)} arguments but the handler "
                f"expects {len(handler.params)}"
            )
        result = ExecutionResult()
        env: Dict[str, object] = {
            param.name: int(arg) for param, arg in zip(handler.params, event.args)
        }
        try:
            self._exec_block(handler.body, env, result)
        except _ReturnValue:
            pass
        return result

    # -- statements ------------------------------------------------------------
    def _exec_block(self, stmts: List[ast.Stmt], env: Dict[str, object], result: ExecutionResult) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, result)

    def _exec_stmt(self, stmt: ast.Stmt, env: Dict[str, object], result: ExecutionResult) -> None:
        if isinstance(stmt, ast.SLocal):
            env[stmt.name] = self._eval(stmt.init, env, result)
            return
        if isinstance(stmt, ast.SAssign):
            if stmt.name not in env:
                raise InterpError(f"assignment to undeclared variable '{stmt.name}'")
            env[stmt.name] = self._eval(stmt.value, env, result)
            return
        if isinstance(stmt, ast.SIf):
            # if/match branches execute in the handler's own scope (Lucid has a
            # single flat handler scope): locals declared or assigned inside a
            # branch remain visible after it.
            branch = stmt.then_body if self._truthy(stmt.cond, env, result) else stmt.else_body
            self._exec_block(branch, env, result)
            return
        if isinstance(stmt, ast.SMatch):
            values = [self._as_int(self._eval(e, env, result)) for e in stmt.scrutinees]
            for pattern, body in stmt.branches:
                if all(p is None or p == v for p, v in zip(pattern, values)):
                    self._exec_block(body, env, result)
                    return
            return
        if isinstance(stmt, ast.SReturn):
            value = self._eval(stmt.value, env, result) if stmt.value is not None else None
            raise _ReturnValue(self._as_int(value) if value is not None else None)
        if isinstance(stmt, ast.SGenerate):
            value = self._eval(stmt.event, env, result)
            if not isinstance(value, EventInstance):
                raise InterpError("generate expects an event value")
            result.generated.append(value)
            return
        if isinstance(stmt, ast.SExpr):
            self._eval(stmt.expr, env, result)
            return
        raise InterpError(f"unhandled statement {type(stmt).__name__}")

    def _truthy(self, expr: ast.Expr, env: Dict[str, object], result: ExecutionResult) -> bool:
        return bool(self._as_int(self._eval(expr, env, result)))

    @staticmethod
    def _as_int(value: object) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        raise InterpError(f"expected an integer, found {type(value).__name__}")

    # -- expressions -------------------------------------------------------------
    def _eval(self, expr: ast.Expr, env: Dict[str, object], result: ExecutionResult) -> object:
        if isinstance(expr, ast.EInt):
            return expr.value
        if isinstance(expr, ast.EBool):
            return 1 if expr.value else 0
        if isinstance(expr, ast.EVar):
            return self._eval_var(expr, env)
        if isinstance(expr, ast.EUnary):
            return apply_unop(expr.op, self._as_int(self._eval(expr.operand, env, result)))
        if isinstance(expr, ast.EBinary):
            left = self._as_int(self._eval(expr.left, env, result))
            # short-circuit booleans
            if expr.op is ast.BinOp.AND and not left:
                return 0
            if expr.op is ast.BinOp.OR and left:
                return 1
            right = self._as_int(self._eval(expr.right, env, result))
            return apply_binop(expr.op, left, right)
        if isinstance(expr, ast.EGroup):
            return tuple(self._as_int(self._eval(m, env, result)) for m in expr.members)
        if isinstance(expr, ast.EEvent):
            args = tuple(self._as_int(self._eval(a, env, result)) for a in expr.args)
            return EventInstance(name=expr.name, args=args, source=self.runtime.switch_id)
        if isinstance(expr, ast.ECall):
            return self._eval_call(expr, env, result)
        raise InterpError(f"unhandled expression {type(expr).__name__}")

    def _eval_var(self, expr: ast.EVar, env: Dict[str, object]) -> object:
        name = expr.name
        if name in env:
            return env[name]
        if name == "SELF":
            return self.runtime.switch_id
        if name in self.runtime.groups:
            return self.runtime.groups[name]
        const = self.info.consts.lookup(name)
        if const is not None:
            return const
        if self.info.is_global(name):
            return name  # arrays evaluate to their own name (a handle)
        raise InterpError(f"undefined variable '{name}'")

    # -- calls ----------------------------------------------------------------------
    def _eval_call(self, expr: ast.ECall, env: Dict[str, object], result: ExecutionResult) -> object:
        func = expr.func
        if func in ARRAY_METHODS:
            return self._eval_array_method(expr, env, result)
        if func in EVENT_COMBINATORS:
            return self._eval_combinator(expr, env, result)
        if func == "hash":
            args = [self._as_int(self._eval(a, env, result)) for a in expr.args]
            width = expr.size_args[0] if expr.size_args else 32
            return lucid_hash(width, args)
        if func == "Sys.time":
            return self.runtime.time_ns & 0xFFFFFFFF
        if func == "Sys.self":
            return self.runtime.switch_id
        if func == "Sys.random":
            bound = (
                self._as_int(self._eval(expr.args[0], env, result)) if expr.args else None
            )
            return self.runtime.random(bound)
        if func == "drop":
            result.dropped = True
            return 0
        if func == "forward":
            result.forwarded_port = self._as_int(self._eval(expr.args[0], env, result))
            return 0
        if func == "flood":
            result.flooded = True
            return 0
        if func == "printf":
            rendered = []
            for arg in expr.args:
                rendered.append(str(self._eval(arg, env, result)))
            result.prints.append(" ".join(rendered))
            return 0
        if self.info.is_function(func):
            fun = self.info.functions[func]
            call_env: Dict[str, object] = {}
            for param, arg in zip(fun.params, expr.args):
                call_env[param.name] = self._eval(arg, env, result)
            try:
                self._exec_block(fun.body, call_env, result)
            except _ReturnValue as ret:
                return ret.value if ret.value is not None else 0
            return 0
        if func in self.info.externs:
            fn = self.runtime.externs.get(func)
            args = [self._as_int(self._eval(a, env, result)) for a in expr.args]
            if fn is None:
                return 0
            return int(fn(*args))
        if self.info.is_event(func):
            args = tuple(self._as_int(self._eval(a, env, result)) for a in expr.args)
            return EventInstance(name=func, args=args, source=self.runtime.switch_id)
        raise InterpError(f"call to unknown function '{func}'")

    def _eval_array_method(
        self, expr: ast.ECall, env: Dict[str, object], result: ExecutionResult
    ) -> object:
        array_name = self._array_name(expr.args[0], env)
        array = self.runtime.array(array_name)
        index = self._as_int(self._eval(expr.args[1], env, result))
        rest = expr.args[2:]
        memops: List[str] = []
        values: List[int] = []
        for arg in rest:
            if isinstance(arg, ast.EVar) and self.info.is_memop(arg.name):
                memops.append(arg.name)
            else:
                values.append(self._as_int(self._eval(arg, env, result)))
        method = expr.func
        if method in ("Array.get", "Array.getm"):
            memop = self.runtime.memop_fn(memops[0]) if memops else None
            arg = values[0] if values else 0
            return array.get(index, memop, arg)
        if method in ("Array.set", "Array.setm"):
            if memops:
                memop = self.runtime.memop_fn(memops[0])
                array.set(index, memop=memop, arg=values[0] if values else 0)
            else:
                array.set(index, value=values[0] if values else 0)
            return 0
        if method == "Array.update":
            get_memop = self.runtime.memop_fn(memops[0]) if memops else None
            set_memop = self.runtime.memop_fn(memops[1]) if len(memops) > 1 else None
            get_arg = values[0] if values else 0
            set_arg = values[1] if len(values) > 1 else (values[0] if values else 0)
            return array.update(index, get_memop, get_arg, set_memop, set_arg)
        raise InterpError(f"unhandled array method {method}")

    def _array_name(self, expr: ast.Expr, env: Dict[str, object]) -> str:
        if isinstance(expr, ast.EVar):
            if self.info.is_global(expr.name):
                return expr.name
            value = env.get(expr.name)
            if isinstance(value, str) and self.info.is_global(value):
                return value
        raise InterpError("the first argument of an Array method must be a global array")

    def _eval_combinator(
        self, expr: ast.ECall, env: Dict[str, object], result: ExecutionResult
    ) -> EventInstance:
        event = self._eval(expr.args[0], env, result)
        if not isinstance(event, EventInstance):
            raise InterpError(f"{expr.func} expects an event value")
        arg = self._eval(expr.args[1], env, result)
        if expr.func == "Event.delay":
            return event.delay(self._as_int(arg))
        if isinstance(arg, tuple):
            return event.locate(arg)
        return event.locate(self._as_int(arg))
