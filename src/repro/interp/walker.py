"""Direct interpretation of checked Lucid handlers: the ``reference`` engine,
the only importer of this module.

The tree walker plays the role of the Lucid repository's own interpreter: it
executes handler bodies over runtime arrays so applications can be prototyped
and tested without a Tofino.  One call to :meth:`HandlerInterpreter.run`
corresponds to one pass of an event packet through the pipeline: it runs the
handler atomically, applies its stateful operations, and returns the list of
events the handler generated.  An ``Array`` call is routed to
``RuntimeArray.get`` / ``set`` / ``update`` here by the walker itself,
independently of the routing the emitters and the P4 printer share.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import InterpError
from repro.frontend import ast
from repro.frontend.symbols import ARRAY_METHODS, EVENT_COMBINATORS
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, SwitchRuntime
from repro.ops import apply_binop, apply_unop, lucid_hash


class _ReturnValue(Exception):
    """Internal control flow for ``return`` statements."""

    def __init__(self, value: Optional[int]):
        self.value = value


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
