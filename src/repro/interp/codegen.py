"""Source-codegen fast path: compile checked handlers to flat Python source.

Where the tree-walking :class:`~repro.interp.interpreter.HandlerInterpreter`
re-interprets the AST on every event, this module emits *flat Python source
text* for every handler — plain locals, memop bodies and the ``repro.ops``
ALU helpers inlined at their call sites, constant-folded operands, and array
cell lists bound directly into the generated module — then compiles the
whole program once with :func:`compile`/``exec``.  A handler dispatch is then
a single Python function call with no interpretation overhead at all.

The generated module is keyed by :meth:`CheckedProgram.digest
<repro.frontend.type_checker.CheckedProgram.digest>` and cached process-wide,
so a fat-tree network running one application compiles each handler exactly
once no matter how many switches instantiate it.  Everything that may differ
between switches sharing a digest (the runtime clock/RNG, ``SELF``, group
member bindings, extern tables, array handles) is passed in through a
bindings dict consumed by the generated ``_build`` factory, which returns
per-switch handler functions closing over those bindings.

Semantics are pinned to the tree walker: identical results, identical
error strings raised at the same evaluation points, identical array
read/write counter increments, identical RNG consumption order.  Any
handler the emitter cannot lower falls back to the tree walker; the
differential suites in ``tests/test_compiled_interp.py``,
``tests/test_engines.py`` and ``repro.fuzz`` pin the parity.

Use ``repro.scenarios --engine codegen --dump-source`` (or
:func:`dump_program_source`) to inspect the generated text.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InterpError
from repro.frontend import ast
from repro.frontend.symbols import ARRAY_METHODS, EVENT_COMBINATORS, ProgramInfo
from repro.frontend.type_checker import CheckedProgram
from repro.interp.events import EventInstance
from repro.interp.interpreter import (
    ExecutionResult,
    HandlerInterpreter,
    MemopShape,
    SwitchRuntime,
    memop_shape,
    memop_template,
)
from repro.obs.metrics import OBS as _OBS, REGISTRY as _REGISTRY
from repro.ops import (
    CMP_OPS as _CMP_OPS,
    MASK32 as _MASK,
    apply_binop as _apply_binop,
    binop_template as _binop_template,
    hash_namespace as _hash_namespace,
    hash_template as _hash_template,
)

# only touched behind an ``if _OBS.enabled:`` guard (see repro.obs.metrics)
_M_CODEGEN_EVENTS = _REGISTRY.counter(
    "repro_engine_codegen_events_total",
    "Events executed through source-generated handler functions.")
_M_CODEGEN_FALLBACKS = _REGISTRY.counter(
    "repro_engine_codegen_fallbacks_total",
    "Events handled by the tree-walker because the handler did not codegen.")
_M_MODULE_CACHE_HITS = _REGISTRY.counter(
    "repro_engine_codegen_module_cache_hits_total",
    "Switches bound to a generated module already compiled for their digest.")
_M_MODULE_CACHE_MISSES = _REGISTRY.counter(
    "repro_engine_codegen_module_cache_misses_total",
    "Generated modules emitted and compiled (once per program digest).")

#: shared result for handlers that provably produce no effects (and for
#: events with no handler at all).  Consumers of :class:`ExecutionResult`
#: only read it, so one immutable instance serves every such invocation.
_EMPTY_RESULT = ExecutionResult((), ())

#: value of a generated local that is declared but not yet initialised
_UNDEF = object()

#: dictionary sentinel distinguishing "no handler" from "tree-walk fallback"
_NO_HANDLER = object()


class _EmitError(Exception):
    """The emitter cannot lower this handler: it falls back to the tree
    walker."""


#: binary operators whose result templates cannot raise (division is guarded)
_PURE_BINOPS = frozenset(_CMP_OPS) | {
    ast.BinOp.ADD, ast.BinOp.SUB, ast.BinOp.MUL, ast.BinOp.DIV, ast.BinOp.MOD,
    ast.BinOp.BITAND, ast.BinOp.BITOR, ast.BinOp.BITXOR,
    ast.BinOp.SHL, ast.BinOp.SHR,
}

_HELPERS = '''\
def _chk(v, name):
    if v is _UNDEF:
        raise _IE("undefined variable '%s'" % (name,))
    return v


def _undef(name):
    raise _IE("undefined variable '%s'" % (name,))


def _extern(fns, name, args):
    fn = fns.get(name)
    if fn is None:
        return 0
    return int(fn(*args))


def _resolve(arrays, value):
    if isinstance(value, str):
        arr = arrays.get(value)
        if arr is not None:
            return arr
    raise _IE("the first argument of an Array method must be a global array")
'''


class CodegenModule:
    """One generated module: shared by every switch whose checked program has
    the same digest."""

    __slots__ = ("name", "digest", "source", "binding_keys", "build",
                 "fallback_names", "handler_names")

    def __init__(self, name: str, digest: str, source: str,
                 binding_keys: List[str], build: Callable,
                 fallback_names: List[str], handler_names: List[str]):
        self.name = name
        self.digest = digest
        self.source = source
        #: ordered binding keys the ``_build`` factory expects, e.g.
        #: ``"runtime"``, ``"cells:ip_counts"``, ``"memop:incr"``
        self.binding_keys = binding_keys
        self.build = build
        self.fallback_names = fallback_names
        self.handler_names = handler_names


#: process-wide digest -> generated-module cache (the codegen analogue of the
#: shared memop cache in repro.interp.interpreter)
_MODULE_CACHE: Dict[str, CodegenModule] = {}


def compile_program(checked: CheckedProgram) -> CodegenModule:
    """Emit (or fetch the cached) generated module for ``checked``."""
    key = checked.digest()
    module = _MODULE_CACHE.get(key)
    if module is None:
        module = _MODULE_CACHE[key] = HandlerSourceCompiler(checked).compile()
        if _OBS.enabled:
            _M_MODULE_CACHE_MISSES.inc()
    elif _OBS.enabled:
        _M_MODULE_CACHE_HITS.inc()
    return module


def dump_program_source(checked: CheckedProgram) -> str:
    """The generated Python source for ``checked`` (``--dump-source``)."""
    return compile_program(checked).source


def _effective(stmts: Sequence[ast.Stmt]) -> List[ast.Stmt]:
    """Flatten SSeq and drop SNoop."""
    out: List[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.SNoop):
            continue
        if isinstance(stmt, ast.SSeq):
            out.extend(_effective(stmt.body))
        else:
            out.append(stmt)
    return out


class _Env:
    """Per-body name resolution state.

    ``scope`` maps Lucid names to generated Python locals and is *shared*
    mutable state threaded through branches in textual order — Lucid has a
    single flat handler scope — while ``defined`` (names known to hold a
    value on every path reaching this point) is copied per branch and
    intersected at joins."""

    __slots__ = ("scope", "defined")

    def __init__(self, scope: Dict[str, str], defined: Set[str]):
        self.scope = scope
        self.defined = defined

    def branch(self) -> "_Env":
        return _Env(self.scope, set(self.defined))


class HandlerSourceCompiler:
    """Walks every checked handler and emits one flat Python module."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.info: ProgramInfo = checked.info
        # binding registry: key -> generated variable name, in first-use order
        self._binding_vars: Dict[str, str] = {}
        self._binding_order: List[str] = []
        self._pack_arities: Set[int] = set()
        self._memop_cache: Dict[str, MemopShape] = {}
        # per-handler emission state (reset by _emit_handler)
        self.lines: List[Tuple[int, str]] = []
        self.indent = 1
        self._temp_n = 0
        self._site_n = 0
        self._undef_inits: Set[str] = set()
        self._effects: Set[str] = set()
        self._nonint: Set[str] = set()
        self._ret_stack: List[tuple] = []
        self._inlining: Set[str] = set()

    # -- bindings -----------------------------------------------------------
    def _bind(self, kind: str, name: str = "") -> str:
        key = kind if not name else f"{kind}:{name}"
        var = self._binding_vars.get(key)
        if var is None:
            var = {
                "runtime": "_rt",
                "self": "_SELF",
                "externs": "_EXT",
                "arrays": "_ARRAYS",
                "array": f"_A_{name}",
                "cells": f"_C_{name}",
                "group": f"_G_{name}",
                "memop": f"_M_{name}",
            }[kind]
            self._binding_vars[key] = var
            self._binding_order.append(key)
        return var

    # -- program assembly ---------------------------------------------------
    def compile(self) -> CodegenModule:
        handler_srcs: Dict[str, List[Tuple[int, str]]] = {}
        fallbacks: List[str] = []
        for name, handler in self.info.handlers.items():
            mark = len(self._binding_order)
            packs = set(self._pack_arities)
            try:
                handler_srcs[name] = self._emit_handler(handler)
            except Exception:
                # roll back bindings registered by the failed handler so the
                # runtime never has to materialise them (e.g. a malformed
                # memop would make memop_fn raise at bind time)
                for key in self._binding_order[mark:]:
                    del self._binding_vars[key]
                del self._binding_order[mark:]
                self._pack_arities = packs
                fallbacks.append(name)
        source = self._assemble(handler_srcs)
        namespace = {
            "__name__": f"repro.interp.codegen.<{self.checked.name}>",
            "_IE": InterpError,
            "_EV": EventInstance,
            "_ER": ExecutionResult,
            "_UNDEF": _UNDEF,
            "_EMPTY_R": _EMPTY_RESULT,
            **_hash_namespace(self._pack_arities),
        }
        code = compile(source, f"<codegen:{self.checked.name}>", "exec")
        exec(code, namespace)
        return CodegenModule(
            name=self.checked.name,
            digest=self.checked.digest(),
            source=source,
            binding_keys=list(self._binding_order),
            build=namespace["_build"],
            fallback_names=sorted(fallbacks),
            handler_names=sorted(handler_srcs),
        )

    def _assemble(self, handler_srcs: Dict[str, List[Tuple[int, str]]]) -> str:
        out: List[str] = [
            f"# Generated by repro.interp.codegen for program "
            f"{self.checked.name!r}.",
            "# Seeded globals: _IE (InterpError), _EV (EventInstance),",
            "# _ER (ExecutionResult), _EMPTY_R (shared no-effect result),",
            "# _UNDEF (undefined-slot sentinel), _c32 (zlib.crc32),",
            "# _pk<N> (struct '<NI' packers).",
            "",
            _HELPERS,
            "",
            "def _build(_B):",
        ]
        for key in self._binding_order:
            out.append(f"    {self._binding_vars[key]} = _B[{key!r}]")
        if not self._binding_order:
            out.append("    pass")
        for name in handler_srcs:
            out.append("")
            for level, text in handler_srcs[name]:
                out.append("    " * (level + 1) + text)
        out.append("")
        out.append("    return {")
        for name in handler_srcs:
            out.append(f"        {name!r}: _h_{name},")
        out.append("    }")
        out.append("")
        return "\n".join(out)

    # -- per-handler emission ----------------------------------------------
    def _emit_handler(self, handler: ast.DHandler) -> List[Tuple[int, str]]:
        self.lines = []
        self.indent = 1
        self._temp_n = 0
        self._site_n = 0
        self._undef_inits = set()
        self._ret_stack = [("handler",)]
        self._inlining = set()
        self._nonint = set()
        self._effects = self._scan_effects(handler.body, set())
        env = _Env({p.name: f"v_{p.name}" for p in handler.params},
                   {p.name for p in handler.params})
        terminated = self._stmts(handler.body, env)
        if not terminated:
            self._emit_result_return()
        body = self.lines
        # prologue: argc check, parameter binds, sentinel + effect inits
        head: List[Tuple[int, str]] = [(0, f"def _h_{handler.name}(_args):")]
        n = len(handler.params)
        head.append((1, f"if len(_args) != {n}:"))
        head.append((2,
            f"raise _IE(\"event '{handler.name}' carries %d arguments but "
            f"the handler expects {n}\" % (len(_args),))"))
        for i, p in enumerate(handler.params):
            head.append((1, f"v_{p.name} = int(_args[{i}])"))
        for py_name in sorted(self._undef_inits):
            head.append((1, f"{py_name} = _UNDEF"))
        eff = self._effects
        if "gen" in eff:
            head.append((1, "_gen = []"))
        if "prints" in eff:
            head.append((1, "_prints = []"))
        if "drop" in eff:
            head.append((1, "_drop = False"))
        if "fwd" in eff:
            head.append((1, "_fwd = None"))
        if "flood" in eff:
            head.append((1, "_flood = False"))
        src = head + body
        # compile the handler in isolation: an emitter bug becomes a tree
        # walker fallback instead of a broken module
        probe = "\n".join("    " * lv + tx for lv, tx in src)
        compile(probe, f"<codegen-probe:{handler.name}>", "exec")
        return src

    def _emit_result_return(self) -> None:
        eff = self._effects
        if not eff:
            # no generate/printf/drop/forward/flood anywhere in the handler
            # (or its callees): every invocation produces the same empty
            # result, so return a shared immutable singleton — consumers
            # only read results, never mutate them.
            self._line("return _EMPTY_R")
            return
        gen = "_gen" if "gen" in eff else "()"
        prints = "_prints" if "prints" in eff else "()"
        drop = "_drop" if "drop" in eff else "False"
        fwd = "_fwd" if "fwd" in eff else "None"
        flood = "_flood" if "flood" in eff else "False"
        self._line(f"return _ER({gen}, {prints}, {drop}, {fwd}, {flood})")

    def _scan_effects(self, stmts: Sequence[ast.Stmt], seen: Set[str]) -> Set[str]:
        """The effect kinds ``stmts`` (and the functions they call) can
        produce; also collects into ``_nonint`` every local declared with a
        non-integer type — handler parameters and other locals hold ints."""
        eff: Set[str] = set()

        def walk_expr(e: ast.Expr) -> None:
            if isinstance(e, ast.ECall):
                f = e.func
                if f == "printf":
                    eff.add("prints")
                elif f == "drop":
                    eff.add("drop")
                elif f == "forward":
                    eff.add("fwd")
                elif f == "flood":
                    eff.add("flood")
                elif self.info.is_function(f) and f not in seen:
                    seen.add(f)
                    eff.update(self._scan_effects(self.info.functions[f].body, seen))
                elif self.info.is_event(f):
                    pass
                for a in e.args:
                    walk_expr(a)
            elif isinstance(e, ast.EUnary):
                walk_expr(e.operand)
            elif isinstance(e, ast.EBinary):
                walk_expr(e.left)
                walk_expr(e.right)
            elif isinstance(e, (ast.EGroup, ast.EEvent)):
                for a in (e.members if isinstance(e, ast.EGroup) else e.args):
                    walk_expr(a)

        def walk_stmt(s: ast.Stmt) -> None:
            if isinstance(s, ast.SLocal):
                if not isinstance(s.ty, (ast.TInt, ast.TBool)):
                    self._nonint.add(s.name)
                walk_expr(s.init)
            elif isinstance(s, ast.SAssign):
                walk_expr(s.value)
            elif isinstance(s, ast.SIf):
                walk_expr(s.cond)
                for t in s.then_body:
                    walk_stmt(t)
                for t in s.else_body:
                    walk_stmt(t)
            elif isinstance(s, ast.SMatch):
                for e in s.scrutinees:
                    walk_expr(e)
                for _, body in s.branches:
                    for t in body:
                        walk_stmt(t)
            elif isinstance(s, ast.SReturn):
                if s.value is not None:
                    walk_expr(s.value)
            elif isinstance(s, ast.SGenerate):
                eff.add("gen")
                walk_expr(s.event)
            elif isinstance(s, ast.SExpr):
                walk_expr(s.expr)
            elif isinstance(s, ast.SSeq):
                for t in s.body:
                    walk_stmt(t)

        for s in stmts:
            walk_stmt(s)
        return eff

    # -- low-level emission helpers ----------------------------------------
    def _line(self, text: str) -> None:
        self.lines.append((self.indent, text))

    def _temp(self) -> str:
        self._temp_n += 1
        return f"_t{self._temp_n}"

    @staticmethod
    def _is_atom(s: str) -> bool:
        return s.isidentifier() or s.lstrip("-").isdigit() or (
            s.startswith("'") and s.endswith("'") and s.count("'") == 2)

    def _to_temp(self, s: str) -> str:
        t = self._temp()
        self._line(f"{t} = {s}")
        return t

    def _force_safe(self, s: str, safe: bool) -> str:
        """An expression string that may be re-evaluated / reordered freely."""
        if safe:
            return s
        return self._to_temp(s)

    def _bindable(self, s: str, safe: bool, uses: int = 1) -> str:
        """Hoist to a temp when unsafe, or when a non-atomic pure expression
        would be duplicated."""
        if not safe:
            return self._to_temp(s)
        if uses > 1 and not self._is_atom(s):
            return self._to_temp(s)
        return s

    def _buffered(self, fn, *args):
        """Run ``fn`` capturing emitted lines into a private buffer."""
        saved = self.lines
        self.lines = []
        try:
            result = fn(*args)
            return result, self.lines
        finally:
            self.lines = saved

    def _parts(self, exprs: Sequence[ast.Expr], env: _Env) -> List[Tuple[str, bool]]:
        """Compile sibling expressions preserving left-to-right evaluation:
        any unsafe part followed by a part with prelude statements is hoisted
        to a temp so its evaluation cannot drift past its siblings'."""
        compiled = []
        for e in exprs:
            (s, safe), buf = self._buffered(self._value, e, env)
            compiled.append([buf, s, safe])
        last_prelude = -1
        for i, (buf, _, _) in enumerate(compiled):
            if buf:
                last_prelude = i
        out: List[Tuple[str, bool]] = []
        for i, (buf, s, safe) in enumerate(compiled):
            self.lines.extend(buf)
            if i < last_prelude and not safe:
                out.append((self._to_temp(s), True))
            else:
                out.append((s, safe))
        return out

    # -- statements ---------------------------------------------------------
    def _stmts(self, stmts: Sequence[ast.Stmt], env: _Env) -> bool:
        terminated = False
        for stmt in _effective(stmts):
            if self._stmt(stmt, env):
                terminated = True
        return terminated

    def _stmt(self, stmt: ast.Stmt, env: _Env) -> bool:
        if isinstance(stmt, ast.SLocal):
            # the initialiser is emitted *before* the name is (re)declared,
            # so a name it mentions resolves to the earlier binding
            s, safe = self._value(stmt.init, env)
            py = env.scope.get(stmt.name)
            if py is None:
                py = env.scope[stmt.name] = self._local_name(stmt.name)
            self._line(f"{py} = {s}")
            env.defined.add(stmt.name)
            return False
        if isinstance(stmt, ast.SAssign):
            name = stmt.name
            py = env.scope.get(name)
            if py is None:
                # never declared: bind the name, emit-check the value (an
                # _EmitError still falls back), and raise before evaluating it
                env.scope[name] = self._local_name(name)
                self._buffered(self._value, stmt.value, env)
                self._line(
                    f"raise _IE(\"assignment to undeclared variable '{name}'\")")
                return True
            if name not in env.defined:
                self._undef_inits.add(py)
                self._line(f"if {py} is _UNDEF:")
                self.indent += 1
                self._line(
                    f"raise _IE(\"assignment to undeclared variable '{name}'\")")
                self.indent -= 1
            s, _ = self._value(stmt.value, env)
            self._line(f"{py} = {s}")
            env.defined.add(name)
            return False
        if isinstance(stmt, ast.SIf):
            return self._stmt_if(stmt, env)
        if isinstance(stmt, ast.SMatch):
            return self._stmt_match(stmt, env)
        if isinstance(stmt, ast.SReturn):
            return self._stmt_return(stmt, env)
        if isinstance(stmt, ast.SGenerate):
            v, _ = self._value(stmt.event, env)
            if not self._statically_event(stmt.event):
                v = v if self._is_atom(v) else self._to_temp(v)
                self._line(f"if not isinstance({v}, _EV):")
                self.indent += 1
                self._line("raise _IE(\"generate expects an event value\")")
                self.indent -= 1
            self._line(f"_gen.append({v})")
            return False
        if isinstance(stmt, ast.SExpr):
            s, safe = self._value(stmt.expr, env)
            if not safe:
                self._line(s)
            return False
        raise _EmitError(f"unhandled statement {type(stmt).__name__}")

    def _stmt_if(self, stmt: ast.SIf, env: _Env) -> bool:
        then_body = _effective(stmt.then_body)
        else_body = _effective(stmt.else_body)
        cond, safe = self._cond(stmt.cond, env)
        if not then_body and not else_body:
            # the condition may have side effects; a pure one can be elided
            if not safe:
                self._line(cond if not cond.startswith("not ") else f"({cond})")
            return False
        if not then_body:
            self._line(f"if not ({cond}):")
            self.indent += 1
            benv = env.branch()
            term = self._stmts(else_body, benv)
            self.indent -= 1
            env.defined &= benv.defined if not term else env.defined
            return False
        self._line(f"if {cond}:")
        self.indent += 1
        tenv = env.branch()
        tterm = self._stmts(then_body, tenv)
        self.indent -= 1
        if not else_body:
            if not tterm:
                env.defined &= tenv.defined
            return False
        self._line("else:")
        self.indent += 1
        eenv = env.branch()
        eterm = self._stmts(else_body, eenv)
        self.indent -= 1
        if tterm and eterm:
            return True
        if tterm:
            survivors = eenv.defined
        elif eterm:
            survivors = tenv.defined
        else:
            survivors = tenv.defined & eenv.defined
        env.defined.clear()
        env.defined.update(survivors)
        return False

    def _stmt_match(self, stmt: ast.SMatch, env: _Env) -> bool:
        # all scrutinees are evaluated first, even if no branch matches
        parts = self._parts(stmt.scrutinees, env)
        scruts = [self._force_safe(s, safe) for s, safe in parts]
        first = True
        emitted_catchall = False
        terms: List[bool] = []
        for pattern, body in stmt.branches:
            conds = [
                f"{scruts[i]} == {p}"
                for i, p in enumerate(pattern[: len(scruts)])
                if p is not None
            ]
            benv = env.branch()
            if not conds:
                if first:
                    terms.append(self._stmts(body, benv))
                else:
                    self._line("else:")
                    self.indent += 1
                    if not self._stmts(body, benv):
                        self._line("pass")
                        terms.append(False)
                    else:
                        terms.append(True)
                    self.indent -= 1
                emitted_catchall = True
                break
            kw = "if" if first else "elif"
            self._line(f"{kw} {' and '.join(conds)}:")
            self.indent += 1
            if not self._stmts(body, benv):
                self._line("pass")
                terms.append(False)
            else:
                terms.append(True)
            self.indent -= 1
            first = False
        # conservative join: declarations from branches stay maybe-undefined
        return emitted_catchall and bool(terms) and all(terms)

    def _stmt_return(self, stmt: ast.SReturn, env: _Env) -> bool:
        top = self._ret_stack[-1]
        if stmt.value is not None:
            s, safe = self._value(stmt.value, env)
        else:
            s, safe = None, True
        if top[0] == "handler":
            # handler-level return: the value is evaluated then discarded
            if s is not None and not safe:
                self._line(s)
            self._emit_result_return()
            return True
        ret_var = top[1]
        if s is None:
            self._line(f"{ret_var} = 0")
        else:
            self._line(f"{ret_var} = {s}")
        self._line("break")
        return True

    def _statically_event(self, e: ast.Expr) -> bool:
        if isinstance(e, ast.EEvent):
            return True
        if isinstance(e, ast.ECall):
            return e.func in EVENT_COMBINATORS or self.info.is_event(e.func)
        return False

    def _local_name(self, name: str) -> str:
        prefix = self._ret_stack[-1][2] if self._ret_stack[-1][0] == "fun" else "v_"
        return f"{prefix}{name}"

    def _flush(self, buf: List[Tuple[int, str]], delta: int = 0) -> None:
        if delta:
            self.lines.extend((lv + delta, tx) for lv, tx in buf)
        else:
            self.lines.extend(buf)

    # -- constant folding ---------------------------------------------------
    def _fold(self, e: ast.Expr, env: _Env) -> Optional[int]:
        if isinstance(e, ast.EInt):
            return e.value
        if isinstance(e, ast.EBool):
            return 1 if e.value else 0
        if isinstance(e, ast.EVar):
            name = e.name
            # SELF and group constants are bindings, never folded: they vary
            # between switches that share one generated module
            if name in env.scope or name == "SELF" or name in self.info.consts.groups:
                return None
            return self.info.consts.lookup(name)
        if isinstance(e, ast.EUnary):
            v = self._fold(e.operand, env)
            if v is None:
                return None
            if e.op is ast.UnOp.NEG:
                return (-v) & _MASK
            if e.op is ast.UnOp.BITNOT:
                return ~v & _MASK
            return 0 if v else 1
        if isinstance(e, ast.EBinary):
            left = self._fold(e.left, env)
            if left is None:
                return None
            right = self._fold(e.right, env)
            if right is None:
                return None
            if e.op is ast.BinOp.AND:
                return 0 if not left else (1 if right else 0)
            if e.op is ast.BinOp.OR:
                return 1 if left else (1 if right else 0)
            try:
                return _apply_binop(e.op, left, right)
            except Exception:
                return None
        return None

    # -- expressions --------------------------------------------------------
    def _value(self, e: ast.Expr, env: _Env) -> Tuple[str, bool]:
        folded = self._fold(e, env)
        if folded is not None:
            return (repr(folded), True)
        if isinstance(e, ast.EVar):
            return self._var(e.name, env)
        if isinstance(e, ast.EUnary):
            s, safe = self._value(e.operand, env)
            if e.op is ast.UnOp.NEG:
                return (f"((-({s})) & 4294967295)", safe)
            if e.op is ast.UnOp.BITNOT:
                return (f"((~({s})) & 4294967295)", safe)
            return (f"(0 if ({s}) else 1)", safe)
        if isinstance(e, ast.EBinary):
            return self._binary(e, env)
        if isinstance(e, ast.EGroup):
            parts = self._parts(e.members, env)
            if not parts:
                return ("()", True)
            items = ", ".join(f"({s})" for s, _ in parts)
            return (f"({items},)", all(safe for _, safe in parts))
        if isinstance(e, ast.EEvent):
            return self._event_ctor(e.name, e.args, env)
        if isinstance(e, ast.ECall):
            return self._call(e, env)
        raise _EmitError(f"unhandled expression {type(e).__name__}")

    def _var(self, name: str, env: _Env) -> Tuple[str, bool]:
        info = self.info
        # fallback chain for names not bound in the handler scope: SELF, then
        # group constants, then scalar constants, then global array handles
        have_fb = True
        if name == "SELF":
            fb = self._bind("self")
        elif name in info.consts.groups:
            fb = self._bind("group", name)
        elif info.consts.lookup(name) is not None:
            fb = repr(info.consts.lookup(name))
        elif info.is_global(name):
            fb = repr(name)
        else:
            have_fb = False
            fb = ""
        py = env.scope.get(name)
        if py is None:
            if have_fb:
                return (fb, True)
            return (f"_undef({name!r})", False)
        if name in env.defined:
            return (py, True)
        self._undef_inits.add(py)
        if have_fb:
            return (f"({fb} if {py} is _UNDEF else {py})", True)
        return (f"_chk({py}, {name!r})", False)

    def _binary(self, e: ast.EBinary, env: _Env) -> Tuple[str, bool]:
        op = e.op
        if op is ast.BinOp.AND or op is ast.BinOp.OR:
            ls, lsafe = self._value(e.left, env)
            (rs, rsafe), rbuf = self._buffered(self._value, e.right, env)
            if not rbuf:
                if op is ast.BinOp.AND:
                    return (f"(0 if not ({ls}) else (1 if ({rs}) else 0))",
                            lsafe and rsafe)
                return (f"(1 if ({ls}) else (1 if ({rs}) else 0))",
                        lsafe and rsafe)
            # the right operand needs statements: lower the short-circuit
            t = self._temp()
            if op is ast.BinOp.AND:
                self._line(f"{t} = 0")
                self._line(f"if ({ls}):")
            else:
                self._line(f"{t} = 1")
                self._line(f"if not ({ls}):")
            self.indent += 1
            self._flush(rbuf, 1)
            self._line(f"{t} = 1 if ({rs}) else 0")
            self.indent -= 1
            return (t, True)
        parts = self._parts([e.left, e.right], env)
        (ls, lsafe), (rs, rsafe) = parts
        if op in (ast.BinOp.DIV, ast.BinOp.MOD):
            # the guarded template skips the dividend when the divisor is
            # zero and names the divisor twice: hoist an effectful dividend
            # so it always runs, then a non-trivial divisor so it runs once
            if not lsafe:
                ls, lsafe = self._to_temp(ls), True
            if not self._is_atom(rs):
                rs, rsafe = self._to_temp(rs), True
        return (_binop_template(op, ls, rs), lsafe and rsafe)

    def _cond(self, e: ast.Expr, env: _Env) -> Tuple[str, bool]:
        folded = self._fold(e, env)
        if folded is not None:
            return (repr(folded), True)
        if isinstance(e, ast.EBinary):
            op = e.op
            if op in _CMP_OPS:
                parts = self._parts([e.left, e.right], env)
                (ls, lsafe), (rs, rsafe) = parts
                return (f"({ls}) {_CMP_OPS[op]} ({rs})", lsafe and rsafe)
            if op is ast.BinOp.AND or op is ast.BinOp.OR:
                ls, lsafe = self._cond(e.left, env)
                (rs, rsafe), rbuf = self._buffered(self._cond, e.right, env)
                if not rbuf:
                    kw = "and" if op is ast.BinOp.AND else "or"
                    return (f"({ls}) {kw} ({rs})", lsafe and rsafe)
                t = self._temp()
                if op is ast.BinOp.AND:
                    self._line(f"{t} = False")
                    self._line(f"if {ls}:")
                else:
                    self._line(f"{t} = True")
                    self._line(f"if not ({ls}):")
                self.indent += 1
                self._flush(rbuf, 1)
                self._line(f"{t} = {rs}")
                self.indent -= 1
                return (t, True)
        if isinstance(e, ast.EUnary) and e.op is ast.UnOp.NOT:
            s, safe = self._cond(e.operand, env)
            return (f"not ({s})", safe)
        return self._value(e, env)

    # -- calls --------------------------------------------------------------
    def _event_ctor(self, name: str, args: Sequence[ast.Expr], env: _Env,
                    chain: Sequence[Tuple[str, ast.Expr]] = ()) -> Tuple[str, bool]:
        """One pre-shaped ``_EV(name, args, delay_ns, location, group, SELF)``
        for an event constructor under ``chain`` — its statically shaped
        ``(combinator, argument)`` wrappers, innermost first (see
        :meth:`_static_chain`).  Arguments evaluate left to right: constructor
        arguments, then each combinator's, as the nested calls would."""
        parts = [s for s, _ in self._parts([*args, *(a for _, a in chain)], env)]
        tup = f"({', '.join(f'({s})' for s in parts[:len(args)])},)" if args else "()"
        delay, location, group = [], "-1", "None"
        for (shape, _), s in zip(chain, parts[len(args):]):
            if shape == "delay":
                delay.append(s if self._is_atom(s) else f"({s})")
            elif shape == "group":
                group = s
            else:
                location = s
        # unsafe: each evaluation allocates a distinct instance
        return (f"_EV({name!r}, {tup}, {' + '.join(delay) or '0'}, {location}, "
                f"{group}, {self._bind('self')})", False)

    def _static_chain(self, e: ast.Expr, env: _Env):
        """Flatten ``Event.delay`` / ``Event.locate`` calls over an event
        constructor into ``(name, args, chain)`` for :meth:`_event_ctor`, or
        None when the chain is not static: its base is some other event value,
        or a locate argument cannot be told apart syntactically as a group (a
        literal or a group constant) or a switch id (arithmetic, a constant,
        or a local that only ever holds an int)."""
        chain = []
        while isinstance(e, ast.ECall) and e.func in EVENT_COMBINATORS:
            arg = e.args[1]
            name = arg.name if isinstance(arg, ast.EVar) else None
            if e.func == "Event.delay":
                shape = "delay"
            elif isinstance(arg, ast.EGroup) or (
                    name in self.info.consts.groups and name not in env.scope):
                shape = "group"
            elif name in env.scope:
                if (env.scope[name] != f"v_{name}" or name not in env.defined
                        or name in self._nonint):
                    return None
                shape = "switch"
            elif isinstance(arg, (ast.EInt, ast.EBool, ast.EVar, ast.EUnary, ast.EBinary)):
                shape = "switch"
            else:
                return None
            chain.insert(0, (shape, arg))
            e = e.args[0]
        return (e.name, e.args, chain) if isinstance(e, ast.EEvent) else None

    def _call(self, e: ast.ECall, env: _Env) -> Tuple[str, bool]:
        func = e.func
        info = self.info
        if func in ARRAY_METHODS:
            return self._array_method(e, env)
        if func in EVENT_COMBINATORS:
            return self._combinator(e, env)
        if func == "hash":
            width = e.size_args[0] if e.size_args else 32
            parts = self._parts(e.args, env)
            self._pack_arities.add(len(parts) + 1)
            return (_hash_template(width, [s for s, _ in parts]),
                    all(safe for _, safe in parts))
        if func == "Sys.time":
            return (f"({self._bind('runtime')}.time_ns & 4294967295)", True)
        if func == "Sys.self":
            return (self._bind("self"), True)
        if func == "Sys.random":
            rt = self._bind("runtime")
            if e.args:
                s, _ = self._value(e.args[0], env)
                return (f"{rt}.random({s})", False)
            return (f"{rt}.random()", False)
        if func == "drop":
            self._line("_drop = True")
            return ("0", True)
        if func == "forward":
            s, _ = self._value(e.args[0], env)
            self._line(f"_fwd = {s}")
            return ("0", True)
        if func == "flood":
            self._line("_flood = True")
            return ("0", True)
        if func == "printf":
            parts = self._parts(e.args, env)
            if not parts:
                self._line('_prints.append("")')
            elif len(parts) == 1:
                self._line(f"_prints.append(str({parts[0][0]}))")
            else:
                items = ", ".join(f"str({s})" for s, _ in parts)
                self._line(f'_prints.append(" ".join(({items},)))')
            return ("0", True)
        if info.is_function(func):
            return self._user_call(func, e.args, env)
        if func in info.externs:
            parts = self._parts(e.args, env)
            if parts:
                items = ", ".join(f"({s})" for s, _ in parts)
                tup = f"({items},)"
            else:
                tup = "()"
            return (f"_extern({self._bind('externs')}, {func!r}, {tup})", False)
        if info.is_event(func):
            return self._event_ctor(func, e.args, env)
        raise _EmitError(f"call to unknown function '{func}'")

    def _combinator(self, e: ast.ECall, env: _Env) -> Tuple[str, bool]:
        static = self._static_chain(e, env)
        if static is not None:
            name, args, chain = static
            return self._event_ctor(name, args, env, chain)
        func = e.func
        ev_expr, arg_expr = e.args[0], e.args[1]
        s, _ = self._value(ev_expr, env)
        tv = s if self._is_atom(s) else self._to_temp(s)
        if not self._statically_event(ev_expr):
            self._line(f"if not isinstance({tv}, _EV):")
            self.indent += 1
            self._line(f"raise _IE(\"{func} expects an event value\")")
            self.indent -= 1
        # the second argument is evaluated only after the event-type check
        a, _ = self._value(arg_expr, env)
        method = "delay" if func == "Event.delay" else "locate"
        return (self._to_temp(f"{tv}.{method}({a})"), True)

    def _user_call(self, func: str, args: Sequence[ast.Expr], env: _Env) -> Tuple[str, bool]:
        if func in self._inlining:
            raise _EmitError(f"recursive function '{func}'")
        fun = self.info.functions[func]
        nparams = len(fun.params)
        self._inlining.add(func)
        try:
            self._site_n += 1
            prefix = f"f{self._site_n}_v_"
            callee = _Env({}, set())
            # arguments are zip-truncated; extra argument expressions are
            # never compiled, missing parameters read like undefined slots
            use_args = list(args[:nparams])
            for i, p in enumerate(fun.params):
                py = f"{prefix}{p.name}"
                callee.scope[p.name] = py
                if i < len(use_args):
                    s, _ = self._value(use_args[i], env)
                    self._line(f"{py} = {s}")
                    callee.defined.add(p.name)
                else:
                    self._undef_inits.add(py)
            body = _effective(fun.body)
            if len(body) == 1 and isinstance(body[0], ast.SReturn):
                ret = body[0]
                if ret.value is None:
                    return ("0", True)
                return self._value(ret.value, callee)
            ret_var = f"f{self._site_n}_r"
            self._line(f"{ret_var} = 0")
            self._line("while True:")
            self.indent += 1
            self._ret_stack.append(("fun", ret_var, prefix))
            try:
                self._stmts(body, callee)
            finally:
                self._ret_stack.pop()
            self._line("break")
            self.indent -= 1
            return (ret_var, True)
        finally:
            self._inlining.discard(func)

    # -- array methods ------------------------------------------------------
    def _anchor(self, e: Optional[ast.Expr], env: _Env) -> str:
        """Evaluate an array-method operand to a reusable atom *now*, keeping
        the tree walker's operand evaluation order and its position relative
        to the read/write counter bumps."""
        if e is None:
            return "0"
        s, _ = self._value(e, env)
        if self._is_atom(s):
            return s
        return self._to_temp(s)

    def _array_method(self, e: ast.ECall, env: _Env) -> Tuple[str, bool]:
        info = self.info
        arr_expr = e.args[0]
        idx_expr = e.args[1]
        memop_names: List[str] = []
        value_exprs: List[ast.Expr] = []
        for a in e.args[2:]:
            if isinstance(a, ast.EVar) and info.is_memop(a.name):
                memop_names.append(a.name)
            else:
                value_exprs.append(a)
        method = e.func
        static = isinstance(arr_expr, ast.EVar) and info.is_global(arr_expr.name)
        if static:
            return self._static_array_method(
                method, arr_expr.name, idx_expr, memop_names, value_exprs, env)
        return self._dynamic_array_method(
            method, arr_expr, idx_expr, memop_names, value_exprs, env)

    def _static_array_method(self, method: str, arr_name: str,
                             idx_expr: ast.Expr, memop_names: List[str],
                             value_exprs: List[ast.Expr], env: _Env) -> Tuple[str, bool]:
        g = self.info.globals[arr_name]
        size = g.size
        if not isinstance(size, int) or size < 1:
            raise _EmitError(f"array '{arr_name}' has no static size")
        cm = _MASK & ((1 << g.cell_width) - 1)
        arr = self._bind("array", arr_name)
        cells = self._bind("cells", arr_name)

        if method in ("Array.get", "Array.getm"):
            memop = memop_names[0] if memop_names else None
            arg_e = value_exprs[0] if value_exprs else None
            if memop is None and arg_e is None:
                idx_s, _ = self._value(idx_expr, env)
                ti = self._to_temp(f"(({idx_s}) % {size})")
                self._line(f"{arr}.reads += 1")
                return (f"{cells}[{ti}]", False)
            ir = self._memop_ir(memop) if memop is not None else None
            idx_a = self._anchor(idx_expr, env)
            arg_a = self._anchor(arg_e, env)
            ti = self._to_temp(f"({idx_a}) % {size}")
            self._line(f"{arr}.reads += 1")
            if ir is None:
                return (f"{cells}[{ti}]", False)
            to = self._to_temp(f"{cells}[{ti}]")
            body = memop_template(ir, self.info, to, arg_a)
            return (f"(({body}) & {cm})", True)

        if method in ("Array.set", "Array.setm"):
            ir = self._memop_ir(memop_names[0]) if memop_names else None
            return self._static_array_set(arr, cells, size, cm, ir,
                                          idx_expr, value_exprs, env)

        if method == "Array.update":
            gir = self._memop_ir(memop_names[0]) if memop_names else None
            sir = self._memop_ir(memop_names[1]) if len(memop_names) > 1 else None
            idx_a = self._anchor(idx_expr, env)
            if len(value_exprs) >= 2:
                ga = self._anchor(value_exprs[0], env)
                sa = self._anchor(value_exprs[1], env)
            elif len(value_exprs) == 1:
                ga = sa = self._anchor(value_exprs[0], env)
            else:
                ga = sa = "0"
            ti = self._to_temp(f"({idx_a}) % {size}")
            self._line(f"{arr}.reads += 1")
            self._line(f"{arr}.writes += 1")
            to = self._to_temp(f"{cells}[{ti}]")
            if gir is not None:
                rt = self._to_temp(f"(({memop_template(gir, self.info, to, ga)}) & {cm})")
            else:
                rt = to
            if sir is not None:
                self._line(f"{cells}[{ti}] = (({memop_template(sir, self.info, to, sa)}) & {cm})")
            else:
                self._line(f"{cells}[{ti}] = (({sa}) & {cm})")
            return (rt, True)

        raise _EmitError(f"unhandled array method {method}")

    def _static_array_set(self, arr: str, cells: str, size: int, cm: int,
                          ir: Optional[MemopShape], idx_expr: ast.Expr,
                          value_exprs: List[ast.Expr], env: _Env) -> Tuple[str, bool]:
        if ir is not None:
            # memop variant: evaluate idx, then the memop argument, then
            # wrap the index, bump, read the old cell, store
            idx_a = self._anchor(idx_expr, env)
            arg_a = self._anchor(value_exprs[0] if value_exprs else None, env)
            ti = self._to_temp(f"({idx_a}) % {size}")
            self._line(f"{arr}.writes += 1")
            to = self._to_temp(f"{cells}[{ti}]")
            self._line(f"{cells}[{ti}] = (({memop_template(ir, self.info, to, arg_a)}) & {cm})")
            return ("0", True)
        idx_a = self._anchor(idx_expr, env)
        val_a = self._anchor(value_exprs[0] if value_exprs else None, env)
        ti = self._to_temp(f"({idx_a}) % {size}")
        self._line(f"{arr}.writes += 1")
        self._line(f"{cells}[{ti}] = (({val_a}) & {cm})")
        return ("0", True)

    def _dynamic_array_method(self, method: str, arr_expr: ast.Expr,
                              idx_expr: ast.Expr, memop_names: List[str],
                              value_exprs: List[ast.Expr], env: _Env) -> Tuple[str, bool]:
        bad = "the first argument of an Array method must be a global array"
        if not isinstance(arr_expr, ast.EVar) or arr_expr.name not in env.scope:
            self._line(f"raise _IE({bad!r})")
            return ("0", True)
        py = env.scope[arr_expr.name]
        if arr_expr.name not in env.defined:
            # the raw local is read here (no _UNDEF check): the sentinel is
            # not a string, so _resolve raises the undefined-array error
            self._undef_inits.add(py)
        # validate (and bind) every named memop at emit time
        mvars = []
        for name in memop_names:
            self._memop_ir(name)
            mvars.append(self._bind("memop", name))
        tarr = self._to_temp(f"_resolve({self._bind('arrays')}, {py})")

        if method in ("Array.get", "Array.getm"):
            mv = mvars[0] if mvars else "None"
            idx_a = self._anchor(idx_expr, env)
            arg_a = self._anchor(value_exprs[0] if value_exprs else None, env)
            return (self._to_temp(f"{tarr}.get({idx_a}, {mv}, {arg_a})"), True)

        if method in ("Array.set", "Array.setm"):
            idx_a = self._anchor(idx_expr, env)
            if mvars:
                arg_a = self._anchor(value_exprs[0] if value_exprs else None, env)
                self._line(f"{tarr}.set({idx_a}, memop={mvars[0]}, arg={arg_a})")
            else:
                val_a = self._anchor(value_exprs[0] if value_exprs else None, env)
                self._line(f"{tarr}.set({idx_a}, value={val_a})")
            return ("0", True)

        if method == "Array.update":
            gmv = mvars[0] if mvars else "None"
            smv = mvars[1] if len(mvars) > 1 else "None"
            idx_a = self._anchor(idx_expr, env)
            anchors = [self._anchor(v, env) for v in value_exprs]
            ga = anchors[0] if anchors else "0"
            sa = anchors[1] if len(anchors) > 1 else (anchors[0] if anchors else "0")
            return (self._to_temp(
                f"{tarr}.update({idx_a}, {gmv}, {ga}, {smv}, {sa})"), True)

        raise _EmitError(f"unhandled array method {method}")

    # -- memop inlining -----------------------------------------------------
    def _memop_ir(self, name: str) -> MemopShape:
        """The validated body shape of memop ``name`` (shared with the stage
        plan and ``SwitchRuntime.memop_fn``); any violation aborts the
        handler to the tree walker, which re-raises the original error."""
        ir = self._memop_cache.get(name)
        if ir is None:
            try:
                ir = memop_shape(self.info, name)
                # validate every expression up front, at emit time
                memop_template(ir, self.info, "_s", "_l")
            except InterpError as error:
                raise _EmitError(error.message) from None
            self._memop_cache[name] = ir
        return ir


class CodegenSwitchRuntime:
    """Executes handlers through source-generated functions; drop-in
    compatible with :class:`~repro.interp.interpreter.HandlerInterpreter`.

    The generated module is shared across every switch whose checked program
    has the same digest; this wrapper only materialises the per-switch
    bindings (array handles, cell lists, group tuples, memop callables, the
    runtime itself) and keeps the tree walker around for handlers the emitter
    could not lower.
    """

    def __init__(self, runtime: SwitchRuntime):
        self.runtime = runtime
        self.info: ProgramInfo = runtime.info
        self._tree_walker = HandlerInterpreter(runtime)
        self.module = compile_program(runtime.checked)
        bindings: Dict[str, object] = {}
        for key in self.module.binding_keys:
            kind, _, rest = key.partition(":")
            if kind == "runtime":
                bindings[key] = runtime
            elif kind == "self":
                bindings[key] = runtime.switch_id
            elif kind == "externs":
                bindings[key] = runtime.externs
            elif kind == "arrays":
                bindings[key] = runtime.arrays
            elif kind == "array":
                bindings[key] = runtime.array(rest)
            elif kind == "cells":
                bindings[key] = runtime.array(rest).cells
            elif kind == "group":
                bindings[key] = tuple(int(m) for m in self.info.consts.groups[rest])
            elif kind == "memop":
                bindings[key] = runtime.memop_fn(rest)
        built = self.module.build(bindings)
        self._handlers: Dict[str, Optional[Callable]] = {
            name: built.get(name) for name in self.info.handlers
        }
        self.run_fast = self._make_run_fast()

    @property
    def fallback_handler_names(self) -> List[str]:
        """Handlers the emitter could not lower (they run through the tree
        walker instead).  Empty for every bundled application — asserted by
        the differential suite."""
        return sorted(name for name, h in self._handlers.items() if h is None)

    # -- public entry --------------------------------------------------------
    def run(self, event: EventInstance) -> ExecutionResult:
        """Run the handler for ``event`` once, atomically."""
        fn = self._handlers.get(event.name, _NO_HANDLER)
        if fn is _NO_HANDLER:
            # events without handlers are legal: they exit the switch
            return _EMPTY_RESULT
        if fn is None:
            if _OBS.enabled:
                _M_CODEGEN_FALLBACKS.inc()
            return self._tree_walker.run(event)
        if _OBS.enabled:
            _M_CODEGEN_EVENTS.inc()
        return fn(event.args)

    def _make_run_fast(self) -> Callable[[EventInstance], ExecutionResult]:
        """Build the obs-free dispatch used by the network's inlined batch
        drain.  The drain only engages when obs metrics are disabled (see
        ``Network._observers``), so the per-event ``_OBS.enabled`` checks
        in :meth:`run` would always be false there — this closure hoists them
        (and the attribute lookups) out of the per-event path.  Behaviour is
        otherwise identical to :meth:`run`."""
        get = self._handlers.get
        walker_run = self._tree_walker.run

        def run_fast(event: EventInstance) -> ExecutionResult:
            fn = get(event.name, _NO_HANDLER)
            if fn is _NO_HANDLER:
                return _EMPTY_RESULT
            if fn is None:
                return walker_run(event)
            return fn(event.args)

        return run_fast

    def call_function(self, name: str, args: Sequence[int]) -> int:
        """Call a ``fun`` directly (useful for tests); the tree walker is
        semantically identical, so no source is generated for this path."""
        return self._tree_walker.call_function(name, args)
