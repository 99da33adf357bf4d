"""Source-codegen fast path: compile checked handlers to flat Python source.

Where the tree-walking :class:`~repro.interp.walker.HandlerInterpreter`
re-interprets the AST on every event, this module prints every handler as
*flat Python source text* and compiles the whole program once with
:func:`compile`/``exec``.  A handler dispatch is then a single Python
function call with no interpretation overhead at all.

It has no lowering of its own.  :func:`~repro.frontend.type_checker.check_program`
ends with the compiler's midend (inlining, then normalisation into atomic
statements) and keeps each handler's
:class:`~repro.midend.normalize.NormalizedHandler` on
``CheckedProgram.normalized``; :class:`HandlerSourceCompiler` prints those: a
nested ``if`` / ``else`` for each ``NIf``, every other statement through the
printers of :mod:`repro.interp.emit`, which the PISA stage plan uses too.
The module is *the stage plan without stages*: no layout, no path
conditions, no backend import; its statement lines are lines of the plan.

The generated module is cached on the checked program, as the layout is, so
a fat-tree network running one checked program compiles each handler exactly
once no matter how many switches instantiate it.  The module's shape —
``_bind(_rt)`` reading whatever differs between switches sharing it
(``SELF``, group members, extern tables, array handles, the clock and PRNG)
off the switch's runtime, one ``_h_<event>`` per handler returning a plain
``ExecutionResult`` — is the generated-module format of
:mod:`repro.interp.emit`.  :class:`~repro.interp.engine.CodegenEngine` binds
it to its switch and runs it through :func:`repro.interp.emit.dispatcher`,
as the ``pisa`` engine runs its stage plan.

Semantics are the midend's, which lowers a handler to exactly what the tree
walker computes or refuses the program at ``check_program`` (see
:mod:`repro.midend.normalize`), so every handler of a checked program is
printed.  A malformed memop, or a printer bug, fails when the module is
built, as it does on ``pisa``.  The differential suites in
``tests/test_compiled_interp.py``, ``tests/test_engines.py`` and
``repro.fuzz`` pin the parity.

Use ``repro.scenarios --engine codegen --dump-source`` (or
:func:`dump_program_source`) to inspect the generated text.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.frontend.type_checker import CheckedProgram
from repro.interp.emit import GeneratedModule, Line, ModuleEmitter, cached_module, effect_of
from repro.midend.normalize import NIf, NormalizedHandler, NStmt, stmt_writes
from repro.obs.metrics import REGISTRY as _REGISTRY

# bumped by ``cached_module`` behind an ``if _OBS.enabled:`` guard
_M_MODULE_HITS = _REGISTRY.counter(
    "repro_engine_codegen_module_cache_hits_total",
    "Switches bound to a generated module already compiled for their checked program.")
_M_MODULE_MISSES = _REGISTRY.counter(
    "repro_engine_codegen_module_cache_misses_total",
    "Generated modules emitted and compiled (once per checked program).")

#: what every generated module opens with, ahead of its ``_bind`` factory
_HEADER = """\
# Generated by repro.interp.codegen for program {name!r}:
# one function per handler, its normalised statements in program order.
# Seeded globals: _IE (InterpError), _EV (EventInstance),
# _ER (ExecutionResult), _EMPTY_R (shared no-effect result),
# _c32 (zlib.crc32), _pk<N> (struct '<NI' packers).
"""


def compile_program(checked: CheckedProgram) -> GeneratedModule:
    """The generated module of ``checked``, emitted on first use and cached
    on the checked program, beside its layout
    (:func:`repro.interp.engine._compiled_for`)."""
    return cached_module(checked, "_codegen_module",
                         lambda: HandlerSourceCompiler(checked).compile(),
                         _M_MODULE_HITS, _M_MODULE_MISSES)


def dump_program_source(checked: CheckedProgram) -> str:
    """The generated Python source for ``checked`` (``--dump-source``)."""
    return compile_program(checked).source


class HandlerSourceCompiler(ModuleEmitter):
    """Prints every handler's normalised body into one flat Python module."""

    def __init__(self, checked: CheckedProgram):
        super().__init__(checked.info)
        self.checked = checked

    # -- program assembly ---------------------------------------------------
    def compile(self) -> GeneratedModule:
        name = self.checked.name
        handlers: Dict[str, List[Line]] = {
            event: self._emit_handler(handler)
            for event, handler in self.checked.normalized.items()
        }
        return self._module(name, "codegen", _HEADER.format(name=name), "_rt", handlers, {})

    # -- per-handler emission ----------------------------------------------
    def _emit_handler(self, handler: NormalizedHandler) -> List[Line]:
        stmts = handler.flat_statements()
        written = set().union(*map(stmt_writes, stmts))
        self._use_locals([*handler.params, *sorted(written)])
        effects = {effect_of(stmt) for stmt in stmts} - {None}
        self.lines = self._handler_head(handler.name, [self.locals[p] for p in handler.params])
        self.lines += self._effect_inits(effects)
        self.indent = 1
        self._block(handler.body)
        self._line(f"return {self._result(effects)}")
        return self.lines

    def _block(self, stmts: Sequence[NStmt], keyword: str = "if") -> None:
        """``stmts`` in program order; an ``NIf`` is a nested ``if`` (an
        ``else`` arm holding just another ``NIf`` — a lowered ``match`` — an
        ``elif``, which keeps long chains flat)."""
        for stmt in stmts:
            if not isinstance(stmt, NIf):
                self._statement(stmt)
                continue
            cond, then_body, else_body = stmt.cond, stmt.then_body, stmt.else_body
            if not then_body:
                cond, then_body, else_body = cond.negate(), else_body, []
            if not then_body:
                continue  # a condition is operands: nothing to evaluate
            self._line(f"{keyword} {self._test(cond)}:")
            self._arm(then_body)
            if len(else_body) == 1 and isinstance(else_body[0], NIf):
                self._block(else_body, "elif")
            elif else_body:
                self._line("else:")
                self._arm(else_body)

    def _arm(self, stmts: Sequence[NStmt]) -> None:
        self.indent += 1
        mark = len(self.lines)
        self._block(stmts)
        if len(self.lines) == mark:
            self._line("pass")
        self.indent -= 1
