"""The generated-module format: what every source-emitting engine writes.

Two emitters lower a program to Python source — :mod:`repro.interp.codegen`
from the checked handler AST, :mod:`repro.pisa.pipeline` from the compiled
:class:`~repro.backend.layout.PipelineLayout` — and both write the *same
kind of module*.  This file owns that format and nothing else; the emitters
are visitors over their own IR that subclass :class:`ModuleEmitter`:

.. code-block:: python

    <header comment, helper functions>
    def _bind(<factory parameters, _rt last>):   # once per switch
        _A_x = _rt.array('x')                    # bindings, first use first,
        _C_x = _A_x.cells                        # each read off the runtime

        def _h_<event>(_args):                   # one function per handler
            if len(_args) != N: raise _IE(...)   # the one argc message
            <local> = int(_args[i])              # parameter binds
            _gen = []                            # effect locals (EFFECTS)
            ...                                  # the visitor's body
            return <ctor>(_gen, (), False, None, False, ...)

        return {'<event>': _h_<event>, ...}

Whatever differs between switches sharing one module (``SELF``, arrays and
their cell lists, group members, externs, the clock and PRNG) is read off
the :class:`~repro.interp.interpreter.SwitchRuntime` handed to ``_bind``;
the module itself is compiled once and ``exec``'d into a namespace seeded
with ``_IE`` (InterpError), ``_EV`` (EventInstance), the hash helpers the
handlers use (``_c32``, ``_pk<N>``) and the visitor's own seeds.  A state
access has one spelling here too: :meth:`ModuleEmitter._array_rmw`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InterpError
from repro.frontend.symbols import ProgramInfo
from repro.interp.events import EventInstance
from repro.interp.interpreter import MemopShape, memop_template
from repro.ops import MASK32, hash_namespace

#: one emitted line: (indent level relative to its ``def``, text)
Line = Tuple[int, str]

#: what a handler may contribute to its result, in ``ExecutionResult`` field
#: order: (effect kind, the handler's local, its initial value, the
#: constructor argument of a handler in which nothing has that effect)
EFFECTS = (
    ("gen", "_gen", "[]", "()"),
    ("prints", "_prints", "[]", "()"),
    ("drop", "_drop", "False", "False"),
    ("fwd", "_fwd", "None", "None"),
    ("flood", "_flood", "False", "False"),
)

#: binding kind -> (variable, its per-switch value read off ``_rt``); a
#: ``cells`` binding follows the ``array`` binding it names
_BINDINGS = {
    "self": ("_SELF", "_rt.switch_id"),
    "externs": ("_EXT", "_rt.externs"),
    "arrays": ("_ARRAYS", "_rt.arrays"),
    "array": ("_A_{0}", "_rt.array({0!r})"),
    "cells": ("_C_{0}", "_A_{0}.cells"),
    "group": ("_G_{0}", "tuple(int(m) for m in _rt.info.consts.groups[{0!r}])"),
    "memop": ("_M_{0}", "_rt.memop_fn({0!r})"),
}

_GETS = ("Array.get", "Array.getm")
_SETS = ("Array.set", "Array.setm")


def render(lines: Sequence[Line], level: int = 0) -> str:
    """``lines`` as source text, indented ``level`` deeper than recorded."""
    return "\n".join("    " * (lv + level) + tx for lv, tx in lines)


class ModuleEmitter:
    """The format's writer: a line buffer with indent and numbered temps,
    the program-wide binding registry and hash-arity set (with mark /
    rollback, for a visitor that abandons a handler half way), the handler
    prologue and result, the event and printf renderings, the array
    read-modify-write, and module assembly."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        #: (kind, name) -> (variable, value over ``_rt``), first use first
        self._bindings: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.hash_arities: Set[int] = set()
        self.lines: List[Line] = []
        self.indent = 1
        self._temp_n = 0

    # -- bindings -----------------------------------------------------------
    def _bind(self, kind: str, name: str = "") -> str:
        """The variable bound to per-switch value ``kind`` (of ``name``)."""
        entry = self._bindings.get((kind, name))
        if entry is None:
            entry = self._bindings[kind, name] = tuple(
                text.format(name) for text in _BINDINGS[kind])
        return entry[0]

    def _mark(self) -> tuple:
        return len(self._bindings), set(self.hash_arities)

    def _rollback(self, mark: tuple) -> None:
        """Forget every binding and hash arity registered since ``mark``, so
        ``_bind`` never materialises what only an abandoned handler used."""
        count, self.hash_arities = mark
        for key in list(self._bindings)[count:]:
            del self._bindings[key]

    # -- the line buffer ----------------------------------------------------
    def _line(self, text: str, deeper: int = 0) -> None:
        self.lines.append((self.indent + deeper, text))

    def _temp(self) -> str:
        self._temp_n += 1
        return f"_t{self._temp_n}"

    def _to_temp(self, s: str) -> str:
        t = self._temp()
        self._line(f"{t} = {s}")
        return t

    def _buffered(self, fn, *args):
        """Run ``fn`` capturing emitted lines into a private buffer."""
        saved = self.lines
        self.lines = []
        try:
            result = fn(*args)
            return result, self.lines
        finally:
            self.lines = saved

    def _flush(self, buf: List[Line], delta: int = 0) -> None:
        self.lines.extend((lv + delta, tx) for lv, tx in buf)

    # -- one handler: prologue, effects, result -----------------------------
    @staticmethod
    def _handler_head(name: str, params: Sequence[Optional[str]]) -> List[Line]:
        """``def _h_<name>(_args):``, the argument-count check (worded as the
        tree walker words it), and ``local = int(_args[i])`` for each
        parameter that has a local (``None``: the handler never reads it)."""
        n = len(params)
        head = [
            (0, f"def _h_{name}(_args):"),
            (1, f"if len(_args) != {n}:"),
            (2, f"raise _IE(\"event '{name}' carries %d arguments but "
                f"the handler expects {n}\" % (len(_args),))"),
        ]
        head += [(1, f"{local} = int(_args[{i}])")
                 for i, local in enumerate(params) if local]
        return head

    @staticmethod
    def _effect_inits(effects: Set[str]) -> List[Line]:
        return [(1, f"{var} = {init}") for kind, var, init, _ in EFFECTS if kind in effects]

    @staticmethod
    def _result(ctor: str, effects: Set[str], *counts: str) -> str:
        """``ctor(...)`` over the five effect fields, then ``counts``."""
        fields = [var if kind in effects else absent for kind, var, _, absent in EFFECTS]
        return f"{ctor}({', '.join([*fields, *counts])})"

    def _event(self, name: str, args: Sequence[str], delay: str = "0",
               location: str = "-1", group: str = "None") -> str:
        """``_EV(name, args, delay_ns, location, group, source)``."""
        tup = f"({', '.join(f'({a})' for a in args)},)" if args else "()"
        return f"_EV({name!r}, {tup}, {delay}, {location}, {group}, {self._bind('self')})"

    @staticmethod
    def _printf(args: Sequence[str]) -> str:
        """The line ``printf(args...)`` prints: its arguments, space-joined."""
        if len(args) < 2:
            return f"str({args[0]})" if args else '""'
        return f'" ".join(({", ".join(f"str({a})" for a in args)},))'

    # -- the state access ---------------------------------------------------
    def _array_rmw(self, temp: Callable[[str, str, int], str], method: str,
                   array: str, index: str, memops: Sequence[MemopShape],
                   args: Sequence[str]) -> str:
        """One ``Array`` call on a global array — one stateful-ALU
        instruction — as straight-line code on the array's bound cell list:
        wrap the index, bump ``reads`` / ``writes``, read the old cell once,
        apply the memop template(s) to it, mask to the cell width, store;
        what ``RuntimeArray.get`` / ``set`` / ``update`` do per call.
        Returns the call's value as an expression (a live cell read for a
        get without a memop; ``"0"`` for a set).

        ``index`` and ``args`` are operands the caller has already evaluated
        (they are repeated freely).  ``temp(name, expr, uses)`` names
        ``expr``, which the lines after it mention ``uses`` times: a visitor
        whose operands can raise assigns every one to a temp so evaluation
        keeps its place, one whose operands cannot may inline what is used
        once."""
        register = self.info.globals[array]
        if register.size < 1:
            raise InterpError(f"array '{array}' has zero size")
        mask = MASK32 & ((1 << register.cell_width) - 1)
        arr, cells = self._bind("array", array), self._bind("cells", array)
        reads, writes = method not in _SETS, method not in _GETS
        # an update takes (get, set) memops and arguments; one argument serves both
        get_arg = args[0] if args else "0"
        set_arg = args[1] if reads and len(args) > 1 else get_arg
        op = memops[0] if memops else None
        get_op = op if reads else None
        set_op = op if not reads else memops[1] if writes and len(memops) > 1 else None
        named = bool(get_op or set_op or (reads and writes))
        i = temp("_i", f"({index}) % {register.size}", 2 if named and writes else 1)
        if reads:
            self._line(f"{arr}.reads += 1")
        if writes:
            self._line(f"{arr}.writes += 1")
        old = temp("_o", f"{cells}[{i}]", 2) if named else f"{cells}[{i}]"

        def applied(memop: MemopShape, arg: str) -> str:
            return f"(({memop_template(memop, self.info, old, arg)}) & {mask})"

        value = "0"
        if reads:
            value = applied(get_op, get_arg) if get_op else old
            if writes and get_op:
                value = temp("_v", value, 1)
        if writes:
            stored = applied(set_op, set_arg) if set_op else f"(({set_arg}) & {mask})"
            self._line(f"{cells}[{i}] = {stored}")
        return value

    # -- module assembly ----------------------------------------------------
    def _module(self, program: str, label: str, header: str, params: str,
                handlers: Dict[str, List[Line]], seeds: Dict[str, object]):
        """Assemble, compile and ``exec`` the module; returns its source and
        its ``_bind`` factory.  Fixed order: ``header``, ``def
        _bind(params):``, the bindings, the handlers, the dispatch table."""
        out = [header, f"def _bind({params}):"]
        out += [f"    {var} = {value}" for var, value in self._bindings.values()]
        for lines in handlers.values():
            out += ["", render(lines, 1)]
        out += ["", "    return {"]
        out += [f"        {name!r}: _h_{name}," for name in handlers]
        out += ["    }", ""]
        source = "\n".join(out)
        namespace = {
            "__name__": f"{type(self).__module__}.<{program}>",
            "_IE": InterpError,
            "_EV": EventInstance,
            **hash_namespace(self.hash_arities),
            **seeds,
        }
        exec(compile(source, f"<{label}:{program}>", "exec"), namespace)
        return source, namespace["_bind"]
