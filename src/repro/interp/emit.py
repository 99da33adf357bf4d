"""The generated-module format: what every source-emitting engine writes.

Two emitters lower a program to Python source — :mod:`repro.interp.codegen`
from the :class:`~repro.midend.normalize.NormalizedHandler`,
:mod:`repro.pisa.pipeline` from the compiled
:class:`~repro.backend.layout.PipelineLayout`, whose tables wrap the same
normalised statements — and both write the *same kind of module*, with the
*same text for every statement*.  This file owns that format and the
statement printers; the emitters subclass :class:`ModuleEmitter` and differ
only in control: nested ``if`` / ``else`` for codegen, stages and path
conditions for the plan.

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
handlers use (``_c32``, ``_pk<N>``) and the visitor's own seeds.

One normalised statement has one spelling, :meth:`ModuleEmitter._statement`:
operands are atoms (:meth:`ModuleEmitter._atom` — a local of
:attr:`ModuleEmitter.locals`, a constant, or the default of a field nothing
wrote), ALU and hash operations are the ``repro.ops`` templates, a state
access is :meth:`ModuleEmitter._array_rmw`, a ``generate`` is one pre-shaped
``_EV(...)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InterpError, SimulationError
from repro.frontend.memop_check import MemopShape, memop_shape
from repro.frontend.symbols import ProgramInfo
from repro.interp.events import EventInstance
from repro.interp.interpreter import memop_template
from repro.midend.normalize import (
    Const,
    NArrayOp,
    NCond,
    NCopy,
    NGenerate,
    NHash,
    NOp,
    NPrim,
    NStmt,
    Operand,
)
from repro.ops import CMP_OPS, MASK32, binop_template, hash_namespace, hash_template

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
    "array": ("_A_{0}", "_rt.array({0!r})"),
    "cells": ("_C_{0}", "_A_{0}.cells"),
    "group": ("_G_{0}", "tuple(int(m) for m in _rt.info.consts.groups[{0!r}])"),
}

_GETS = ("Array.get", "Array.getm")
_SETS = ("Array.set", "Array.setm")


def render(lines: Sequence[Line], level: int = 0) -> str:
    """``lines`` as source text, indented ``level`` deeper than recorded."""
    return "\n".join("    " * (lv + level) + tx for lv, tx in lines)


def effect_of(stmt: NStmt) -> Optional[str]:
    """Which field of the handler's result ``stmt`` contributes to, if any."""
    if isinstance(stmt, NGenerate):
        return "gen"
    if isinstance(stmt, NPrim):
        return {"printf": "prints", "drop": "drop", "flood": "flood",
                "forward": "fwd"}.get(stmt.prim)
    return None


class ModuleEmitter:
    """The format's writer: a line buffer with indent and numbered temps,
    the program-wide binding registry and hash-arity set (with mark /
    rollback, for a visitor that abandons a handler half way), the handler
    prologue and result, the statement printers over one ``locals`` map, and
    module assembly."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        #: (kind, name) -> (variable, value over ``_rt``), first use first
        self._bindings: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.hash_arities: Set[int] = set()
        self.lines: List[Line] = []
        self.indent = 1
        self._temp_n = 0
        #: the handler being written: normalised local -> Python local
        self.locals: Dict[str, str] = {}

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

    @staticmethod
    def _printf(args: Sequence[str]) -> str:
        """The line ``printf(args...)`` prints: its arguments, space-joined."""
        if len(args) < 2:
            return f"str({args[0]})" if args else '""'
        return f'" ".join(({", ".join(f"str({a})" for a in args)},))'

    # -- operands and conditions -------------------------------------------
    def _use_locals(self, names: Sequence[str]) -> None:
        """Start a handler whose normalised locals are ``names``."""
        self.locals = {name: f"v_{name}" for name in names}

    def _default(self, name: str) -> str:
        """What a field no statement has written reads as."""
        if name == "SELF" or name == "__Sys_self":
            return self._bind("self")
        if name == "__Sys_time":
            # the ingress timestamp metadata field, truncated like Sys.time()
            return "(_rt.time_ns & 4294967295)"
        const = self.info.consts.lookup(name)
        if const is not None:
            return repr(int(const))
        # uninitialised metadata reads as zero, as it does in hardware
        return "0"

    def _atom(self, operand: Operand) -> str:
        if isinstance(operand, Const):
            return repr(int(operand.value))
        return self.locals.get(operand.name) or self._default(operand.name)

    def _test(self, cond: NCond) -> str:
        left, right = self._atom(cond.lhs), self._atom(cond.rhs)
        py = CMP_OPS.get(cond.op)
        if py is not None:
            return f"{left} {py} {right}"
        return binop_template(cond.op, left, right)

    # -- one normalised statement -------------------------------------------
    def _statement(self, stmt: NStmt, gen_uid: Optional[int] = None,
                   print_uid: Optional[int] = None) -> None:
        """The text of ``stmt``.  A visitor that may emit generates (prints)
        out of program order passes their ``uid`` to tag and re-sort them."""
        atom = self._atom
        if isinstance(stmt, NOp):
            value = binop_template(stmt.op, atom(stmt.lhs), atom(stmt.rhs))
            self._line(f"{self.locals[stmt.dst]} = {value}")
        elif isinstance(stmt, NCopy):
            self._line(f"{self.locals[stmt.dst]} = {atom(stmt.src)}")
        elif isinstance(stmt, NHash):
            self.hash_arities.add(len(stmt.args) + 1)
            value = hash_template(stmt.width, [atom(a) for a in stmt.args])
            self._line(f"{self.locals[stmt.dst]} = {value}")
        elif isinstance(stmt, NArrayOp):
            # operands are atoms and cannot raise: what is used once stays
            # inline, and the destination (which may also be an argument) is
            # assigned only after the store
            value = self._array_rmw(
                self._named, stmt.method, stmt.array, atom(stmt.index),
                [memop_shape(self.info, memop) for memop in stmt.memops],
                [atom(a) for a in stmt.args])
            if stmt.dst:
                self._line(f"{self.locals[stmt.dst]} = {value}")
        elif isinstance(stmt, NGenerate):
            self._tagged("_gen", self._generated(stmt), gen_uid)
        elif isinstance(stmt, NPrim):
            self._prim(stmt, print_uid)
        else:
            raise SimulationError(f"cannot lower statement {stmt!r}")  # pragma: no cover

    def _named(self, name: str, expr: str, uses: int) -> str:
        if uses == 1:
            return expr
        self._line(f"{name} = {expr}")
        return name

    def _tagged(self, var: str, item: str, uid: Optional[int]) -> None:
        self._line(f"{var}.append({item if uid is None else f'({uid}, {item})'})")

    def _generated(self, stmt: NGenerate) -> str:
        """One pre-shaped ``_EV(name, args, delay_ns, location, group,
        source)``: place and group as the program set them (the scheduler
        treats a location naming the origin as local); a group constant's
        members are bound per switch, a literal's are text."""
        args = "".join(f"({self._atom(a)}), " for a in stmt.args)
        group = "None"
        if isinstance(stmt.group, str):
            group = self._bind("group", stmt.group)
        elif stmt.group is not None:
            group = repr(tuple(stmt.group))
        return (f"_EV({stmt.event!r}, ({args.rstrip()}), {self._atom(stmt.delay)}, "
                f"{self._atom(stmt.location)}, {group}, {self._bind('self')})")

    def _prim(self, stmt: NPrim, print_uid: Optional[int]) -> None:
        prim = stmt.prim
        args = [self._atom(a) for a in stmt.args]
        if prim == "drop":
            self._line("_drop = True")
        elif prim == "forward":
            self._line(f"_fwd = {args[0]}" if args else "pass")
        elif prim == "flood":
            self._line("_flood = True")
        elif prim == "printf":
            self._tagged("_prints", self._printf(args), print_uid)
        elif prim == "Sys.time":
            self._line(f"{self.locals['__Sys_time']} = _rt.time_ns & 4294967295")
        elif prim == "Sys.self":
            self._line(f"{self.locals['__Sys_self']} = {self._bind('self')}")
        elif prim == "Sys.random":
            # advances the shared xorshift state exactly once, like the
            # interpreter does at the corresponding call site; the optional
            # bound operand reduces the draw exactly as Sys.random(bound) does
            self._line(f"{self.locals['__Sys_random']} = _rt.random({', '.join(args[:1])})")
        elif prim.startswith("extern:"):
            # looked up per call: bind_extern may come after the first event
            self._line(f"_fn = {self._bind('externs')}.get({prim.split(':', 1)[1]!r})")
            self._line(f"{self.locals[stmt.dst]} = "
                       f"0 if _fn is None else int(_fn({', '.join(args)}))")
        else:
            # unknown primitives are inert metadata, as unprogrammed actions are
            self._line("pass")

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
