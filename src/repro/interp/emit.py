"""The generated-module format: what every source-emitting engine writes.

Two emitters lower a program to Python source — :mod:`repro.interp.codegen`
from the :class:`~repro.midend.normalize.NormalizedHandler`,
:mod:`repro.pisa.pipeline` from the compiled
:class:`~repro.backend.layout.PipelineLayout`, whose tables wrap the same
normalised statements — and both write the *same kind of module*, with the
*same text for every statement*, and both are run the same way.  This file
owns that format, the statement printers, the module value
(:class:`GeneratedModule`), its cache (:func:`cached_module`) and the one
per-switch dispatch (:func:`dispatcher`); the emitters subclass
:class:`ModuleEmitter` and differ only in control: nested ``if`` / ``else``
for codegen, stages and path conditions for the plan.

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
            return _ER(_gen, (), False, None, False)  # or _EMPTY_R

        return {'<event>': _h_<event>, ...}

Whatever differs between switches sharing one module (``SELF``, arrays and
their cell lists, group members, externs, the clock and PRNG) is read off
the :class:`~repro.interp.interpreter.SwitchRuntime` handed to ``_bind``;
the module itself is compiled once and ``exec``'d into a namespace seeded
with ``_IE`` (InterpError), ``_EV`` (EventInstance), ``_ER``
(ExecutionResult), ``_EMPTY_R`` (:data:`EMPTY_RESULT`), the hash helpers the
handlers use (``_c32``, ``_pk<N>``) and the visitor's own seeds.  A handler
returns a plain :class:`~repro.interp.interpreter.ExecutionResult`, and a
switch runs its bound table through :func:`dispatcher`, whichever engine
emitted it.

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
from repro.frontend.memop_check import MemopShape
from repro.frontend.symbols import ProgramInfo
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, memop_template
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
    array_call,
)
from repro.obs.metrics import OBS as _OBS, Counter
from repro.ops import MASK32, binop_template, hash_namespace, hash_template
from repro.records import field, record

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
    "group": ("_G_{0}", "_rt.groups[{0!r}]"),
}

#: the result of every handler that provably produces no effects, and of
#: every event with no handler: consumers only read results, so one
#: immutable instance serves every such invocation
EMPTY_RESULT = ExecutionResult((), ())


@record(frozen=True)
class GeneratedModule:
    """One program's generated module, compiled once and shared by every
    switch running the program."""

    source: str
    #: the module's ``_bind`` factory: one switch's ``{event: handler}``
    bind: Callable[..., Dict[str, Callable]]
    #: event -> the source of its handler function
    handler_sources: Dict[str, str]
    #: a stage plan's :class:`~repro.pisa.pipeline.PathShape` per handler
    paths: Dict[str, object] = field(default_factory=dict)

    @property
    def handler_names(self) -> List[str]:
        return sorted(self.handler_sources)


def cached_module(owner: object, attr: str, build: Callable[[], GeneratedModule],
                  hits: Counter, misses: Counter) -> GeneratedModule:
    """The module cached on ``owner`` as ``attr``, built on first use; the
    checked (or compiled) program it is cached on is shared by every switch
    running it, so each is emitted once however many switches there are."""
    module = getattr(owner, attr, None)
    if module is None:
        module = build()
        setattr(owner, attr, module)
        if _OBS.enabled:
            misses.inc()
    elif _OBS.enabled:
        hits.inc()
    return module


def dispatcher(handlers: Dict[str, Callable]) -> Callable[[EventInstance], ExecutionResult]:
    """A switch's ``run(event)`` over its bound handler table: the handler for
    ``event``, once, atomically — one lookup and one call."""
    get = handlers.get

    def run(event: EventInstance) -> ExecutionResult:
        fn = get(event.name)
        if fn is None:
            # events without handlers are legal: they exit the switch
            return EMPTY_RESULT
        return fn(event.args)

    return run


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
    the program-wide binding registry and hash-arity set, the handler
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
    def _result(effects: Set[str]) -> str:
        """What a handler with ``effects`` returns: its ``_ER(...)`` over the
        five effect fields, or the shared ``_EMPTY_R`` when it has none —
        every invocation of such a handler produces the same empty result."""
        if not effects:
            return "_EMPTY_R"
        fields = [var if kind in effects else absent for kind, var, _, absent in EFFECTS]
        return f"_ER({', '.join(fields)})"

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
        # a condition is a comparison, which Python spells as Lucid does
        return f"{self._atom(cond.lhs)} {cond.op.value} {self._atom(cond.rhs)}"

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
            value = self._array_rmw(self._named, stmt)
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
    def _array_rmw(self, temp: Callable[[str, str, int], str], stmt: NArrayOp) -> str:
        """One ``Array`` call on a global array — one stateful-ALU
        instruction, routed by :func:`~repro.midend.normalize.array_call` —
        as straight-line code on the array's bound cell list: wrap the
        index, bump ``reads`` / ``writes``, read the old cell once, apply the
        memop template(s) to it, mask to the cell width, store; what
        ``RuntimeArray.get`` / ``set`` / ``update`` do per call.  Returns the
        call's value as an expression (a live cell read for a get without a
        memop; ``"0"`` for a set).

        The index and arguments are atoms (they are repeated freely).
        ``temp(name, expr, uses)`` names ``expr``, which the lines after it
        mention ``uses`` times: a visitor whose operands can raise assigns
        every one to a temp so evaluation keeps its place, one whose
        operands cannot may inline what is used once."""
        call = array_call(self.info, stmt)
        index, get_arg, set_arg = map(self._atom, (stmt.index, call.get_arg, call.set_arg))
        register = self.info.globals[stmt.array]
        mask = MASK32 & ((1 << register.cell_width) - 1)
        arr, cells = self._bind("array", stmt.array), self._bind("cells", stmt.array)
        reads, writes = call.reads, call.writes
        get_op, set_op = call.get_memop, call.set_memop
        named = bool(get_op or set_op or (reads and writes))
        i = temp("_i", f"({index}) % {register.size}", 2 if named and writes else 1)
        if reads:
            self._line(f"{arr}.reads += 1")
        if writes:
            self._line(f"{arr}.writes += 1")
        old = temp("_o", f"{cells}[{i}]", 2) if named else f"{cells}[{i}]"

        def applied(memop: MemopShape, arg: str) -> str:
            return f"(({memop_template(memop, old, arg)}) & {mask})"

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
                handlers: Dict[str, List[Line]],
                seeds: Dict[str, object]) -> GeneratedModule:
        """Assemble, compile and ``exec`` the module.  Fixed order:
        ``header``, ``def _bind(params):``, the bindings, the handlers, the
        handler table."""
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
            "_ER": ExecutionResult,
            "_EMPTY_R": EMPTY_RESULT,
            **hash_namespace(self.hash_arities),
            **seeds,
        }
        exec(compile(source, f"<{label}:{program}>", "exec"), namespace)
        return GeneratedModule(source, namespace["_bind"], {
            name: render(lines) + "\n" for name, lines in handlers.items()})
