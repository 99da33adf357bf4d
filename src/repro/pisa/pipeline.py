"""Execution of a compiled pipeline layout on a simulated PISA pipeline.

This is the substrate that stands in for the Tofino: it takes the
:class:`~repro.backend.layout.PipelineLayout` produced by the compiler and
executes event packets through it, stage by stage, atomic table by atomic
table — testing each table's path conditions against the packet's metadata
(as the generated match-action rules would) and applying its single operation
(stateless ALU op, stateful ALU register access, hash, event generation, or a
primitive action such as ``drop``/``forward``/``printf``).

On hardware none of that is decided per packet: the match-action rules *are*
the layout, fixed at compile time.  The executor does the same.  The layout
is lowered **once** per :class:`~repro.backend.compiler.CompiledProgram`
into a *stage plan* (:func:`lower_layout`): one flat Python function per
handler holding only that handler's tables in stage order, with path
conditions as inline tests, metadata fields as plain locals, ALU and hash
operations as the ``repro.ops`` source templates, and the per-stage
accounting (``stages_traversed``, ``tables_executed``, the optional
:class:`~repro.obs.profile.StageProfiler`) written out per stage.  A
:class:`PisaPipeline` only binds the plan to its own switch state — register
arrays and their cell lists, ``SELF``, the runtime clock/PRNG/extern table —
so every switch running one compiled program shares the code objects.  A
stateful table is part of its stage like any other: one straight-line
read-modify-write on the array's cell list, its memops rendered in place by
the lowering codegen also uses
(:func:`~repro.interp.interpreter.memop_template`), exactly one per table,
like the hardware stateful ALU.

Running the same program through this pipeline executor and through the
AST-level interpreter (:mod:`repro.interp`) and comparing the resulting
register state is the repository's main end-to-end check that compilation
preserves semantics.  The executor is also *load-bearing*:
:class:`~repro.interp.engine.PisaEngine` drives whole scenario workloads
through it, one pipeline pass per handled event, over a
:class:`~repro.interp.interpreter.SwitchRuntime` shared with the network
simulation (pass ``runtime=`` to share arrays, externs, the clock, and the
PRNG with a live :class:`~repro.interp.network.Switch`).

Use ``repro.scenarios run NAME --engine pisa --dump-source`` (or
:meth:`PisaPipeline.source`) to read a plan.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.backend.compiler import CompiledProgram
from repro.backend.layout import PipelineLayout
from repro.backend.tables import AtomicTable
from repro.errors import InterpError, SimulationError
from repro.frontend import ast
from repro.interp.arrays import RuntimeArray
from repro.interp.events import LOCAL, EventInstance
from repro.interp.interpreter import (
    ExecutionResult,
    SwitchRuntime,
    memop_shape,
    memop_template,
)
from repro.midend.normalize import (
    Const,
    NArrayOp,
    NCond,
    NCopy,
    NGenerate,
    NHash,
    NOp,
    NPrim,
    Operand,
)
from repro.obs.metrics import OBS as _OBS, REGISTRY as _REGISTRY
from repro.ops import CMP_OPS, MASK32, binop_template, hash_namespace, hash_template

# only touched behind an ``if _OBS.enabled:`` guard (see repro.obs.metrics)
_M_PLAN_CACHE_HITS = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_hits_total",
    "Pipelines bound to a stage plan already lowered for their program.")
_M_PLAN_CACHE_MISSES = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_misses_total",
    "Stage plans lowered from a layout (once per compiled program).")


class PipelinePassResult(ExecutionResult):
    """What one packet's pass through the pipeline produced: the handler's
    :class:`~repro.interp.interpreter.ExecutionResult` plus the pass's own
    two counts, so the engine hands the scheduler this very object.

    One is built per pass, by the stage plan, with all seven fields at once
    (in the plan's ``_EFFECTS`` order, then the counts)."""

    __slots__ = ("stages_traversed", "tables_executed")

    def __init__(
        self,
        generated: Optional[List[EventInstance]] = None,
        prints: Optional[List[str]] = None,
        dropped: bool = False,
        flooded: bool = False,
        forwarded_port: Optional[int] = None,
        stages_traversed: int = 0,
        tables_executed: int = 0,
    ) -> None:
        self.generated = [] if generated is None else generated
        self.prints = [] if prints is None else prints
        self.dropped = dropped
        self.flooded = flooded
        self.forwarded_port = forwarded_port
        self.stages_traversed = stages_traversed
        self.tables_executed = tables_executed

    def __repr__(self) -> str:
        names = ExecutionResult.__slots__ + self.__slots__
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"PipelinePassResult({fields})"


# ---------------------------------------------------------------------------
# lowering: PipelineLayout -> stage plan
# ---------------------------------------------------------------------------
class StagePlan:
    """One compiled program's layout as Python source, compiled once.

    ``bind(pipeline, runtime)`` returns the per-switch handler functions
    (closures over that switch's state, sharing the plan's code objects)."""

    __slots__ = ("source", "handler_sources", "bind")

    def __init__(self, source: str, handler_sources: Dict[str, str], bind: Callable):
        self.source = source
        self.handler_sources = handler_sources
        self.bind = bind


def lower_layout(compiled: CompiledProgram) -> StagePlan:
    """The stage plan of ``compiled``, lowered on first use and cached on the
    compiled program — beside the layout it is derived from, so the switches
    sharing one layout (:func:`repro.interp.engine._compiled_for`) lower it
    once however many of them there are."""
    plan = getattr(compiled, "_stage_plan", None)
    if plan is None:
        plan = compiled._stage_plan = _PlanEmitter(compiled).lower()
        if _OBS.enabled:
            _M_PLAN_CACHE_MISSES.inc()
    elif _OBS.enabled:
        _M_PLAN_CACHE_HITS.inc()
    return plan


def _tuple(items: List[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _PlanEmitter:
    """Walks the layout once and writes one function per handler."""

    def __init__(self, compiled: CompiledProgram):
        self.program_name = compiled.name
        self.info = compiled.checked.info
        #: handler -> [(stage index, that handler's tables in the stage)]
        self.staged: Dict[str, List[Tuple[int, List[AtomicTable]]]] = {}
        for stage_index, stage in enumerate(compiled.layout.stages):
            by_handler: Dict[str, List[AtomicTable]] = {}
            for merged in stage.merged_tables:
                for table in merged.members:
                    by_handler.setdefault(table.handler, []).append(table)
            for handler, tables in by_handler.items():
                self.staged.setdefault(handler, []).append((stage_index, tables))
        # program-wide bindings, in first-use order
        self.arrays: List[str] = []
        self.hash_arities: Set[int] = set()
        # per-handler state (reset by _handler)
        self.locals: Dict[str, str] = {}

    # -- program assembly ---------------------------------------------------
    def lower(self) -> StagePlan:
        handlers = {
            name: self._handler(decl) for name, decl in self.info.handlers.items()
        }
        out = [
            f"# Stage plan lowered by repro.pisa.pipeline for program "
            f"{self.program_name!r}:",
            "# one function per handler, its tables in stage order.",
            "# Seeded globals: _IE (InterpError), _EV (EventInstance),",
            "# _PR (PipelinePassResult), _pc (perf_counter), _uid (itemgetter(0)),",
            "# _c32 (zlib.crc32), _pk<N> (struct '<NI' packers).  Bound per switch:",
            "# _A_<array> (RuntimeArray, for its counters), _C_<array> (its cell list).",
            "",
            "def _bind(_P, _rt):",
            "    _SELF = _rt.switch_id",
            "    _EXT = _rt.externs",
        ]
        for a in self.arrays:
            out += [f"    _A_{a} = _rt.array({a!r})", f"    _C_{a} = _A_{a}.cells"]
        for lines in handlers.values():
            out.append("")
            out += ["    " + line for line in lines]
        out.append("")
        out.append("    return {")
        out += [f"        {name!r}: _h_{name}," for name in handlers]
        out.append("    }")
        out.append("")
        source = "\n".join(out)
        namespace = {
            "__name__": f"repro.pisa.pipeline.<{self.program_name}>",
            "_IE": InterpError,
            "_EV": EventInstance,
            "_PR": PipelinePassResult,
            "_pc": perf_counter,
            "_uid": itemgetter(0),
            **hash_namespace(self.hash_arities),
        }
        exec(compile(source, f"<stage-plan:{self.program_name}>", "exec"), namespace)
        return StagePlan(
            source,
            {name: "\n".join(lines) + "\n" for name, lines in handlers.items()},
            namespace["_bind"],
        )

    # -- one handler --------------------------------------------------------
    def _handler(self, decl: ast.DHandler) -> List[str]:
        staged = self.staged.get(decl.name, [])
        tables = [table for _, stage_tables in staged for table in stage_tables]
        params = [p.name for p in decl.params]
        written: Set[str] = set()
        read: Set[str] = set()
        for table in tables:
            written.update(table.writes)
            read.update(table.all_reads())
        # a metadata field is a local iff some table may write it (handler
        # parameters arrive written); every other name reads as its default
        names = sorted(set(params) | written)
        self.locals = {name: f"m_{name}" for name in names}

        effects = {_effect(table.stmt) for table in tables}
        # generated events and printed lines are observable in program order
        # (table uid order); data-flow reordering may place them otherwise, in
        # which case they are tagged with their table uid and re-sorted
        tag = {}
        for kind in ("gen", "prints"):
            uids = [t.uid for t in tables if _effect(t.stmt) == kind]
            tag[kind] = uids != sorted(uids)

        n = len(params)
        out = [
            f"def _h_{decl.name}(_args):",
            f"    if len(_args) != {n}:",
            f"        raise _IE(f\"event '{decl.name}' carries {{len(_args)}} "
            f"arguments but the handler expects {n}\")",
        ]
        for i, name in enumerate(params):
            if name in read:
                out.append(f"    {self.locals[name]} = int(_args[{i}])")
        for name in names:
            if name in read and name not in params:
                out.append(f"    {self.locals[name]} = {self._default(name)}")
        for kind, var, empty in _EFFECTS:
            if kind in effects:
                out.append(f"    {var} = {empty}")
        if staged:
            out.append("    _sp = _P.stage_prof")
            out.append("    _st = _tb = 0")
        for stage_index, stage_tables in staged:
            out += self._stage(stage_index, stage_tables, tag)
        for kind, var in (("gen", "_gen"), ("prints", "_prints")):
            if tag[kind]:
                out.append(f"    if len({var}) > 1:")
                out.append(f"        {var}.sort(key=_uid)")
                out.append(f"    {var} = [_item for _, _item in {var}]")
        fields = [var if kind in effects else empty for kind, var, empty in _EFFECTS]
        fields += ["_st", "_tb"] if staged else ["0", "0"]
        out.append(f"    return _PR({', '.join(fields)})")
        return out

    def _stage(self, stage_index: int, tables: List[AtomicTable],
               tag: Dict[str, bool]) -> List[str]:
        """One physical stage: every table whose path conditions hold runs;
        a stage counts as traversed iff at least one did."""
        out = [f"    # stage {stage_index}", "    if _sp is not None:", "        _t0 = _pc()"]
        always = sum(1 for table in tables if not table.path_conditions)
        if always < len(tables):
            out.append("    _n = 0")
        for table in tables:
            body = self._table(table, tag)
            if table.path_conditions:
                test = " and ".join(self._test(c) for c in table.path_conditions)
                out.append(f"    if {test}:  # {table.name}")
                out += ["        " + line for line in body]
                out.append("        _n += 1")
            else:
                out.append(f"    {body[0]}  # {table.name}")
                out += ["    " + line for line in body[1:]]
        if always == len(tables):
            count, pad = str(always), "    "
        elif always:
            count, pad = f"{always} + _n", "    "
        else:
            count, pad = "_n", "        "
            out.append("    if _n:")
        out.append(f"{pad}_st += 1")
        out.append(f"{pad}_tb += {count}")
        out.append(f"{pad}if _sp is not None:")
        out.append(f"{pad}    _sp.record({stage_index}, {count}, _pc() - _t0)")
        return out

    # -- operands and conditions -------------------------------------------
    def _default(self, name: str) -> str:
        """What a metadata field no table has written reads as."""
        if name == "SELF" or name == "__Sys_self":
            return "_SELF"
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

    # -- one table's action ---------------------------------------------------
    def _table(self, table: AtomicTable, tag: Dict[str, bool]) -> List[str]:
        stmt = table.stmt
        atom = self._atom
        if isinstance(stmt, NOp):
            value = binop_template(stmt.op, atom(stmt.lhs), atom(stmt.rhs))
            return [f"{self.locals[stmt.dst]} = {value}"]
        if isinstance(stmt, NCopy):
            return [f"{self.locals[stmt.dst]} = {atom(stmt.src)}"]
        if isinstance(stmt, NHash):
            self.hash_arities.add(len(stmt.args) + 1)
            value = hash_template(stmt.width, [atom(a) for a in stmt.args])
            return [f"{self.locals[stmt.dst]} = {value}"]
        if isinstance(stmt, NArrayOp):
            return self._array_op(stmt)
        if isinstance(stmt, NGenerate):
            event = self._event(stmt)
            return [f"_gen.append(({table.uid}, {event}))" if tag["gen"]
                    else f"_gen.append({event})"]
        if isinstance(stmt, NPrim):
            return self._prim(stmt, table.uid if tag["prints"] else None)
        raise SimulationError(f"cannot lower table {table.name}")  # pragma: no cover

    def _array_op(self, stmt: NArrayOp) -> List[str]:
        """One stateful-ALU instruction, straight-line on the array's bound
        cell list: wrap the index, bump ``reads`` / ``writes``, read the old
        cell once, apply the memop template(s) to it, mask to the cell width,
        store — what ``RuntimeArray.get`` / ``set`` / ``update`` do per call,
        in the shape codegen's ``_static_array_method`` emits."""
        if stmt.array not in self.arrays:
            self.arrays.append(stmt.array)
        register = self.info.globals[stmt.array]
        if register.size < 1:
            raise InterpError(f"array '{stmt.array}' has zero size")
        array, cells = f"_A_{stmt.array}", f"_C_{stmt.array}"
        index = f"{self._atom(stmt.index)} % {register.size}"
        mask = MASK32 & ((1 << register.cell_width) - 1)
        args = [self._atom(a) for a in stmt.args] or ["0"]
        dst = f"{self.locals[stmt.dst]} = " if stmt.dst else ""

        def applied(position: int, arg: str) -> Optional[str]:
            """Memop number ``position`` of the call over the old cell."""
            if position >= len(stmt.memops):
                return None
            memop = memop_shape(self.info, stmt.memops[position])
            return f"{memop_template(memop, self.info, '_o', arg)} & {mask}"

        if stmt.method in ("Array.get", "Array.getm"):
            got = applied(0, args[0])
            if got is None:
                return [f"{array}.reads += 1", f"{dst}{cells}[{index}]"]
            return [f"{array}.reads += 1", f"_o = {cells}[{index}]", f"{dst}{got}"]
        if stmt.method in ("Array.set", "Array.setm"):
            put = applied(0, args[0])
            if put is None:
                return [f"{array}.writes += 1", f"{cells}[{index}] = {args[0]} & {mask}"]
            return [f"{array}.writes += 1", f"_i = {index}", f"_o = {cells}[_i]",
                    f"{cells}[_i] = {put}"]
        if stmt.method == "Array.update":
            set_arg = args[1] if len(args) > 1 else args[0]
            got = applied(0, args[0])
            put = applied(1, set_arg)
            return [
                f"{array}.reads += 1",
                f"{array}.writes += 1",
                f"_i = {index}",
                f"_o = {cells}[_i]",
                # both from the old cell, and stored before the destination
                # is assigned: the destination may be one of the arguments
                f"{cells}[_i] = {put or f'{set_arg} & {mask}'}",
                f"{dst}{got or '_o'}",
            ]
        raise SimulationError(f"unknown array method {stmt.method}")  # pragma: no cover

    def _event(self, stmt: NGenerate) -> str:
        """``_EV(name, args, delay_ns, location, group, source)``."""
        args = _tuple([self._atom(a) for a in stmt.args])
        delay = self._atom(stmt.delay)
        location, group = repr(LOCAL), "None"
        if stmt.group is not None:
            members = self.info.consts.groups.get(stmt.group, [])
            group = repr(tuple(int(member) for member in members))
        else:
            where = self._atom(stmt.location)
            if where != repr(LOCAL):
                # an event located at this very switch is a local one
                location = f"({LOCAL} if {where} == _SELF else {where})"
        return f"_EV({stmt.event!r}, {args}, {delay}, {location}, {group}, _SELF)"

    def _prim(self, stmt: NPrim, print_uid: Optional[int]) -> List[str]:
        prim = stmt.prim
        args = [self._atom(a) for a in stmt.args]
        if prim == "drop":
            return ["_drop = True"]
        if prim == "forward":
            return [f"_fwd = {args[0]}"] if args else ["pass"]
        if prim == "flood":
            return ["_flood = True"]
        if prim == "printf":
            line = f"' '.join({_tuple([f'str({a})' for a in args])})" if args else "''"
            return [f"_prints.append(({print_uid}, {line}))" if print_uid is not None
                    else f"_prints.append({line})"]
        if prim == "Sys.time":
            return [f"{self.locals['__Sys_time']} = _rt.time_ns & 4294967295"]
        if prim == "Sys.self":
            return [f"{self.locals['__Sys_self']} = _SELF"]
        if prim == "Sys.random":
            # advances the shared xorshift state exactly once, like the
            # interpreter does at the corresponding call site; the optional
            # bound operand reduces the draw exactly as Sys.random(bound) does
            return [f"{self.locals['__Sys_random']} = _rt.random({', '.join(args[:1])})"]
        if prim.startswith("extern:"):
            # looked up per call: bind_extern may come after the first event
            return [
                f"_fn = _EXT.get({prim.split(':', 1)[1]!r})",
                "if _fn is not None:",
                f"    _fn({', '.join(args)})",
            ]
        # unknown primitives are inert metadata, as unprogrammed actions are
        return ["pass"]


#: what a table may contribute to the pass result, in PipelinePassResult
#: field order: (effect kind, the plan's local, its value when no table does)
_EFFECTS = (
    ("gen", "_gen", "[]"),
    ("prints", "_prints", "[]"),
    ("drop", "_drop", "False"),
    ("flood", "_flood", "False"),
    ("fwd", "_fwd", "None"),
)


def _effect(stmt) -> Optional[str]:
    """Which field of the pass result ``stmt`` contributes to, if any."""
    if isinstance(stmt, NGenerate):
        return "gen"
    if isinstance(stmt, NPrim):
        return {"printf": "prints", "drop": "drop", "flood": "flood",
                "forward": "fwd"}.get(stmt.prim)
    return None


# ---------------------------------------------------------------------------
# the pipeline: one plan bound to one switch's state
# ---------------------------------------------------------------------------
class PisaPipeline:
    """Executes a compiled program's layout over shared register state."""

    def __init__(
        self,
        compiled: CompiledProgram,
        switch_id: int = 0,
        runtime: Optional[SwitchRuntime] = None,
    ):
        self.compiled = compiled
        self.info = compiled.checked.info
        self.layout: PipelineLayout = compiled.layout
        # reuse the interpreter's runtime for arrays and compiled memops; an
        # externally supplied runtime shares its state (and its switch id)
        # with whoever else holds it — this is how the PISA engine keeps its
        # register file visible to Network.reset() and the array digests
        self.runtime = runtime or SwitchRuntime(compiled.checked, switch_id=switch_id)
        self.switch_id = self.runtime.switch_id
        #: optional :class:`repro.obs.profile.StageProfiler` — per-physical-
        #: stage wall-time and table accounting; read at the start of every
        #: pass, so it may be attached at any time
        self.stage_prof = None
        self.plan = lower_layout(compiled)
        self._handlers: Dict[str, Callable] = self.plan.bind(self, self.runtime)

    # -- state access ---------------------------------------------------------
    def array(self, name: str) -> RuntimeArray:
        return self.runtime.array(name)

    def source(self, handler: Optional[str] = None) -> str:
        """The lowered stage plan as Python source: the whole module, or the
        one function of ``handler``."""
        if handler is None:
            return self.plan.source
        return self.plan.handler_sources[handler]

    # -- execution --------------------------------------------------------------
    def process(self, event: EventInstance, time_ns: Optional[int] = None) -> PipelinePassResult:
        """Run one event packet through the pipeline (one ingress pass).

        ``time_ns`` stamps the runtime clock before execution; ``None`` keeps
        the clock wherever the caller (e.g. the network scheduler) set it.
        """
        if time_ns is not None:
            self.runtime.time_ns = time_ns
        run = self._handlers.get(event.name)
        if run is None:
            # events without handlers are legal: they exit the switch
            return PipelinePassResult()
        return run(event.args)
