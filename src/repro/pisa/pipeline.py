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
accounting (the pass's ``_st`` stages and ``_tb`` tables, the optional
:class:`~repro.obs.profile.StageProfiler`) written out per stage.  A
:class:`PisaPipeline` only binds the plan to its own switch state — register
arrays and their cell lists, ``SELF``, the runtime clock/PRNG/extern table,
its pass counters — so every switch running one compiled program shares the
code objects.  The plan is a module in the generated-module format of
:mod:`repro.interp.emit` (``_bind(_P, _rt)``, one ``_h_<event>`` per
handler returning a plain ``ExecutionResult``, run through the shared
:func:`~repro.interp.emit.dispatcher`), which the codegen engine writes and
runs too — from the same normalised statements, through the same statement
printers (``ModuleEmitter._statement``).  :class:`_PlanEmitter` adds only
what is the plan's own: stages, path conditions, uid tags for effects that
data-flow reordering may have moved, the ``_st`` / ``_tb`` /
stage-profiler accounting, and an epilogue adding the pass's counts into
the :class:`PisaPipeline`'s own.  A stateful table is part of its stage like
any other: the format's one straight-line read-modify-write on the array's
cell list, its memops rendered in place, exactly one per table, like the
hardware stateful ALU.

Running the same program through this pipeline executor and through the
AST-level interpreter (:mod:`repro.interp`) and comparing the resulting
register state is the repository's main end-to-end check that compilation
preserves semantics.  The executor is also *load-bearing*:
:class:`~repro.interp.engine.PisaEngine` drives whole scenario workloads
through :attr:`PisaPipeline.run`, one pipeline pass per handled event, over a
:class:`~repro.interp.interpreter.SwitchRuntime` shared with the network
simulation (pass ``runtime=`` to share arrays, externs, the clock, and the
PRNG with a live :class:`~repro.interp.network.Switch`).

Use ``repro.scenarios run NAME --engine pisa --dump-source`` (or
:meth:`PisaPipeline.source`) to read a plan.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.backend.compiler import CompiledProgram
from repro.backend.layout import PipelineLayout
from repro.backend.tables import AtomicTable
from repro.frontend import ast
from repro.interp.arrays import RuntimeArray
from repro.interp.emit import GeneratedModule, Line, ModuleEmitter, cached_module, dispatcher, effect_of
from repro.interp.interpreter import SwitchRuntime
from repro.obs.metrics import REGISTRY as _REGISTRY

# bumped by ``cached_module`` behind an ``if _OBS.enabled:`` guard
_M_PLAN_CACHE_HITS = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_hits_total",
    "Pipelines bound to a stage plan already lowered for their program.")
_M_PLAN_CACHE_MISSES = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_misses_total",
    "Stage plans lowered from a layout (once per compiled program).")

# ---------------------------------------------------------------------------
# lowering: PipelineLayout -> stage plan
# ---------------------------------------------------------------------------
def lower_layout(compiled: CompiledProgram) -> GeneratedModule:
    """The stage plan of ``compiled``, lowered on first use and cached on the
    compiled program — beside the layout it is derived from, so the switches
    sharing one layout (:func:`repro.interp.engine._compiled_for`) lower it
    once however many of them there are."""
    return cached_module(compiled, "_stage_plan", lambda: _PlanEmitter(compiled).lower(),
                         _M_PLAN_CACHE_HITS, _M_PLAN_CACHE_MISSES)


_HEADER = """\
# Stage plan lowered by repro.pisa.pipeline for program {name!r}:
# one function per handler, its tables in stage order.
# Seeded globals: _IE (InterpError), _EV (EventInstance),
# _ER (ExecutionResult), _EMPTY_R (shared no-effect result),
# _pc (perf_counter), _uid (itemgetter(0)),
# _c32 (zlib.crc32), _pk<N> (struct '<NI' packers).  Bound per switch:
# _A_<array> (RuntimeArray, for its counters), _C_<array> (its cell list);
# _P is the pipeline, which sums the pass counts.
"""


class _PlanEmitter(ModuleEmitter):
    """Walks the layout once and writes one function per handler: the
    shared statement text, placed in stages under its path conditions."""

    def __init__(self, compiled: CompiledProgram):
        super().__init__(compiled.checked.info)
        self.program_name = compiled.name
        #: handler -> [(stage index, that handler's tables in the stage)]
        self.staged: Dict[str, List[Tuple[int, List[AtomicTable]]]] = {}
        for stage_index, stage in enumerate(compiled.layout.stages):
            by_handler: Dict[str, List[AtomicTable]] = {}
            for merged in stage.merged_tables:
                for table in merged.members:
                    by_handler.setdefault(table.handler, []).append(table)
            for handler, tables in by_handler.items():
                self.staged.setdefault(handler, []).append((stage_index, tables))

    # -- program assembly ---------------------------------------------------
    def lower(self) -> GeneratedModule:
        handlers = {
            name: self._handler(decl) for name, decl in self.info.handlers.items()
        }
        return self._module(
            self.program_name, "stage-plan", _HEADER.format(name=self.program_name),
            "_P, _rt", handlers, {"_pc": perf_counter, "_uid": itemgetter(0)})

    # -- one handler --------------------------------------------------------
    def _handler(self, decl: ast.DHandler) -> List[Line]:
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
        self._use_locals(names)

        effects = {effect_of(table.stmt) for table in tables}
        # generated events and printed lines are observable in program order
        # (table uid order); data-flow reordering may place them otherwise, in
        # which case they are tagged with their table uid and re-sorted
        tag = {}
        for kind in ("gen", "prints"):
            uids = [t.uid for t in tables if effect_of(t.stmt) == kind]
            tag[kind] = uids != sorted(uids)

        self.lines = self._handler_head(
            decl.name, [self.locals[name] if name in read else None for name in params])
        for name in names:
            if name in read and name not in params:
                self._line(f"{self.locals[name]} = {self._default(name)}")
        self.lines += self._effect_inits(effects)
        if staged:
            self._line("_sp = _P.stage_prof")
            self._line("_st = _tb = 0")
        for stage_index, stage_tables in staged:
            self._stage(stage_index, stage_tables, tag)
        for kind, var in (("gen", "_gen"), ("prints", "_prints")):
            if tag[kind]:
                self._line(f"if len({var}) > 1:")
                self._line(f"{var}.sort(key=_uid)", 1)
                self._line(f"{var} = [_item for _, _item in {var}]")
        if staged:
            # the pass's counts into the pipeline's
            self._line("_P.stages_traversed += _st")
            self._line("_P.tables_executed += _tb")
            self._line("if _st > _P.max_stages_traversed:")
            self._line("_P.max_stages_traversed = _st", 1)
        self._line(f"return {self._result(effects)}")
        return self.lines

    def _stage(self, stage_index: int, tables: List[AtomicTable],
               tag: Dict[str, bool]) -> None:
        """One physical stage: every table whose path conditions hold runs;
        a stage counts as traversed iff at least one did."""
        self._line(f"# stage {stage_index}")
        self._line("if _sp is not None:")
        self._line("_t0 = _pc()", 1)
        always = sum(1 for table in tables if not table.path_conditions)
        if always < len(tables):
            self._line("_n = 0")
        for table in tables:
            if table.path_conditions:
                test = " and ".join(self._test(c) for c in table.path_conditions)
                self._line(f"if {test}:  # {table.name}")
                self.indent += 1
                self._table(table, tag)
                self._line("_n += 1")
                self.indent -= 1
            else:
                self._line(f"# {table.name}")
                self._table(table, tag)
        count = str(always) if always == len(tables) else f"{always} + _n" if always else "_n"
        deeper = 0 if always else 1
        if not always:
            self._line("if _n:")
        self._line("_st += 1", deeper)
        self._line(f"_tb += {count}", deeper)
        self._line("if _sp is not None:", deeper)
        self._line(f"_sp.record({stage_index}, {count}, _pc() - _t0)", deeper + 1)

    def _table(self, table: AtomicTable, tag: Dict[str, bool]) -> None:
        """One table's action: its statement, tagged with the table's uid
        where data-flow reordering may have moved it (see :meth:`_handler`)."""
        self._statement(table.stmt, table.uid if tag["gen"] else None,
                        table.uid if tag["prints"] else None)


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
        #: stages and tables summed over every pass, and the most stages of
        #: any one pass — the plan's epilogue adds each pass in
        self.stages_traversed = 0
        self.max_stages_traversed = 0
        self.tables_executed = 0
        self.plan = lower_layout(compiled)
        self._handlers = self.plan.bind(self, self.runtime)
        #: ``run(event)``: one pass of ``event`` through its handler's plan —
        #: what the pisa engine dispatches to
        self.run = dispatcher(self._handlers)

    # -- state access ---------------------------------------------------------
    def array(self, name: str) -> RuntimeArray:
        return self.runtime.array(name)

    def counters(self) -> Dict[str, int]:
        """The pass counters by name."""
        return {
            "stages_traversed": self.stages_traversed,
            "max_stages_traversed": self.max_stages_traversed,
            "tables_executed": self.tables_executed,
        }

    def source(self, handler: Optional[str] = None) -> str:
        """The lowered stage plan as Python source: the whole module, or the
        one function of ``handler``."""
        if handler is None:
            return self.plan.source
        return self.plan.handler_sources[handler]
