"""Execution of a compiled pipeline layout on a simulated PISA pipeline.

This is the substrate that stands in for the Tofino: it takes the
:class:`~repro.backend.layout.PipelineLayout` produced by the compiler and
executes event packets through it, stage by stage, atomic table by atomic
table — testing each table's path conditions against the packet's metadata
(as the generated match-action rules would) and applying its single operation
(stateless ALU op, stateful ALU register access, hash, event generation, or a
primitive action such as ``drop``/``forward``/``printf``).

On hardware none of that is decided per packet, and neither is it here: the
layout is lowered **once** per :class:`~repro.backend.compiler.CompiledProgram`
into a *stage plan* (:func:`lower_layout`), a module in the generated-module
format of :mod:`repro.interp.emit` (``_bind(_P, _rt)``, one ``_h_<event>``
per handler, run through the shared :func:`~repro.interp.emit.dispatcher`)
whose statements are the codegen engine's text, from the same printers.
:class:`_PlanEmitter` adds what is the plan's own.  Each handler's tables
run in stage order under *condition flags*: each distinct conjunction of path
conditions is computed once, into a bool ``_f<N>``, at the first stage that
tests it (from a live prefix flag where one exists); a flag is keyed by the
write counts of its operands, so a table writing an operand makes the next
test compute a new flag; consecutive tables of a stage under one flag share
one ``if``.  A metadata local gets its default at entry only if some read
may find it unwritten.  A pass's stage and table counts are one bump of its
path — the int whose bit ``N`` is flag ``N`` — in a per-handler dict the
:class:`PisaPipeline` owns, which :meth:`PisaPipeline.counters` folds through
the lowering's masks (:class:`PathShape`).  A second lowering, bound only
while a :class:`~repro.obs.profile.StageProfiler` is attached, also times
each stage into it.  A pipeline binds only its own switch state (arrays,
``SELF``, the runtime, its path counts), so switches running one compiled
program share the code objects.

Running the same program through this executor and through the tree walker
and comparing register state is the main end-to-end check that compilation
preserves semantics; :class:`~repro.interp.engine.PisaEngine` also drives
whole scenarios through :attr:`PisaPipeline.run`, one pass per handled event,
over a :class:`~repro.interp.interpreter.SwitchRuntime` shared with the
network simulation.

Use ``repro.scenarios run NAME --engine pisa --dump-source`` (or
:meth:`PisaPipeline.source`) to read a plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.backend.compiler import CompiledProgram
from repro.backend.layout import PipelineLayout
from repro.backend.tables import AtomicTable
from repro.frontend import ast
from repro.interp.arrays import RuntimeArray
from repro.interp.emit import GeneratedModule, Line, ModuleEmitter, cached_module, dispatcher, effect_of
from repro.interp.interpreter import SwitchRuntime
from repro.midend.normalize import NCond, operand_vars, stmt_reads
from repro.obs.metrics import REGISTRY as _REGISTRY

# bumped by ``cached_module`` behind an ``if _OBS.enabled:`` guard
_M_PLAN_CACHE_HITS = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_hits_total",
    "Pipelines bound to a stage plan already lowered for their program.")
_M_PLAN_CACHE_MISSES = _REGISTRY.counter(
    "repro_engine_pisa_plan_cache_misses_total",
    "Stage plans lowered from a layout (once per compiled program; timed: once more).")

# ---------------------------------------------------------------------------
# lowering: PipelineLayout -> stage plan
# ---------------------------------------------------------------------------
def lower_layout(compiled: CompiledProgram, timed: bool = False) -> GeneratedModule:
    """The stage plan of ``compiled`` (``timed``: one that also times each
    stage into its pipeline's stage profiler), lowered on first use and cached
    on the compiled program, so the switches sharing one layout
    (:func:`repro.interp.engine._compiled_for`) lower it once."""
    return cached_module(compiled, "_timed_stage_plan" if timed else "_stage_plan",
                         lambda: _PlanEmitter(compiled, timed).lower(),
                         _M_PLAN_CACHE_HITS, _M_PLAN_CACHE_MISSES)


_HEADER = """\
# Stage plan lowered by repro.pisa.pipeline for program {name!r}:
# one function per handler, its tables in stage order, each under the
# flag _f<N> that holds its path conditions.
# Seeded globals: _IE (InterpError), _EV (EventInstance),
# _ER (ExecutionResult), _EMPTY_R (shared no-effect result),
# _uid (itemgetter(0)),{timed}
# _c32 (zlib.crc32), _pk<N> (struct '<NI' packers).  Bound per switch:
# _A_<array> (RuntimeArray, for its counters), _C_<array> (its cell list),
# _K_<handler> (the pipeline's passes by path: flag N is bit N of the key).
"""


class PathShape(NamedTuple):
    """How a path index (bit ``N``: flag ``_f<N>`` held) folds into counts:
    the stages and tables every pass counts, the flag mask of each stage
    with no unconditional table, and the tables under each flag."""

    stages: int
    tables: int
    stage_masks: Tuple[int, ...]
    flag_tables: Tuple[int, ...]

    def count(self, index: int) -> Tuple[int, int]:
        """The stages traversed and tables executed by a pass on ``index``."""
        return (self.stages + sum(1 for mask in self.stage_masks if index & mask),
                self.tables + sum(n for bit, n in enumerate(self.flag_tables) if index >> bit & 1))


class _PlanEmitter(ModuleEmitter):
    """Walks the layout once and writes one function per handler: the
    shared statement text, placed in stages under condition flags; ``timed``
    also writes each stage's ``_sp.record``."""

    def __init__(self, compiled: CompiledProgram, timed: bool = False):
        super().__init__(compiled.checked.info)
        self.program_name = compiled.name
        self.timed = timed
        #: handler -> how its path counts fold into pass counts
        self.paths: Dict[str, PathShape] = {}
        #: handler -> [(stage index, that handler's tables in the stage)]
        self.staged: Dict[str, List[Tuple[int, List[AtomicTable]]]] = {}
        for stage_index, stage in enumerate(compiled.layout.stages):
            by_handler: Dict[str, List[AtomicTable]] = {}
            for merged in stage.merged_tables:
                for table in merged.members:
                    by_handler.setdefault(table.handler, []).append(table)
            for handler, tables in by_handler.items():
                # program order: a stage may hold a read and a later overwrite
                # (WAR is not strict), and the read must see the stage's input
                tables.sort(key=lambda table: table.uid)
                self.staged.setdefault(handler, []).append((stage_index, tables))

    # -- program assembly ---------------------------------------------------
    def lower(self) -> GeneratedModule:
        handlers = {name: self._handler(decl) for name, decl in self.info.handlers.items()}
        timed = " _pc (perf_counter)," if self.timed else ""
        seeds = {"_uid": itemgetter(0), **({"_pc": perf_counter} if self.timed else {})}
        module = self._module(
            self.program_name, "timed-stage-plan" if self.timed else "stage-plan",
            _HEADER.format(name=self.program_name, timed=timed), "_P, _rt", handlers, seeds)
        return replace(module, paths=self.paths)

    # -- one handler --------------------------------------------------------
    def _handler(self, decl: ast.DHandler) -> List[Line]:
        staged = self.staged.get(decl.name, [])
        tables = [table for _, stage_tables in staged for table in stage_tables]
        params = [p.name for p in decl.params]
        # a metadata field is a local iff some table may write it (handler
        # parameters arrive written); every other name reads as its default
        names = sorted(set(params).union(*(table.writes for table in tables)))
        self._use_locals(names)
        effects = {effect_of(table.stmt) for table in tables} - {None}
        # generated events and printed lines are observable in program order
        # (table uid order); data-flow reordering may place them otherwise, in
        # which case they are tagged with their table uid and re-sorted
        tag = {}
        for kind in ("gen", "prints"):
            uids = [t.uid for t in tables if effect_of(t.stmt) == kind]
            tag[kind] = uids != sorted(uids)

        # the body first, as it finds the locals some read may find unwritten
        # (``unset``): ``version`` counts each local's writes so far, ``defs``
        # holds the conditions (a :meth:`_key`) of each write, ``flags`` maps
        # conditions to their flag; a PathShape's fields are gathered alike
        self.lines, self.indent, self.read, self.unset = [], 1, set(), set()
        self.version, self.flags = Counter(), {}
        self.defs: Dict[str, List[tuple]] = {name: [()] for name in params}
        self.flag_tables, self.stage_masks, self.fixed = [], [], [0, 0]
        if self.timed and staged:
            self._line("_sp = _P.stage_prof")
        for stage_index, stage_tables in staged:
            self._stage(stage_index, stage_tables, tag)
        for kind, var in (("gen", "_gen"), ("prints", "_prints")):
            if tag[kind]:
                self._line(f"if len({var}) > 1:")
                self._line(f"{var}.sort(key=_uid)", 1)
                self._line(f"{var} = [_item for _, _item in {var}]")
        if staged:
            # the pass's counts are its path's: one count per pass
            counts = f"_K_{decl.name}"
            self._bindings["paths", decl.name] = (counts, f"_P.path_counts[{decl.name!r}]")
            bits = [f"_f{n} << {n}" if n else "_f0" for n in range(len(self.flag_tables))]
            self._line(f"_k = {' | '.join(bits) or 0}")
            self._line(f"{counts}[_k] = {counts}.get(_k, 0) + 1")
            self.paths[decl.name] = PathShape(
                *self.fixed, tuple(self.stage_masks), tuple(self.flag_tables))
        self._line(f"return {self._result(effects)}")
        head = self._handler_head(
            decl.name, [self.locals[name] if name in self.read else None for name in params])
        head += [(1, f"{self.locals[name]} = {self._default(name)}")
                 for name in names if name in self.unset]
        return head + self._effect_inits(effects) + self.lines

    def _stage(self, stage_index: int, tables: List[AtomicTable],
               tag: Dict[str, bool]) -> None:
        """One physical stage: every table whose flag holds runs, consecutive
        tables under one flag in one ``if``; a stage counts as traversed iff
        at least one of its tables ran."""
        self._line(f"# stage {stage_index}")
        if self.timed:
            self._line("_t0 = _pc()")
        counts: Dict[Optional[int], int] = {}  # flag (None: unconditional) -> tables
        opened = None
        for table in tables:
            key = self._key(table.path_conditions)
            flag = self._flag(key, table.path_conditions) if key else None
            if flag is not None and flag != opened:
                self._line(f"if _f{flag}:")
            opened = flag
            counts[flag] = counts.get(flag, 0) + 1
            self.indent += flag is not None
            self._line(f"# {table.name}")
            self._reads(stmt_reads(table.stmt), key)
            self._statement(table.stmt, table.uid if tag["gen"] else None,
                            table.uid if tag["prints"] else None)
            self.indent = 1
            for name in table.writes:
                self.version[name] += 1
                self.defs.setdefault(name, []).append(key)
        always = counts.pop(None, 0)
        for flag, n in counts.items():
            self.flag_tables[flag] += n
        if always:
            self.fixed = [self.fixed[0] + 1, self.fixed[1] + always]
        else:
            self.stage_masks.append(sum(1 << flag for flag in counts))
        if self.timed:
            ran = " + ".join([str(always)] * bool(always) + [
                f"{n} * _f{flag}" if n > 1 else f"_f{flag}" for flag, n in counts.items()])
            if not always:
                self._line(f"_n = {ran}")
                self._line("if _n:")
                ran = "_n"
            self._line(f"_sp.record({stage_index}, {ran}, _pc() - _t0)", not always)

    # -- condition flags and the locals' defaults ----------------------------
    def _key(self, conditions: Sequence[NCond]) -> tuple:
        """``conditions`` as tested now: each one's text and the write counts
        of its operands, so a table that writes an operand changes the key."""
        return tuple((self._test(c), *[self.version[n] for n in operand_vars(c.lhs, c.rhs)])
                     for c in conditions)

    def _flag(self, key: tuple, conditions: Sequence[NCond]) -> int:
        """The flag holding ``key``: the live one, or a new one computed here
        (at the first stage testing it) from the longest live prefix flag."""
        flag = self.flags.get(key)
        if flag is not None:
            return flag
        start = max((n for n in range(1, len(key)) if key[:n] in self.flags), default=0)
        tests = [f"_f{self.flags[key[:start]]}"] if start else []
        for n in range(start, len(key)):
            # ``and`` short-circuits: the n-th test runs under the first n
            self._reads(operand_vars(conditions[n].lhs, conditions[n].rhs), key[:n])
            tests.append(key[n][0])
        flag = self.flags[key] = len(self.flag_tables)
        self.flag_tables.append(0)
        self._line(f"_f{flag} = {' and '.join(tests)}")
        return flag

    def _reads(self, names: Sequence[str], key: tuple) -> None:
        """Reads under ``key``: a local is ``unset`` unless written under a prefix of it."""
        for name in names:
            if name in self.locals:
                self.read.add(name)
                if not any(key[:len(under)] == under for under in self.defs.get(name, ())):
                    self.unset.add(name)


# ---------------------------------------------------------------------------
# the pipeline: one plan bound to one switch's state
# ---------------------------------------------------------------------------
class PisaPipeline:
    """Executes a compiled program's layout over shared register state."""

    def __init__(self, compiled: CompiledProgram, switch_id: int = 0,
                 runtime: Optional[SwitchRuntime] = None):
        self.compiled = compiled
        self.info = compiled.checked.info
        self.layout: PipelineLayout = compiled.layout
        # reuse the interpreter's runtime for arrays and compiled memops; an
        # externally supplied runtime shares its state (and its switch id)
        # with whoever else holds it — this is how the PISA engine keeps its
        # register file visible to snapshots and the array digests
        self.runtime = runtime or SwitchRuntime(compiled.checked, switch_id=switch_id)
        self.switch_id = self.runtime.switch_id
        self.plan = lower_layout(compiled)
        #: handler -> {path index: passes}: the one count each pass of the
        #: plan makes, which :meth:`counters` folds through ``plan.paths``
        self.path_counts: Dict[str, Dict[int, int]] = {name: {} for name in self.plan.paths}
        #: the counters restored from a checkpoint, which the paths add to
        self._restored = (0, 0, 0)
        self._handlers: Dict[str, Callable] = {}
        self.stage_prof = None
        #: ``run(event)``: one pass of ``event`` through its handler's plan —
        #: what the pisa engine dispatches to
        self.run = dispatcher(self._handlers)

    @property
    def stage_prof(self):
        """The attached :class:`repro.obs.profile.StageProfiler`, or None;
        setting it binds the timed plan (None: the plain one) in place, so
        ``run`` keeps dispatching, into the same ``path_counts``."""
        return self._stage_prof

    @stage_prof.setter
    def stage_prof(self, profiler) -> None:
        self._stage_prof = profiler
        plan = self.plan if profiler is None else lower_layout(self.compiled, timed=True)
        self._handlers.update(plan.bind(self, self.runtime))

    # -- state access ---------------------------------------------------------
    def array(self, name: str) -> RuntimeArray:
        return self.runtime.array(name)

    def counters(self) -> Dict[str, int]:
        """The pass counters by name, folded from the path counts: stages and
        tables summed over every pass, and the most stages of any one."""
        stages, peak, tables = self._restored
        for name, counts in self.path_counts.items():
            shape = self.plan.paths[name]
            for index, passes in counts.items():
                traversed, executed = shape.count(index)
                stages += traversed * passes
                tables += executed * passes
                peak = max(peak, traversed)
        return {"stages_traversed": stages, "max_stages_traversed": peak,
                "tables_executed": tables}

    def restore_counters(self, counters: Dict[str, int]) -> None:
        """Count on from ``counters`` (what :meth:`counters` returned)."""
        self._restored = itemgetter(
            "stages_traversed", "max_stages_traversed", "tables_executed")(counters)
        for counts in self.path_counts.values():
            counts.clear()

    def source(self, handler: Optional[str] = None) -> str:
        """The lowered stage plan as Python source: the whole module, or the
        one function of ``handler``."""
        if handler is None:
            return self.plan.source
        return self.plan.handler_sources[handler]
