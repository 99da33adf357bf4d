"""Greedy table merging and stage assignment (Section 6.2, Figure 8).

The compiler "uses a simple greedy algorithm that produces a pipeline with M
stages and N merged tables per stage by walking the atomic table graph
topologically.  For each table t, it finds the earliest merged table that t
can be merged into", based on data-flow constraints, a model of free
resources per stage, and Tofino-specific constraints (register arrays are
pinned to a single stage; stateful ALUs, hash units and logical tables per
stage are limited).

The pass operates over *all* handlers of a program at once: handlers are
mutually exclusive at runtime (the event dispatcher selects one), but their
tables coexist physically and any register array they share must live in one
stage.  Array stages are pre-computed as the fixpoint of an ASAP pass over all
handlers, so shared arrays end up at the latest stage any handler needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.backend.layout import MergedTable, PipelineLayout, StageLayout
from repro.backend.reorder import DataflowGraph, Dependency, build_dataflow_graph
from repro.backend.resources import StageResources, TofinoModel
from repro.backend.tables import AtomicTable, TableKind, atomic_tables
from repro.errors import LayoutError
from repro.frontend.symbols import ProgramInfo
from repro.midend.normalize import NormalizedHandler
from repro.records import record


class _PinConflict(Exception):
    """Internal signal: an array's pinned stage is infeasible in the actual
    (resource-aware) placement and must move to ``required`` or later."""

    def __init__(self, array: str, required: int, span=None):
        super().__init__(array)
        self.array = array
        self.required = required
        self.span = span


@record
class MergeOptions:
    """Knobs for the layout pass — used by the optimisation ablations."""

    #: apply data-flow reordering + merging; when False the layout is the
    #: hand-written-style baseline: one atomic table per stage along program
    #: order, nothing merged.
    optimize: bool = True
    #: reorder tables by data flow; when False, program order is kept as a
    #: chain of strict dependencies (ablation: merging without reordering).
    reorder: bool = True


def _table_resources(table: AtomicTable) -> Dict[str, int]:
    """Per-stage resources consumed by one atomic table."""
    if table.kind is TableKind.MEMORY:
        return {"salus": 1, "alus": 0, "hash_units": 0}
    if table.kind is TableKind.HASH:
        return {"salus": 0, "alus": 0, "hash_units": 1}
    if table.kind is TableKind.GENERATE:
        return {"salus": 0, "alus": 2, "hash_units": 0}
    return {"salus": 0, "alus": 1, "hash_units": 0}


class _Layouter:
    def __init__(
        self,
        info: ProgramInfo,
        model: TofinoModel,
        options: MergeOptions,
        array_pins: Dict[str, int],
    ):
        self.info = info
        self.model = model
        self.options = options
        self.array_pins = array_pins
        self.stage_resources: List[StageResources] = []
        self.stage_layouts: List[StageLayout] = []
        self.stage_arrays: List[Set[str]] = []
        self.table_stage: Dict[int, int] = {}

    # -- stage bookkeeping -------------------------------------------------
    def _ensure_stage(self, index: int) -> None:
        while len(self.stage_layouts) <= index:
            self.stage_layouts.append(StageLayout(index=len(self.stage_layouts)))
            self.stage_resources.append(StageResources(self.model))
            self.stage_arrays.append(set())

    def _needs(self, stage: int, table: AtomicTable) -> Dict[str, int]:
        needs = dict(_table_resources(table))
        if table.kind is TableKind.MEMORY and table.array in self.stage_arrays[stage]:
            # the register array (and its stateful ALU) is already present in
            # this stage; another RegisterAction on it does not claim a new one
            needs["salus"] = 0
        return needs

    def _sram_words(self, stage: int, table: AtomicTable) -> int:
        if table.kind is not TableKind.MEMORY or table.array is None:
            return 0
        if table.array in self.stage_arrays[stage]:
            return 0
        g = self.info.globals.get(table.array)
        return g.size if g is not None else 0

    def _find_merged_table(self, layout: StageLayout, table: AtomicTable) -> Optional[MergedTable]:
        if not self.options.optimize:
            return None
        for merged in layout.merged_tables:
            if len(merged.members) >= self.model.max_merge_width:
                continue
            # two tables writing the same variable cannot merge (their actions
            # would conflict within one VLIW action word)
            if any(m.writes & table.writes for m in merged.members if table.writes):
                continue
            return merged
        return None

    def _stage_has_room(self, stage: int, table: AtomicTable) -> bool:
        self._ensure_stage(stage)
        resources = self.stage_resources[stage]
        needs = self._needs(stage, table)
        sram = self._sram_words(stage, table)
        merged = self._find_merged_table(self.stage_layouts[stage], table)
        new_table = 0 if merged is not None else 1
        return resources.can_fit(tables=new_table, sram_words=sram, **needs)

    def _place(self, table: AtomicTable, stage: int) -> None:
        self._ensure_stage(stage)
        layout = self.stage_layouts[stage]
        resources = self.stage_resources[stage]
        needs = self._needs(stage, table)
        sram = self._sram_words(stage, table)
        merged = self._find_merged_table(layout, table)
        new_table = 0 if merged is not None else 1
        resources.claim(tables=new_table, sram_words=sram, **needs)
        if merged is None:
            merged = MergedTable(name=f"stage{stage}_t{len(layout.merged_tables)}", stage=stage)
            layout.merged_tables.append(merged)
        merged.members.append(table)
        self.table_stage[table.uid] = stage
        if table.kind is TableKind.MEMORY and table.array:
            self.stage_arrays[stage].add(table.array)

    # -- placement ----------------------------------------------------------
    def _earliest_stage(self, graph: DataflowGraph, table: AtomicTable) -> int:
        earliest = 0
        for dep in graph.predecessors(table.uid):
            pred_stage = self.table_stage.get(dep.src, 0)
            earliest = max(earliest, pred_stage + (1 if dep.strict else 0))
        return earliest

    def layout_handler(self, graph: DataflowGraph) -> None:
        for table in graph.topological_order():
            earliest = self._earliest_stage(graph, table)
            if table.kind is TableKind.MEMORY and table.array in self.array_pins:
                pinned = self.array_pins[table.array]
                if pinned < earliest:
                    # the ASAP pin underestimated this handler's resource-aware
                    # depth; ask build_layout to move the array and re-run
                    raise _PinConflict(
                        table.array, earliest, getattr(table.stmt, "span", None)
                    )
                if not self._stage_has_room(pinned, table):
                    raise _PinConflict(
                        table.array, pinned + 1, getattr(table.stmt, "span", None)
                    )
                self._place(table, pinned)
                continue
            stage = earliest
            while not self._stage_has_room(stage, table):
                stage += 1
                if stage > 64:  # defensive bound
                    raise LayoutError(
                        f"could not place table '{table.name}' within 64 stages",
                        getattr(table.stmt, "span", None),
                    )
            self._place(table, stage)

    def layout_handler_unoptimized(self, tables: List[AtomicTable]) -> None:
        """One atomic table per stage, program order (the unoptimised baseline)."""
        for stage, table in enumerate(tables):
            self._place(table, stage)


# ---------------------------------------------------------------------------
# array pinning: fixpoint of per-handler ASAP depths
# ---------------------------------------------------------------------------
def _compute_array_pins(
    info: ProgramInfo, dataflows: Dict[str, DataflowGraph]
) -> Dict[str, int]:
    pins: Dict[str, int] = {}
    for _ in range(1 + len(info.global_order)):
        changed = False
        for graph in dataflows.values():
            depth: Dict[int, int] = {}
            for table in graph.topological_order():
                earliest = 0
                for dep in graph.predecessors(table.uid):
                    earliest = max(earliest, depth[dep.src] + (1 if dep.strict else 0))
                if table.kind is TableKind.MEMORY and table.array:
                    earliest = max(earliest, pins.get(table.array, 0))
                    if pins.get(table.array, -1) < earliest:
                        pins[table.array] = earliest
                        changed = True
                depth[table.uid] = earliest
        if not changed:
            break
    return pins


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def build_layout(
    info: ProgramInfo,
    normalized: Dict[str, NormalizedHandler],
    options: Optional[MergeOptions] = None,
) -> PipelineLayout:
    """Lay out every handler of a program onto the pipeline.

    The layout takes however many stages the program needs;
    :meth:`PipelineLayout.fits` says whether the Tofino holds it.
    """
    model = TofinoModel()
    options = options or MergeOptions()
    layout = PipelineLayout(program_name=info.program.name, model=model)

    tables: Dict[str, List[AtomicTable]] = {}
    for name, handler in normalized.items():
        tables[name], layout.unoptimized_stages_per_handler[name] = atomic_tables(handler)

    if options.optimize:
        build = build_dataflow_graph if options.reorder else _program_order_dataflow
        dataflows = {name: build(ordered) for name, ordered in tables.items()}
        array_pins = _compute_array_pins(info, dataflows)
        # The ASAP fixpoint is a *lower bound*: actual placement can push a
        # table past its ASAP depth when a stage runs out of ALUs/tables, so a
        # pinned stage may prove infeasible only once real placement runs.
        # Pins can only move later, and each is bounded by the defensive
        # 64-stage cap, so bump-and-retry terminates.
        max_retries = 64 * (len(info.global_order) + 1)
        for _ in range(max_retries):
            layouter = _Layouter(info, model, options, dict(array_pins))
            try:
                for graph in dataflows.values():
                    layouter.layout_handler(graph)
            except _PinConflict as conflict:
                if conflict.required > 64:
                    raise LayoutError(
                        f"register array '{conflict.array}' cannot be placed within "
                        "64 stages; the handlers access shared state in "
                        "incompatible orders",
                        conflict.span,
                    ) from None
                array_pins[conflict.array] = conflict.required
                continue
            break
        else:  # pragma: no cover - the per-array stage cap fires first
            raise LayoutError("table placement did not converge")
    else:
        layouter = _Layouter(info, model, options, {})
        for ordered in tables.values():
            layouter.layout_handler_unoptimized(ordered)

    layout.stages = layouter.stage_layouts
    layout.array_stages = {
        array: stage
        for stage, arrays in enumerate(layouter.stage_arrays)
        for array in arrays
    }
    return layout


def _program_order_dataflow(tables: List[AtomicTable]) -> DataflowGraph:
    """A degenerate data-flow graph that chains tables in program order
    (used by the merging-without-reordering ablation)."""
    return DataflowGraph(tables, [
        Dependency(src=earlier.uid, dst=later.uid, kind="raw", strict=True)
        for earlier, later in zip(tables, tables[1:])
    ])
