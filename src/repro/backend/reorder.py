"""Data-flow analysis and table rearrangement (Section 6.2, Figure 6(3)).

After branch inlining, the remaining tables are ordered only by program
order.  Many of those orderings are artificial: a table with no data-flow
dependency on its predecessors can execute in an earlier stage, in parallel
with other tables.  This pass computes the data-flow DAG that the greedy
merging pass lays out:

* read-after-write (RAW): a table that reads a variable must be placed in a
  *later* stage than the table that writes it;
* write-after-write (WAW): two writers of the same variable keep their
  program order (later stage);
* write-after-read (WAR): a writer may share a stage with an earlier reader
  (PISA stages operate on a copy of the packet header vector), so the
  dependency is "same stage or later";
* stateful tables that access the same register array are recorded as a
  *same-stage group* — a register array lives in exactly one stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.backend.tables import AtomicTable, TableKind
from repro.frontend.ast import BinOp
from repro.midend.normalize import Const, operand_vars


@dataclass
class Dependency:
    """An edge of the data-flow DAG."""

    src: int  # uid of the earlier table
    dst: int  # uid of the later table
    kind: str  # "raw" | "waw" | "war"
    strict: bool  # True when dst must be in a strictly later stage


@dataclass
class DataflowGraph:
    """The data-flow DAG over the non-branch tables of one handler."""

    tables: List[AtomicTable] = field(default_factory=list)
    deps: List[Dependency] = field(default_factory=list)
    #: array name -> uids of tables accessing it (same-stage constraint)
    array_groups: Dict[str, List[int]] = field(default_factory=dict)

    def predecessors(self, uid: int) -> List[Dependency]:
        return [d for d in self.deps if d.dst == uid]

    def successors(self, uid: int) -> List[Dependency]:
        return [d for d in self.deps if d.src == uid]

    def topological_order(self) -> List[AtomicTable]:
        """Tables in dependency order, breaking ties by program order."""
        indegree: Dict[int, int] = {t.uid: 0 for t in self.tables}
        for dep in self.deps:
            indegree[dep.dst] += 1
        order: List[AtomicTable] = []
        ready = [t for t in self.tables if indegree[t.uid] == 0]
        position = {t.uid: i for i, t in enumerate(self.tables)}
        while ready:
            ready.sort(key=lambda t: position[t.uid])
            table = ready.pop(0)
            order.append(table)
            for dep in self.successors(table.uid):
                indegree[dep.dst] -= 1
                if indegree[dep.dst] == 0:
                    ready.append(self.by_uid(dep.dst))
        return order

    def by_uid(self, uid: int) -> AtomicTable:
        for table in self.tables:
            if table.uid == uid:
                return table
        raise KeyError(uid)

    def critical_path_length(self) -> int:
        """Length of the longest chain of strict dependencies + 1 per table."""
        order = self.topological_order()
        depth: Dict[int, int] = {}
        for table in order:
            preds = self.predecessors(table.uid)
            best = 0
            for dep in preds:
                d = depth[dep.src] + (1 if dep.strict else 0)
                best = max(best, d)
            depth[table.uid] = best
        return (max(depth.values()) + 1) if depth else 0


def _conditions_disjoint(tables: Sequence[AtomicTable], j: int, i: int) -> bool:
    """True when the path conditions of ``tables[j]`` and ``tables[i]`` (in
    program order) can never hold together, i.e. the tables come from mutually
    exclusive branches and may share a stage.  Two tests are of one value only
    while no table from the first up to the second overwrites it."""
    for c1 in tables[j].path_conditions:
        for c2 in tables[i].path_conditions:
            if c1.lhs != c2.lhs:
                continue
            tested = operand_vars(c1.lhs, c1.rhs, c2.rhs)
            if any(name in tables[k].writes for k in range(j, i) for name in tested):
                continue
            # x == a  vs  x == b  with a != b
            if (
                c1.op is BinOp.EQ
                and c2.op is BinOp.EQ
                and isinstance(c1.rhs, Const)
                and isinstance(c2.rhs, Const)
                and c1.rhs != c2.rhs
            ):
                return True
            # x == a  vs  x != a (and symmetrically)
            if c1.rhs == c2.rhs and {c1.op, c2.op} == {BinOp.EQ, BinOp.NEQ}:
                return True
            # x < a vs x >= a, x > a vs x <= a
            if c1.rhs == c2.rhs and {c1.op, c2.op} in ({BinOp.LT, BinOp.GE}, {BinOp.GT, BinOp.LE}):
                return True
    return False


def build_dataflow_graph(tables: List[AtomicTable]) -> DataflowGraph:
    """Build the data-flow DAG over ``tables`` (given in program order)."""
    graph = DataflowGraph(tables=list(tables))
    for i, later in enumerate(tables):
        later_reads = later.all_reads()
        later_writes = later.writes
        for j, earlier in enumerate(tables[:i]):
            if _conditions_disjoint(tables, j, i):
                # the two tables lie on mutually exclusive control paths; no
                # packet ever executes both, so no ordering is required
                continue
            kinds: List[Tuple[str, bool]] = []
            if earlier.writes & later_reads:
                kinds.append(("raw", True))
            if earlier.writes & later_writes:
                kinds.append(("waw", True))
            if earlier.all_reads() & later_writes:
                kinds.append(("war", False))
            for kind, strict in kinds:
                graph.deps.append(
                    Dependency(src=earlier.uid, dst=later.uid, kind=kind, strict=strict)
                )
    for table in tables:
        if table.kind is TableKind.MEMORY and table.array:
            graph.array_groups.setdefault(table.array, []).append(table.uid)
    return graph
