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
  dependency is "same stage or later".

That a register array lives in exactly one stage is not an edge of this DAG:
:mod:`repro.backend.merge` pins every array to one stage across all handlers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.backend.tables import AtomicTable
from repro.frontend.ast import BinOp
from repro.midend.normalize import Const, operand_vars


@dataclass
class Dependency:
    """An edge of the data-flow DAG."""

    src: int  # uid of the earlier table
    dst: int  # uid of the later table
    kind: str  # "raw" | "waw" | "war"
    strict: bool  # True when dst must be in a strictly later stage


class DataflowGraph:
    """The data-flow DAG over the tables of one handler (in program order),
    indexed once by table uid and by each edge's two ends."""

    def __init__(self, tables: Sequence[AtomicTable], deps: Sequence[Dependency]):
        self.tables = list(tables)
        self.deps = list(deps)
        self._by_uid: Dict[int, AtomicTable] = {t.uid: t for t in self.tables}
        self._preds: Dict[int, List[Dependency]] = {uid: [] for uid in self._by_uid}
        self._succs: Dict[int, List[Dependency]] = {uid: [] for uid in self._by_uid}
        for dep in self.deps:
            self._preds[dep.dst].append(dep)
            self._succs[dep.src].append(dep)

    def predecessors(self, uid: int) -> List[Dependency]:
        return self._preds[uid]

    def topological_order(self) -> List[AtomicTable]:
        """Tables in dependency order, breaking ties by program order."""
        indegree: Dict[int, int] = {uid: len(deps) for uid, deps in self._preds.items()}
        order: List[AtomicTable] = []
        ready = [t for t in self.tables if indegree[t.uid] == 0]
        position = {t.uid: i for i, t in enumerate(self.tables)}
        while ready:
            ready.sort(key=lambda t: position[t.uid])
            table = ready.pop(0)
            order.append(table)
            for dep in self._succs[table.uid]:
                indegree[dep.dst] -= 1
                if indegree[dep.dst] == 0:
                    ready.append(self._by_uid[dep.dst])
        return order


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
    deps: List[Dependency] = []
    reads = [table.all_reads() for table in tables]
    for i, later in enumerate(tables):
        later_reads = reads[i]
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
            if reads[j] & later_writes:
                kinds.append(("war", False))
            for kind, strict in kinds:
                deps.append(Dependency(src=earlier.uid, dst=later.uid, kind=kind, strict=strict))
    return DataflowGraph(tables, deps)
