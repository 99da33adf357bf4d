"""Atomic P4 tables and the table control graph (Section 6.1, Figure 6).

The backend's unit of work is the *atomic table*: a match-action table simple
enough to execute with at most one Tofino ALU.  There are three kinds in the
paper — operation tables, memory-operation tables, and branch tables — plus,
in this implementation, explicit kinds for hash computations, event
generation, and primitive actions, which the paper folds into operation
tables.

:func:`build_table_graph` turns a normalised handler into the table *control*
graph of Figure 6(1): one node per atomic statement, edges following program
order, with branch tables fanning out to their arms.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.midend.normalize import (
    Const,
    NArrayOp,
    NCond,
    NCopy,
    NGenerate,
    NHash,
    NIf,
    NOp,
    NPrim,
    NStmt,
    NormalizedHandler,
    Operand,
    Var,
    operand_vars,
    stmt_reads,
    stmt_writes,
)


class TableKind(enum.Enum):
    """The kind of an atomic table (Figure 7)."""

    OPERATION = "operation"
    MEMORY = "memory"
    BRANCH = "branch"
    HASH = "hash"
    GENERATE = "generate"
    PRIMITIVE = "primitive"


@dataclass
class AtomicTable:
    """One atomic table: a single match-action table wrapping one operation."""

    uid: int
    name: str
    kind: TableKind
    handler: str
    stmt: Optional[NStmt] = None
    #: local variables read / written by the table's action
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: for MEMORY tables: the global array accessed and the memops used
    array: Optional[str] = None
    memops: List[str] = field(default_factory=list)
    #: for BRANCH tables: the condition tested
    condition: Optional[NCond] = None
    #: path condition accumulated by branch inlining (Section 6.2)
    path_conditions: List[NCond] = field(default_factory=list)

    def is_stateful(self) -> bool:
        return self.kind is TableKind.MEMORY

    def condition_reads(self) -> Set[str]:
        names: Set[str] = set()
        for cond in self.path_conditions:
            names.update(operand_vars(cond.lhs, cond.rhs))
        if self.condition is not None:
            names.update(operand_vars(self.condition.lhs, self.condition.rhs))
        return names

    def all_reads(self) -> Set[str]:
        return self.reads | self.condition_reads()

    def describe(self) -> str:
        return f"{self.name} [{self.kind.value}]"


@dataclass
class TableGraph:
    """A control graph over atomic tables (one per handler)."""

    handler: str
    tables: List[AtomicTable] = field(default_factory=list)
    #: uid -> list of (successor uid, edge label); labels: None, "true", "false"
    edges: Dict[int, List[Tuple[int, Optional[str]]]] = field(default_factory=dict)
    roots: List[int] = field(default_factory=list)

    def by_uid(self, uid: int) -> AtomicTable:
        return self._index[uid]

    def __post_init__(self) -> None:
        self._index: Dict[int, AtomicTable] = {t.uid: t for t in self.tables}

    def add_table(self, table: AtomicTable) -> None:
        self.tables.append(table)
        self._index[table.uid] = table
        self.edges.setdefault(table.uid, [])

    def add_edge(self, src: int, dst: int, label: Optional[str] = None) -> None:
        self.edges.setdefault(src, []).append((dst, label))

    def successors(self, uid: int) -> List[int]:
        return [dst for dst, _ in self.edges.get(uid, [])]

    def non_branch_tables(self) -> List[AtomicTable]:
        return [t for t in self.tables if t.kind is not TableKind.BRANCH]

    def branch_tables(self) -> List[AtomicTable]:
        return [t for t in self.tables if t.kind is TableKind.BRANCH]

    def longest_path_length(self) -> int:
        """Length (in tables) of the longest control path — the paper's
        "number of atomic P4 tables in the longest code path" used as the
        unoptimised stage count in Figure 12."""
        memo: Dict[int, int] = {}

        def depth(uid: int) -> int:
            if uid in memo:
                return memo[uid]
            memo[uid] = 0  # guard against accidental cycles
            succ = self.successors(uid)
            best = 1 + max((depth(s) for s in succ), default=0)
            memo[uid] = best
            return best

        return max((depth(root) for root in self.roots), default=0)


# ---------------------------------------------------------------------------
# construction from a normalised handler
# ---------------------------------------------------------------------------
class _GraphBuilder:
    def __init__(self, handler: NormalizedHandler):
        self.handler = handler
        self.graph = TableGraph(handler=handler.name)
        self.counter = itertools.count()

    def fresh_uid(self) -> int:
        return next(self.counter)

    def build(self) -> TableGraph:
        exits = self._build_block(self.handler.body, preds=[])
        return self.graph

    # preds: list of (uid, label) that should point at the next table created
    def _build_block(
        self, stmts: Sequence[NStmt], preds: List[Tuple[int, Optional[str]]]
    ) -> List[Tuple[int, Optional[str]]]:
        current = list(preds)
        for stmt in stmts:
            current = self._build_stmt(stmt, current)
        return current

    def _link(self, preds: List[Tuple[int, Optional[str]]], uid: int) -> None:
        if not preds and uid not in self.graph.roots:
            self.graph.roots.append(uid)
        for src, label in preds:
            self.graph.add_edge(src, uid, label)

    def _build_stmt(
        self, stmt: NStmt, preds: List[Tuple[int, Optional[str]]]
    ) -> List[Tuple[int, Optional[str]]]:
        if isinstance(stmt, NIf):
            branch = self._make_branch(stmt)
            self._link(preds, branch.uid)
            then_exits = self._build_block(stmt.then_body, [(branch.uid, "true")])
            else_exits = self._build_block(stmt.else_body, [(branch.uid, "false")])
            return then_exits + else_exits
        table = self._make_table(stmt)
        if table is None:
            return preds
        self._link(preds, table.uid)
        return [(table.uid, None)]

    def _make_branch(self, stmt: NIf) -> AtomicTable:
        uid = self.fresh_uid()
        table = AtomicTable(
            uid=uid,
            name=f"{self.handler.name}_if_{uid}",
            kind=TableKind.BRANCH,
            handler=self.handler.name,
            stmt=stmt,
            condition=stmt.cond,
            reads=set(stmt_reads(stmt)),
        )
        self.graph.add_table(table)
        return table

    def _make_table(self, stmt: NStmt) -> Optional[AtomicTable]:
        uid = self.fresh_uid()
        name = self.handler.name
        writes = stmt_writes(stmt)
        if isinstance(stmt, (NOp, NCopy)):
            kind, name = TableKind.OPERATION, (
                f"{name}_{'op' if isinstance(stmt, NOp) else 'copy'}_{stmt.dst}")
        elif isinstance(stmt, NHash):
            kind, name = TableKind.HASH, f"{name}_hash_{stmt.dst}"
        elif isinstance(stmt, NArrayOp):
            kind, name = TableKind.MEMORY, f"{name}_{stmt.array}_{stmt.method.split('.')[-1]}_{uid}"
        elif isinstance(stmt, NGenerate):
            kind, name = TableKind.GENERATE, f"{name}_gen_{stmt.event}_{uid}"
            # generates of one event keep their program order (a WAW chain)
            writes = {f"__ev_{stmt.event}"}
        elif isinstance(stmt, NPrim):
            # a Sys.* primitive's write of its well-known metadata field gives
            # the copy that reads it a RAW dependency, so dataflow reordering
            # cannot hoist the consumer ahead of the producer (or swap two
            # Sys.random draws)
            kind, name = TableKind.PRIMITIVE, (
                f"{name}_{stmt.prim.replace(':', '_').replace('.', '_')}_{uid}")
        else:  # pragma: no cover - defensive
            return None
        table = AtomicTable(
            uid=uid, name=name, kind=kind, handler=self.handler.name, stmt=stmt,
            reads=set(stmt_reads(stmt)), writes=writes,
        )
        if isinstance(stmt, NArrayOp):
            table.array, table.memops = stmt.array, list(stmt.memops)
        self.graph.add_table(table)
        return table


def build_table_graph(handler: NormalizedHandler) -> TableGraph:
    """Build the atomic table control graph (Figure 6(1)) for one handler."""
    return _GraphBuilder(handler).build()
