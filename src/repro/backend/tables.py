"""Atomic P4 tables (Sections 6.1-6.2, Figures 6 and 7).

The backend's unit of work is the *atomic table*: a match-action table simple
enough to execute with at most one Tofino ALU.  The paper has operation,
memory-operation and branch tables; this implementation adds explicit kinds
for hash computations, event generation and primitive actions, which the
paper folds into operation tables, and never materialises a branch table.

The paper builds a control graph with branch tables (Figure 6(1)) and then
deletes them by making every other table test the conditions necessary for
its own execution (Figure 6(2)).  The midend hands the backend a pure ``NIf``
tree — no early return, no join other than the end of an arm — so those
conditions are those of a statement's enclosing ``NIf`` chain, in order,
and :func:`atomic_tables` reads both figures off that tree in one walk.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional, Sequence, Set, Tuple

from repro.midend.normalize import (
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
    operand_vars,
    stmt_reads,
    stmt_writes,
)
from repro.records import field, record


class TableKind(enum.Enum):
    """The kind of an atomic table (Figure 7)."""

    OPERATION = "operation"
    MEMORY = "memory"
    HASH = "hash"
    GENERATE = "generate"
    PRIMITIVE = "primitive"


@record
class AtomicTable:
    """One atomic table: a single match-action table wrapping one operation."""

    uid: int
    name: str
    kind: TableKind
    handler: str
    stmt: NStmt
    #: local variables read / written by the table's action
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: for MEMORY tables: the global array accessed
    array: Optional[str] = None
    #: the conditions of the enclosing ``NIf`` chain, outermost first (negated
    #: in an else arm): the table's static match rules (Section 6.2)
    path_conditions: List[NCond] = field(default_factory=list)

    def all_reads(self) -> Set[str]:
        """The locals the action reads plus those the match rules test."""
        names = set(self.reads)
        for cond in self.path_conditions:
            names.update(operand_vars(cond.lhs, cond.rhs))
        return names


def _make_table(handler: str, uid: int, stmt: NStmt, conditions: List[NCond]) -> AtomicTable:
    writes = stmt_writes(stmt)
    if isinstance(stmt, (NOp, NCopy)):
        kind, name = TableKind.OPERATION, (
            f"{handler}_{'op' if isinstance(stmt, NOp) else 'copy'}_{stmt.dst}")
    elif isinstance(stmt, NHash):
        kind, name = TableKind.HASH, f"{handler}_hash_{stmt.dst}"
    elif isinstance(stmt, NArrayOp):
        kind, name = TableKind.MEMORY, f"{handler}_{stmt.array}_{stmt.method.split('.')[-1]}_{uid}"
    elif isinstance(stmt, NGenerate):
        kind, name = TableKind.GENERATE, f"{handler}_gen_{stmt.event}_{uid}"
        # generates of one event keep their program order (a WAW chain)
        writes = {f"__ev_{stmt.event}"}
    elif isinstance(stmt, NPrim):
        # a Sys.* primitive's write of its well-known metadata field gives
        # the copy that reads it a RAW dependency, so dataflow reordering
        # cannot hoist the consumer ahead of the producer (or swap two
        # Sys.random draws)
        kind, name = TableKind.PRIMITIVE, (
            f"{handler}_{stmt.prim.replace(':', '_').replace('.', '_')}_{uid}")
    else:
        raise TypeError(f"no atomic table for {type(stmt).__name__}")
    return AtomicTable(
        uid=uid, name=name, kind=kind, handler=handler, stmt=stmt,
        reads=set(stmt_reads(stmt)), writes=writes, path_conditions=conditions,
        array=stmt.array if isinstance(stmt, NArrayOp) else None,
    )


def atomic_tables(handler: NormalizedHandler) -> Tuple[List[AtomicTable], int]:
    """The handler's atomic tables in program order, each carrying the
    conditions of its enclosing ``NIf`` chain, and the handler's unoptimised
    depth: the atomic tables on the longest code path with the branch tables
    still counted — Figure 12's denominator.  Uids are pre-order over the
    tree, an ``NIf`` consuming the one its branch table would have had."""
    tables: List[AtomicTable] = []
    uids = itertools.count()

    def walk(stmts: Sequence[NStmt], conditions: List[NCond]) -> int:
        depth = 0
        for stmt in stmts:
            uid = next(uids)
            depth += 1
            if isinstance(stmt, NIf):
                depth += max(
                    walk(stmt.then_body, conditions + [stmt.cond]),
                    walk(stmt.else_body, conditions + [stmt.cond.negate()]),
                )
            else:
                tables.append(_make_table(handler.name, uid, stmt, conditions))
        return depth

    return tables, walk(handler.body, [])
