"""The effect half of Lucid's ordered type-and-effect system (Section 5).

Effects are *stages*: non-negative integers that track the most recently
accessed global.  Each global's abstract stage is its declaration index.
Typechecking threads a current stage through every handler; an access to a
global ``g`` with stage ``s`` is legal only if ``current <= s`` and leaves the
current stage at ``s + 1``.

Functions are handled with *polymorphic* effect summaries (Appendix A,
"Extensions in Practice"): a function is summarised by the ordered tree of
global accesses it performs, where each access is either a concrete global or
one of the function's array-typed parameters, and control-flow branches are
kept as alternatives.  At a call site the parameter accesses are substituted
with the stages of the actual arguments and the whole tree is replayed against
the caller's current stage.  This lets a single function definition be reused
at different stages, exactly as the paper's polymorphic inference allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import OrderError
from repro.frontend.source import Span
from repro.records import field, record


@record(frozen=True)
class ConcreteAccess:
    """An access to a specific global (known stage) at a source location."""

    stage: int
    global_name: str
    span: Span = field(compare=False)


@record(frozen=True)
class ParamAccess:
    """An access through the ``index``-th parameter of the enclosing function
    (an array-typed formal whose stage is bound at the call site)."""

    index: int
    param_name: str
    span: Span = field(compare=False)


@record
class BranchAccess:
    """Alternative access sequences from the arms of an ``if``/``match``.

    Only one arm executes for a given packet, but all arms are laid out in the
    pipeline, so replaying a branch joins to the *maximum* ending stage of the
    arms while each arm is checked independently from the same starting stage.
    """

    alternatives: List["EffectSummary"] = field(default_factory=list)


Access = Union[ConcreteAccess, ParamAccess, BranchAccess]


@record
class EffectSummary:
    """An ordered tree of the global accesses performed by a body."""

    items: List[Access] = field(default_factory=list)

    def append(self, access: Access) -> None:
        self.items.append(access)

    def extend(self, other: "EffectSummary") -> None:
        self.items.extend(other.items)

    def substitute(self, bindings: Dict[int, ConcreteAccess]) -> "EffectSummary":
        """Replace parameter accesses with the accesses bound at a call site.

        ``bindings`` maps parameter index -> the caller-side access describing
        the actual argument.  Parameter accesses keep their own span so errors
        still point inside the callee when that is where the problem is.
        """
        result = EffectSummary()
        for access in self.items:
            if isinstance(access, ParamAccess):
                bound = bindings.get(access.index)
                if bound is None:
                    result.append(access)
                else:
                    result.append(ConcreteAccess(bound.stage, bound.global_name, access.span))
            elif isinstance(access, BranchAccess):
                result.append(
                    BranchAccess([alt.substitute(bindings) for alt in access.alternatives])
                )
            else:
                result.append(access)
        return result

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


@record
class StageTracker:
    """Threads the "current stage" through a handler body and reports ordering
    violations with source-level messages naming both conflicting accesses."""

    global_order: Sequence[str]
    current: int = 0
    last_access: Optional[ConcreteAccess] = None
    trace: List[ConcreteAccess] = field(default_factory=list)

    def copy(self) -> "StageTracker":
        clone = StageTracker(self.global_order, self.current, self.last_access)
        clone.trace = list(self.trace)
        return clone

    def access(self, access: ConcreteAccess) -> None:
        """Record an access; raise :class:`OrderError` if it is out of order."""
        if access.stage < self.current:
            blocker = self.last_access
            if blocker is not None and blocker.global_name != access.global_name:
                message = (
                    f"global '{access.global_name}' is accessed after "
                    f"'{blocker.global_name}', but '{access.global_name}' is declared "
                    f"earlier (declaration order: "
                    f"{self._order_hint(access.global_name, blocker.global_name)}); "
                    "handlers must access globals in declaration order"
                )
            elif blocker is not None:
                message = (
                    f"global '{access.global_name}' is accessed twice in one handler "
                    "pass; a PISA pipeline can only visit each register array once "
                    "per packet"
                )
            else:
                message = (
                    f"global '{access.global_name}' cannot be accessed at stage "
                    f"{self.current}"
                )
            err = OrderError(message, access.span)
            if blocker is not None:
                err.message += f"\n  note: the earlier access was here\n{blocker.span.render()}"
            raise err
        self.current = access.stage + 1
        self.last_access = access
        self.trace.append(access)

    def replay(self, summary: EffectSummary) -> None:
        """Replay a summary (branch-aware) against the current stage."""
        for access in summary:
            if isinstance(access, ConcreteAccess):
                self.access(access)
            elif isinstance(access, BranchAccess):
                branches = []
                for alt in access.alternatives:
                    branch = self.copy()
                    branch.replay(alt)
                    branches.append(branch)
                self.merge_branches(branches)
            # ParamAccess: unbound parameter constrains nothing concrete here.

    def merge_branches(self, branches: Sequence["StageTracker"]) -> None:
        """Join control-flow branches: the resulting stage is the maximum of
        the branch stages (all branches are laid out in the pipeline)."""
        best = self.current
        best_last = self.last_access
        for branch in branches:
            for acc in branch.trace:
                if acc not in self.trace:
                    self.trace.append(acc)
            if branch.current > best:
                best = branch.current
                best_last = branch.last_access
        self.current = best
        self.last_access = best_last

    def _order_hint(self, first: str, second: str) -> str:
        order = list(self.global_order)

        def pos(name: str) -> int:
            return order.index(name) if name in order else -1

        return f"'{first}' is #{pos(first)}, '{second}' is #{pos(second)}"


def validate_summary_order(summary: EffectSummary, global_order: Sequence[str]) -> None:
    """Check that the concrete accesses inside a single summary are orderable
    on their own (used when a function is defined, before any call site)."""
    tracker = StageTracker(global_order)
    tracker.replay(summary)
