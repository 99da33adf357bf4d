"""What every engine shares: :class:`SwitchRuntime` (a switch's arrays,
memops, externs, group members and clock) and :class:`ExecutionResult` (what
one handler invocation returns).  The tree walker is :mod:`repro.interp.walker`.

A memop runs as the closure :meth:`SwitchRuntime.memop_fn` compiles from the
:class:`~repro.frontend.memop_check.MemopShape` the checker kept for it;
:func:`memop_template` spells the same shape as Python source for the
compiled engines, and the closure is the oracle that source is swept
against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InterpError
from repro.frontend import ast
from repro.frontend.memop_check import MemopShape, memop_shape
from repro.frontend.symbols import ProgramInfo
from repro.frontend.type_checker import CheckedProgram
from repro.interp.arrays import RuntimeArray
from repro.interp.events import EventInstance
from repro.ops import apply_binop, binop_template, lucid_hash, mask32

__all__ = ["ExecutionResult", "SwitchRuntime", "lucid_hash"]


class ExecutionResult:
    """What one handler invocation produced.

    A hand-written ``__slots__`` class (one is allocated per dispatched
    event, so construction cost is hot-path cost), and what every engine
    returns.  ``generated`` and ``prints`` may be any sequence — the compiled
    engines reuse shared empty tuples for handlers that provably
    generate/print nothing — so equality normalises both sides to lists.
    """

    __slots__ = ("generated", "prints", "dropped", "forwarded_port", "flooded")

    def __init__(
        self,
        generated: Optional[List[EventInstance]] = None,
        prints: Optional[List[str]] = None,
        dropped: bool = False,
        forwarded_port: Optional[int] = None,
        flooded: bool = False,
    ) -> None:
        self.generated = [] if generated is None else generated
        self.prints = [] if prints is None else prints
        self.dropped = dropped
        self.forwarded_port = forwarded_port
        self.flooded = flooded

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(generated={self.generated!r}, prints={self.prints!r}, "
            f"dropped={self.dropped!r}, forwarded_port={self.forwarded_port!r}, "
            f"flooded={self.flooded!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return (
            list(self.generated) == list(other.generated)
            and list(self.prints) == list(other.prints)
            and self.dropped == other.dropped
            and self.forwarded_port == other.forwarded_port
            and self.flooded == other.flooded
        )


class SwitchRuntime:
    """Per-switch runtime state: arrays, memops, externs, group members, and
    the clock.

    ``groups`` binds this switch's members of ``const group`` declarations
    (e.g. a topology's ``{"NEIGHBORS": [4, 5]}``), as a control plane writes
    a multicast group into the replication engine; a group it does not name
    keeps the members of the program's literal."""

    def __init__(self, checked: CheckedProgram, switch_id: int = 0,
                 groups: Optional[Mapping[str, Sequence[int]]] = None):
        self.checked = checked
        self.info: ProgramInfo = checked.info
        self.switch_id = switch_id
        self.time_ns = 0
        self.arrays: Dict[str, RuntimeArray] = {
            g.name: RuntimeArray(name=g.name, size=g.size, cell_width=g.cell_width)
            for g in self.info.globals.values()
        }
        #: group name -> this switch's members
        self.groups: Dict[str, Tuple[int, ...]] = {
            name: tuple(members) for name, members in self.info.consts.groups.items()
        }
        for name, members in (groups or {}).items():
            if name not in self.groups:
                raise InterpError(f"program declares no group named '{name}' "
                                  f"(declared: {', '.join(self.groups) or 'none'})")
            if not all(isinstance(m, int) for m in members):
                raise InterpError(f"group '{name}' members must be integers, got {members!r}")
            self.groups[name] = tuple(members)
        self.externs: Dict[str, Callable[..., int]] = {}
        self.random_state = 0x12345678
        self._memop_cache: Dict[str, Callable[[int, int], int]] = {}

    # -- bindings ------------------------------------------------------------
    def bind_extern(self, name: str, fn: Callable[..., int]) -> None:
        if name not in self.info.externs:
            raise InterpError(f"program declares no extern named '{name}'")
        self.externs[name] = fn

    def array(self, name: str) -> RuntimeArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise InterpError(f"no global array named '{name}'") from None

    # -- memops ----------------------------------------------------------------
    def memop_fn(self, name: str) -> Callable[[int, int], int]:
        """Compile (and cache) a memop declaration into a Python callable:
        the closure form of what :func:`memop_template` renders as source,
        and the oracle that rendering is swept against."""
        if name in self._memop_cache:
            return self._memop_cache[name]
        shape = memop_shape(self.info, name)

        def compile_expr(expr: ast.Expr) -> Callable[[int, int], int]:
            return _compile_memop_expr(expr, shape.stored)

        if shape.cond is None:
            value_fn = compile_expr(shape.value)

            def run(stored: int, local: int) -> int:
                return mask32(value_fn(stored, local))

        else:
            cond_fn, value_fn, else_fn = map(
                compile_expr, (shape.cond, shape.value, shape.orelse))

            def run(stored: int, local: int) -> int:
                if cond_fn(stored, local):
                    return mask32(value_fn(stored, local))
                return mask32(else_fn(stored, local))

        self._memop_cache[name] = run
        return run

    # -- misc -------------------------------------------------------------------
    def random(self, bound: Optional[int] = None) -> int:
        # xorshift32: deterministic, seedable, and fast
        x = self.random_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.random_state = x & 0xFFFFFFFF
        if bound:
            return self.random_state % bound
        return self.random_state


def memop_template(shape: MemopShape, stored: str, local: str) -> str:
    """``shape`` as a Python expression over two operand source strings: the
    cell's old value and the call's argument (each may appear several times,
    so callers pass atoms).  Like :meth:`SwitchRuntime.memop_fn`'s closure
    before its final mask, which callers fold into the cell-width mask."""
    cond, value, orelse = shape.render(binop_template, stored, local)
    return value if cond is None else f"(({value}) if ({cond}) else ({orelse}))"


def _compile_memop_expr(expr: ast.Expr, stored_name: str) -> Callable[[int, int], int]:
    """Compile a checked memop expression (a literal, a parameter, or one
    operator over those) into a closure over ``(stored, local)``: the AST is
    walked once at compile time instead of on every stateful operation."""
    if isinstance(expr, ast.EInt):
        value = expr.value
        return lambda stored, local: value
    if isinstance(expr, ast.EVar):
        if expr.name == stored_name:
            return lambda stored, local: stored
        return lambda stored, local: local
    left = _compile_memop_expr(expr.left, stored_name)
    right = _compile_memop_expr(expr.right, stored_name)
    op = expr.op
    return lambda stored, local: apply_binop(op, left(stored, local), right(stored, local))
