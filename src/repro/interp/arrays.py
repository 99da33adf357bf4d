"""Runtime representation of Lucid's persistent arrays (the Array module).

Each global ``Array<<w>>(n)`` becomes a :class:`RuntimeArray` of ``n`` cells of
``w`` bits.  The methods mirror the Array module of Section 4.1: ``get``,
``set``, and ``update`` (parallel get + set), each optionally applying a memop
— and, exactly like the hardware stateful ALU, a single call touches a single
cell and applies at most one memop per direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import InterpError

Memop = Callable[[int, int], int]


@dataclass
class RuntimeArray:
    """One register array instance on one switch."""

    name: str
    size: int
    cell_width: int = 32
    cells: List[int] = field(default_factory=list)
    #: statistics: how many stateful operations have touched this array
    reads: int = 0
    writes: int = 0

    def __post_init__(self) -> None:
        if not self.cells:
            self.cells = [0] * self.size
        self.mask = (1 << self.cell_width) - 1

    # -- helpers -----------------------------------------------------------
    def _index(self, index: int) -> int:
        if self.size == 0:
            raise InterpError(f"array '{self.name}' has zero size")
        if index < 0 or index >= self.size:
            # hardware index wrapping: the Tofino truncates the index to the
            # register's address width rather than faulting
            index = index % self.size
        return index

    def _clamp(self, value: int) -> int:
        return value & self.mask

    # -- Array module ------------------------------------------------------
    def get(self, index: int, memop: Optional[Memop] = None, arg: int = 0) -> int:
        """``Array.get(arr, index[, memop, arg])`` — read (and transform) a cell."""
        i = self._index(index)
        self.reads += 1
        value = self.cells[i]
        if memop is not None:
            return self._clamp(memop(value, arg))
        return value

    def set(self, index: int, value: Optional[int] = None,
            memop: Optional[Memop] = None, arg: int = 0) -> None:
        """``Array.set(arr, index, value)`` or ``Array.set(arr, index, memop, arg)``."""
        i = self._index(index)
        self.writes += 1
        if memop is not None:
            self.cells[i] = self._clamp(memop(self.cells[i], arg))
        else:
            self.cells[i] = self._clamp(value if value is not None else 0)

    def update(
        self,
        index: int,
        get_memop: Optional[Memop],
        get_arg: int,
        set_memop: Optional[Memop],
        set_arg: int,
    ) -> int:
        """``Array.update`` — return ``get_memop(cell, get_arg)`` and store
        ``set_memop(cell, set_arg)``, both computed from the *old* cell value
        (a parallel get and set, one stateful-ALU instruction)."""
        i = self._index(index)
        self.reads += 1
        self.writes += 1
        old = self.cells[i]
        result = self._clamp(get_memop(old, get_arg)) if get_memop else old
        self.cells[i] = self._clamp(set_memop(old, set_arg)) if set_memop else self._clamp(set_arg)
        return result

    # -- inspection ---------------------------------------------------------
    def snapshot(self) -> List[int]:
        return list(self.cells)

    def nonzero_entries(self) -> int:
        return sum(1 for cell in self.cells if cell != 0)
