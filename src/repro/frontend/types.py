"""Internal (checked) type representations.

Surface types (:mod:`repro.frontend.ast`) are what the parser produces;
this module defines the semantic types the checker assigns to expressions.
Every scalar is a 32-bit word, as :mod:`repro.ops` computes and the P4
declares it, so :class:`IntTy` has no width; only an array's cells have one.
The important addition over the surface syntax is that an array type carries
its *stage* — the declaration index of the underlying global — which is what
the ordered type-and-effect system reasons about (Section 5, Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontend import ast


@dataclass(frozen=True)
class Ty:
    """Base class of semantic types."""

    def show(self) -> str:  # pragma: no cover - overridden everywhere
        return "<ty>"

    def __str__(self) -> str:
        return self.show()


@dataclass(frozen=True)
class IntTy(Ty):
    """A 32-bit integer word."""

    def show(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolTy(Ty):
    def show(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidTy(Ty):
    def show(self) -> str:
        return "void"


@dataclass(frozen=True)
class EventTy(Ty):
    """A first-class event value (name resolved, payload bound)."""

    def show(self) -> str:
        return "event"


@dataclass(frozen=True)
class GroupTy(Ty):
    def show(self) -> str:
        return "group"


@dataclass(frozen=True)
class ArrayTy(Ty):
    """A persistent array; ``stage`` is the declaration index of the global it
    refers to, or ``None`` for an array-typed formal parameter whose stage is
    only known at a call site (a *polymorphic* effect)."""

    width: int = 32
    stage: Optional[int] = None
    global_name: Optional[str] = None

    def show(self) -> str:
        where = f"@{self.stage}" if self.stage is not None else "@?"
        return f"Array<<{self.width}>>{where}"


def from_surface(ty: ast.TypeExpr) -> Ty:
    """Translate a surface type annotation to a semantic type."""
    if isinstance(ty, ast.TInt):
        return IntTy()
    if isinstance(ty, ast.TBool):
        return BoolTy()
    if isinstance(ty, ast.TVoid):
        return VoidTy()
    if isinstance(ty, ast.TEvent):
        return EventTy()
    if isinstance(ty, ast.TGroup):
        return GroupTy()
    if isinstance(ty, ast.TArray):
        return ArrayTy(width=ty.width)
    raise AssertionError(f"unknown surface type {ty!r}")


def compatible(expected: Ty, actual: Ty) -> bool:
    """Structural compatibility used for argument / assignment checking.

    Arrays must match on cell width; stages are checked by the effect system
    rather than here.
    """
    if isinstance(expected, BoolTy) and isinstance(actual, (BoolTy, IntTy)):
        # comparisons produce bools; the applications freely mix flag ints and
        # bools, as does the paper's example code.
        return True
    if isinstance(expected, IntTy) and isinstance(actual, BoolTy):
        return True
    if isinstance(expected, ArrayTy) and isinstance(actual, ArrayTy):
        return expected.width == actual.width
    return type(expected) is type(actual)
