"""Lucid's operators, and the hash primitive, defined once.

What one operator means is written here and nowhere else: :data:`BINOPS`
gives each binary operator its precedence, its class (comparison, logical,
arithmetic, stateful-ALU arithmetic), a comparison's negation, its 32-bit
value, the same value as a Python expression template, and its P4 spelling;
:data:`UNOPS` gives each unary operator its class, its value and the one ALU
operation it lowers to.  The parser climbs the precedence column, constant
folding and all three execution substrates — the tree-walking interpreter
(:mod:`repro.interp.interpreter`), the source-codegen engine
(:mod:`repro.interp.codegen`) and the PISA pipeline executor
(:mod:`repro.pisa.pipeline`) — compute through the value columns, and the
checkers, the midend and the P4 printer read the classes, negations and
spellings.  Keeping it dependency-free (it imports only the AST operator
enums) lets any layer use it without pulling in an engine.

All arithmetic is 32-bit: results are masked to ``0xFFFFFFFF``, division
and modulo by zero yield 0 (matching the Tofino's saturating behaviour in
the reference runtime), and shifts use only the low five bits of their
right operand, as the hardware barrel shifter does.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.errors import InterpError
from repro.frontend import ast

MASK32 = 0xFFFFFFFF

#: pre-built struct packers per hash arity (format-string construction is
#: measurable in invariant observers that hash on every handled event)
_HASH_PACKERS: dict = {}


def mask32(value: int) -> int:
    """Truncate ``value`` to an unsigned 32-bit word."""
    return value & MASK32


def div32(left: int, right: int) -> int:
    """32-bit division; division by zero yields 0."""
    return left // right if right else 0


def mod32(left: int, right: int) -> int:
    """32-bit modulo; modulo by zero yields 0."""
    return left % right if right else 0


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------
class OpKind(enum.Enum):
    """What an operator computes, and which ALU can compute it."""

    COMPARISON = "comparison"  # 0/1; a branch condition, with a negation
    LOGICAL = "logical"  # 0/1 over the truth of its operands
    ARITHMETIC = "arithmetic"  # a 32-bit word, on a stateless ALU only
    SALU_ARITHMETIC = "stateful-ALU arithmetic"  # also one stateful-ALU instruction

    @property
    def truth_valued(self) -> bool:
        """Whether every value of this class is 0 or 1."""
        return self is OpKind.COMPARISON or self is OpKind.LOGICAL


class BinaryOperator(NamedTuple):
    """One row of :data:`BINOPS`."""

    level: int  # precedence: a higher level binds tighter
    kind: OpKind
    value: Callable[[int, int], int]  # over 32-bit operands
    #: Python source computing ``value`` over ``{0}`` and ``{1}``; ``{1}``
    #: appears twice for ``/`` and ``%`` (the zero guard), so callers pass
    #: an atom there.  ``&&``/``||`` are the *strict* forms: emitters that
    #: short-circuit do so before calling in (both orders are observationally
    #: identical for pure operands)
    template: str
    negation: Optional[ast.BinOp] = None  # comparisons: holds exactly when this fails
    p4: Optional[str] = None  # the P4 spelling, where it is not the enum value
    divides: bool = False  # the right operand is a divisor


class UnaryOperator(NamedTuple):
    """One row of :data:`UNOPS`."""

    kind: OpKind
    value: Callable[[int], int]
    #: the one ALU operation it lowers to: ``(op, constant, operand first)``,
    #: i.e. ``x op constant`` or ``constant op x``
    alu: Tuple[ast.BinOp, int, bool]


_B = ast.BinOp
_CMP, _LOGIC, _ARITH, _SALU = OpKind

BINOPS: Dict[ast.BinOp, BinaryOperator] = {
    _B.ADD: BinaryOperator(8, _SALU, lambda a, b: (a + b) & MASK32,
                           "((({0}) + ({1})) & 4294967295)"),
    _B.SUB: BinaryOperator(8, _SALU, lambda a, b: (a - b) & MASK32,
                           "((({0}) - ({1})) & 4294967295)"),
    _B.MUL: BinaryOperator(9, _ARITH, lambda a, b: (a * b) & MASK32,
                           "((({0}) * ({1})) & 4294967295)"),
    _B.DIV: BinaryOperator(9, _ARITH, div32,
                           "(((({0}) // ({1})) if ({1}) else 0))", divides=True),
    _B.MOD: BinaryOperator(9, _ARITH, mod32,
                           "(((({0}) % ({1})) if ({1}) else 0))", divides=True),
    _B.BITAND: BinaryOperator(6, _SALU, lambda a, b: a & b, "(({0}) & ({1}))"),
    _B.BITOR: BinaryOperator(4, _SALU, lambda a, b: a | b, "(({0}) | ({1}))"),
    _B.BITXOR: BinaryOperator(5, _SALU, lambda a, b: a ^ b, "(({0}) ^ ({1}))"),
    _B.SHL: BinaryOperator(7, _ARITH, lambda a, b: (a << (b & 31)) & MASK32,
                           "((({0}) << (({1}) & 31)) & 4294967295)"),
    _B.SHR: BinaryOperator(7, _ARITH, lambda a, b: a >> (b & 31),
                           "(({0}) >> (({1}) & 31))"),
    _B.EQ: BinaryOperator(3, _CMP, lambda a, b: int(a == b),
                          "((1 if ({0}) == ({1}) else 0))", _B.NEQ),
    _B.NEQ: BinaryOperator(3, _CMP, lambda a, b: int(a != b),
                           "((1 if ({0}) != ({1}) else 0))", _B.EQ),
    _B.LT: BinaryOperator(3, _CMP, lambda a, b: int(a < b),
                          "((1 if ({0}) < ({1}) else 0))", _B.GE),
    _B.GT: BinaryOperator(3, _CMP, lambda a, b: int(a > b),
                          "((1 if ({0}) > ({1}) else 0))", _B.LE),
    _B.LE: BinaryOperator(3, _CMP, lambda a, b: int(a <= b),
                          "((1 if ({0}) <= ({1}) else 0))", _B.GT),
    _B.GE: BinaryOperator(3, _CMP, lambda a, b: int(a >= b),
                          "((1 if ({0}) >= ({1}) else 0))", _B.LT),
    # over 0/1 operands (the midend makes them so) the bitwise ops are exact
    _B.AND: BinaryOperator(2, _LOGIC, lambda a, b: 1 if a and b else 0,
                           "((1 if ({0}) and ({1}) else 0))", p4="&"),
    _B.OR: BinaryOperator(1, _LOGIC, lambda a, b: 1 if a or b else 0,
                          "((1 if ({0}) or ({1}) else 0))", p4="|"),
}

UNOPS: Dict[ast.UnOp, UnaryOperator] = {
    ast.UnOp.NOT: UnaryOperator(_LOGIC, lambda v: 0 if v else 1, (_B.EQ, 0, True)),
    ast.UnOp.NEG: UnaryOperator(_ARITH, lambda v: -v & MASK32, (_B.SUB, 0, False)),
    ast.UnOp.BITNOT: UnaryOperator(_ARITH, lambda v: ~v & MASK32, (_B.BITXOR, MASK32, True)),
}


def binops(*kinds: OpKind) -> Tuple[ast.BinOp, ...]:
    """The binary operators of ``kinds``, in declaration order."""
    return tuple(op for op in ast.BinOp if BINOPS[op].kind in kinds)


def apply_binop(op: ast.BinOp, left: int, right: int) -> int:
    """Apply one Lucid binary operator over 32-bit operands (comparisons and
    the strict ``&&``/``||`` return 0/1)."""
    row = BINOPS.get(op)
    if row is None:
        raise InterpError(f"unsupported operator {op}")
    return row.value(left, right)


def apply_unop(op: ast.UnOp, value: int) -> int:
    """Apply one Lucid unary operator to a 32-bit operand."""
    return UNOPS[op].value(value)


def binop_template(op: ast.BinOp, left: str, right: str) -> str:
    """Python source computing ``apply_binop(op, left, right)`` over two
    operand source strings (``eval`` of it equals the function —
    tests/test_pisa_lowering.py sweeps both)."""
    row = BINOPS.get(op)
    if row is None:
        raise InterpError(f"unsupported operator {op}")
    return row.template.format(left, right)


def p4_spelling(op: ast.BinOp) -> str:
    """How the P4 printer spells ``op``."""
    return BINOPS[op].p4 or op.value


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------
def lucid_hash(width: int, args: Sequence[int], seed: int = 0) -> int:
    """The deterministic hash used for ``hash<<w>>(...)`` — a CRC32 over the
    argument words, truncated to ``w`` bits (the Tofino's hash units compute
    CRC-family hashes).

    Degenerate widths are total rather than partial so every engine agrees:
    ``w >= 32`` keeps the full CRC word, ``w <= 0`` yields 0 (a zero-bit
    hash has exactly one value), and an empty argument list hashes just the
    seed word."""
    n = len(args) + 1
    packer = _HASH_PACKERS.get(n)
    if packer is None:
        packer = _HASH_PACKERS[n] = struct.Struct("<%dI" % n).pack
    value = zlib.crc32(
        packer(seed & MASK32, *[int(arg) & MASK32 for arg in args])
    )
    if width >= 32:
        return value
    if width <= 0:
        return 0
    return value & ((1 << width) - 1)


def hash_template(width: int, args: Sequence[str]) -> str:
    """Python source computing ``lucid_hash(width, args)`` over operand
    source strings, given ``_c32`` (``zlib.crc32``) and ``_pk<N>`` (the
    ``N``-word packer, see :func:`hash_namespace`) in scope."""
    words = "".join(f", (({arg}) & 4294967295)" for arg in args)
    core = f"_c32(_pk{len(args) + 1}(0{words}))"
    if width >= 32:
        return core
    return f"({core} & {(1 << width) - 1 if width > 0 else 0})"


def hash_namespace(arities: Iterable[int]) -> dict:
    """The names :func:`hash_template` expects, for hashes of ``arities``
    words (argument count + the seed word)."""
    names = {"_c32": zlib.crc32}
    for n in arities:
        names[f"_pk{n}"] = struct.Struct("<%dI" % n).pack
    return names
