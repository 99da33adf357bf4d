"""Shared arithmetic and hash primitives of the Lucid data plane.

Every execution substrate in this repository — the tree-walking
interpreter (:mod:`repro.interp.interpreter`), the source-codegen engine
(:mod:`repro.interp.codegen`), and the PISA pipeline executor
(:mod:`repro.pisa.pipeline`) — must agree bit-for-bit on what one ALU
operation computes.  This module is the single definition they all
consume — as functions (:func:`apply_binop`, :func:`lucid_hash`) and, for
the two engines that emit Python source, as the equivalent expression
templates (:func:`binop_template`, :func:`hash_template`).  Keeping it
dependency-free (it imports only the AST operator enum) lets any layer use
it without pulling in an engine.

All arithmetic is 32-bit: results are masked to ``0xFFFFFFFF``, division
and modulo by zero yield 0 (matching the Tofino's saturating behaviour in
the reference runtime), and shifts use only the low five bits of their
right operand, as the hardware barrel shifter does.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Sequence

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


def apply_binop(op: ast.BinOp, left: int, right: int) -> int:
    """Apply one Lucid binary operator over 32-bit operands.

    Comparison and boolean operators return 0/1.  ``&&``/``||`` here are the
    *strict* forms; engines that implement short-circuit evaluation do so
    before calling in (both orders are observationally identical because
    Lucid expressions this deep are pure).
    """
    if op is ast.BinOp.ADD:
        return (left + right) & MASK32
    if op is ast.BinOp.SUB:
        return (left - right) & MASK32
    if op is ast.BinOp.MUL:
        return (left * right) & MASK32
    if op is ast.BinOp.DIV:
        return div32(left, right)
    if op is ast.BinOp.MOD:
        return mod32(left, right)
    if op is ast.BinOp.BITAND:
        return left & right
    if op is ast.BinOp.BITOR:
        return left | right
    if op is ast.BinOp.BITXOR:
        return left ^ right
    if op is ast.BinOp.SHL:
        return (left << (right & 31)) & MASK32
    if op is ast.BinOp.SHR:
        return left >> (right & 31)
    if op is ast.BinOp.EQ:
        return int(left == right)
    if op is ast.BinOp.NEQ:
        return int(left != right)
    if op is ast.BinOp.LT:
        return int(left < right)
    if op is ast.BinOp.GT:
        return int(left > right)
    if op is ast.BinOp.LE:
        return int(left <= right)
    if op is ast.BinOp.GE:
        return int(left >= right)
    if op is ast.BinOp.AND:
        return int(bool(left) and bool(right))
    if op is ast.BinOp.OR:
        return int(bool(left) or bool(right))
    raise InterpError(f"unsupported operator {op}")


# ---------------------------------------------------------------------------
# source templates: the same operations as Python expression text, for the
# engines that emit source (repro.interp.codegen for handlers,
# repro.pisa.pipeline for stage plans).  ``eval`` of a template must equal
# the function above it — tests/test_pisa_lowering.py sweeps both.
# ---------------------------------------------------------------------------
#: comparison operators -> their Python spelling
CMP_OPS = {
    ast.BinOp.EQ: "==",
    ast.BinOp.NEQ: "!=",
    ast.BinOp.LT: "<",
    ast.BinOp.GT: ">",
    ast.BinOp.LE: "<=",
    ast.BinOp.GE: ">=",
}


def binop_template(op: ast.BinOp, left: str, right: str) -> str:
    """Python source computing ``apply_binop(op, left, right)`` over two
    operand source strings.  ``right`` appears twice for ``/`` and ``%``
    (the zero guard), so callers pass an atom there."""
    B = ast.BinOp
    if op is B.ADD:
        return f"((({left}) + ({right})) & 4294967295)"
    if op is B.SUB:
        return f"((({left}) - ({right})) & 4294967295)"
    if op is B.MUL:
        return f"((({left}) * ({right})) & 4294967295)"
    if op is B.DIV:
        return f"(((({left}) // ({right})) if ({right}) else 0))"
    if op is B.MOD:
        return f"(((({left}) % ({right})) if ({right}) else 0))"
    if op is B.BITAND:
        return f"(({left}) & ({right}))"
    if op is B.BITOR:
        return f"(({left}) | ({right}))"
    if op is B.BITXOR:
        return f"(({left}) ^ ({right}))"
    if op is B.SHL:
        return f"((({left}) << (({right}) & 31)) & 4294967295)"
    if op is B.SHR:
        return f"(({left}) >> (({right}) & 31))"
    if op is B.AND:
        # strict form; emitters that short-circuit do so before calling in
        return f"((1 if ({left}) and ({right}) else 0))"
    if op is B.OR:
        return f"((1 if ({left}) or ({right}) else 0))"
    py = CMP_OPS.get(op)
    if py is None:
        raise InterpError(f"unsupported operator {op}")
    return f"((1 if ({left}) {py} ({right}) else 0))"


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
