"""One meaning per operator: constants fold as handlers compute, and the P4
printer computes what every engine does."""

import re
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from repro.backend.compiler import compile_program
from repro.errors import ConstError
from repro.frontend import ast, check_program
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.ops import BINOPS, UNOPS, apply_binop, apply_unop, binop_template

#: the operands where 32-bit arithmetic and unbounded integers part ways
BOUNDARY = (0, 1, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _defines(p4_text):
    return {name: int(value) for name, value in re.findall(r"^#define (\w+) (-?\d+)$", p4_text, re.M)}


def _const_vs_runtime(rows):
    """A program with, per row ``(const_expr, runtime_expr)``, a constant
    ``Kj`` and a handler ``ej(int a, int b)`` that stores the constant in
    ``k[j]`` and the runtime expression in ``v[j]``."""
    decls = [f"const int K{j} = {const};" for j, (const, _) in enumerate(rows)]
    decls.append(f"global k = new Array<<32>>({len(rows)});")
    decls.append(f"global v = new Array<<32>>({len(rows)});")
    for j, (_, runtime) in enumerate(rows):
        decls.append(f"event e{j}(int a, int b);")
        decls.append(
            f"handle e{j}(int a, int b) {{ Array.set(k, {j}, K{j}); Array.set(v, {j}, {runtime}); }}"
        )
    return "\n".join(decls)


def _run(engine, source, events):
    """One switch running ``source`` on ``engine`` after ``events``, a list
    of ``(event name, args)`` injected 1 ns apart."""
    network = Network(engine=engine)
    switch = network.add_switch(0, check_program(source))
    for at_ns, (name, args) in enumerate(events):
        network.inject(0, EventInstance(name, args), at_ns=at_ns)
    network.run()
    return switch


def _assert_const_is_runtime(rows, operands):
    source = _const_vs_runtime(rows)
    defines = _defines(compile_program(source).p4.full_text())
    for engine in ENGINE_NAMES:
        switch = _run(engine, source, [(f"e{j}", pair) for j, pair in enumerate(operands)])
        stored, computed = switch.array("k").snapshot(), switch.array("v").snapshot()
        for j, (const, _) in enumerate(rows):
            assert stored[j] == computed[j], (engine, const, stored[j], computed[j])
            assert defines[f"K{j}"] == computed[j], ("P4", const, defines[f"K{j}"], computed[j])


@pytest.mark.parametrize("op", list(ast.BinOp), ids=lambda op: op.name)
def test_binary_constant_folds_as_the_handler_computes(op):
    pairs = [
        (a, b) for a in BOUNDARY for b in BOUNDARY
        if b or op.value not in ("/", "%")
    ]
    rows = [(f"{a} {op.value} {b}", f"a {op.value} b") for a, b in pairs]
    _assert_const_is_runtime(rows, pairs)


@pytest.mark.parametrize("op", list(ast.UnOp), ids=lambda op: op.name)
def test_unary_constant_folds_as_the_handler_computes(op):
    rows = [(f"{op.value}{a}", f"{op.value}a") for a in BOUNDARY]
    _assert_const_is_runtime(rows, [(a, 0) for a in BOUNDARY])


def test_comparison_negations_hold_exactly_when_the_comparison_fails():
    from repro.ops import OpKind

    comparisons = [op for op in ast.BinOp if BINOPS[op].kind is OpKind.COMPARISON]
    assert [BINOPS[BINOPS[op].negation].negation for op in comparisons] == comparisons
    for op in comparisons:
        for a in BOUNDARY:
            for b in BOUNDARY:
                assert apply_binop(BINOPS[op].negation, a, b) == 1 - apply_binop(op, a, b)


@pytest.mark.parametrize("op", ["/", "%"])
def test_zero_divisor_in_a_constant_stays_an_error(op):
    with pytest.raises(ConstError, match="by zero"):
        check_program(f"const int K = 7 {op} (1 - 1);")


def test_constant_means_its_32_bit_value():
    """The two constants the engines used to read unmasked."""
    source = """
    const int NEG = 0 - 1;
    const int BIG = 1 << 33;
    global r = new Array<<32>>(2);
    event go(int x);
    handle go(int x) {
      int hit = 0;
      if (x == NEG) { hit = 1; }
      Array.set(r, hit, BIG + 5);
    }
    """
    defines = _defines(compile_program(source).p4.full_text())
    assert (defines["NEG"], defines["BIG"]) == (0xFFFFFFFF, 2)
    for engine in ENGINE_NAMES:
        assert _run(engine, source, [("go", (0xFFFFFFFF,))]).array("r").snapshot() == [0, 7], engine


# ---------------------------------------------------------------------------
# the P4's actions compute what the engines do
# ---------------------------------------------------------------------------
_ASSIGN = re.compile(r"^\s+md\.(\w+) = (\S+)(?: (\S+) (\(\S+ & \d+\)|\S+))?;$")
_MASKED = re.compile(r"^\((\S+) & (\d+)\)$")


def _run_p4_actions(p4_text, env):
    """Run a straight-line handler's P4 actions, in pipeline order, over the
    metadata ``env``: each ``md.x = a op b;``, whose ``b`` may be a masked
    ``(c & m)``, with ``op`` in P4-16's meaning on ``bit<32>`` (``P4_BINARY``
    of the Lucid operator spelled the same way, so ``&`` is bitwise whatever
    it was printed for)."""

    def value(atom):
        masked = _MASKED.match(atom)
        if masked is not None:
            return P4_BINARY[ast.BinOp.BITAND](value(masked[1]), int(masked[2]))
        return env[atom[3:]] if atom.startswith("md.") else int(atom)

    for line in p4_text.splitlines():
        match = _ASSIGN.match(line)
        if match is None:
            continue
        dst, lhs, op, rhs = match.groups()
        if op is None:
            env[dst] = value(lhs)
        else:
            env[dst] = P4_BINARY[ast.BinOp(op)](value(lhs), value(rhs))
    return env


@pytest.mark.parametrize(
    "expr", ["x && y", "x || y", "x && (y > 0)", "(x == 2) || y", "x && 1", "!x || y"]
)
@pytest.mark.parametrize("x,y", [(2, 1), (0, 4), (2, 0), (6, 12)])
def test_p4_logical_connectives_compute_what_engines_do(expr, x, y):
    """``&&``/``||`` print as P4's bitwise ``&``/``|``, exact only over 0/1
    operands, which the midend therefore gives them."""
    source = f"""
    global r = new Array<<32>>(2);
    event go(int x, int y);
    handle go(int x, int y) {{ int z = {expr}; Array.set(r, 0, z); }}
    """
    p4_env = _run_p4_actions(compile_program(source).p4.full_text(), {"x": x, "y": y})
    for engine in ENGINE_NAMES:
        assert _run(engine, source, [("go", (x, y))]).array("r").snapshot()[0] == p4_env["z"], (engine, expr)


# ---------------------------------------------------------------------------
# ops.py against P4-16's bit<32>, stated without ops.py
# ---------------------------------------------------------------------------
_WORD = 2**32


def _shift(scale):
    """P4-16: shifting a ``bit<32>`` by 32 or more gives 0."""
    return lambda a, b: scale(a, 2**b) if b < 32 else 0


#: each operator over unsigned ``bit<32>`` operands, as P4-16 defines it; a
#: boolean result is the word 0 or 1, and ``&&``/``||`` read a nonzero word as
#: true.  Division and modulo by zero are the repo's rule (0), which P4-16
#: leaves to the target.
P4_BINARY = {
    ast.BinOp.ADD: lambda a, b: (a + b) % _WORD,
    ast.BinOp.SUB: lambda a, b: (a - b) % _WORD,
    ast.BinOp.MUL: lambda a, b: (a * b) % _WORD,
    ast.BinOp.DIV: lambda a, b: a // b if b else 0,
    ast.BinOp.MOD: lambda a, b: a % b if b else 0,
    ast.BinOp.BITAND: lambda a, b: sum(2**i for i in range(32) if (a >> i) % 2 and (b >> i) % 2),
    ast.BinOp.BITOR: lambda a, b: sum(2**i for i in range(32) if (a >> i) % 2 or (b >> i) % 2),
    ast.BinOp.BITXOR: lambda a, b: sum(2**i for i in range(32) if (a >> i) % 2 != (b >> i) % 2),
    ast.BinOp.SHL: _shift(lambda a, p: (a * p) % _WORD),
    ast.BinOp.SHR: _shift(lambda a, p: a // p),
    ast.BinOp.EQ: lambda a, b: int(a == b),
    ast.BinOp.NEQ: lambda a, b: int(a != b),
    ast.BinOp.LT: lambda a, b: int(a < b),
    ast.BinOp.GT: lambda a, b: int(a > b),
    ast.BinOp.LE: lambda a, b: int(a <= b),
    ast.BinOp.GE: lambda a, b: int(a >= b),
    ast.BinOp.AND: lambda a, b: int(a != 0 and b != 0),
    ast.BinOp.OR: lambda a, b: int(a != 0 or b != 0),
}
P4_UNARY = {
    ast.UnOp.NOT: lambda a: int(a == 0),
    ast.UnOp.NEG: lambda a: (_WORD - a) % _WORD,
    ast.UnOp.BITNOT: lambda a: _WORD - 1 - a,
}

#: the full range, its boundary, and the shift amounts either side of 32
_words = (st.integers(min_value=0, max_value=_WORD - 1) | st.sampled_from(BOUNDARY)
          | st.integers(min_value=0, max_value=40))


@lru_cache(maxsize=None)
def _printed(op):
    """The P4 the compiler prints for ``z = a op b``."""
    return compile_program(f"""
    global r = new Array<<32>>(1);
    event go(int a, int b);
    handle go(int a, int b) {{ int z = a {op.value} b; Array.set(r, 0, z); }}
    """).p4.full_text()


@pytest.mark.parametrize("op", list(ast.BinOp), ids=lambda op: op.name)
@given(a=_words, b=_words)
def test_binary_operators_mean_what_p4_bit32_means(op, a, b):
    """``a op b`` as P4-16 computes the P4 printed for it: a shift by 32 or
    more, which P4-16 takes to 0, keeps the amount's low five bits because the
    printer masks the amount (``test_constant_means_its_32_bit_value`` pins
    ``1 << 33`` = 2)."""
    expected = _run_p4_actions(_printed(op), {"a": a, "b": b})["z"]
    assert apply_binop(op, a, b) == expected
    assert eval(binop_template(op, "a", "b"), {"a": a, "b": b}) == expected


@pytest.mark.parametrize("op", list(ast.UnOp), ids=lambda op: op.name)
@given(a=_words)
def test_unary_operators_mean_what_p4_bit32_means(op, a):
    alu_op, constant, operand_first = UNOPS[op].alu
    lowered = apply_binop(alu_op, *((a, constant) if operand_first else (constant, a)))
    assert apply_unop(op, a) == lowered == P4_UNARY[op](a)


def test_every_array_width_keeps_the_low_bits_on_every_engine():
    """``Array<<1>>`` to ``Array<<32>>``, each set once from one event
    argument: a cell of width w reads back ``v mod 2^w``."""
    widths = range(1, 33)
    source = "\n".join(
        [f"global t{w} = new Array<<{w}>>(1);" for w in widths]
        + ["event put(int v);", "handle put(int v) {"]
        + [f"  Array.set(t{w}, 0, v);" for w in widths]
        + ["}"]
    )
    for v in BOUNDARY + (0xDEADBEEF,):
        for engine in ENGINE_NAMES:
            switch = _run(engine, source, [("put", (v,))])
            assert [switch.array(f"t{w}").snapshot()[0] for w in widths] == [v % 2**w for w in widths], (engine, v)


def test_the_p4_masks_a_shift_amount():
    """The printer masks a runtime amount with ``& 31`` and folds a literal
    one, so the P4 shifts by what every engine shifts by."""
    source = """
    global ry = new Array<<32>>(1);
    global rz = new Array<<32>>(1);
    event go(int x, int s);
    handle go(int x, int s) { int y = x << s; int z = x >> 33; Array.set(ry, 0, y); Array.set(rz, 0, z); }
    """
    p4_text = compile_program(source).p4.full_text()
    assert "md.y = md.x << (md.s & 31);" in p4_text
    assert "md.z = md.x >> 1;" in p4_text
    for s in (1, 31, 32, 33, 40, 0xFFFFFFFF):
        p4_env = _run_p4_actions(p4_text, {"x": 0x80000001, "s": s})
        for engine in ENGINE_NAMES:
            switch = _run(engine, source, [("go", (0x80000001, s))])
            stored = switch.array("ry").snapshot() + switch.array("rz").snapshot()
            assert stored == [p4_env["y"], p4_env["z"]], (engine, s)
