"""One meaning per operator: constants fold as handlers compute, and the P4
printer computes what every engine does."""

import re

import pytest

from repro.backend.compiler import compile_program
from repro.errors import ConstError
from repro.frontend import ast, check_program
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.ops import apply_binop

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
    from repro.ops import BINOPS, OpKind

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
_ASSIGN = re.compile(r"^\s+md\.(\w+) = (\S+)(?: (\S+) (\S+))?;$")


def _run_p4_actions(p4_text, env):
    """Run a straight-line handler's P4 actions, in pipeline order, over the
    metadata ``env``: each ``md.x = a op b;`` with ``op`` in P4's meaning on
    ``bit<32>`` — that of the Lucid operator spelled the same way, so ``&``
    is bitwise whatever it was printed for."""
    for line in p4_text.splitlines():
        match = _ASSIGN.match(line)
        if match is None:
            continue
        dst, lhs, op, rhs = match.groups()
        value = lambda atom: env[atom[3:]] if atom.startswith("md.") else int(atom)  # noqa: E731
        if op is None:
            env[dst] = value(lhs)
        else:
            env[dst] = apply_binop(ast.BinOp(op), value(lhs), value(rhs))
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
