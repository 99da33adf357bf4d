"""Tests for the memop syntactic restrictions (Section 4.2, Appendix C)."""

import re

import pytest

from repro.backend.compiler import compile_program
from repro.backend.p4gen import generate_p4
from repro.errors import MemopError
from repro.frontend import check_program, parse_program
from repro.frontend.memop_check import check_all_memops, check_memop


def memop_of(source):
    return parse_program(source).memops()[0]


def check(source):
    check_memop(memop_of(source))


# -- valid memops ------------------------------------------------------------
@pytest.mark.parametrize(
    "body",
    [
        "return stored + x;",
        "return stored - x;",
        "return stored & x;",
        "return stored | x;",
        "return stored ^ x;",
        "return x;",
        "return stored;",
        "return 7;",
        "if (stored == 0) { return x; } else { return stored; }",
        "if (stored < x) { return x; } else { return stored; }",
        "if (x > 10) { return 0; } else { return stored; }",
        "if (stored != x) { return x + 1; } else { return 0; }",
    ],
)
def test_valid_memops_accepted(body):
    check(f"memop m(int stored, int x) {{ {body} }}")


def test_paper_incr_memop_is_valid():
    check("memop incr(int stored, int added) { return stored + added; }")


# -- appendix C: the three invalid examples -----------------------------------
def test_compound_condition_rejected():
    with pytest.raises(MemopError, match=r"compound conditional expressions \(&&, \|\|\)"):
        check(
            "memop compoundCondition(int memval, int y) {"
            "  if (memval == 1 || memval == 2) { return memval; } else { return y; }"
            "}"
        )


def test_three_parameters_rejected():
    with pytest.raises(MemopError, match="two parameters"):
        check(
            "memop twoLocalArgs(int memval, int y, int z) {"
            "  if (memval == 1) { return y; } else { return z; }"
            "}"
        )


def test_multiplication_rejected():
    with pytest.raises(MemopError, match="not supported"):
        check("memop multiply(int memval, int x) { return (10 * memval) + x; }")


def test_duplicate_parameter_names_rejected():
    # the second binding would shadow the stored value, making it inaccessible
    with pytest.raises(MemopError, match="same name"):
        check("memop dup(int x, int x) { return x + 1; }")


# -- other violations ----------------------------------------------------------
def test_variable_used_twice_in_expression_rejected():
    with pytest.raises(MemopError, match="once"):
        check("memop m(int stored, int x) { return stored + stored; }")


def test_two_statements_rejected():
    with pytest.raises(MemopError, match="single return"):
        check("memop m(int stored, int x) { int y = x; return y; }")


def test_missing_return_value_rejected():
    with pytest.raises(MemopError):
        check("memop m(int stored, int x) { return; }")


def test_nested_if_rejected():
    with pytest.raises(MemopError):
        check(
            "memop m(int stored, int x) {"
            "  if (stored == 0) { if (x == 1) { return 1; } else { return 2; } } else { return 0; }"
            "}"
        )


def test_deep_arithmetic_rejected():
    with pytest.raises(MemopError):
        check("memop m(int stored, int x) { return stored + x + 1 + 2; }")


def test_call_inside_memop_rejected():
    with pytest.raises(MemopError, match="calls"):
        check("memop m(int stored, int x) { return hash<<16>>(stored, x); }")


def test_division_rejected():
    with pytest.raises(MemopError, match="not supported"):
        check("memop m(int stored, int x) { return stored / x; }")


@pytest.mark.parametrize(
    "cond,message",
    [
        ("s * x / 3 < 5", "not supported"),
        ("s * x < 5", "not supported"),
        ("s + x + 1 < 5", "at most one"),
        ("5 > x / 2", "not supported"),
        ("hash<<8>>(s) == x", "calls"),
        ("-s < x", "unary"),
    ],
)
def test_memop_condition_sides_are_checked_like_return_values(cond, message):
    """Each side of a memop's comparison is an atom or one stateful-ALU
    operator over two atoms, as a return value is."""
    source = (
        "memop m(int s, int x) {"
        f"  if ({cond}) {{ return s + 1; }} else {{ return s; }}"
        "}"
    )
    with pytest.raises(MemopError, match=message):
        check(source)


def test_memop_condition_may_apply_one_salu_operator_per_side():
    check("memop m(int s, int x) { if (s + 1 < x - 2) { return s; } else { return x; } }")


def test_non_int_parameter_rejected():
    with pytest.raises(MemopError):
        check("memop m(bool stored, int x) { return x; }")


def test_branch_with_two_returns_rejected():
    with pytest.raises(MemopError, match="exactly one return"):
        check(
            "memop m(int stored, int x) {"
            "  if (stored == 0) { return x; return stored; } else { return 0; }"
            "}"
        )


def test_error_message_points_at_source_line():
    with pytest.raises(MemopError) as err:
        check("memop m(int stored, int x) {\n  return stored * x;\n}")
    rendered = err.value.render()
    assert "-->" in rendered and "stored * x" in rendered


def test_check_all_memops_walks_every_declaration():
    source = (
        "memop ok(int a, int b) { return a + b; }\n"
        "memop bad(int a, int b) { return a * b; }\n"
    )
    with pytest.raises(MemopError):
        check_all_memops(parse_program(source))


#: id -> (memop declaration, the error's message, the text its span covers):
#: each declaration is malformed in one way the tests above do not cover, and
#: the front end refuses it where it is written, before anything reads a memop
MALFORMED = {
    "drop_a_parameter": (
        "memop m(int stored) { if (stored < K) { return stored + 1; } else { return 0; } }",
        "memop 'm' must take exactly two parameters", "memop m"),
    "empty_body": (
        "memop m(int stored, int x) { }",
        "memop 'm' body must be a single return statement", "memop m"),
    "assign_instead_of_return": (
        "memop m(int stored, int x) { stored = 1; }",
        "memop 'm' body must be a single return statement", "stored = 1;"),
    "empty_else": (
        "memop m(int stored, int x) { if (stored < K) { return stored + x; } }",
        "the else-branch of a memop's if statement must contain exactly one return",
        "if (stored < K)"),
    "else_without_return": (
        "memop m(int stored, int x) { if (stored < K) { return stored + x; } else { return; } }",
        "a memop must return a value", "return;"),
    "call_in_condition": (
        "memop m(int stored, int x) { if (Sys.time()) { return stored + x; } else { return x; } }",
        "a memop condition must be a single comparison", "Sys.time()"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_declaration_is_refused_at_its_span(case):
    memop, message, at = MALFORMED[case]
    source = f"const int K = 3; global t = new Array<<32>>(4); {memop} event e(int v); handle e(int v) {{ }}"
    with pytest.raises(MemopError, match=re.escape(message)) as err:
        check_program(source)
    assert err.value.span.text.startswith(at)


# -- scope: the two parameters and declared constants ------------------------
UNDECLARED = """
const int K = 3;
global cells = new Array<<32>>(8);
memop m(int stored, int x) { BODY }
event e(int i);
handle e(int i) { int v = Array.update(cells, i, m, 1, m, 2); }
"""


@pytest.mark.parametrize(
    "body",
    [
        "return stored + zz;",
        "return zz;",
        "if (zz) { return x; } else { return stored; }",
        "if (stored < zz) { return x; } else { return stored; }",
        "if (stored < x) { return x; } else { return cells; }",
    ],
)
def test_undeclared_name_in_memop_is_a_memop_error_at_the_name(body):
    source = UNDECLARED.replace("BODY", body)
    with pytest.raises(MemopError, match="neither a parameter of the memop nor a declared") as err:
        check_program(source)
    assert err.value.span.text in ("zz", "cells")


@pytest.mark.parametrize("name", ["K", "TCP"])  # a declared and a built-in constant
def test_constants_are_in_scope_of_a_memop(name):
    compiled = compile_program(UNDECLARED.replace("BODY", f"return stored + {name};"))
    assert f"mem = mem + {3 if name == 'K' else 6};" in compiled.p4.full_text()


def test_p4_printer_refuses_a_name_it_cannot_resolve():
    """A name the printer could not resolve never reaches it: the front end
    refuses it at the name, and a checked memop carries its constants folded,
    so the printer looks no name up — dropping the binding after checking
    changes nothing it prints."""
    with pytest.raises(MemopError, match="neither a parameter of the memop nor a declared"):
        compile_program(UNDECLARED.replace("BODY", "return stored + ghost;"))
    compiled = compile_program(UNDECLARED.replace("BODY", "return stored + K;"))
    del compiled.checked.info.consts.values["K"]
    assert "mem = mem + 3;" in generate_p4(compiled.checked.info, compiled.layout).full_text()
