"""Tests for the type checker and the ordered type-and-effect system."""

import pytest

from repro.backend.resources import TofinoModel
from repro.errors import ConstError, OrderError, TypeError_
from repro.frontend import check_program

PRELUDE = """
const int SIZE = 16;
global a0 = new Array<<32>>(SIZE);
global a1 = new Array<<32>>(SIZE);
global a2 = new Array<<32>>(SIZE);
memop plus(int stored, int x) { return stored + x; }
memop keep(int stored, int x) { return stored; }
memop overwrite(int stored, int x) { return x; }
"""


def check(body, extra_decls=""):
    return check_program(PRELUDE + extra_decls + body)


# -- ordinary typing ------------------------------------------------------------
def test_simple_handler_checks():
    cp = check("event e(int x); handle e(int x) { int y = x + 1; Array.set(a0, y, plus, 1); }")
    assert "e" in cp.handler_results


def test_undefined_variable_rejected():
    with pytest.raises(TypeError_, match="undefined variable"):
        check("event e(int x); handle e(int x) { int y = z + 1; }")


def test_assignment_to_undeclared_rejected():
    with pytest.raises(TypeError_, match="undeclared"):
        check("event e(int x); handle e(int x) { y = 3; }")


def test_assignment_to_global_rejected():
    with pytest.raises(TypeError_, match="Array.set"):
        check("event e(int x); handle e(int x) { a0 = 3; }")


def test_event_arity_checked():
    with pytest.raises(TypeError_, match="expects 2 arguments"):
        check("event e(int x); event f(int a, int b); handle e(int x) { generate f(x); }")


def test_handler_without_event_rejected():
    with pytest.raises(TypeError_, match="no matching event"):
        check("handle orphan(int x) { drop(); }")


def test_handler_event_arity_mismatch_rejected():
    with pytest.raises(TypeError_, match="parameters"):
        check("event e(int x, int y); handle e(int x) { drop(); }")


def test_generate_requires_event_value():
    with pytest.raises(TypeError_, match="expects an event"):
        check("event e(int x); handle e(int x) { generate x + 1; }")


def test_handlers_cannot_return_values():
    with pytest.raises(TypeError_, match="do not return"):
        check("event e(int x); handle e(int x) { return x; }")


def test_memop_cannot_be_called_directly():
    with pytest.raises(TypeError_, match="Array method"):
        check("event e(int x); handle e(int x) { int y = plus(x, 1); }")


def test_array_method_needs_global_first_argument():
    with pytest.raises(TypeError_, match="global array"):
        check("event e(int x); handle e(int x) { int y = Array.get(x, 0); }")


def test_array_method_memop_argument_must_be_memop():
    with pytest.raises(TypeError_, match="memop"):
        check("event e(int x); handle e(int x) { int y = Array.get(a0, 0, x, 1); }")


def test_event_combinator_argument_types():
    with pytest.raises(TypeError_, match="must be an event"):
        check("event e(int x); handle e(int x) { generate Event.delay(x, 5); }")


def test_unknown_function_rejected():
    with pytest.raises(TypeError_, match="undefined function"):
        check("event e(int x); handle e(int x) { int y = mystery(x); }")


def test_recursive_function_rejected():
    with pytest.raises(TypeError_, match="recursive"):
        check(
            "event e(int x); handle e(int x) { int y = f(x); }",
            extra_decls="fun int f(int n) { return f(n); }",
        )


def test_duplicate_event_rejected():
    with pytest.raises(TypeError_, match="declared twice"):
        check("event e(int x); event e(int x); handle e(int x) { drop(); }")


def test_extern_call_is_typed():
    cp = check(
        "event e(int x); handle e(int x) { int y = report(x); }",
        extra_decls="extern fun int report(int value);",
    )
    assert cp is not None


def test_symbolic_sizes_can_be_bound():
    source = "symbolic size N = 4; global t = new Array<<32>>(N); event e(int i); handle e(int i) { Array.set(t, i, 1); }"
    cp = check_program(source, symbolic_bindings={"N": 128})
    assert cp.info.globals["t"].size == 128


@pytest.mark.parametrize(
    "size,cells",
    [("200000", 200000), ("0 - 1", 0xFFFFFFFF), ("N", 131073)],
)
def test_array_larger_than_one_stage_is_a_const_error(size, cells):
    """An array lives in one stage: a size past that stage's register SRAM is
    refused where it is declared, naming the size and the limit."""
    source = f"symbolic size N = 4; global t = new Array<<32>>({size}); event e(int i); handle e(int i) {{ Array.set(t, i, 1); }}"
    with pytest.raises(ConstError, match=f"{cells} cells, more than the 131072"):
        check_program(source, symbolic_bindings={"N": 131073})


@pytest.mark.parametrize("size", ["0", "N - 4", "S"])
def test_zero_size_array_is_a_const_error(size):
    """An array of no cells has nothing to index: the front end refuses it
    where it is declared — a literal 0, a constant expression folding to 0,
    a ``symbolic size`` bound to 0 — so no engine or printer meets one."""
    source = (f"const int N = 4; symbolic size S = 8; global t = new Array<<32>>({size}); "
              "event e(int i); handle e(int i) { Array.set(t, i, 1); }")
    with pytest.raises(ConstError, match="global 't' has non-positive size 0") as err:
        check_program(source, symbolic_bindings={"S": 0})
    assert err.value.span.text.startswith("global t")


def test_array_of_one_full_stage_is_accepted():
    source = "global t = new Array<<32>>(131072); event e(int i); handle e(int i) { Array.set(t, i, 1); }"
    assert check_program(source).info.globals["t"].size == 131072
    assert TofinoModel().sram_words_per_stage == 131072


def test_group_constants_are_recorded():
    cp = check(
        "const group PEERS = {7, 8}; event e(int x); handle e(int x) { mgenerate Event.locate(e(x), PEERS); }"
    )
    assert cp.info.consts.groups["PEERS"] == [7, 8]


@pytest.mark.parametrize("use", ["const int FIRST = PEERS;", "global t = new Array<<32>>(PEERS);"])
def test_a_group_is_not_an_integer_constant(use):
    """A switch binds its own members, so a group has no compile-time value
    (not even its literal's first member)."""
    with pytest.raises(ConstError, match="'PEERS' is not a compile-time constant"):
        check_program(f"const group PEERS = {{7, 8}}; {use} event e(int x); handle e(int x) {{ printf(x); }}")


# -- the ordered effect system -----------------------------------------------------
def test_in_order_accesses_accepted():
    cp = check(
        "event e(int x); handle e(int x) {"
        " int v = Array.get(a0, x); int w = Array.get(a1, v); Array.set(a2, w, plus, 1); }"
    )
    trace = cp.handler_results["e"].trace
    assert [a.global_name for a in trace] == ["a0", "a1", "a2"]
    assert [a.stage for a in trace] == [0, 1, 2]


def test_out_of_order_access_rejected():
    with pytest.raises(OrderError, match="declaration order"):
        check(
            "event e(int x); handle e(int x) {"
            " int v = Array.get(a1, x); Array.set(a0, v, plus, 1); }"
        )


def test_figure5_disordered_program_rejected():
    source = """
    const int SIZE = 16;
    global arr1 = new Array<<32>>(SIZE);
    global arr2 = new Array<<32>>(SIZE);
    event setArr1(int idx, int data);
    event setArr2(int idx, int data);
    handle setArr1(int idx, int data) {
      int x = Array.get(arr2, idx);
      Array.set(arr1, idx, x);
    }
    handle setArr2(int idx, int data) {
      int x = Array.get(arr1, idx);
      Array.set(arr2, idx, x);
    }
    """
    with pytest.raises(OrderError):
        check_program(source)


def test_double_access_to_same_array_rejected():
    with pytest.raises(OrderError, match="twice"):
        check(
            "event e(int x); handle e(int x) {"
            " int v = Array.get(a0, x); Array.set(a0, x, plus, v); }"
        )


def test_update_is_single_access():
    cp = check(
        "event e(int x); handle e(int x) { int v = Array.update(a0, x, keep, 0, plus, 1); }"
    )
    assert len(cp.handler_results["e"].trace) == 1


def test_branches_may_access_same_array():
    cp = check(
        "event e(int x); handle e(int x) {"
        " if (x == 0) { Array.set(a0, x, plus, 1); } else { Array.set(a0, x, plus, 2); } }"
    )
    assert cp.handler_results["e"].end_stage == 1


def test_branch_then_later_array_is_ordered():
    cp = check(
        "event e(int x); handle e(int x) {"
        " if (x == 0) { Array.set(a0, x, plus, 1); } else { Array.set(a1, x, plus, 1); }"
        " Array.set(a2, x, plus, 1); }"
    )
    assert cp.handler_results["e"].end_stage == 3


def test_branch_then_earlier_array_rejected():
    with pytest.raises(OrderError):
        check(
            "event e(int x); handle e(int x) {"
            " if (x == 0) { Array.set(a1, x, plus, 1); } else { Array.set(a2, x, plus, 1); }"
            " Array.set(a0, x, plus, 1); }"
        )


def test_error_message_names_both_accesses():
    with pytest.raises(OrderError) as err:
        check(
            "event e(int x); handle e(int x) {"
            " int v = Array.get(a2, x); Array.set(a1, v, plus, 1); }"
        )
    message = err.value.render()
    assert "a1" in message and "a2" in message and "note" in message


# -- effect polymorphism through functions ------------------------------------------
def test_function_accessing_global_checked_at_call_site():
    cp = check(
        "event e(int x); handle e(int x) { int v = lookup(x); Array.set(a1, v, plus, 1); }",
        extra_decls="fun int lookup(int i) { return Array.get(a0, i); }",
    )
    assert [a.global_name for a in cp.handler_results["e"].trace] == ["a0", "a1"]


def test_function_call_order_violation_detected():
    with pytest.raises(OrderError):
        check(
            "event e(int x); handle e(int x) { int v = Array.get(a1, x); int w = lookup(v); }",
            extra_decls="fun int lookup(int i) { return Array.get(a0, i); }",
        )


def test_polymorphic_array_parameter_reused_at_different_stages():
    cp = check(
        "event e(int x); handle e(int x) { int v = bump(a0, x); int w = bump(a1, v); }",
        extra_decls="fun int bump(Array<<32>> arr, int i) { return Array.get(arr, i, plus, 1); }",
    )
    assert [a.global_name for a in cp.handler_results["e"].trace] == ["a0", "a1"]


def test_polymorphic_array_parameters_wrong_order_rejected():
    with pytest.raises(OrderError):
        check(
            "event e(int x); handle e(int x) { int v = bump(a1, x); int w = bump(a0, v); }",
            extra_decls="fun int bump(Array<<32>> arr, int i) { return Array.get(arr, i, plus, 1); }",
        )


def test_function_with_disordered_body_rejected_at_definition():
    with pytest.raises(OrderError):
        check(
            "event e(int x); handle e(int x) { drop(); }",
            extra_decls=(
                "fun int broken(int i) { int v = Array.get(a1, i); return Array.get(a0, v); }"
            ),
        )


def test_nested_function_calls_compose_effects():
    cp = check(
        "event e(int x); handle e(int x) { int v = outer(x); Array.set(a2, v, plus, 1); }",
        extra_decls=(
            "fun int inner(int i) { return Array.get(a0, i); }"
            "fun int outer(int i) { int v = inner(i); return Array.get(a1, v); }"
        ),
    )
    assert [a.global_name for a in cp.handler_results["e"].trace] == ["a0", "a1", "a2"]
