"""The generated-module format (:mod:`repro.interp.emit`) and its two
visitors: the one array read-modify-write against the ``RuntimeArray``
oracle, codegen's handler bodies pinned to the commit before the format
moved, the one factory shape of both dumps, and per-handler rollback.
"""

import hashlib
import json
import re
from functools import partial
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import CompilerOptions, compile_checked
from repro.errors import InterpError
from repro.frontend import check_program
from repro.fuzz.case import load_case
from repro.interp.arrays import RuntimeArray
from repro.interp.codegen import CodegenSwitchRuntime, HandlerSourceCompiler, dump_program_source
from repro.interp.emit import ModuleEmitter
from repro.interp.events import EventInstance
from repro.interp.interpreter import SwitchRuntime, memop_shape
from repro.interp.network import Network
from repro.pisa.pipeline import _PlanEmitter, lower_layout

from test_compiled_interp import BOUNDARY

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden" / "pisa_passes.json").read_text())

#: name -> source: the ten bundled apps and the corpus under tests/regressions
PROGRAMS = {key: app.source for key, app in sorted(ALL_APPLICATIONS.items())}
PROGRAMS.update((path.name, load_case(str(path)).source)
                for path in sorted((HERE / "regressions").glob("*.json")))


# ---------------------------------------------------------------------------
# (a) the read-modify-write, as emitted, equals RuntimeArray + memop_fn
# ---------------------------------------------------------------------------
SIZE = 3  # not a power of two: the index wrap is a real modulo
SCRATCH = "".join(f"\nglobal zz{width} = new Array<<{width}>>({SIZE});" for width in (8, 16, 32))

#: (method, memops taken, arguments passed)
SHAPES = [
    ("Array.get", 0, 0), ("Array.get", 1, 1), ("Array.getm", 1, 1),
    ("Array.set", 0, 1), ("Array.set", 1, 1), ("Array.setm", 1, 1),
    ("Array.update", 0, 1), ("Array.update", 0, 2),
    ("Array.update", 1, 1), ("Array.update", 1, 2),
    ("Array.update", 2, 1), ("Array.update", 2, 2),
]


def _hoist_all(emitter):
    """Codegen's policy: every operand becomes a numbered temp."""
    return lambda name, expr, uses: emitter._to_temp(expr)


def _inline_once(emitter):
    """The stage plan's: fixed names, and what is used once stays inline."""
    return partial(_PlanEmitter._named, emitter)


def _emitted_op(checked, policy, method, array, memops, nargs):
    """``op((idx, a, b))`` through the whole format: prologue, the
    read-modify-write, a ``_bind(_rt)`` module."""
    emitter = ModuleEmitter(checked.info)
    emitter.lines = emitter._handler_head("op", ["idx", "a", "b"])
    value = emitter._array_rmw(
        policy(emitter), method, array, "idx",
        [memop_shape(checked.info, memop) for memop in memops], ["a", "b"][:nargs])
    emitter._line(f"return {value}")
    source, bind = emitter._module(checked.name, "test-emit", "", "_rt",
                                   {"op": emitter.lines}, {})
    assert f"_A_{array} = _rt.array({array!r})\n    _C_{array} = _A_{array}.cells" in source
    return bind


def _oracle_op(array, runtime, method, memops, nargs, idx, a, b):
    fns = [runtime.memop_fn(memop) for memop in memops] + [None, None]
    if method in ("Array.get", "Array.getm"):
        return array.get(idx, fns[0], a if nargs else 0)
    if method in ("Array.set", "Array.setm"):
        if memops:
            array.set(idx, memop=fns[0], arg=a)
        else:
            array.set(idx, value=a)
        return 0
    return array.update(idx, fns[0], a, fns[1], b if nargs > 1 else a)


@pytest.mark.parametrize("policy", [_hoist_all, _inline_once], ids=lambda p: p.__name__.strip("_"))
@pytest.mark.parametrize("name", PROGRAMS)
def test_emitted_read_modify_write_equals_runtime_array(name, policy):
    checked = check_program(PROGRAMS[name] + SCRATCH, name=name)
    memops = list(checked.info.memops)
    pairs = list(zip(memops, memops[1:] + memops[:1]))
    for width in (8, 16, 32):
        array = f"zz{width}"
        for method, takes, nargs in SHAPES:
            for pair in (pairs if takes else [()]):
                used = list(pair[:takes])
                runtime = SwitchRuntime(checked)
                op = _emitted_op(checked, policy, method, array, used, nargs)(runtime)["op"]
                ours = runtime.array(array)
                oracle = RuntimeArray(array, SIZE, width)
                for s in BOUNDARY:
                    cells = [(s + k) & oracle.mask for k in range(SIZE)]
                    for l in BOUNDARY:
                        ours.cells[:] = oracle.cells[:] = cells
                        idx, b = l, (s ^ l)
                        want = _oracle_op(oracle, runtime, method, used, nargs, idx, l, b)
                        got = op((idx, l, b))
                        assert (got, ours.cells, ours.reads, ours.writes) == (
                            want, oracle.cells, oracle.reads, oracle.writes), (
                            method, used, nargs, width, s, l)


def test_the_sweep_has_memops_to_sweep():
    swept = [name for name, source in PROGRAMS.items()
             if check_program(source, name=name).info.memops]
    assert set(ALL_APPLICATIONS) & set(swept) and len(swept) > len(ALL_APPLICATIONS)


def test_zero_size_array_is_rejected_by_the_emitter():
    checked = check_program("global t = new Array<<32>>(4); event e(); handle e() {}")
    checked.info.globals["t"].size = 0
    emitter = ModuleEmitter(checked.info)
    with pytest.raises(InterpError) as error:
        emitter._array_rmw(_hoist_all(emitter), "Array.get", "t", "0", [], [])
    assert error.value.message == "array 't' has zero size"


# ---------------------------------------------------------------------------
# (b) codegen's handler bodies did not move (recorded from the parent commit)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_codegen_handler_bodies_are_byte_identical_to_the_parent(key):
    source = dump_program_source(check_program(ALL_APPLICATIONS[key].source, name=key))
    bodies = source[source.index("    def _h_"):source.rindex("    return {")]
    assert hashlib.sha256(bodies.encode()).hexdigest() == GOLDEN["codegen_handlers_sha256"][key], (
        f"a handler body codegen emits for {key} changed; if intended, update "
        "codegen_handlers_sha256 in tests/golden/pisa_passes.json"
    )


# ---------------------------------------------------------------------------
# (c) one factory shape, every per-switch name drawn from the runtime
# ---------------------------------------------------------------------------
BINDING = re.compile(
    r"    _(SELF|EXT|ARRAYS|[ACGM]_\w+) = "
    r"(_rt\.\w+(\('\w+'\))?|_A_\w+\.cells|tuple\(int\(m\) for m in _rt\.info\.consts\.groups\['\w+'\]\))$"
)


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_both_dumps_have_the_one_factory_shape(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)
    plan = lower_layout(compile_checked(checked, CompilerOptions(emit_p4=False))).source
    for source, factory in ((dump_program_source(checked), "def _bind(_rt):"),
                            (plan, "def _bind(_P, _rt):")):
        compile(source, f"<{key}>", "exec")
        assert "_B[" not in source
        lines = source.split("\n")
        first = lines.index(factory) + 1
        last = lines.index("", first)
        assert last > first
        for line in lines[first:last]:
            assert BINDING.match(line), line
        # then nothing but the handlers and the dispatch table
        rest = "\n".join(lines[last:])
        assert re.fullmatch(r"(\n    def _h_\w+\(_args\):\n(        .*\n)+)+"
                            r"\n    return \{\n(        '\w+': _h_\w+,\n)+    \}\n", rest)


# ---------------------------------------------------------------------------
# (d) a handler that fails to emit takes what it registered with it
# ---------------------------------------------------------------------------
ROLLBACK = """
global only_bad = new Array<<32>>(4);
global shared = new Array<<32>>(4);
memop bad(int stored, int x) { return stored + x; }
memop good(int stored, int x) { return stored + x; }
event broken(int i);
event fine(int i);
handle broken(int i) {
  int h = hash<<32>>(i, i, i);
  int x = Array.get(only_bad, h);
  Array.set(shared, i, bad, x);
}
handle fine(int i) { Array.set(shared, i, good, 2); }
"""


def _malformed():
    checked = check_program(ROLLBACK, name="rollback")
    checked.info.memops["bad"].body.clear()
    return checked


def test_a_failed_handler_rolls_back_its_bindings_and_hash_arities():
    compiler = HandlerSourceCompiler(_malformed())
    module = compiler.compile()
    assert module.fallback_names == ["broken"] and module.handler_names == ["fine"]
    factory = module.source[module.source.index("def _bind(_rt):"):]
    assert "only_bad" not in factory and "_pk" not in factory
    assert factory.count("_A_shared = _rt.array('shared')") == 1
    assert compiler.hash_arities == set()


def test_a_malformed_memop_is_never_materialised_at_bind_time():
    network = {engine: Network(engine=engine) for engine in ("reference", "codegen")}
    asked = []
    for engine, net in network.items():
        switch = net.add_switch(0, _malformed())
        if engine == "codegen":
            assert switch.interpreter.fallback_handler_names == ["broken"]
            runtime = switch.runtime
            memop_fn = runtime.memop_fn
            runtime.memop_fn = lambda name: asked.append(name) or memop_fn(name)
            CodegenSwitchRuntime(runtime)           # binding again asks for nothing
            assert asked == []
        for i in range(6):
            net.inject(0, EventInstance("fine", (i,)), at_ns=i * 1_000)
        net.run()
        net.inject(0, EventInstance("broken", (1,)), at_ns=10_000)
        with pytest.raises(InterpError) as error:
            net.run()
        assert error.value.message == "memop 'bad' has an empty body"
    assert asked == ["bad"]                         # the tree walker, per event
    states = [
        {name: (array.snapshot(), array.reads, array.writes)
         for name, array in net.switches[0].runtime.arrays.items()}
        for net in network.values()
    ]
    assert states[0] == states[1]
    assert states[0]["shared"][0] == [4, 4, 2, 2]
