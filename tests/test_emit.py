"""The generated-module format (:mod:`repro.interp.emit`) and its two
visitors: the one array read-modify-write against the ``RuntimeArray``
oracle, codegen's handler bodies pinned to the commit before the format
moved, the one factory shape of both dumps, and every engine running the
memop the checker kept.
"""

import hashlib
import json
import re
from functools import partial
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.backend.compiler import compile_checked
from repro.errors import ConstError, InterpError
from repro.frontend import check_program
from repro.fuzz.case import load_case
from repro.interp.arrays import RuntimeArray
from repro.interp.codegen import dump_program_source
from repro.interp.emit import ModuleEmitter
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.interpreter import SwitchRuntime
from repro.interp.network import Network
from repro.midend.normalize import NArrayOp, Var
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
    emitter.locals = {"idx": "idx", "a": "a", "b": "b"}
    stmt = NArrayOp(method=method, array=array, index=Var("idx"), memops=list(memops),
                    args=[Var("a"), Var("b")][:nargs])
    value = emitter._array_rmw(policy(emitter), stmt)
    emitter._line(f"return {value}")
    module = emitter._module(checked.name, "test-emit", "", "_rt", {"op": emitter.lines}, {})
    assert f"_A_{array} = _rt.array({array!r})\n    _C_{array} = _A_{array}.cells" in module.source
    return module.bind


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
    """The emitter never meets a zero-size array: the front end refuses it
    where it is declared.  A ``RuntimeArray`` built directly through the
    public API still refuses to be indexed."""
    with pytest.raises(ConstError, match="global 't' has non-positive size 0"):
        check_program("global t = new Array<<32>>(0); event e(); handle e() {}")
    with pytest.raises(InterpError) as error:
        RuntimeArray("t", 0, 32).get(0)
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
# (c) one factory shape, every per-switch name drawn from the runtime (and a
#     stage plan's path counts from its pipeline, handler by handler)
# ---------------------------------------------------------------------------
BINDING = re.compile(
    r"    _(SELF|EXT|ARRAYS|[ACGM]_\w+) = "
    r"(_rt\.\w+(\('\w+'\))?|_A_\w+\.cells|_rt\.groups\['\w+'\])$"
)
PATH_COUNTS = re.compile(r"    _K_(\w+) = _P\.path_counts\['\1'\]$")


@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_both_dumps_have_the_one_factory_shape(key):
    checked = check_program(ALL_APPLICATIONS[key].source, name=key)
    plan = lower_layout(compile_checked(checked)).source
    for source, factory in ((dump_program_source(checked), "def _bind(_rt):"),
                            (plan, "def _bind(_P, _rt):")):
        compile(source, f"<{key}>", "exec")
        assert "_B[" not in source
        lines = source.split("\n")
        first = lines.index(factory) + 1
        last = lines.index("", first)
        assert last > first
        for line in lines[first:last]:
            assert BINDING.match(line) or factory == "def _bind(_P, _rt):" and \
                PATH_COUNTS.match(line), line
        # then nothing but the handlers and the dispatch table
        rest = "\n".join(lines[last:])
        assert re.fullmatch(r"(\n    def _h_\w+\(_args\):\n(        .*\n)+)+"
                            r"\n    return \{\n(        '\w+': _h_\w+,\n)+    \}\n", rest)


# ---------------------------------------------------------------------------
# (d) the engines run the memop the checker kept, never the declaration again
# ---------------------------------------------------------------------------
MALFORMED = """
global shared = new Array<<32>>(4);
memop bad(int stored, int x) { return stored + x; }
event broken(int i);
handle broken(int i) { Array.set(shared, i, bad, i + 5); }
"""


def test_a_malformed_memop_is_never_materialised_at_bind_time():
    """The declaration is emptied after checking: no engine reads it again.
    The stage plan, the codegen module and ``memop_fn`` all run the shape
    ``check_program`` kept, so a switch never binds a body the checker did
    not see."""
    checked = check_program(MALFORMED, name="malformed")
    checked.info.memops["bad"].body.clear()
    for engine in ENGINE_NAMES:
        network = Network(engine=engine)
        switch = network.add_switch(0, checked)
        for i in (1, 2, 5):
            network.inject(0, EventInstance("broken", (i,)))
        network.run()
        assert switch.array("shared").snapshot() == [0, 16, 7, 0], engine
