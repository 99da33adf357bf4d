"""Codegen-engine specifics: generated-source shape, one module shared by
the switches of one checked program, native coverage of the bundled
applications, and observed-vs-plain drain equivalence.

Cross-engine *behavioural* parity (verdicts, digests, traces, fuzz corpus)
lives in test_engines.py / test_fuzz.py — this file covers what is unique
to the source-generating engine itself.
"""

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.frontend import check_program
from repro.interp.codegen import compile_program, dump_program_source
from repro.interp.events import EventInstance
from repro.interp.network import Network, single_switch_network
from repro.scenarios.runner import network_array_digest

CM = ALL_APPLICATIONS["CM"]


def _checked_cm():
    return check_program(CM.source, name="CM")


# ---------------------------------------------------------------------------
# generated source shape
# ---------------------------------------------------------------------------
def test_dump_source_is_flat_python():
    source = dump_program_source(_checked_cm())
    # one generated function per handler, built inside the binding factory
    assert "def _bind(_rt):" in source
    assert "def _h_pkt(_args):" in source
    # slot-indexed locals, not environment dictionaries
    assert "v_src = int(_args[0])" in source
    assert "env[" not in source
    # memops and the hash ALU are inlined at their call sites
    assert "_c32(" in source
    # the source must itself be valid Python
    compile(source, "<test>", "exec")


def test_effect_free_handler_returns_shared_result():
    """Handlers that provably generate/print/drop nothing return the shared
    empty-result singleton instead of allocating one per event."""
    source = dump_program_source(_checked_cm())
    assert "return _EMPTY_R" in source


def test_dump_source_cli(capsys):
    from repro.scenarios.__main__ import main

    assert main(["run", "heavy-hitter-single", "--dump-source"]) == 0
    out = capsys.readouterr().out
    assert "Generated by repro.interp.codegen" in out
    assert "def _h_pkt(_args):" in out


# ---------------------------------------------------------------------------
# one module per checked program
# ---------------------------------------------------------------------------
def test_switches_share_one_module_but_not_state():
    network = Network(engine="codegen")
    checked = _checked_cm()
    network.add_switch(0, checked)
    network.add_switch(1, checked)
    ex0, ex1 = (network.switches[sid].engine.executor for sid in (0, 1))
    assert ex0.module is ex1.module is compile_program(checked)
    # per-switch bindings stay isolated: state on one switch is invisible
    # to the other even though both run the same code object
    network.inject(0, EventInstance("pkt", (0xDEADBEEF, 64)))
    network.run()
    arrays0 = network.switches[0].runtime.arrays
    arrays1 = network.switches[1].runtime.arrays
    assert any(arr.nonzero_entries() for arr in arrays0.values())
    assert not any(arr.nonzero_entries() for arr in arrays1.values())


# ---------------------------------------------------------------------------
# native coverage: every bundled app lowers completely
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(ALL_APPLICATIONS))
def test_bundled_apps_lower_without_fallback(key):
    app = ALL_APPLICATIONS[key]
    checked = check_program(app.source, name=key)
    assert compile_program(checked).handler_names == sorted(checked.info.handlers)
    network, switch = single_switch_network(checked, engine="codegen")
    assert switch.engine.executor.fallback_handler_names == []


# ---------------------------------------------------------------------------
# drain-mode equivalence
# ---------------------------------------------------------------------------
def test_batched_and_stepped_drains_agree():
    """Every event takes the one dispatch body of Network.run; a tracer and a
    profiler only add their samples.  An observed drain must leave the same
    array state, stats and trace as a plain one on the codegen engine, and
    ``batch=`` changes nothing."""
    from repro.obs.profile import HandlerProfiler
    from repro.obs.trace import Tracer

    def run(observed, batch=True):
        network, switch = single_switch_network(CM.source, engine="codegen")
        if observed:
            network.tracer = Tracer(seed=1)
            network.profiler = HandlerProfiler()
        for i in range(200):
            network.inject(
                0, EventInstance("pkt", (i * 2654435761 % 2**32, 64)), at_ns=i * 10
            )
        assert network.run(batch=batch) == 200
        if observed:
            assert len(network.tracer.spans) == network.profiler.total_calls == 200
        return network_array_digest(network), network.stats(), network.trace

    plain = run(observed=False)
    assert run(observed=True) == plain
    assert run(observed=False, batch=False) == plain
