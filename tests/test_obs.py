"""The observability layer: metrics registry, event-lifecycle tracing,
profiling hooks, and their CLI/telemetry integration.

The golden-trace test pins the exact Chrome trace-event JSON for a small
two-switch scenario and asserts all three engines reproduce it byte for
byte.  Regenerate the golden file after an intentional format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs.py -k golden
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from repro.frontend import check_program
from repro.interp import EventInstance, Network
from repro.interp.network import watch_metrics
from repro.interp.engine import ENGINE_NAMES
from repro.obs import REGISTRY, disable, enable, parse_text_exposition
from repro.obs.metrics import MetricsRegistry, ObsState
from repro.obs.profile import HandlerProfiler, StageProfiler, merge_stage_rows
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.__main__ import main as cli_main
from repro.service.telemetry import TELEMETRY_SCHEMA_VERSION, TelemetryEmitter

GOLDEN = Path(__file__).parent / "golden" / "trace_small.json"
SCHEMA = Path(__file__).parent / "schemas" / "chrome_trace.schema.json"

# Two switches relaying an event back and forth: covers all three hop kinds
# (inject, recirc via Event.delay, link via Event.locate) and nested control
# flow, and compiles through all three engines.
RELAY2 = """
global hits = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
event pkt(int idx, int hops);
handle pkt(int idx, int hops) {
  Array.set(hits, idx, plus, 1);
  if (hops > 0) {
    if (idx == 0) {
      generate Event.delay(pkt(idx + 1, hops - 1), 500);
    } else {
      generate Event.locate(pkt(idx, hops - 1), (SELF + 1) % 2);
    }
  }
}
"""


def _traced_run(engine: str, seed: int = 7) -> Tracer:
    checked = check_program(RELAY2, name="relay2")
    network = Network(engine=engine)
    network.trace_enabled = False
    network.add_switch(0, checked)
    network.add_switch(1, checked)
    network.add_link(0, 1)
    tracer = Tracer(seed=seed)
    network.tracer = tracer
    network.inject(0, EventInstance("pkt", (0, 5)), at_ns=0)
    network.inject(1, EventInstance("pkt", (1, 3)), at_ns=1000)
    network.run()
    return tracer


@pytest.fixture
def global_metrics():
    """Enable the process-global registry for one test, zeroed both ways."""
    REGISTRY.reset()
    enable()
    yield REGISTRY
    disable()
    REGISTRY.reset()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry(ObsState(True))
    c = reg.counter("c_total", "a counter")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = reg.gauge("g", "a gauge")
    g.load(3)   # a collector's write
    assert g.value == 3


def test_disabled_registry_records_nothing():
    reg = MetricsRegistry(ObsState(False))
    c = reg.counter("c_total")
    c.inc()
    assert c.value == 0
    reg.enable()
    c.inc()
    assert c.value == 1


def test_registration_is_idempotent_and_kind_checked():
    reg = MetricsRegistry(ObsState(True))
    a = reg.counter("repro_x_total", "help")
    b = reg.counter("repro_x_total")
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total")
    lbl = reg.counter("repro_y_total", "help", labelnames=("event",))
    with pytest.raises(ValueError):
        reg.counter("repro_y_total", labelnames=("engine",))
    lbl.labels("pkt").inc(3)
    assert reg.value("repro_y_total", labels=("pkt",)) == 3


def test_render_text_parse_round_trip():
    reg = MetricsRegistry(ObsState(True))
    reg.counter("repro_a_total", "events", labelnames=("event",)).labels("pkt").inc(12)
    reg.gauge("repro_b", "depth").load(3)
    text = reg.render_text()
    assert "# TYPE repro_a_total counter" in text
    assert "# HELP repro_b depth" in text
    parsed = parse_text_exposition(text)
    assert parsed["repro_a_total"][(("event", "pkt"),)] == 12
    assert parsed["repro_b"][()] == 3


def test_network_hot_loop_metrics(global_metrics):
    checked = check_program(RELAY2, name="relay2")
    network = Network(engine="codegen")
    network.trace_enabled = False
    network.add_switch(0, checked)
    network.add_switch(1, checked)
    network.add_link(0, 1)
    network.inject(0, EventInstance("pkt", (0, 5)), at_ns=0)
    network.run()
    totals = network.total_stats()
    assert REGISTRY.value("repro_network_events_handled_total",
                          labels=("pkt",)) == totals.events_handled
    assert REGISTRY.value("repro_network_events_generated_total") == totals.events_generated
    assert REGISTRY.value("repro_network_remote_sends_total") == totals.remote_sends
    assert REGISTRY.value("repro_engine_codegen_events_total") == totals.events_handled
    # text exposition covers the scheduler metrics
    parsed = parse_text_exposition(REGISTRY.render_text())
    assert parsed["repro_network_events_handled_total"][(("event", "pkt"),)] \
        == totals.events_handled


def test_orphan_events_and_flushed_scheduler_counters(global_metrics):
    """A send to a switch id that does not exist is counted when the drain
    skips it, and the counters `_schedule_generated` flushes once per generate
    read the same in the registry as in the per-switch stats."""
    network = Network(engine="codegen")
    network.trace_enabled = False
    network.add_switch(0, check_program(RELAY2, name="relay2"))  # no switch 1
    network.inject(0, EventInstance("pkt", (0, 2)), at_ns=0)  # delayed local, then remote
    assert network.run() == 2
    totals = network.total_stats()
    assert totals.orphan_events == network.stats()[0]["orphan_events"] == 1
    assert REGISTRY.value("repro_network_orphan_events_total") == 1
    assert REGISTRY.value("repro_network_remote_sends_total") == totals.remote_sends == 1
    assert REGISTRY.value("repro_network_recirculations_total") == totals.recirculations == 1
    assert REGISTRY.value("repro_network_recirc_bytes_total") == totals.recirculated_bytes
    assert REGISTRY.value("repro_network_recirc_queue_depth") == totals.peak_queue_depth == 1
    assert "repro_network_orphan_events_total 1" in REGISTRY.render_text()


def test_a_parked_event_counts_a_pass_per_release(global_metrics):
    network = Network(engine="codegen")
    network.add_switch(0, "event tick(); event noop(); "
                          "handle tick() { generate Event.delay(noop(), 350us); }")
    network.inject(0, EventInstance("tick", ()))
    network.run()
    assert REGISTRY.value("repro_network_recirculations_total") == 4
    assert REGISTRY.value("repro_network_recirc_bytes_total") == 4 * 64


#: (metric, SwitchStats field): every ledger counter the registry exposes
LEDGER_METRICS = [
    ("repro_network_events_generated_total", "events_generated"),
    ("repro_network_events_dropped_total", "drops"),
    ("repro_network_remote_sends_total", "remote_sends"),
    ("repro_network_link_drops_total", "link_drops"),
    ("repro_network_recirc_drops_total", "recirc_drops"),
    ("repro_network_orphan_events_total", "orphan_events"),
    ("repro_network_recirculations_total", "recirculations"),
    ("repro_network_recirc_bytes_total", "recirculated_bytes"),
]


def _relay_network(engine: str) -> Network:
    checked = check_program(RELAY2, name="relay2")
    network = Network(engine=engine)
    network.add_switch(0, checked)
    network.add_switch(1, checked)
    network.add_link(0, 1)
    network.inject(0, EventInstance("pkt", (0, 5)), at_ns=0)
    network.inject(1, EventInstance("pkt", (1, 3)), at_ns=1000)
    return network


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_scheduler_metrics_are_read_from_the_ledger(global_metrics, engine):
    """Every scheduler metric is the sum of one SwitchStats field (the pisa
    stage and table counts: of the engine's pipeline counters), whatever the
    engine, and the gauges read the network itself."""
    network = _relay_network(engine)
    network.run(until_ns=2_000)  # leaves the delayed relays queued
    totals = network.total_stats()
    for metric, stat in LEDGER_METRICS:
        assert REGISTRY.value(metric) == getattr(totals, stat), metric
    assert REGISTRY.value("repro_network_events_handled_total", labels=("pkt",)) \
        == totals.events_handled > 0
    assert REGISTRY.value("repro_network_recirc_queue_depth") == totals.peak_queue_depth
    assert REGISTRY.value("repro_network_heap_depth") == network.pending_events() > 0
    assert REGISTRY.value("repro_network_sim_time_ns") == network.now_ns == 2_000
    for name in ENGINE_NAMES:
        expected = totals.events_handled if name == engine else 0
        assert REGISTRY.value(f"repro_engine_{name}_events_total") == expected, name
    pipelines = [s["pipeline"] for s in network.stats().values() if "pipeline" in s]
    assert bool(pipelines) == (engine == "pisa")
    for metric, key in (("repro_engine_pisa_stages_traversed_total", "stages_traversed"),
                        ("repro_engine_pisa_tables_executed_total", "tables_executed")):
        assert REGISTRY.value(metric) == sum(p[key] for p in pipelines), metric


def test_metrics_follow_the_ledger_through_restore(global_metrics):
    """The registry reads the ledger when it is read: a network that
    restores a snapshot under obs reads the ledger the snapshot carried
    without running."""
    network = _relay_network("codegen")
    network.run()
    snapshot = network.snapshot()
    handled = network.total_stats().events_handled
    REGISTRY.reset()  # forgets the networks it read
    assert REGISTRY.value("repro_network_events_handled_total", labels=("pkt",)) == 0
    restored = _relay_network("codegen")
    restored.restore(snapshot)
    assert REGISTRY.value("repro_network_events_handled_total", labels=("pkt",)) == handled


def test_the_dispatch_path_holds_no_metric_site():
    """What an event runs through — the scheduler's loop and generate
    scheduling, each engine's run (the tree walker, or the one dispatcher of
    both compiled engines and the handlers it calls, the stage plan's, plain
    or timed, ending in its one path-count bump) — names no obs state: metrics are collected
    from the ledger, so obs costs nothing per event, enabled or not.
    (``Network.run`` enrols its network once, before the loop.)"""
    import ast
    import inspect
    import textwrap

    from repro.interp.emit import dispatcher
    from repro.interp.walker import HandlerInterpreter
    from repro.pisa.pipeline import lower_layout

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    obs_names = {"_OBS", "_Metrics", "REGISTRY", "_REGISTRY"}
    run = ast.parse(textwrap.dedent(inspect.getsource(Network.run)))
    (loop,) = [n for n in ast.walk(run) if isinstance(n, ast.While)]
    assert not names(loop) & obs_names
    assert names(run) & obs_names == {"_OBS", "_Metrics"}
    for fn in (Network._schedule_generated, Network._hoist, dispatcher,
               HandlerInterpreter.run):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not names(tree) & obs_names, fn.__qualname__
    pisa, codegen = (_relay_network(name).switches[0].engine for name in ("pisa", "codegen"))
    for engine in (pisa, codegen):
        assert engine.run.__code__ is dispatcher({}).__code__, engine.name
    epilogue = "        _K_pkt[_k] = _K_pkt.get(_k, 0) + 1\n        return "
    assert epilogue in pisa.pipeline.plan.source
    pisa.pipeline.stage_prof = StageProfiler(pisa.pipeline.layout.num_stages())
    timed = lower_layout(pisa.pipeline.compiled, timed=True)
    bound = timed.bind(pisa.pipeline, pisa.pipeline.runtime)
    assert pisa.pipeline._handlers["pkt"].__code__ is bound["pkt"].__code__
    for module in (pisa.pipeline.plan, timed, codegen.module):
        assert not names(ast.parse(module.source)) & obs_names


@pytest.mark.parametrize("engine, prefix", [
    ("pisa", "repro_engine_pisa_plan_cache"),
    ("codegen", "repro_engine_codegen_module_cache"),
])
def test_lowering_cache_metrics(global_metrics, engine, prefix):
    # both lowerings are cached on the checked program: three switches
    # built from one emit (or lower) once
    source = RELAY2.replace("idx + 1", "idx + 3")
    assert source != RELAY2
    checked = check_program(source, name=f"relay2-{engine}")
    network = Network(engine=engine)
    for switch_id in range(3):
        network.add_switch(switch_id, checked)
    assert REGISTRY.value(f"{prefix}_misses_total") == 1
    assert REGISTRY.value(f"{prefix}_hits_total") == 2


def test_metrics_disabled_by_default_after_scenario():
    REGISTRY.reset()
    result = run_scenario(SCENARIOS["heavy-hitter-single"], 200, seed=1)
    assert result.ok
    assert REGISTRY.value("repro_network_events_generated_total") == 0


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_trace_byte_identical_across_engines():
    blobs = {eng: _traced_run(eng).to_json_bytes() for eng in ENGINE_NAMES}
    assert len(set(blobs.values())) == 1, "engines disagree on the trace"


def test_trace_matches_golden_file():
    payload = _traced_run(ENGINE_NAMES[0]).to_json_bytes() + b"\n"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_bytes(payload)
    assert GOLDEN.read_bytes() == payload, (
        "trace format drifted from tests/golden/trace_small.json; if the "
        "change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_span_tree_and_hops():
    tracer = _traced_run("codegen")
    spans = tracer.spans
    assert len(spans) == 10
    hops = [s.hop for s in spans]
    assert hops.count("inject") == 2
    assert "recirc" in hops and "link" in hops
    # span ids embed the seed and are dispatch-ordinal unique
    assert all(s.span_id >> 48 == 7 for s in spans)
    assert len({s.span_id for s in spans}) == len(spans)
    # the two injected events are the roots; every other span's parent was
    # dispatched before it
    assert [s.hop for s in spans if s.parent_id is None] == ["inject", "inject"]
    seen = set()
    for span in spans:
        assert span.parent_id is None or span.parent_id in seen
        seen.add(span.span_id)


def test_validate_chrome_trace_accepts_and_rejects():
    doc = _traced_run("reference").chrome_trace()
    counts = validate_chrome_trace(doc)
    assert counts["M"] == 2 and counts["X"] == 10
    assert counts["s"] == counts["f"] == 8
    broken = json.loads(json.dumps(doc))
    broken["traceEvents"][2]["ph"] = "Q"
    with pytest.raises(ValueError):
        validate_chrome_trace(broken)
    truncated = json.loads(json.dumps(doc))
    truncated["traceEvents"] = [
        ev for ev in truncated["traceEvents"] if ev["ph"] != "f"
    ]
    with pytest.raises(ValueError):
        validate_chrome_trace(truncated)


def test_trace_validates_against_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text())
    doc = _traced_run("pisa").chrome_trace()
    jsonschema.validate(json.loads(json.dumps(doc)), schema)


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------
def test_handler_profiler_top_and_report():
    prof = HandlerProfiler()
    for _ in range(3):
        prof.record("pkt", 0.002, 600)
    prof.record("tick", 0.010, 600)
    rows = prof.top(10)
    assert [r["handler"] for r in rows] == ["tick", "pkt"]
    assert rows[0]["wall_share"] == pytest.approx(0.625, abs=1e-3)
    assert rows[1]["calls"] == 3 and rows[1]["sim_ns"] == 1800
    assert [r["handler"] for r in prof.top(1)] == ["tick"]
    assert prof.total_calls == 4


def test_stage_profiler_merge():
    a = StageProfiler(3)
    a.record(0, 2, 0.001)
    a.record(1, 1, 0.002)
    b = StageProfiler(3)
    b.record(0, 1, 0.004)
    merged = merge_stage_rows([a, None, b])
    assert merged[0]["events"] == 2 and merged[0]["tables_executed"] == 3
    assert merged[0]["wall_s"] == pytest.approx(0.005)
    assert merged[1]["events"] == 1


def test_scenario_profile_collection():
    result = run_scenario(SCENARIOS["heavy-hitter-single"], 300, seed=1,
                          engine="pisa", profile=True)
    assert result.ok
    hot = result.profile["hot_handlers"]
    assert hot and hot[0]["calls"] > 0
    stages = result.profile["stages"]
    assert stages and sum(r["events"] for r in stages) > 0
    assert "profile" in result.to_dict()


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
def test_cli_trace_all_engines(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = cli_main([
        "run", "heavy-hitter-single", "--events", "300", "--all-engines",
        "--trace", str(trace), "--profile",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "traces byte-identical across engines" in out
    payloads = set()
    for eng in ENGINE_NAMES:
        path = tmp_path / f"trace.{eng}.json"
        assert path.exists()
        payloads.add(path.read_bytes())
        validate_chrome_trace(json.loads(path.read_text()))
    assert len(payloads) == 1


def test_cli_metrics_exposition(capsys):
    code = cli_main([
        "run", "heavy-hitter-single", "--events", "200", "--metrics",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE repro_network_events_handled_total counter" in out
    assert not REGISTRY.state.enabled, "--metrics must disable obs on exit"


# ---------------------------------------------------------------------------
# telemetry v2: records read the ledger, and so does the serve dump
# ---------------------------------------------------------------------------
#: (record field, SwitchStats field) after the header, in v2 record order
V2_FIELDS = [
    ("sim_ns", None),
    ("events_handled", "events_handled"),
    ("events_injected", None),
    ("events_per_sec", None),
    ("pending_events", None),
    ("events_generated", "events_generated"),
    ("recirculations", "recirculations"),
    ("recirc_bytes", "recirculated_bytes"),
    ("remote_sends", "remote_sends"),
    ("drops", "drops"),
    ("link_drops", "link_drops"),
    ("recirc_drops", "recirc_drops"),
    ("queue_depth", "queue_depth"),
    ("peak_queue_depth", "peak_queue_depth"),
]


def _relay_emit(engine: str):
    network = _relay_network(engine)
    network.trace_enabled = False
    network.run(until_ns=2_000)  # leaves the delayed relays queued
    out = io.StringIO()
    emitter = TelemetryEmitter(out, "relay2", engine, seed=7)
    totals = network.total_stats()
    record = emitter.emit(network, handled_total=totals.events_handled,
                          injected_total=2)
    assert json.loads(out.getvalue()) == record  # written and flushed at once
    return network, record


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_telemetry_record_is_the_ledger(engine):
    network, record = _relay_emit(engine)
    totals = network.total_stats()
    assert list(record) == ["schema_version", "scenario", "engine", "seed",
                            "phase", "t_wall_s"] + [name for name, _ in V2_FIELDS]
    assert record["schema_version"] == TELEMETRY_SCHEMA_VERSION == 2
    for name, stat in V2_FIELDS:
        if stat is not None:
            assert record[name] == getattr(totals, stat), name
    assert record["sim_ns"] == network.now_ns == 2_000
    assert record["pending_events"] == network.pending_events() > 0
    assert record["events_handled"] > 0 and record["recirculations"] > 0


def test_telemetry_render_text_round_trips_record():
    """The registry's exposition of a watched network carries every ledger
    field of a telemetry record of that network, on every engine."""
    for engine in ENGINE_NAMES:
        network, record = _relay_emit(engine)
        REGISTRY.reset()
        try:
            watch_metrics(network)
            parsed = parse_text_exposition(REGISTRY.render_text())
        finally:
            REGISTRY.reset()
        assert sum(parsed["repro_network_events_handled_total"].values()) \
            == record["events_handled"]
        assert parsed[f"repro_engine_{engine}_events_total"][()] == record["events_handled"]
        for metric, key in (
            ("repro_network_events_generated_total", "events_generated"),
            ("repro_network_recirculations_total", "recirculations"),
            ("repro_network_recirc_bytes_total", "recirc_bytes"),
            ("repro_network_remote_sends_total", "remote_sends"),
            ("repro_network_events_dropped_total", "drops"),
            ("repro_network_link_drops_total", "link_drops"),
            ("repro_network_recirc_drops_total", "recirc_drops"),
            ("repro_network_recirc_queue_depth", "peak_queue_depth"),
            ("repro_network_heap_depth", "pending_events"),
            ("repro_network_sim_time_ns", "sim_ns"),
        ):
            assert parsed[metric][()] == record[key], (engine, metric)
