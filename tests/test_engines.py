"""Engine-abstraction tests: three-way scenario parity (reference vs PISA
pipeline vs codegen), the engine parameter plumbing,
heterogeneous-engine networks, the scheduler's recirculation-queue ledger
(its ``recirc_drops`` overflow counter, and its pass counts against the
:mod:`repro.pisa.queues` models), and the pausable delay queue driven by
streaming scenario traffic rather than the synthetic Figure 14/16
micro-inputs."""

import pytest

from repro.errors import SimulationError
from repro.interp.engine import (
    ENGINE_NAMES,
    CodegenEngine,
    PisaEngine,
    ReferenceEngine,
    make_engine,
)
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult
from repro.interp.network import Network, SchedulerConfig, single_switch_network
from repro.pisa import DelayedEvent, PausableDelayQueue
from repro.scenarios import SCENARIOS, run_scenario, run_scenario_all_engines
from repro.scenarios import traffic as tm
from repro.scenarios.runner import _aggregate_pipeline_totals, network_array_digest


# ---------------------------------------------------------------------------
# three-way engine parity over the bundled scenario catalogue
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_three_way_engine_parity(name):
    """Every bundled scenario must produce identical invariant verdicts and
    final array digests on the reference interpreter, the compiled-layout
    PISA pipeline executor, AND the codegen fast path."""
    results = run_scenario_all_engines(SCENARIOS[name], 800, 3)
    assert [r.engine for r in results] == list(ENGINE_NAMES)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    assert len({r.array_digest for r in results}) == 1
    # one ledger: the scheduler's per-switch counters do not depend on the
    # engine, and the pisa engine's pipeline dict reports those same numbers
    scheduler = [
        {sid: {k: v for k, v in stats.items() if k not in ("engine", "pipeline")}
         for sid, stats in r.switch_stats.items()}
        for r in results
    ]
    assert scheduler[0] == scheduler[1] == scheduler[2]
    for stats in results[1].switch_stats.values():
        assert stats["pipeline"]["recirc_passes"] == stats["recirculations"]
        assert stats["pipeline"]["recirc_bytes"] == stats["recirculated_bytes"]


def test_pisa_result_reports_pipeline_stats():
    (result,) = [run_scenario(SCENARIOS["nat-churn"], 1500, 1, engine="pisa")]
    totals = result.pipeline_totals
    assert totals["stages"] >= 1
    assert totals["events"] == result.events_handled
    # the NAT retry path delays and recirculates events, so the pausable
    # queue and the recirculation port must both have been charged
    assert totals["recirculated_events"] > 0
    assert totals["peak_queue_depth"] > 0
    assert totals["recirc_passes"] >= totals["recirculated_events"]
    assert totals["recirc_bytes"] >= 64 * totals["recirc_passes"]
    assert totals["recirc_drops"] == 0
    # per-switch stats carry the engine name and the nested pipeline dict
    sw = result.switch_stats[0]
    assert sw["engine"] == "pisa"
    assert sw["pipeline"]["events"] == result.events_handled


def test_interpreter_result_has_no_pipeline_stats():
    result = run_scenario(SCENARIOS["nat-churn"], 300, 1, engine="codegen")
    assert result.pipeline_totals == {}
    assert "pipeline" not in result.switch_stats[0]


# ---------------------------------------------------------------------------
# parameter plumbing: engine names
# ---------------------------------------------------------------------------
def test_make_engine_unknown_name_raises():
    network, switch = single_switch_network("event e(); handle e() {}")
    with pytest.raises(SimulationError):
        make_engine("nope", switch.runtime)


def test_switch_engine_classes_and_interpreter_alias():
    source = "event e(int x); handle e(int x) {}"
    for name, cls in (
        ("reference", ReferenceEngine),
        ("pisa", PisaEngine),
        ("codegen", CodegenEngine),
    ):
        network, switch = single_switch_network(source, engine=name)
        assert network.engine == switch.engine_name == name
        assert isinstance(switch.engine, cls)
        assert switch.interpreter is switch.engine.executor
    assert Network().engine == "codegen"


ONE_EVENT = """
event e(int x); event f(int x);
handle e(int x) { printf(x); generate f(x + 1); forward(3); }
"""


def test_one_event_yields_equal_results_on_every_engine():
    """What the handler produced compares equal whoever ran it; the pisa
    engine's pass counts are on its pipeline, not on the result."""
    results = {}
    for name in ENGINE_NAMES:
        _, switch = single_switch_network(ONE_EVENT, engine=name)
        results[name] = switch.engine.run(EventInstance("e", (5,)))
        if name == "pisa":
            assert switch.engine.pipeline_stats()["stages_traversed"] > 0
    for left in ENGINE_NAMES:
        for right in ENGINE_NAMES:
            assert results[left] == results[right], (left, right)
    assert results["reference"].prints == ["5"]
    results["reference"].prints.append("more")
    assert results["pisa"] != results["reference"]
    assert results["reference"] != results["pisa"]
    # shared empty tuples compare equal to fresh lists
    assert ExecutionResult((), (), False, None, True) == ExecutionResult([], [], False, None, True)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_every_engine_returns_a_plain_execution_result(name):
    """One dispatch shape: a handled event and an event with no handler both
    come back as an ``ExecutionResult`` itself, on every engine."""
    _, switch = single_switch_network(ONE_EVENT, engine=name)
    handled = switch.engine.run(EventInstance("e", (5,)))
    unhandled = switch.engine.run(EventInstance("f", (6,)))
    assert type(handled) is type(unhandled) is ExecutionResult
    assert unhandled == ExecutionResult()


def test_pisa_layout_is_compiled_once_per_checked_program():
    from repro.frontend.type_checker import check_program

    checked = check_program("event e(); handle e() {}")
    network = Network(engine="pisa")
    a = network.add_switch(0, checked)
    b = network.add_switch(1, checked)
    assert a.engine.pipeline.compiled is b.engine.pipeline.compiled


# ---------------------------------------------------------------------------
# heterogeneous engines in one network
# ---------------------------------------------------------------------------
RELAY = """
global hits = new Array<<32>>(8);
memop plus(int stored, int x) { return stored + x; }
event pkt(int idx, int hops);
handle pkt(int idx, int hops) {
  Array.set(hits, idx, plus, 1);
  if (hops > 0) {
    generate Event.locate(pkt(idx, hops - 1), (SELF + 1) % 3);
  }
}
"""


def _run_relay(engines):
    network = Network()
    for sid, engine in enumerate(engines):
        network.add_switch(sid, RELAY, engine=engine)
    for sid in range(3):
        network.add_link(sid, (sid + 1) % 3)
    for i in range(30):
        network.inject(i % 3, EventInstance("pkt", (i % 8, 5)), at_ns=i * 1_000)
    network.run()
    return network


def test_heterogeneous_engines_agree_with_homogeneous_run():
    mixed = _run_relay(["reference", "codegen", "pisa"])
    uniform = _run_relay(["reference", "reference", "reference"])
    assert network_array_digest(mixed) == network_array_digest(uniform)
    # per-switch reporting keeps each engine's own view
    stats = mixed.stats()
    assert [stats[sid]["engine"] for sid in range(3)] == [
        "reference",
        "codegen",
        "pisa",
    ]
    assert "pipeline" in stats[2] and "pipeline" not in stats[0]
    # network totals aggregate across different engines without double counting
    total = mixed.total_stats()
    assert total.events_handled == sum(
        stats[sid]["events_handled"] for sid in range(3)
    )
    assert total.recirc_drops == 0


def test_heterogeneous_network_mixing_codegen_agrees():
    """Codegen switches interoperate with every other engine in one network:
    relayed events cross engine boundaries and the final array state matches
    a homogeneous codegen run."""
    mixed = _run_relay(["codegen", "reference", "pisa"])
    uniform = _run_relay(["codegen", "codegen", "codegen"])
    baseline = _run_relay(["reference", "reference", "reference"])
    assert network_array_digest(mixed) == network_array_digest(baseline)
    assert network_array_digest(uniform) == network_array_digest(baseline)
    stats = mixed.stats()
    assert [stats[sid]["engine"] for sid in range(3)] == [
        "codegen",
        "reference",
        "pisa",
    ]
    # the generated handlers ran natively — nothing fell back to the walker
    assert mixed.switches[0].engine.executor.fallback_handler_names == []


def test_heterogeneous_network_reset_clears_engine_accounting():
    network = _run_relay(["pisa", "codegen", "pisa"])
    assert network.stats()[0]["pipeline"]["events"] > 0
    digest_before = network_array_digest(network)
    network.reset()
    stats = network.stats()
    assert stats[0]["pipeline"]["events"] == 0
    assert stats[0]["pipeline"]["recirc_passes"] == 0
    assert stats[0]["pipeline"]["peak_queue_depth"] == 0
    # a rerun from time zero reproduces the original digest exactly
    for i in range(30):
        network.inject(i % 3, EventInstance("pkt", (i % 8, 5)), at_ns=i * 1_000)
    network.run()
    assert network_array_digest(network) == digest_before


def test_reset_detaches_the_stage_profiler():
    """Like the tracer and the handler profiler: a stage profiler attached
    for one run times none of the next."""
    from repro.obs.profile import HandlerProfiler, StageProfiler

    network, switch = single_switch_network(RELAY, engine="pisa")
    pipeline = switch.engine.pipeline
    stage_prof = pipeline.stage_prof = StageProfiler(pipeline.layout.num_stages())
    network.profiler = HandlerProfiler()
    for i in range(5):
        network.inject(0, EventInstance("pkt", (i, 0)))
    network.run()
    rows = stage_prof.rows()
    assert rows[0]["events"] == network.profiler.total_calls == 5
    network.reset()
    network.profiler = profiler = HandlerProfiler()
    network.inject(0, EventInstance("pkt", (0, 0)))
    network.run()
    assert profiler.total_calls == 1
    assert pipeline.stage_prof is None
    assert stage_prof.rows() == rows


# ---------------------------------------------------------------------------
# the recirculation queue: overflow drops and depth accounting
# ---------------------------------------------------------------------------
BURST = """
global count = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
event burst();
event sub();
handle burst() {
  generate sub(); generate sub(); generate sub(); generate sub(); generate sub();
}
handle sub() { Array.set(count, 0, plus, 1); }
"""


def test_pisa_recirc_queue_overflow_counts_recirc_drops():
    network, switch = single_switch_network(
        BURST, config=SchedulerConfig(recirc_queue_capacity=2), engine="pisa")
    network.inject(0, EventInstance("burst", ()))
    network.run()
    assert switch.stats.recirc_drops == 3
    assert switch.array("count").cells[0] == 2  # only the admitted events ran
    assert network.total_stats().recirc_drops == 3
    assert switch.stats.peak_queue_depth == 2
    assert network.stats()[0]["pipeline"]["peak_queue_depth"] == 2
    assert network.stats()[0]["pipeline"]["recirc_drops"] == 3


def test_pipeline_totals_count_only_pipeline_switches_drops():
    """A mixed network's pipeline totals aggregate the pisa switches alone —
    the drops of a codegen switch's queue are not the pipeline's."""
    network = Network(config=SchedulerConfig(recirc_queue_capacity=1))
    codegen = network.add_switch(0, BURST, engine="codegen")
    pisa = network.add_switch(1, BURST, engine="pisa")
    network.inject(0, EventInstance("burst", ()))
    network.inject(1, EventInstance("sub", ()))
    network.run()
    assert codegen.stats.recirc_drops > 0 == pisa.stats.recirc_drops
    stats = network.stats()
    assert stats[1]["pipeline"]["recirc_drops"] == 0
    totals = _aggregate_pipeline_totals(stats)
    assert totals["switches"] == 1
    assert totals["recirc_drops"] == 0
    assert totals["events"] == pisa.stats.events_handled == 1


def test_bounded_recirc_queue_drops_alike_on_every_engine():
    """The bound is the scheduler's, so the engines stay interchangeable
    under it: same drops, same admitted events, same final arrays."""
    digests = set()
    for engine in ENGINE_NAMES:
        network, switch = single_switch_network(
            BURST, config=SchedulerConfig(recirc_queue_capacity=2), engine=engine)
        network.inject(0, EventInstance("burst", ()))
        assert network.run() == 3  # burst, and the two admitted subs
        stats = switch.stats
        assert (stats.recirc_drops, stats.recirculated_events, stats.recirculations,
                stats.peak_queue_depth, stats.queue_depth) == (3, 2, 2, 2, 0), engine
        digests.add(network_array_digest(network))
    assert len(digests) == 1


def test_pisa_unbounded_queue_never_drops():
    network, switch = single_switch_network(BURST, engine="pisa")
    network.inject(0, EventInstance("burst", ()))
    network.run()
    assert switch.stats.recirc_drops == 0
    assert switch.array("count").cells[0] == 5
    assert switch.stats.peak_queue_depth == 5
    assert switch.stats.queue_depth == 0  # all arrivals released their slot


def test_pisa_delayed_events_charge_pausable_queue_passes():
    source = """
    event tick(int n);
    event noop();
    handle tick(int n) { generate Event.delay(noop(), 350000); }
    """
    network, switch = single_switch_network(source, engine="pisa")
    network.inject(0, EventInstance("tick", (1,)))
    network.run()
    # 350 us against the 100 us release interval: the parked packet makes
    # ceil(350/100) = 4 recirculation passes (PausableDelayQueue semantics)
    assert switch.stats.recirculations == 4
    assert switch.stats.recirculated_events == 1
    assert network.stats()[0]["pipeline"]["recirc_passes"] == 4


DELAYER = """
event tick(int d);
event noop();
handle tick(int d) { generate Event.delay(noop(), d); }
"""


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_scheduler_passes_match_the_delay_queue_models(engine):
    """The oracle for the scheduler's pass formulas: an event parked at a
    release boundary costs what :class:`PausableDelayQueue` charges it, and
    without the queue ``1 + d // recirculation_latency`` passes."""
    for interval in (1_000, 70_000, 100_000):
        for delay in (1, interval - 1, interval, interval + 1, 350_000, 7 * interval):
            config = SchedulerConfig(delay_release_interval_ns=interval)
            network, switch = single_switch_network(DELAYER, config=config, engine=engine)
            network.inject(0, EventInstance("tick", (delay,)), at_ns=3 * interval)
            assert network.run() == 2
            oracle = PausableDelayQueue(release_interval_ns=interval)
            oracle.enqueue(DelayedEvent(1, requested_delay_ns=delay, enqueued_at_ns=3 * interval))
            oracle.run_until_empty(start_ns=3 * interval)
            assert switch.stats.recirculations == oracle.recirculation_passes, (interval, delay)
            assert switch.stats.recirculated_bytes == oracle.recirculated_bytes
            # both release the event at the same boundary
            assert network.now_ns == oracle.delivered[0].released_at_ns + 600

            looping = SchedulerConfig(use_delay_queue=False)
            network, switch = single_switch_network(DELAYER, config=looping, engine=engine)
            network.inject(0, EventInstance("tick", (delay,)))
            network.run()
            assert switch.stats.recirculations == 1 + delay // 600, delay


# ---------------------------------------------------------------------------
# pausable delay queue / recirculation port under streaming scenario traffic
# ---------------------------------------------------------------------------
def test_pausable_queue_under_streaming_scenario_traffic():
    """Feed the delay queue from a streaming traffic model (arrival times and
    payload mix from the Zipf scenario generator) instead of the synthetic
    constant-delay batch of the Figure 14 tests."""
    traffic = tm.ZipfPacketTraffic(event_name="pkt", hosts=64, alpha=1.2)
    queue = PausableDelayQueue(release_interval_ns=100_000)
    events = []
    for i, (t_ns, _sid, ev) in enumerate(traffic.events([0], 400, seed=11)):
        delay = 50_000 + (i % 7) * 60_000  # heterogeneous requested delays
        event = DelayedEvent(
            event_id=i,
            requested_delay_ns=delay,
            enqueued_at_ns=t_ns,
            size_bytes=ev.payload_bytes(),
        )
        queue.enqueue(event)
        events.append(event)
    queue.run_until_empty()
    assert len(queue.delivered) == 400
    # every released event waited at least its requested delay, with error
    # bounded by one release interval (the Figure 14 accuracy property, now
    # under irregular streaming arrivals)
    assert all(0 <= e.delay_error_ns <= 100_000 for e in events)
    # each event pays ceil(delay_to_next_release) passes; with these delays
    # every event loops at least once and the port sees at least one frame
    # per event
    assert queue.recirculation_passes >= 400
    assert queue.recirculated_bytes >= sum(e.size_bytes for e in events)
    assert queue.buffer_bytes_peak > 0


def test_recirculation_port_accounts_streaming_run():
    """The recirculation port totals of a PISA-engine scenario run must be
    consistent: bandwidth = bytes over duration, utilisation in [0, 1]."""
    result = run_scenario(SCENARIOS["nat-churn"], 1500, 1, engine="pisa")
    totals = result.pipeline_totals
    assert totals["recirc_bytes"] == 64 * totals["recirc_passes"]  # all NAT events are min-size
    duration = result.sim_ns
    assert totals["recirc_bandwidth_bps"] == pytest.approx(
        totals["recirc_bytes"] * 8 / (duration * 1e-9), abs=0.05
    )
    assert totals["recirc_utilisation"] == pytest.approx(
        totals["recirc_bandwidth_bps"] / SchedulerConfig().recirc_bandwidth_bps, abs=1e-6
    )
    assert 0.0 < totals["recirc_utilisation"] <= 1.0


def test_scenario_cli_all_engines(capsys):
    from repro.scenarios.__main__ import main

    code = main(["run", "nat-churn", "--events", "400", "--all-engines", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "engines agree" in out
    assert "[pisa]" in out and "[reference]" in out and "[codegen]" in out
    assert "pipeline:" in out  # recirculation/queue stats in the summary
