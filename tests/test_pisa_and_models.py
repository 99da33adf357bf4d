"""Tests for the PISA substrate models, the analytic models, the remote-control
baseline, the workload generators, and compile-vs-interpret equivalence."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import breakdown_for_compiled, firewall_overhead_table
from repro.analysis.recirc_uses import classify_application, recirc_uses_table
from repro.apps import ALL_APPLICATIONS
from repro.backend import compile_program, count_lucid_loc
from repro.control import remote_install_latencies
from repro.core import EventInstance, SchedulerConfig, single_switch_network
from repro.interp.network import Network, SwitchStats
from repro.pisa import DelayedEvent, PausableDelayQueue, PisaPipeline, figure14_point
from repro.scenarios.traffic import (
    FirewallFlowTraffic,
    LinkFailure,
    link_failure_actions,
    stream_dns_mix,
)


# ---------------------------------------------------------------------------
# pausable delay queue (Figure 14 mechanism)
# ---------------------------------------------------------------------------
def test_pausable_queue_releases_after_requested_delay():
    queue = PausableDelayQueue(release_interval_ns=100_000)
    event = DelayedEvent(event_id=1, requested_delay_ns=250_000, enqueued_at_ns=0)
    queue.enqueue(event)
    queue.run_until_empty()
    assert event.released_at_ns is not None
    assert event.actual_delay_ns >= 250_000
    assert event.actual_delay_ns - 250_000 <= 100_000


def test_pausable_queue_error_bounded_by_release_interval():
    queue = PausableDelayQueue(release_interval_ns=50_000)
    events = [DelayedEvent(i, 120_000 + i * 7_000, 0) for i in range(10)]
    for event in events:
        queue.enqueue(event)
    queue.run_until_empty()
    assert all(0 <= e.delay_error_ns <= 50_000 for e in events)


def test_pausable_queue_counts_recirculation_passes():
    queue = PausableDelayQueue(release_interval_ns=100_000)
    queue.enqueue(DelayedEvent(0, 350_000, 0))
    queue.run_until_empty()
    assert queue.recirculation_passes == 4  # 3 not-ready loops + 1 delivery


def test_figure14_delay_queue_vs_baseline_bandwidth():
    dq_gbps, _ = figure14_point(90, use_delay_queue=True)
    baseline_gbps, _ = figure14_point(90, use_delay_queue=False)
    assert 3.0 < dq_gbps < 8.0  # paper: 5.5 Gb/s
    assert baseline_gbps > 90.0  # paper: >95 Gb/s (saturated)
    assert baseline_gbps / dq_gbps > 10


def test_figure14_delay_queue_vs_baseline_accuracy():
    _, dq_error = figure14_point(60, use_delay_queue=True)
    _, baseline_error = figure14_point(60, use_delay_queue=False)
    # errors of up to half a 100 us release interval on a 1 ms delay
    assert dq_error <= 50_000 / 1_000_000
    assert dq_error > baseline_error
    assert baseline_error < 0.01


def test_figure14_bandwidth_grows_with_concurrency():
    values = [figure14_point(n)[0] for n in (10, 40, 80)]
    assert values == sorted(values)
    assert figure14_point(0) == figure14_point(0, use_delay_queue=False) == (0.0, 0.0)


def test_delay_queue_buffer_usage_is_small():
    queue = PausableDelayQueue()
    for i in range(90):
        queue.enqueue(DelayedEvent(i, requested_delay_ns=1_000_000, enqueued_at_ns=0))
    queue.run_until_empty()
    assert len(queue.delivered) == 90
    assert queue.buffer_bytes_peak <= 90 * 64  # ~7 KB, as in Section 7.2


# ---------------------------------------------------------------------------
# recirculation accounting and the Figure 16 model
# ---------------------------------------------------------------------------
def test_recirculation_port_bandwidth_accounting():
    port = SwitchStats(recirculations=1_000_000, recirculated_bytes=64 * 1_000_000)
    assert port.recirc_bandwidth_bps(1e9) == pytest.approx(64 * 8 * 1e6)
    assert 0 < port.recirc_bandwidth_bps(1e9) / SchedulerConfig().recirc_bandwidth_bps < 1


def test_pipeline_budget_min_packet_size_without_load():
    # a one-entry table never scanned, no new flows: r = 0
    (row,) = firewall_overhead_table((0,), table_size=1, timeout_check_interval_s=float("inf"))
    assert row["recirc_rate_pps"] == 0
    assert row["min_pkt_size_bytes"] == pytest.approx(125.0)


def test_figure16_model_matches_paper_numbers():
    rows = firewall_overhead_table()
    by_rate = {r["flow_rate"]: r for r in rows}
    # 10K flows/s: 815K pkts/s, ~0.08% utilisation, min packet ~125.3 B
    assert by_rate[10_000]["recirc_rate_pps"] == pytest.approx(815_360, rel=0.01)
    assert by_rate[10_000]["pipeline_utilization_pct"] == pytest.approx(0.08, abs=0.01)
    assert by_rate[10_000]["min_pkt_size_bytes"] == pytest.approx(125.3, abs=0.7)
    # 1M flows/s: 16M pkts/s, ~1.66% utilisation, min packet ~127.7 B
    assert by_rate[1_000_000]["recirc_rate_pps"] == pytest.approx(16_655_360, rel=0.01)
    assert by_rate[1_000_000]["pipeline_utilization_pct"] == pytest.approx(1.67, abs=0.1)
    assert by_rate[1_000_000]["min_pkt_size_bytes"] == pytest.approx(127.7, abs=0.7)


@given(st.integers(min_value=1_000, max_value=10_000_000))
def test_figure16_model_is_monotone_in_flow_rate(rate):
    scan, low, high = (row["recirc_rate_pps"] for row in firewall_overhead_table((0, rate, rate + 1000)))
    assert scan == 2 ** 16 / 0.1
    assert low >= scan
    assert high > low


# ---------------------------------------------------------------------------
# remote controller baseline
# ---------------------------------------------------------------------------
def test_remote_controller_latency_distribution():
    latencies = remote_install_latencies(500, seed=1)
    assert len(latencies) == 500
    assert min(latencies) >= 12_000
    assert 15_000 <= statistics.mean(latencies) <= 22_000
    assert remote_install_latencies(500, seed=1) == latencies


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------
def _flow_keys(name, count, seed):
    stream = FirewallFlowTraffic().events([0], count, seed)
    return [event.args for _, _, event in stream if event.name == name]


def test_flow_workload_is_deterministic_per_seed():
    assert _flow_keys("pkt_out", 80, seed=9) == _flow_keys("pkt_out", 80, seed=9)


def test_flow_workload_pairs_outbound_with_return_flows():
    outbound = set(_flow_keys("pkt_out", 400, seed=1))
    inbound = set(_flow_keys("pkt_in", 400, seed=1))
    assert inbound
    assert {(dst, src) for src, dst in inbound} <= outbound


def test_poisson_arrivals_have_expected_rate():
    traffic = FirewallFlowTraffic(flow_rate_per_s=10_000, packets_per_flow=1, with_returns=False)
    times = [t for t, _, _ in traffic.events([0], 5_000, seed=4)]
    assert times == sorted(times)
    assert 0.4e9 <= times[-1] <= 0.6e9  # 5,000 arrivals at 10K flows/s take about 0.5 s


def test_link_failure_schedule_reports_down_links():
    network = Network()
    network.add_link(0, 1)
    network.add_link(1, 2)
    reported = []
    schedule = [LinkFailure(link=(1, 2), fail_at_ns=300 * i, recover_at_ns=300 * i + 100) for i in range(5)]
    actions = link_failure_actions(
        schedule, on_fail=lambda net, f: reported.append((net.now_ns, net.link_is_down(*f.link)))
    )
    network.run(source=actions)
    assert reported == [(300 * i, True) for i in range(5)]
    assert not network.link_is_down(1, 2)


def test_dns_traffic_mix_composition():
    packets = list(stream_dns_mix(150, reflected_share=0.5, seed=3))
    reflected = [p for p in packets if p.reflected]
    benign = [p for p in packets if not p.reflected]
    assert len(reflected) + len(benign) == 150
    # a benign exchange is two packets, so half the arrivals are a third of the packets
    assert 30 <= len(reflected) <= 70
    assert all(p.is_response for p in reflected)


# ---------------------------------------------------------------------------
# compile-and-execute equivalence (PISA pipeline executor vs interpreter)
# ---------------------------------------------------------------------------
EQUIV_PROGRAM = """
const int SIZE = 64;
global nexthops = new Array<<32>>(SIZE);
global pcts = new Array<<32>>(SIZE);
global hcts = new Array<<32>>(SIZE);
memop plus(int cur, int x){return cur + x;}
event count_pkt(int dst, int proto);
handle count_pkt(int dst, int proto) {
  int idx = Array.get(nexthops, dst);
  if (proto != TCP) {
    if (proto == UDP) {
      idx = idx + 8;
    } else {
      idx = idx + 16;
    }
  }
  Array.set(pcts, idx, plus, 1);
  if (proto == TCP) {
    Array.set(hcts, dst, plus, 1);
  }
}
"""


@pytest.mark.parametrize("proto", [6, 17, 1])
def test_pipeline_executor_matches_interpreter(proto):
    compiled = compile_program(EQUIV_PROGRAM, name="equiv")
    pipeline = PisaPipeline(compiled)
    network, switch = single_switch_network(compiled.checked)
    packets = [(3, proto), (5, proto), (3, proto)]
    for dst, pr in packets:
        pipeline.run(EventInstance("count_pkt", (dst, pr)))
        network.inject(0, EventInstance("count_pkt", (dst, pr)))
    network.run()
    for array in ("nexthops", "pcts", "hcts"):
        assert pipeline.array(array).snapshot() == switch.array(array).snapshot(), array


def test_pipeline_executor_reports_stages_traversed():
    compiled = compile_program(EQUIV_PROGRAM, name="equiv")
    pipeline = PisaPipeline(compiled)
    pipeline.run(EventInstance("count_pkt", (1, 6)))
    counters = pipeline.counters()
    assert 1 <= counters["stages_traversed"] <= compiled.stages()
    assert counters["max_stages_traversed"] == counters["stages_traversed"]
    assert counters["tables_executed"] >= 2


def test_pipeline_executor_generates_events_from_layout():
    source = """
    event a(int x);
    event b(int x);
    handle a(int x) { generate b(x + 1); }
    """
    compiled = compile_program(source, name="gen")
    pipeline = PisaPipeline(compiled)
    result = pipeline.run(EventInstance("a", (4,)))
    assert [e.name for e in result.generated] == ["b"]
    assert result.generated[0].args == (5,)


# ---------------------------------------------------------------------------
# LoC analysis and recirculation-use classification
# ---------------------------------------------------------------------------
def test_loc_breakdown_sums_to_total():
    app = ALL_APPLICATIONS["RIP"]
    compiled = app.compile()
    breakdown = breakdown_for_compiled(compiled)
    assert breakdown["p4_total"] == compiled.naive_p4.line_counts()["total"]
    assert breakdown["lucid_loc"] == count_lucid_loc(app.source)
    assert breakdown["ratio"] > 1


def test_recirc_use_classification_matches_figure15():
    compiled = {key: ALL_APPLICATIONS[key].compile() for key in ("SFW", "SRO", "DFW", "CM")}
    assert "maintenance" in classify_application(compiled["SFW"])
    assert "flow_setup" in classify_application(compiled["SFW"])
    assert "sync" in classify_application(compiled["SRO"])
    assert "sync" in classify_application(compiled["DFW"])
    assert "maintenance" in classify_application(compiled["CM"])
    rows = recirc_uses_table(compiled)
    assert len(rows) == 3 and all("applications" in row for row in rows)
