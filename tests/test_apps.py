"""Tests for the ten Figure 9 applications: they compile, fit sensible layouts,
and behave correctly when executed in the interpreter."""

import json
from pathlib import Path

import pytest

from p4_golden_recorder import p4_summary
from repro.apps import ALL_APPLICATIONS
from repro.control import remote_install_latencies
from repro.core import EventInstance, Network, single_switch_network
from repro.scenarios import SCENARIOS, run_scenario

APP_KEYS = list(ALL_APPLICATIONS)
P4_GOLDEN = json.loads((Path(__file__).parent / "golden" / "p4_sha256.json").read_text())


@pytest.fixture(scope="module")
def compiled_apps():
    return {key: app.compile() for key, app in ALL_APPLICATIONS.items()}


# ---------------------------------------------------------------------------
# compilation properties (Figure 9 shape)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("emit_naive_p4", [True, False])
def test_compile_honours_emit_naive_p4(emit_naive_p4):
    compiled = ALL_APPLICATIONS["SRO"].compile(emit_naive_p4=emit_naive_p4)
    assert (compiled.naive_p4 is not None) == emit_naive_p4
    assert compiled.p4 is not None


def test_all_ten_applications_present():
    assert set(APP_KEYS) == {
        "SFW", "RR", "DNS", "*Flow", "SRO", "DFW", "DFW(a)", "RIP", "NAT", "CM",
    }


@pytest.mark.parametrize("key", APP_KEYS)
def test_application_compiles(compiled_apps, key):
    compiled = compiled_apps[key]
    assert compiled.stages() > 0
    assert compiled.layout.total_atomic_tables() > 0


@pytest.mark.parametrize("key", APP_KEYS)
def test_generated_p4_matches_golden(compiled_apps, key):
    assert p4_summary(compiled_apps[key]) == P4_GOLDEN[key], (
        f"{key}: the layout or the P4 text moved; if that is intended, re-record "
        "tests/golden/p4_sha256.json with tests/p4_golden_recorder.py"
    )


@pytest.mark.parametrize("key", APP_KEYS)
def test_lucid_is_much_shorter_than_p4(compiled_apps, key):
    compiled = compiled_apps[key]
    ratio = compiled.naive_p4_loc() / compiled.lucid_loc()
    assert ratio >= 5, f"{key}: expected >=5x P4 expansion, got {ratio:.1f}"


@pytest.mark.parametrize("key", APP_KEYS)
def test_optimisation_never_increases_stages(compiled_apps, key):
    compiled = compiled_apps[key]
    assert compiled.stages() <= compiled.unoptimized_stages()


@pytest.mark.parametrize("key", APP_KEYS)
def test_every_handler_has_an_event(compiled_apps, key):
    info = compiled_apps[key].checked.info
    assert set(info.handlers) <= set(info.events)


@pytest.mark.parametrize("key", APP_KEYS)
def test_generated_p4_mentions_every_global(compiled_apps, key):
    compiled = compiled_apps[key]
    text = compiled.p4.full_text()
    for name in compiled.checked.info.globals:
        assert f"reg_{name}" in text


def test_stage_counts_are_in_the_papers_ballpark(compiled_apps):
    stages = [c.stages() for c in compiled_apps.values()]
    assert min(stages) >= 2
    assert max(stages) <= 12  # the paper's apps use 5-12 Tofino stages


def test_control_events_exist_in_every_app(compiled_apps):
    # every application has at least one handler that generates an event
    for key, compiled in compiled_apps.items():
        generates = [g for h in compiled.normalized.values() for g in h.generates()]
        assert generates, f"{key} has no control events"


# ---------------------------------------------------------------------------
# stateful firewall behaviour
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def firewall_network():
    from repro.apps.stateful_firewall import SOURCE
    from repro.frontend import check_program

    return single_switch_network(check_program(SOURCE, name="SFW"))


def test_firewall_blocks_unsolicited_inbound(firewall_network):
    network, switch = firewall_network
    before = switch.stats.drops
    network.inject(0, EventInstance("pkt_in", (999, 1)))
    network.run()
    assert switch.stats.drops == before + 1


def test_firewall_allows_return_traffic_after_outbound():
    from repro.apps.stateful_firewall import SOURCE
    from repro.frontend import check_program

    network, switch = single_switch_network(check_program(SOURCE, name="SFW"))
    network.inject(0, EventInstance("pkt_out", (10, 20)), at_ns=0)
    network.run()
    network.inject(0, EventInstance("pkt_in", (20, 10)), at_ns=1_000_000)
    network.run()
    inbound = [t for t in network.trace if t.event.name == "pkt_in"][0]
    assert not inbound.result.dropped
    assert inbound.result.forwarded_port == 1  # TRUSTED_PORT


def test_firewall_install_latency_distribution():
    # 200 flows x 2 packets through the Figure 17 scenario
    result = run_scenario(SCENARIOS["sfw-install-latency"], 400, 5)
    assert result.ok
    summary = result.details
    assert summary["flows"] >= 200 and summary["never_installed"] == 0
    dp_mean = summary["dataplane_mean_install_ns"]
    rc_mean = summary["remote_mean_install_ns"]
    assert dp_mean < 1_000  # nanoseconds
    assert summary["dataplane_p50_install_ns"] == 0  # most flows install in their own pass
    assert summary["dataplane_p50_install_ns"] <= summary["dataplane_p90_install_ns"]
    assert summary["dataplane_p90_install_ns"] <= summary["dataplane_max_install_ns"]
    assert summary["first_pass_share"] > 0.9
    assert summary["remote_min_install_ns"] >= 12_000  # the Mantis lower bound
    assert rc_mean >= summary["remote_min_install_ns"]
    assert rc_mean / max(dp_mean, 1) > 100  # the paper reports >300x


def test_remote_install_baseline_follows_the_run_seed():
    """Figure 17's remote baseline is resampled with the run's seed, like its
    traffic, not drawn from one fixed seed at every run."""
    means = {}
    for seed in (1, 2):
        summary = run_scenario(SCENARIOS["sfw-install-latency"], 200, seed).details
        remote = remote_install_latencies(summary["flows"], seed)
        assert summary["remote_mean_install_ns"] == round(sum(remote) / len(remote), 1)
        means[seed] = summary["remote_mean_install_ns"]
    assert means[1] != means[2]


def test_firewall_timeout_scan_evicts_idle_flows():
    from repro.apps.stateful_firewall import SOURCE
    from repro.frontend import check_program

    network, switch = single_switch_network(check_program(SOURCE, name="SFW"))
    # inject at a non-zero time so the stored timestamp is distinguishable
    # from an empty slot
    network.inject(0, EventInstance("pkt_out", (1, 2)), at_ns=1_000)
    network.run()
    installed = switch.array("keys1").nonzero_entries() + switch.array("keys2").nonzero_entries()
    assert installed == 1
    # run the scan long after the timeout (100 ms); it should evict the entry
    network.inject(0, EventInstance("scan_timeouts", (0,)), at_ns=200_000_000)
    network.run(until_ns=400_000_000)
    remaining = switch.array("keys1").nonzero_entries() + switch.array("keys2").nonzero_entries()
    assert remaining == 0


@pytest.mark.parametrize("engine", ["reference", "codegen", "pisa"])
def test_firewall_timeout_scan_evicts_exactly_the_stale_slots(engine):
    """Each slot's age is computed by the ``age`` memop in its array's
    stateful ALU; the scan evicts exactly the slots the rule
    ``seen != 0 && ((now - seen) mod 2**32) > TIMEOUT_NS`` selects: an empty
    slot never, a timestamp above ``now`` (the 32-bit clock wrapped) always."""
    from repro.apps.stateful_firewall import SOURCE
    from repro.frontend import check_program

    now, timeout = 250_000_000, 100_000_000
    stamps = [0, now, now - timeout, now - timeout - 1, now + 7]
    slots = len(stamps) ** 2
    checked = check_program(SOURCE, name="SFW", symbolic_bindings={"TBL_SLOTS": slots})
    network, switch = single_switch_network(checked, engine=engine)
    primed = {1: [stamps[idx % len(stamps)] for idx in range(slots)],
              2: [stamps[idx // len(stamps)] for idx in range(slots)]}
    switch.array("ts1").cells[:] = primed[1]
    switch.array("ts2").cells[:] = primed[2]
    for idx in range(slots):
        network.inject(0, EventInstance("scan_timeouts", (idx,)), at_ns=now)
    network.run(until_ns=now)

    def stale(seen):
        return seen != 0 and (now - seen) % 2**32 > timeout

    expected = {(slot, idx) for slot, cells in primed.items()
                for idx, seen in enumerate(cells) if stale(seen)}
    # two stale stamps (one past the timeout, one from after a wrap), each
    # primed into len(stamps) slots of each table
    assert len(expected) == 2 * 2 * len(stamps)
    scans = [t for t in network.trace if t.event.name == "scan_timeouts"]
    assert len(scans) == slots
    evicted = [tuple(ev.args) for t in scans for ev in t.result.generated
               if ev.name == "evict_slot"]
    assert len(evicted) == len(set(evicted))
    assert set(evicted) == expected


# ---------------------------------------------------------------------------
# distributed applications
# ---------------------------------------------------------------------------
def test_dfw_synchronises_across_borders():
    compiled = ALL_APPLICATIONS["DFW"].compile()
    network = Network()
    for sid in (1, 2, 3):
        network.add_switch(sid, compiled.checked)
    network.inject(1, EventInstance("pkt_out", (5, 6)))
    network.run()
    # every border switch now has the flow marked in both filters
    for sid in (1, 2, 3):
        assert network.switch(sid).array("bloom_a").nonzero_entries() == 1
        assert network.switch(sid).array("bloom_b").nonzero_entries() == 1


def test_rip_converges_to_shortest_path():
    compiled = ALL_APPLICATIONS["RIP"].compile()
    network = Network()
    for sid in (0, 1, 2, 3):
        network.add_switch(sid, compiled.checked)
    # switch 3 is the destination (distance 0); others start at infinity
    for sid in (0, 1, 2):
        network.switch(sid).array("dist").set(0, value=1_048_576)
    network.switch(3).array("dist").set(0, value=0)
    # neighbour relationships are encoded by each switch advertising to all,
    # so just run a few advertisement rounds from every switch
    for round_start in (0, 3_000_000, 6_000_000):
        for sid in (0, 1, 2, 3):
            network.inject(sid, EventInstance("advertise", (3, 0)), at_ns=round_start)
    network.run(until_ns=10_000_000)
    assert network.switch(0).array("dist").get(0) == 1
    assert network.switch(0).array("nexthop").get(0) == 3


def test_sro_applies_writes_in_sequence_order():
    compiled = ALL_APPLICATIONS["SRO"].compile()
    network = Network()
    for sid in (0, 1, 2):
        network.add_switch(sid, compiled.checked)
    network.inject(0, EventInstance("write_req", (3, 111)), at_ns=0)
    network.inject(0, EventInstance("write_req", (3, 222)), at_ns=10)
    network.run()
    # both replicas hold the value of the later (higher-sequence) write
    for sid in (0, 1, 2):
        assert network.switch(sid).array("values").get(3) == 222
        assert network.switch(sid).array("seqs").get(3) == 2


def test_nat_allocates_unique_ports_per_flow():
    compiled = ALL_APPLICATIONS["NAT"].compile()
    network, switch = single_switch_network(compiled.checked)
    network.inject(0, EventInstance("pkt_internal", (1, 100)), at_ns=0)
    network.inject(0, EventInstance("pkt_internal", (2, 100)), at_ns=1000)
    network.run(until_ns=5_000_000)
    ports = [p for p in switch.array("map_port").snapshot() if p]
    assert len(ports) == 2 and len(set(ports)) == 2
    assert all(p > 1024 for p in ports)


def test_countmin_estimates_and_exports():
    compiled = ALL_APPLICATIONS["CM"].compile()
    network = Network()
    network.add_switch(0, compiled.checked)
    network.add_switch(9, compiled.checked)  # the collector
    for _ in range(10):
        network.inject(0, EventInstance("pkt", (1, 2)))
    network.inject(0, EventInstance("query", (1, 2, 9)), at_ns=1_000_000)
    network.run()
    query_trace = [t for t in network.trace if t.event.name == "query_reply"]
    assert query_trace and query_trace[0].event.args[0] >= 10


def test_starflow_evicts_batches_to_collector():
    compiled = ALL_APPLICATIONS["*Flow"].compile()
    network = Network()
    network.add_switch(0, compiled.checked)
    network.add_switch(9, compiled.checked)
    for i in range(9):  # BATCH_LIMIT is 8
        network.inject(0, EventInstance("pkt", (7, 8, 100)), at_ns=i * 1000)
    network.run()
    exports = [t for t in network.trace if t.event.name == "export_batch" and t.switch_id == 9]
    assert exports, "a full batch must be exported to the collector"


def test_dns_defense_blocks_reflection_attack():
    compiled = ALL_APPLICATIONS["DNS"].compile()
    network, switch = single_switch_network(compiled.checked)
    victim, server = 7, 3
    # unsolicited responses towards the victim, well past the threshold
    for i in range(150):
        network.inject(0, EventInstance("dns_response", (victim, server)), at_ns=i * 1000)
    network.run()
    assert switch.array("blocked").nonzero_entries() >= 1
    dropped = [t for t in network.trace if t.event.name == "dns_response" and t.result.dropped]
    assert dropped, "responses after blocking must be dropped"


def test_dns_defense_allows_solicited_responses():
    compiled = ALL_APPLICATIONS["DNS"].compile()
    network, switch = single_switch_network(compiled.checked)
    network.inject(0, EventInstance("dns_query", (1, 2)), at_ns=0)
    network.inject(0, EventInstance("dns_response", (1, 2)), at_ns=1000)
    network.run()
    response = [t for t in network.trace if t.event.name == "dns_response"][0]
    assert not response.result.dropped
    assert switch.array("cms0").nonzero_entries() == 0
