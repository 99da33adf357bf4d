"""Sharded multiprocess execution: partitioning, determinism parity, and the
cross-shard tie-break contract.

The load-bearing tests here are the parity checks: ``--shards N`` must be
byte-identical (array digests, per-switch stats, invariant verdicts) to the
single-process run on the same seed, including when simultaneous events
cross a shard boundary and when shards run different engines.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle

import pytest

from repro.errors import SimulationError
from repro.interp.events import EventInstance
from repro.interp.network import Network, SchedulerConfig, Switch, SwitchStats
from repro.scenarios import topology as topo
from repro.scenarios.registry import SCENARIOS, Scenario, get, register
from repro.scenarios.runner import ScenarioResult, ScenarioSetup, run_scenario
from repro.shard import coordinator, partition_topology, run_sharded

#: the worker rebuilds its scenario from the registry; a scenario registered
#: by a test is only visible to children under the fork start method
fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="test-registered scenarios need fork-inherited registry state",
)


# ---------------------------------------------------------------------------
# partitioner
# ---------------------------------------------------------------------------
def test_partition_line_contiguous_fallback():
    plan = partition_topology(topo.line(6), 2)
    assert plan.shards == [[0, 1, 2], [3, 4, 5]]
    assert plan.owner[2] == 0 and plan.owner[3] == 1
    assert plan.cross_links == [(2, 3, 1_000)]
    # default config: 400 ns pipeline + min(1000 default, 1000 link)
    assert plan.lookahead_ns == 1_400


def test_partition_fat_tree_keeps_pods_whole():
    topology = topo.fat_tree(4)
    plan = partition_topology(topology, 4)
    assert topology.pods is not None and len(topology.pods) == 4
    for members in topology.pods:
        shards = {plan.shard_of(sid) for sid in members}
        assert len(shards) == 1, f"pod {members} split across {shards}"
    # switches in no pod (the cores) are round-robined by position
    cores = [s for s in range(topology.num_switches)
             if not any(s in p for p in topology.pods)]
    assert [plan.shard_of(s) for s in cores] == [i % 4 for i in range(len(cores))]
    assert sorted(sid for members in plan.shards for sid in members) == list(
        range(topology.num_switches)
    )


def test_partition_fat_tree_two_shards_chunks_pods():
    topology = topo.fat_tree(4)
    plan = partition_topology(topology, 2)
    # 4 pods over 2 shards: pods 0,1 -> shard 0; pods 2,3 -> shard 1
    for g, members in enumerate(topology.pods):
        for sid in members:
            assert plan.shard_of(sid) == g * 2 // 4


def test_partition_lookahead_uses_config_default():
    # declared links are slow, but the fabric is logically full-mesh at the
    # config default, so the default must bound the lookahead
    topology = topo.line(4, latency_ns=500_000)
    config = SchedulerConfig(link_latency_ns=700, pipeline_latency_ns=300)
    plan = partition_topology(topology, 2, config)
    assert plan.lookahead_ns == 1_000
    # and a declared cross-shard link faster than the default wins
    fast = SchedulerConfig(link_latency_ns=1_000_000, pipeline_latency_ns=300)
    assert partition_topology(topology, 2, fast).lookahead_ns == 500_300


def test_partition_rejects_bad_shard_counts():
    with pytest.raises(SimulationError):
        partition_topology(topo.line(4), 0)
    with pytest.raises(SimulationError):
        partition_topology(topo.line(4), 5)


# ---------------------------------------------------------------------------
# parity: sharded == single-process, byte for byte
# ---------------------------------------------------------------------------
def _norm_stats(stats):
    return {int(k): v for k, v in stats.items()}


def _assert_parity(single: ScenarioResult, sharded: ScenarioResult):
    assert sharded.array_digest == single.array_digest
    assert sharded.verdict_signature() == single.verdict_signature()
    assert _norm_stats(sharded.switch_stats) == _norm_stats(single.switch_stats)
    assert sharded.events_injected == single.events_injected
    assert sharded.events_handled == single.events_handled
    assert sharded.sim_ns == single.sim_ns


@fork_only
@pytest.mark.parametrize(
    "name,events,shards",
    [
        ("heavy-hitter-fattree", 2_000, 2),
        ("heavy-hitter-fattree8", 2_000, 4),
        ("rip-line-convergence", 400, 2),
        ("sro-replicated-writes", 800, 3),
        ("reroute-leafspine-linkfail", 1_200, 2),
    ],
)
def test_sharded_matches_single_process(name, events, shards):
    scenario = get(name)
    single = run_scenario(scenario, events, seed=7, engine="codegen")
    sharded = run_sharded(scenario, events, seed=7, num_shards=shards,
                          engine="codegen")
    _assert_parity(single, sharded)
    assert sharded.details["shards"]["num_shards"] == shards


@fork_only
def test_sharded_mixed_engines_match_single_process():
    scenario = get("heavy-hitter-fattree")
    single = run_scenario(scenario, 1_500, seed=3, engine="codegen")
    sharded = run_sharded(
        scenario, 1_500, seed=3, num_shards=4,
        engines=["codegen", "reference", "pisa", "codegen"],
    )
    assert sharded.verdict_signature() == single.verdict_signature()
    assert sharded.engine == "codegen,reference,pisa,codegen"
    assert sharded.details["shards"]["engines"] == [
        "codegen", "reference", "pisa", "codegen"
    ]


@fork_only
def test_sharded_mixed_engines_keep_each_switchs_group_members(monkeypatch):
    """DFW's PEERS differ on every switch of the ring.  Workers build their
    own networks; the coordinator rebuilds the switches of shards that run
    another engine than its own, and each must keep its members."""
    rebuilt = []
    monkeypatch.setattr(coordinator, "Switch",
                        lambda *a, **k: rebuilt.append(Switch(*a, **k)) or rebuilt[-1])
    scenario = get("dfw-ring-roaming")
    single = run_scenario(scenario, 1_500, seed=3, engine="codegen")
    sharded = run_sharded(scenario, 1_500, seed=3, num_shards=2,
                          engines=["pisa", "codegen"])
    assert rebuilt and all(
        switch.runtime.groups["PEERS"] == tuple(s for s in range(4) if s != switch.id)
        for switch in rebuilt)
    assert sharded.array_digest == single.array_digest
    assert sharded.verdict_signature() == single.verdict_signature()

    def scheduler_stats(result):  # without the engine's name and pipeline
        return {int(sid): {k: v for k, v in stats.items() if k not in ("engine", "pipeline")}
                for sid, stats in result.switch_stats.items()}

    assert scheduler_stats(sharded) == scheduler_stats(single)
    assert {s["engine"] for s in sharded.switch_stats.values()} == {"pisa", "codegen"}


def test_one_shard_degenerates_to_plain_runner():
    scenario = get("heavy-hitter-single")
    single = run_scenario(scenario, 1_000, seed=5, engine="codegen")
    one = run_sharded(scenario, 1_000, seed=5, num_shards=1, engine="codegen")
    _assert_parity(single, one)
    assert "shards" not in one.details


def test_engines_list_must_match_shard_count():
    scenario = get("heavy-hitter-fattree")
    with pytest.raises(SimulationError):
        run_sharded(scenario, 100, seed=1, num_shards=2, engines=["codegen"])


# ---------------------------------------------------------------------------
# tie-break order across a shard boundary (the determinism keystone)
# ---------------------------------------------------------------------------
# Every round, switches inject ``ping`` at the *same* timestamp; each ping
# claims the round locally and generates a ``mark`` timed to land exactly on
# the next round's timestamp at a peer across the shard boundary.  The first
# claimer of a round wins (RIP-style first-writer-wins), so the final array
# state encodes the dispatch order of every timestamp collision:
#   * external ping vs arriving marks (source must beat the heap), and
#   * marks from different origin switches (content-derived key order),
# including rounds where the middle switch stays silent so only the two
# cross-boundary marks contend.
_TIEBREAK_APP = """
global cur = new Array<<32>>(1);
global wins = new Array<<32>>(3);
global lastw = new Array<<32>>(1);

memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }
memop bump(int stored, int newval) { return stored + newval; }
memop max_update(int stored, int candidate) {
  if (candidate > stored) { return candidate; } else { return stored; }
}

event ping(int r, int me, int peer);
event mark(int r, int sender);

handle ping(int r, int me, int peer) {
  int seen = Array.update(cur, 0, keep, 0, max_update, r);
  if (r > seen) {
    Array.set(wins, me, bump, 1);
    Array.set(lastw, 0, overwrite, me + r * 8);
  }
  generate Event.locate(mark(r + 1, me), peer);
}

handle mark(int r, int sender) {
  int seen = Array.update(cur, 0, keep, 0, max_update, r);
  if (r > seen) {
    Array.set(wins, sender, bump, 1);
    Array.set(lastw, 0, overwrite, sender + r * 8);
  }
}
"""


def _build_tiebreak(events: int, seed: int) -> ScenarioSetup:
    topology = topo.line(3, latency_ns=1_000)
    config = SchedulerConfig(link_latency_ns=1_000, pipeline_latency_ns=400)
    hop_ns = 1_400  # marks from round r land exactly on round r+1's timestamp

    def traffic():
        rounds = max(1, events // 3)
        for r in range(rounds):
            t = r * hop_ns
            # edge switches always ping toward the middle; the link 2-1
            # crosses the {0,1} | {2} shard boundary
            yield (t, 0, EventInstance("ping", (r + 1, 0, 1)))
            yield (t, 2, EventInstance("ping", (r + 1, 2, 1)))
            if r % 2 == 0:
                # middle pings across the boundary on even rounds only, so
                # odd rounds leave switch 1's claim to the two marks alone
                yield (t, 1, EventInstance("ping", (r + 1, 1, 2)))

    return ScenarioSetup(
        topology=topology,
        make_network=lambda engine: topology.build_network(
            _TIEBREAK_APP, config=config, engine=engine, name="tiebreak"
        ),
        traffic=traffic,
        invariants=[],
        settle_ns=10_000,
    )


@fork_only
def test_simultaneous_cross_boundary_events_keep_tiebreak_order():
    scenario = Scenario(
        name="_test-shard-tiebreak",
        title="tie-break parity fixture",
        app_key="CM",  # unused: build() compiles its own program text
        topology="line-3",
        description="simultaneous cross-boundary collisions every round",
        build=_build_tiebreak,
    )
    register(scenario)
    try:
        plan = partition_topology(topo.line(3, latency_ns=1_000), 2)
        assert plan.shards == [[0, 1], [2]]
        single = run_scenario(scenario, 120, seed=11, engine="codegen")
        sharded = run_sharded(scenario, 120, seed=11, num_shards=2,
                              engine="codegen")
        _assert_parity(single, sharded)
        # sanity: the fixture actually contested both tie modes.  Re-run the
        # drain directly and read the middle switch's claim counters: its own
        # external pings won the even rounds (source beats heap), switch 0's
        # marks won the odd rounds (lower origin key beats switch 2's marks).
        setup = _build_tiebreak(120, 11)
        network = setup.make_network("codegen")
        items = list(setup.traffic())
        network.run(source=iter(items),
                    until_ns=max(t for t, _, _ in items) + setup.settle_ns)
        wins = network.switches[1].runtime.arrays["wins"].cells
        assert wins[0] > 0 and wins[1] > 0, f"uncontested fixture: {wins}"
        assert wins[2] == 0, f"origin-2 marks beat origin-0 marks: {wins}"
    finally:
        SCENARIOS.pop(scenario.name, None)


# ---------------------------------------------------------------------------
# satellites: picklability and reset hygiene
# ---------------------------------------------------------------------------
def test_switch_stats_round_trips_through_dict_and_pickle():
    stats = SwitchStats()
    stats.events_handled = 7
    stats.events_generated = 3
    stats.handled_by_event["pkt"] = 7
    clone = SwitchStats.from_dict(stats.to_dict())
    assert clone.to_dict() == stats.to_dict()
    pickled = pickle.loads(pickle.dumps(stats))
    assert pickled.to_dict() == stats.to_dict()


def test_scenario_result_round_trips_through_dict_and_pickle():
    result = run_scenario(get("heavy-hitter-single"), 500, seed=2,
                          engine="codegen")
    clone = ScenarioResult.from_dict(result.to_dict())
    assert clone.verdict_signature() == result.verdict_signature()
    assert clone.scenario == result.scenario
    assert clone.events_handled == result.events_handled
    assert clone.ok == result.ok
    pickled = pickle.loads(pickle.dumps(result))
    assert pickled.verdict_signature() == result.verdict_signature()
    assert pickled.switch_stats == result.switch_stats


def test_reset_detaches_tracer_and_profiler():
    scenario = get("heavy-hitter-single")
    setup = scenario.build(200, 1)
    network = setup.make_network("codegen")
    network.tracer = object()
    network.profiler = object()
    network.on_handle = lambda entry: None
    network.reset()
    assert network.tracer is None
    assert network.profiler is None
    assert network.on_handle is None
    for switch in network.switches.values():
        assert switch.origin_seq == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
@fork_only
def test_cli_shards_flag_runs_and_agrees(capsys):
    from repro.scenarios.__main__ import main

    assert main(["run", "heavy-hitter-fattree", "--events", "600",
                 "--shards", "2"]) == 0
    sharded_out = capsys.readouterr().out
    assert main(["run", "heavy-hitter-fattree", "--events", "600"]) == 0
    single_out = capsys.readouterr().out
    digest = [line for line in single_out.splitlines() if "digest" in line]
    assert digest and digest[0].split("digest ")[1].split()[0] in sharded_out


def test_cli_shards_rejects_profile_and_multi_engine(capsys):
    from repro.scenarios.__main__ import main

    assert main(["run", "heavy-hitter-fattree", "--events", "100",
                 "--shards", "2", "--profile"]) == 2
    assert main(["run", "heavy-hitter-fattree", "--events", "100",
                 "--shards", "2", "--all-engines"]) == 2
