"""Service-mode tests: snapshot/restore determinism, the replayable traffic
cursor, the on-disk checkpoint store, streaming invariants, telemetry, and
the serve loop (including resume and SIGTERM shutdown).

The load-bearing contract: a run interrupted *anywhere* — any engine, any
scenario, mid-stream, with the checkpoint written to and read back from the
on-disk store — and resumed into freshly built objects must be
byte-identical to the uninterrupted run in every deterministic observable;
a finished run restarted on its checkpoint directory returns its result
unchanged."""

import errno
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import SimulationError
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import CONTROL, Network, SNAPSHOT_VERSION
from repro.obs import REGISTRY, parse_text_exposition
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.invariants import (
    Invariant,
    capture_invariant_states,
    evaluate,
    restore_invariant_states,
)
from repro.scenarios.runner import network_array_digest, prepare_run
import repro.service.checkpoint as checkpoint
from repro.service.checkpoint import CheckpointStore, load_checkpoint, write_json
import repro.service.server as server
from repro.service.server import (
    ScenarioService,
    ServiceConfig,
    run_scenario_interrupted,
    soak_compare,
)
from repro.service.source import ReplayableSource
import repro.service.telemetry as telemetry_module
from repro.service.telemetry import TELEMETRY_SCHEMA_VERSION, TelemetryEmitter

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


def _result_fingerprint(result):
    """Every deterministic field of a ScenarioResult (wall-clock excluded)."""
    return (
        result.verdict_signature(),
        result.events_injected,
        result.events_handled,
        result.sim_ns,
        result.switch_stats,
    )


# ---------------------------------------------------------------------------
# the determinism contract, across the whole catalogue
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_interrupted_run_matches_straight_run(name):
    """Checkpoint mid-run to disk, restore into a fresh network + traffic
    stream + invariants, resume — identical result."""
    straight = run_scenario(SCENARIOS[name], 700, 3, engine="codegen")
    resumed = run_scenario_interrupted(
        SCENARIOS[name], 700, 3, engine="codegen", checkpoint_after=300
    )
    assert _result_fingerprint(resumed) == _result_fingerprint(straight)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize(
    "name", ["heavy-hitter-single", "rip-line-convergence", "reroute-leafspine-linkfail"]
)
def test_interrupted_run_matches_on_every_engine(name, engine):
    """Engine heterogeneity of the snapshot itself: the PISA engine carries
    extra queue/stage accounting, the interpreters none — all three must
    round-trip.  (Scenarios with delayed events, link-failure CONTROL
    actions, and self-perpetuating advertisement loops included.)"""
    cmp = soak_compare(SCENARIOS[name], 700, 3, engine=engine, checkpoint_after=250)
    assert cmp["match"], cmp["mismatches"]


def test_checkpoint_at_stream_exhaustion_resumes_cleanly(tmp_path):
    """A checkpoint taken exactly when the source runs dry, before the
    settle, must not send the resumed run into a full drain
    (self-perpetuating control loops would never return); it goes straight
    to the settle phase."""
    scenario = SCENARIOS["rip-line-convergence"]
    network, source = prepare_run(scenario.build(300, 3), "codegen")
    items = list(source)
    before_settle = network.run(source=items)
    straight = run_scenario(scenario, 300, 3, engine="codegen")
    assert straight.events_handled > before_settle

    def config(**overrides):
        return ServiceConfig(
            engine="codegen", seed=3, events=300, checkpoint_dir=str(tmp_path),
            telemetry_stream=io.StringIO(), **overrides,
        )

    first = ScenarioService(scenario, config(max_events=before_settle)).run()
    assert first.stopped
    assert load_checkpoint(first.checkpoint_path)["cursor"]["consumed"] == len(items)
    second = ScenarioService(scenario, config()).run()
    assert second.resumed_from == first.checkpoint_path
    assert _result_fingerprint(second.result) == _result_fingerprint(straight)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("name", ["rip-line-convergence", "heavy-hitter-single"])
def test_restarting_a_finished_serve_returns_its_result_unchanged(tmp_path, name, engine):
    """Resume is the default, so a finished serve started again on its
    checkpoint directory resumes from its final checkpoint: it must not
    settle a second window (RIP's advertisement rounds would run on)."""
    config = ServiceConfig(
        engine=engine, seed=3, events=600, checkpoint_dir=str(tmp_path),
        telemetry_stream=io.StringIO(),
    )
    first = ScenarioService(SCENARIOS[name], config).run()
    again = ScenarioService(SCENARIOS[name], config).run()
    assert again.resumed_from == first.checkpoint_path
    for outcome in (first, again):
        assert not outcome.stopped
    assert again.handled == first.handled
    assert _result_fingerprint(again.result) == _result_fingerprint(first.result)
    assert again.result.events_per_sec == 0


# ---------------------------------------------------------------------------
# Network.snapshot / Network.restore
# ---------------------------------------------------------------------------
def _relay_network():
    network = Network()
    for sid, engine in enumerate(["reference", "codegen", "pisa"]):
        network.add_switch(sid, RELAY, engine=engine)
    for sid in range(3):
        network.add_link(sid, (sid + 1) % 3)
    for i in range(30):
        network.inject(i % 3, EventInstance("pkt", (i % 8, 5)), at_ns=i * 1_000)
    return network


def test_heterogeneous_network_snapshot_roundtrip_mid_run():
    """A mixed reference/codegen/pisa network checkpointed mid-run (pending
    heap events, engine-side pipeline counters) restores into a fresh mixed
    network and finishes identically to the uninterrupted original."""
    interrupted = _relay_network()
    interrupted.run(max_events=40)
    assert interrupted.pending_events() > 0
    state = json.loads(json.dumps(interrupted.snapshot()))

    fresh = _relay_network()
    fresh._queue.clear()  # restore replaces the pre-injected queue anyway
    fresh.restore(state)
    fresh.run()

    straight = _relay_network()
    straight.run()
    assert network_array_digest(fresh) == network_array_digest(straight)
    assert fresh.now_ns == straight.now_ns
    for sid in range(3):
        assert fresh.switches[sid].stats == straight.switches[sid].stats
    assert fresh.stats() == straight.stats()


def test_codegen_snapshot_roundtrip_byte_identical():
    """Checkpoint/restore on the codegen engine: the generated modules bind
    array cell lists by identity, so an in-place restore must leave the
    running handlers reading the restored state — the resumed run's snapshot
    must be byte-identical to the uninterrupted run's."""
    def build():
        network = Network(engine="codegen")
        for sid in range(3):
            network.add_switch(sid, RELAY)
            network.add_link(sid, (sid + 1) % 3)
        for i in range(30):
            network.inject(i % 3, EventInstance("pkt", (i % 8, 5)), at_ns=i * 1_000)
        return network

    interrupted = build()
    interrupted.run(max_events=40)
    assert interrupted.pending_events() > 0
    state = json.loads(json.dumps(interrupted.snapshot()))

    fresh = build()
    fresh._queue.clear()
    fresh.restore(state)
    fresh.run()

    straight = build()
    straight.run()
    assert json.dumps(fresh.snapshot(), sort_keys=True) == json.dumps(
        straight.snapshot(), sort_keys=True
    )
    assert network_array_digest(fresh) == network_array_digest(straight)


BURST = """
global count = new Array<<32>>(4);
memop plus(int stored, int x) { return stored + x; }
event burst();
event sub();
handle burst() {
  generate sub(); generate sub(); generate sub(); generate Event.delay(sub(), 250us);
}
handle sub() { Array.set(count, 0, plus, 1); }
"""


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_recirculation_queue_counters_survive_a_checkpoint(engine):
    """The queue depth is scheduler state: a snapshot taken with local events
    in flight restores it, whatever engine runs the handlers."""
    def build():
        network = Network(engine=engine)
        network.add_switch(0, BURST)
        network.inject(0, EventInstance("burst", ()))
        return network

    interrupted = build()
    interrupted.run(max_events=2)  # burst and one sub: three subs still in flight
    assert interrupted.switches[0].stats.queue_depth == 3
    state = json.loads(json.dumps(interrupted.snapshot()))
    assert state["version"] == SNAPSHOT_VERSION == 3
    assert state["switches"]["0"]["stats"]["queue_depth"] == 3

    resumed = build()
    resumed.restore(state)
    resumed.run()
    straight = build()
    straight.run()
    stats = resumed.switches[0].stats
    assert stats == straight.switches[0].stats
    assert (stats.queue_depth, stats.peak_queue_depth, stats.recirculated_events) == (0, 4, 4)
    assert stats.recirculations == 3 + 3  # 250 us parked over three releases

    # version 2 kept a pisa run's queue depth in engine_state: refused, not half-read
    with pytest.raises(SimulationError, match="unsupported snapshot version 2"):
        build().restore({**state, "version": 2})


def test_snapshot_refuses_control_actions_in_heap():
    network = _relay_network()
    network._push(50, CONTROL, lambda net: None)
    with pytest.raises(SimulationError, match="CONTROL"):
        network.snapshot()


def test_restore_validates_before_mutating():
    network = _relay_network()
    network.run(max_events=10)
    good = network.snapshot()

    with pytest.raises(SimulationError, match="not a network snapshot"):
        network.restore({"format": "something-else"})
    with pytest.raises(SimulationError, match="version"):
        network.restore({**good, "version": SNAPSHOT_VERSION + 1})

    missing_switch = json.loads(json.dumps(good))
    del missing_switch["switches"]["2"]
    with pytest.raises(SimulationError, match="switch set"):
        network.restore(missing_switch)

    wrong_engine = json.loads(json.dumps(good))
    wrong_engine["switches"]["0"]["engine"] = "pisa"
    with pytest.raises(SimulationError, match="engine"):
        network.restore(wrong_engine)

    wrong_shape = json.loads(json.dumps(good))
    wrong_shape["switches"]["1"]["arrays"]["hits"]["cells"] = [0, 0]
    with pytest.raises(SimulationError, match="cells"):
        network.restore(wrong_shape)

    # none of the failed restores touched the network
    assert network.snapshot() == good


def test_interpreter_engines_refuse_foreign_engine_state():
    network = Network(engine="codegen")
    network.add_switch(0, RELAY)
    with pytest.raises(SimulationError):
        network.switches[0].engine.restore_state({"events": 3})


# ---------------------------------------------------------------------------
# ReplayableSource
# ---------------------------------------------------------------------------
def _plain_stream(n=100):
    for i in range(n):
        yield (i * 1_000, 0, EventInstance("pkt", (i % 8, 0)))


def test_replayable_source_counts_and_skips():
    items = lambda: _plain_stream(20)  # noqa: E731
    a = ReplayableSource(items)
    consumed = [next(a) for _ in range(7)]
    assert a.consumed == 7 and a.injected == 7 and a.last_ns == 6_000
    cursor = a.cursor()

    b = ReplayableSource(items).skip(cursor["consumed"])
    assert b.cursor() == cursor
    assert next(b) == next(a)  # identical remainders


def test_replayable_source_push_back_excluded_from_cursor():
    a = ReplayableSource(lambda: _plain_stream(5))
    next(a)
    held = next(a)
    a.push_back(held)
    assert a.cursor()["consumed"] == 1  # the held item is not yet delivered
    assert next(a) is held  # re-delivered, not re-counted
    assert a.cursor()["consumed"] == 2
    assert a.peek() is not None


def test_replayable_source_control_items_not_injected():
    def stream():
        yield (0, 0, EventInstance("pkt", (0, 0)))
        yield (5, CONTROL, lambda net: None)
        yield (9, 0, EventInstance("pkt", (1, 0)))

    src = ReplayableSource(stream)
    list(src)
    assert src.consumed == 3 and src.injected == 2 and src.last_ns == 9
    assert src.peek() is None


def test_replayable_source_errors():
    with pytest.raises(SimulationError, match="ended after"):
        ReplayableSource(lambda: _plain_stream(3)).skip(10)
    used = ReplayableSource(lambda: _plain_stream(3))
    next(used)
    with pytest.raises(SimulationError, match="freshly built"):
        used.skip(1)


def test_replayable_source_refuses_time_going_backwards():
    items = [
        (0, 0, EventInstance("pkt", (0, 0))),
        (5, 0, EventInstance("pkt", (1, 0))),
        (5, CONTROL, lambda net: None),  # a tie is not backwards
        (3, 0, EventInstance("pkt", (2, 0))),
    ]
    src = ReplayableSource(items)
    for _ in range(3):
        next(src)
    with pytest.raises(SimulationError, match=r"item 3 is at 3 ns, after an item at 5 ns"):
        next(src)
    with pytest.raises(SimulationError, match="backwards"):
        ReplayableSource(items).skip(4)


# ---------------------------------------------------------------------------
# CheckpointStore
# ---------------------------------------------------------------------------
def _dummy_checkpoint(handled):
    return {
        "format": "repro-service-checkpoint",
        "version": 1,
        "scenario": "s",
        "engine": "codegen",
        "seed": 1,
        "events": 100,
        "handled": handled,
        "cursor": {"consumed": handled, "injected": handled, "last_ns": handled},
        "network": {},
        "invariants": [],
    }


def test_checkpoint_store_rolls_and_prunes(tmp_path):
    store = CheckpointStore(tmp_path / "ck", keep=2)
    assert store.latest() is None
    for handled in (10, 200, 35, 4000):
        store.save(_dummy_checkpoint(handled))
    names = [p.name for p in store.paths()]
    assert len(names) == 2  # pruned to keep=2
    assert store.latest().name.endswith(f"{4000:015d}.json")
    assert store.load()["handled"] == 4000
    assert not list((tmp_path / "ck").glob("*.tmp"))  # atomic writes


def test_checkpoint_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """``os.replace`` is durable only once the directory entry is synced: a
    save fsyncs the file, renames it, then fsyncs the directory."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = CheckpointStore(tmp_path / "ck").save(_dummy_checkpoint(7))
    assert synced == [path.stat().st_ino, (tmp_path / "ck").stat().st_ino]


def test_prune_removes_temp_files_left_by_a_killed_save(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    stale = tmp_path / f"checkpoint-{10**6:015d}.json.tmp"
    stale.write_text('{"format": "repro-service-checkpoint", "vers')
    store.save(_dummy_checkpoint(5))
    assert not stale.exists()
    assert [p.name for p in store.paths()] == [f"checkpoint-{5:015d}.json"]


def test_checkpoint_store_validates(tmp_path):
    store = CheckpointStore(tmp_path, keep=1)
    with pytest.raises(SimulationError, match="not a service checkpoint"):
        store.save({"format": "nope"})
    bad = tmp_path / "checkpoint-bad.json"
    bad.write_text(json.dumps({"format": "repro-service-checkpoint", "version": 99}))
    with pytest.raises(SimulationError, match="version"):
        load_checkpoint(bad)
    incomplete = dict(_dummy_checkpoint(1))
    del incomplete["cursor"]
    with pytest.raises(SimulationError, match="missing"):
        store.save(incomplete)


def _written(value):
    pieces = []
    write_json(pieces.append, value)
    return "".join(pieces)


SLICE = checkpoint.SLICE


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}},
    list(range(SLICE)), list(range(SLICE + 1)), list(range(2 * SLICE + 1)),
    [[i, i + 1] for i in range(SLICE + 1)],
    tuple((i, -i) for i in range(SLICE)),
    [None, {"x": list(range(SLICE + 1))}, None, {}],
    {1: "one", None: 0, True: 1, False: [], 2.5: None, -7: {}},
    {"n": None, "t": True, "f": False, "x": 1.5, "big": 2**70, "neg": -0.0},
    [0.1, 1e300, float("inf"), float("-inf"), float("nan")],
    ["é\n\"", "\u2603", ""],
    None, True, 0, 3.25, "s",
], ids=lambda value: type(value).__name__)
def test_write_json_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, separators=(",", ":"))


def test_write_json_refuses_keys_json_refuses():
    with pytest.raises(TypeError):
        _written({(1, 2): 0})


def test_checkpoint_files_are_json_dumps_of_the_state(tmp_path, monkeypatch):
    """The bytes on disk of a real run's checkpoints are those of one
    ``json.dumps`` of the state, also when every list crosses slices."""
    states = []
    save = CheckpointStore.save

    def capturing_save(self, state):
        states.append(state)
        return save(self, state)

    monkeypatch.setattr(CheckpointStore, "save", capturing_save)
    config = ServiceConfig(
        engine="codegen", seed=1, events=3_000, checkpoint_dir=str(tmp_path),
        checkpoint_every=1_000, keep_checkpoints=10, chunk_events=500,
        telemetry_stream=io.StringIO(),
    )
    ScenarioService(SCENARIOS["dfw-ring-roaming"], config).run()
    paths = CheckpointStore(tmp_path).paths()
    assert len(states) == len(paths) >= 3
    assert any(inv and inv.get("outbound") for inv in states[-1]["invariants"])
    for state, path in zip(states, paths):
        assert path.read_text() == json.dumps(state, separators=(",", ":"))
    monkeypatch.setattr(checkpoint, "SLICE", 3)
    for state in states:
        assert _written(state) == json.dumps(state, separators=(",", ":"))


@pytest.mark.parametrize("content, reason", [
    (b'{"format": "repro-service-checkpoint", "vers', "truncated or corrupt"),
    (b"\xff\xfe{}", "truncated or corrupt"),
    (b"[1, 2]", "not a JSON object"),
])
def test_load_checkpoint_refuses_undecodable_files(tmp_path, content, reason):
    path = tmp_path / "checkpoint-000000000000001.json"
    path.write_bytes(content)
    with pytest.raises(SimulationError, match=reason) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)


def _serve_config(ck, **overrides):
    return ServiceConfig(
        engine="codegen", seed=5, events=2_000, checkpoint_dir=str(ck),
        checkpoint_every=400, keep_checkpoints=3, telemetry_every=500,
        chunk_events=200, telemetry_stream=io.StringIO(), **overrides,
    )


def test_truncated_latest_checkpoint_is_refused_and_older_ones_kept(tmp_path):
    scenario = SCENARIOS["nat-churn"]
    ScenarioService(scenario, _serve_config(tmp_path, max_events=1_300)).run()
    *older, newest = CheckpointStore(tmp_path).paths()
    assert older
    before = {path: path.read_bytes() for path in older}
    data = newest.read_bytes()
    newest.write_bytes(data[: len(data) // 2])
    with pytest.raises(SimulationError, match="truncated") as caught:
        ScenarioService(scenario, _serve_config(tmp_path, resume=True)).run()
    assert str(newest) in str(caught.value)
    assert {path: path.read_bytes() for path in older} == before


def test_kill_between_tmp_write_and_rename_resumes_from_last_complete(tmp_path):
    """A run killed after writing ``checkpoint-<n>.json.tmp`` but before
    renaming it leaves that file behind: the store ignores it, resume
    continues from the last complete checkpoint to the batch run's verdict,
    and the resumed run's first save deletes it."""
    scenario = SCENARIOS["nat-churn"]
    first = ScenarioService(scenario, _serve_config(tmp_path, max_events=900)).run()
    store = CheckpointStore(tmp_path)
    complete = store.latest()
    assert str(complete) == first.checkpoint_path
    text = complete.read_text()
    tmp = tmp_path / f"checkpoint-{10**6:015d}.json.tmp"
    tmp.write_text(text[: len(text) // 2])
    assert store.latest() == complete

    second = ScenarioService(scenario, _serve_config(tmp_path)).run()
    assert second.resumed_from == str(complete)
    assert not tmp.exists()  # its first save pruned the leftover
    straight = run_scenario(scenario, 2_000, 5, engine="codegen")
    assert second.result.verdict_signature() == straight.verdict_signature()


def test_a_full_disk_on_telemetry_flush_stops_the_serve_and_keeps_its_checkpoint(tmp_path):
    """A telemetry sink whose ``flush`` fails with ``ENOSPC`` after four
    records stops the serve with that error; the newest checkpoint is whole,
    and a serve resumed from it finishes as the straight run does."""

    class FullDisk(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1
            if self.flushes > 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    scenario = SCENARIOS["nat-churn"]

    def config(stream):
        return ServiceConfig(
            engine="codegen", seed=1, events=6_000, checkpoint_dir=str(tmp_path),
            checkpoint_every=1_000, telemetry_every=500, chunk_events=250,
            telemetry_stream=stream,
        )

    with pytest.raises(OSError) as caught:
        ScenarioService(scenario, config(FullDisk())).run()
    assert caught.value.errno == errno.ENOSPC
    newest = CheckpointStore(tmp_path).latest()
    assert load_checkpoint(newest)["handled"] > 0
    resumed = ScenarioService(scenario, config(io.StringIO())).run()
    assert resumed.resumed_from == str(newest)
    assert resumed.result.array_digest == "214fca95"
    straight = run_scenario(scenario, 6_000, 1, engine="codegen")
    assert resumed.result.verdict_signature() == straight.verdict_signature()


# ---------------------------------------------------------------------------
# streaming invariants
# ---------------------------------------------------------------------------
def test_streaming_only_evaluation_skips_settle_invariants():
    scenario = SCENARIOS["rip-line-convergence"]
    setup = scenario.build(200, 1)
    # rip-converged is settle-only: mid-run distances are legitimately in flux
    assert any(not inv.streaming for inv in setup.invariants)
    network = setup.make_network("codegen")
    if setup.prepare is not None:
        setup.prepare(network)
    for inv in setup.invariants:
        inv.reset(network, setup.topology)
    streaming = evaluate(setup.invariants, network, streaming_only=True)
    full = evaluate(setup.invariants, network)
    assert len(streaming) < len(full)


@pytest.mark.parametrize("every", [50, 200])
def test_a_serve_reads_no_mid_run_dns_violation_while_the_source_pulls_ahead(every):
    """The source pulls its traffic up to a chunk ahead of the drain, and
    ``dns-victim-blocked`` counts reflected responses as they are emitted:
    it is settle-only, so a serve judging the streaming invariants every
    ``every`` handled events writes no mid-run violation."""
    stream = io.StringIO()
    config = ServiceConfig(engine="codegen", seed=1, events=6_000,
                           telemetry_every=every, chunk_events=every,
                           telemetry_stream=stream)
    outcome = ScenarioService(SCENARIOS["dns-reflection"], config).run()
    assert outcome.result.ok
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    mid_run = [record for record in records if record["phase"] == "run"]
    assert mid_run
    assert [report for record in mid_run for report in record["invariants"]
            if not report["ok"]] == []


def test_observing_invariant_without_snapshot_support_is_refused():
    class Watcher(Invariant):
        name = "watcher"

        def observe(self, entry):
            pass

    with pytest.raises(SimulationError, match="snapshot_state"):
        capture_invariant_states([Watcher()])


def test_restore_invariant_states_length_checked():
    with pytest.raises(SimulationError, match="invariant states"):
        restore_invariant_states([Invariant()], [None, None])


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------
def test_telemetry_emitter_schema():
    lines = []
    for engine in ("pisa", "codegen"):
        network = Network(engine=engine)
        network.add_switch(0, RELAY)
        network.inject(0, EventInstance("pkt", (0, 3)), at_ns=0)
        network.run()
        out = io.StringIO()
        emitter = TelemetryEmitter(out, "relay", engine, seed=1)
        emitter.emit(network, handled_total=4, injected_total=1, phase="run")
        emitter.emit(network, handled_total=4, injected_total=1, phase="final",
                     invariants=[], extra={"ok": True})
        lines += [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 4
    for record in lines:
        assert record["schema_version"] == TELEMETRY_SCHEMA_VERSION == 2
        assert record["scenario"] == "relay"
        assert record["events_handled"] == 4
        # schema v2: the generate-statement total rides along
        assert record["events_generated"] == network.total_stats().events_generated
        # the scheduler keeps the queue depths, so every engine reports them
        assert (record["queue_depth"], record["peak_queue_depth"]) == (0, 0)
    assert lines[0]["phase"] == lines[2]["phase"] == "run"
    assert lines[1]["phase"] == lines[3]["phase"] == "final" and lines[3]["ok"] is True


def test_resumed_serve_rates_count_only_this_process(tmp_path, monkeypatch):
    """The record a resumed serve writes on restore reads 0 events/s, and the
    next record's rate counts only the events handled after the restore —
    not the restored cumulative total."""
    scenario = SCENARIOS["nat-churn"]
    first = ScenarioService(scenario, _serve_config(tmp_path, max_events=900)).run()
    assert first.stopped

    class OneSecondTicks:  # every clock read is one second after the last
        now = 0.0

        def perf_counter(self):
            self.now += 1.0
            return self.now

    monkeypatch.setattr(telemetry_module, "time", OneSecondTicks())
    stream = io.StringIO()
    config = _serve_config(tmp_path, max_events=1_500)
    config.telemetry_stream = stream
    ScenarioService(scenario, config).run()
    resumed, following = [json.loads(line) for line in stream.getvalue().splitlines()[:2]]
    assert resumed["resumed_from"] == first.checkpoint_path
    assert resumed["events_handled"] == first.handled > 0
    assert resumed["events_per_sec"] == 0
    assert following["events_handled"] > first.handled
    assert following["events_per_sec"] == following["events_handled"] - first.handled


def test_serve_flushes_buffered_telemetry_before_final_checkpoint(tmp_path, monkeypatch):
    """Every run record is in the sink *before* the final checkpoint save of
    a stopped serve — a SIGTERM loses no record — and the stopped-path record
    is in it before the loop returns."""
    scenario = SCENARIOS["nat-churn"]
    stream = io.StringIO()
    config = ServiceConfig(
        engine="codegen", seed=5, events=2_000,
        checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=10**9,
        telemetry_every=200, chunk_events=100, max_events=900,
        telemetry_stream=stream,
    )
    lines_at_save = []
    real_save = CheckpointStore.save

    def spy_save(self, payload):
        lines_at_save.append(stream.getvalue().count("\n"))
        return real_save(self, payload)

    monkeypatch.setattr(CheckpointStore, "save", spy_save)
    outcome = ScenarioService(scenario, config).run()
    assert outcome.stopped
    # 900 handled / telemetry_every=200 -> 4 run records, all written
    # before the one and only (final) checkpoint save
    assert lines_at_save == [4]
    # ... and the stopped-path record itself is flushed before returning
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(records) == 5
    assert records[-1]["phase"] == "checkpoint" and records[-1]["stopped"] is True


def test_serve_metrics_dump_request(capsys, monkeypatch):
    """``request_metrics_dump`` (the SIGUSR1 handler) makes the serve loop
    print the global registry's Prometheus exposition to stderr — the
    ``repro_network_*`` instruments ``run --metrics`` prints — and their
    values are the serve network's ledger at the dump point, with obs
    disabled."""
    scenario = SCENARIOS["heavy-hitter-single"]
    config = ServiceConfig(
        engine="codegen", seed=1, events=2_000, telemetry_every=500,
        chunk_events=250, max_events=1_000, telemetry_stream=io.StringIO(),
    )
    service = ScenarioService(scenario, config)
    emit = TelemetryEmitter.emit
    at_dump = []

    def emit_then_request(self, network, *args, **kwargs):
        record = emit(self, network, *args, **kwargs)
        if not at_dump:
            service.request_metrics_dump()  # mid-run, after 500 handled
        return record

    real_watch = server.watch_metrics

    def watch_and_capture(network):
        at_dump.append((network.total_stats(), network.now_ns))
        real_watch(network)

    monkeypatch.setattr(TelemetryEmitter, "emit", emit_then_request)
    monkeypatch.setattr(server, "watch_metrics", watch_and_capture)
    REGISTRY.reset()
    try:
        outcome = service.run()
    finally:
        REGISTRY.reset()
    assert outcome.stopped
    assert not service.metrics_dump_requested and not REGISTRY.enabled
    err = capsys.readouterr().err
    assert "# TYPE repro_network_events_handled_total counter" in err
    (totals, now_ns), = at_dump
    assert totals.events_handled == 500
    parsed = parse_text_exposition(err)
    assert sum(parsed["repro_network_events_handled_total"].values()) == 500
    assert parsed["repro_engine_codegen_events_total"][()] == 500
    for metric, stat in (
        ("repro_network_events_generated_total", "events_generated"),
        ("repro_network_events_dropped_total", "drops"),
        ("repro_network_remote_sends_total", "remote_sends"),
        ("repro_network_recirculations_total", "recirculations"),
        ("repro_network_recirc_bytes_total", "recirculated_bytes"),
        ("repro_network_recirc_queue_depth", "peak_queue_depth"),
    ):
        assert parsed[metric][()] == getattr(totals, stat), metric
    assert parsed["repro_network_sim_time_ns"][()] == now_ns > 0


@pytest.mark.parametrize("chunk", [0, -1])
def test_service_config_rejects_empty_chunks(chunk):
    """A chunk of fewer than one event never advances the stream (each
    ``Network.run(max_events=0)`` returns 0), so the loop would spin."""
    with pytest.raises(SimulationError, match="chunk_events"):
        ServiceConfig(chunk_events=chunk)


# ---------------------------------------------------------------------------
# the serve loop
# ---------------------------------------------------------------------------
def test_service_stop_resume_matches_batch_run(tmp_path):
    """A service stopped mid-stream (max_events), then a second service
    resuming from its on-disk checkpoint, must finish with the exact result
    of the one-shot batch runner."""
    scenario = SCENARIOS["nat-churn"]
    ck = str(tmp_path / "ck")

    def config(**overrides):
        return ServiceConfig(
            engine="codegen", seed=5, events=2_000, checkpoint_dir=ck,
            checkpoint_every=600, telemetry_every=500, chunk_events=150,
            telemetry_stream=io.StringIO(), **overrides,
        )

    first = ScenarioService(scenario, config(max_events=900)).run()
    assert first.stopped and first.checkpoint_path is not None
    assert first.result is None

    second = ScenarioService(scenario, config()).run()
    assert not second.stopped
    assert second.resumed_from is not None
    straight = run_scenario(scenario, 2_000, 5, engine="codegen")
    assert _result_fingerprint(second.result) == _result_fingerprint(straight)
    # the rate counts only the events this process handled after the restore
    assert second.result.events_handled == second.handled
    assert second.result.events_per_sec == pytest.approx(
        (second.handled - first.handled) / second.result.wall_s)


def test_service_telemetry_and_rolling_checkpoints(tmp_path):
    scenario = SCENARIOS["heavy-hitter-single"]
    telemetry = io.StringIO()
    config = ServiceConfig(
        engine="codegen", seed=1, events=3_000, checkpoint_dir=str(tmp_path),
        checkpoint_every=800, keep_checkpoints=2, telemetry_every=600,
        chunk_events=200, telemetry_stream=telemetry,
    )
    outcome = ScenarioService(scenario, config).run()
    assert outcome.result is not None and outcome.result.ok
    records = [json.loads(line) for line in telemetry.getvalue().splitlines()]
    phases = {r["phase"] for r in records}
    assert {"run", "checkpoint", "settle", "final"} <= phases
    assert all(r["schema_version"] == TELEMETRY_SCHEMA_VERSION for r in records)
    # mid-run records carry streaming invariant verdicts
    assert any("invariants" in r for r in records if r["phase"] == "run")
    # rolling: pruned to keep=2
    assert len(list(tmp_path.glob("checkpoint-*.json"))) == 2


def test_service_refuses_mismatched_checkpoint(tmp_path):
    scenario = SCENARIOS["heavy-hitter-single"]
    base = dict(
        engine="codegen", events=1_000, checkpoint_dir=str(tmp_path),
        checkpoint_every=300, chunk_events=100, telemetry_stream=io.StringIO(),
    )
    ScenarioService(scenario, ServiceConfig(seed=1, max_events=400, **base)).run()
    with pytest.raises(SimulationError, match="seed"):
        ScenarioService(scenario, ServiceConfig(seed=2, **base)).run()


def test_checkpoints_of_the_retired_compiled_engine_are_refused_by_name(tmp_path):
    """A snapshot or serve checkpoint written when the closure engine
    existed names ``"engine": "compiled"``: resuming it must end in the
    engine-mismatch SimulationError, never a KeyError from the registry."""
    network = Network()
    network.add_switch(0, RELAY)
    old_snapshot = network.snapshot()
    old_snapshot["switches"]["0"]["engine"] = "compiled"
    with pytest.raises(SimulationError, match="snapshot engine 'compiled'"):
        network.restore(old_snapshot)

    scenario = SCENARIOS["heavy-hitter-single"]
    base = dict(
        seed=1, events=1_000, checkpoint_dir=str(tmp_path),
        checkpoint_every=300, chunk_events=100, telemetry_stream=io.StringIO(),
    )
    ScenarioService(scenario, ServiceConfig(max_events=400, **base)).run()
    latest = CheckpointStore(tmp_path).latest()
    state = json.loads(latest.read_text())
    state["engine"] = "compiled"
    for switch_state in state["network"]["switches"].values():
        switch_state["engine"] = "compiled"
    latest.write_text(json.dumps(state))
    with pytest.raises(SimulationError, match="engine='compiled'"):
        ScenarioService(scenario, ServiceConfig(**base)).run()


def test_service_request_stop_checkpoints_mid_stream(tmp_path):
    """request_stop() (the SIGTERM handler) ends the loop at the next chunk
    boundary with a valid, loadable checkpoint."""
    scenario = SCENARIOS["heavy-hitter-single"]
    config = ServiceConfig(
        engine="codegen", seed=1, events=50_000, checkpoint_dir=str(tmp_path),
        checkpoint_every=10**9, chunk_events=100, telemetry_stream=io.StringIO(),
    )
    service = ScenarioService(scenario, config)
    original_run = Network.run
    calls = []

    def counting_run(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            service.request_stop()  # as the signal handler would
        return original_run(self, *args, **kwargs)

    Network.run = counting_run
    try:
        outcome = service.run()
    finally:
        Network.run = original_run
    assert outcome.stopped
    state = load_checkpoint(outcome.checkpoint_path)
    assert state["handled"] == outcome.handled > 0


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="needs SIGTERM")
def test_serve_cli_sigterm_writes_checkpoint_and_resumes(tmp_path):
    """End to end through the CLI and a real signal: serve an unbounded
    stream, SIGTERM it, assert clean exit + checkpoint, then resume."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    ck = str(tmp_path / "ck")
    cmd = [
        sys.executable, "-m", "repro.scenarios", "serve", "heavy-hitter-single",
        "--unbounded", "--checkpoint-dir", ck, "--chunk", "500",
        "--checkpoint-every", "2000", "--telemetry-every", "2000",
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=repo,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(2.0)
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, stdout
    assert "stopped after" in stdout
    checkpoints = sorted(os.listdir(ck))
    assert checkpoints, "no checkpoint written on SIGTERM"
    state = load_checkpoint(os.path.join(ck, checkpoints[-1]))
    assert state["scenario"] == "heavy-hitter-single"

    resume = subprocess.run(
        cmd + ["--max-events", str(state["handled"] + 1_000)],
        env=env, cwd=repo, capture_output=True, text=True, timeout=60,
    )
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert "resumed from" in resume.stdout
