"""The shard coordinator: conservative-lookahead barrier execution.

One worker process per shard runs its switches with the ordinary streaming
drain; the coordinator grants lockstep *windows*.  A window starting at the
global minimum next-event time ``T`` extends to ``T + lookahead - 1``: the
lookahead (from :func:`repro.shard.partition.partition_topology`) is the
minimum simulated time any event needs to cross a shard boundary, so
nothing a peer does inside the window can land in it — an event one shard
generates for another arrives strictly after the window; the sender takes
it from its heap when the window ends, and it is queued at its owner before
the next window is granted.  This is the classic conservative parallel
discrete-event scheme (Chandy–Misra–Bryant lookahead, coordinator-mediated
instead of null messages), specialised to our fixed link latencies.

Determinism is byte-exact, not approximate: heap tie-break keys are
content-derived (``interp/network.py``), every shard replays every CONTROL
action, and the coordinator reconstructs the exact global dispatch order
from the workers' records to replay observing invariants.  The parity
tests pin ``--shards N`` against the single-process run for digests,
stats, and verdicts.

Known limits: invariants whose ``observe`` reads *live* array state (only
``DataPlaneBeatsRemote``, a single-switch scenario) cannot be replayed after
the fact, and a CONTROL action that ``inject()``s is a
:class:`SimulationError` (it runs on every shard, so the shards that do not
own its target would inject too); no bundled scenario does either on a
multi-switch topology.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.interp.engine import DEFAULT_ENGINE
from repro.interp.events import EventInstance
from repro.interp.network import (
    CONTROL,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Switch,
    TraceEntry,
)
from repro.scenarios.invariants import observer_callback
from repro.scenarios.runner import ScenarioResult, build_result, run_setup, settle_horizon
from repro.shard.partition import partition_topology
from repro.shard.worker import ShardSpec, worker_main


class _ReplayResult:
    """The slice of :class:`ExecutionResult` that observing invariants read,
    rebuilt from a worker's dispatch record."""

    __slots__ = ("forwarded_port", "dropped")

    def __init__(self, forwarded_port: Optional[int], dropped: bool):
        self.forwarded_port = forwarded_port
        self.dropped = dropped


def _mp_context():
    # fork is cheapest and inherits the imported interpreter; fall back to
    # spawn elsewhere (worker_main is module-level importable either way)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _recv(conn):
    msg = conn.recv()
    if msg[0] == "error":
        raise SimulationError(f"shard worker failed:\n{msg[1]}")
    return msg


def run_sharded(
    scenario,
    events: int,
    seed: int,
    num_shards: int,
    engine: str = DEFAULT_ENGINE,
    engines: Optional[Sequence[str]] = None,
) -> ScenarioResult:
    """Run a registered scenario partitioned over ``num_shards`` worker
    processes; returns a :class:`ScenarioResult` byte-identical (array
    digest, per-switch stats, invariant verdicts) to the single-process run
    on the same seed.

    ``engines`` optionally names one engine per shard (the PR 3
    heterogeneity at shard granularity); ``engine`` sets all shards at once.
    ``num_shards=1`` degenerates to the plain in-process runner.
    """
    if engines is not None:
        if len(engines) != num_shards:
            raise SimulationError(
                f"engines lists {len(engines)} names for {num_shards} shards"
            )
        shard_engines = list(engines)
    else:
        shard_engines = [engine] * num_shards
    if num_shards == 1:
        return run_setup(
            scenario.build(events, seed), scenario.name, seed,
            engine=shard_engines[0],
        )

    t0 = perf_counter()
    setup = scenario.build(events, seed)
    coord_engine = shard_engines[0]
    network = setup.make_network(coord_engine)
    if setup.prepare is not None:
        setup.prepare(network)
    network.trace_enabled = False
    plan = partition_topology(setup.topology, num_shards, network.config)
    # shards may run different engines: give the coordinator's merge target
    # the same per-switch engine mix so restore() accepts the snapshots
    for shard, engine_name in enumerate(shard_engines):
        if engine_name == coord_engine:
            continue
        for sid in plan.shards[shard]:
            old = network.switches[sid]
            network.switches[sid] = Switch(sid, old.runtime.checked, engine=engine_name,
                                           groups=old.runtime.groups)

    # one full pass over the traffic stream: the horizon must be known
    # before the first window (otherwise a window could overrun the settle
    # horizon and dispatch events the single-process run leaves queued),
    # and streaming the generator here also populates the traffic model's
    # side state (ground-truth counters) that settle-time invariants read.
    t1 = perf_counter()
    control_items: List[tuple] = []
    injected = 0
    last_ns = 0
    for idx, item in enumerate(setup.traffic()):
        if item[0] > last_ns:
            last_ns = item[0]
        if item[1] == CONTROL:
            control_items.append((idx, item[0], item[2]))
        else:
            injected += 1
    horizon = settle_horizon(setup, last_ns)
    t2 = perf_counter()

    record_obs = any(inv.observes() for inv in setup.invariants)

    ctx = _mp_context()
    workers = []
    try:
        for shard in range(num_shards):
            parent_conn, child_conn = ctx.Pipe()
            spec = ShardSpec(
                scenario=scenario.name,
                events=events,
                seed=seed,
                engine=shard_engines[shard],
                shard_index=shard,
                owned=tuple(plan.shards[shard]),
                record_obs=record_obs,
            )
            proc = ctx.Process(
                target=worker_main, args=(child_conn, spec), daemon=True
            )
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))

        nexts: List[Optional[int]] = [None] * num_shards
        worker_injected = 0
        for shard, (_, conn) in enumerate(workers):
            _, ready = _recv(conn)
            nexts[shard] = ready["next"]
            worker_injected += ready["injected"]
            if ready["last_ns"] != last_ns:
                raise SimulationError(
                    f"shard {shard} saw traffic ending at {ready['last_ns']} ns "
                    f"but the coordinator saw {last_ns} ns — the traffic stream "
                    f"is not seed-deterministic"
                )
        if worker_injected != injected:
            raise SimulationError(
                f"shards claim {worker_injected} injected events, coordinator "
                f"counted {injected} — the partition does not cover the stream"
            )
        setup_s = (t1 - t0) + (perf_counter() - t2)

        # -- the barrier loop ---------------------------------------------
        start = perf_counter()
        lookahead = plan.lookahead_ns
        pending: List[List[tuple]] = [[] for _ in range(num_shards)]
        rounds = 0
        while True:
            candidates = [t for t in nexts if t is not None]
            for buf in pending:
                for item in buf:
                    candidates.append(item[0])
            if not candidates:
                break
            window_start = min(candidates)
            if window_start > horizon:
                break
            until = min(window_start + lookahead - 1, horizon)
            for shard, (_, conn) in enumerate(workers):
                conn.send(("window", until, pending[shard]))
                pending[shard] = []
            for shard, (_, conn) in enumerate(workers):
                _, batch, nxt = _recv(conn)
                nexts[shard] = nxt
                for entry in batch:
                    pending[plan.owner[entry[2]]].append(entry)
            rounds += 1
        wall = perf_counter() - start

        # -- collect and merge --------------------------------------------
        for _, conn in workers:
            conn.send(("finish",))
        finals = [_recv(conn)[1] for _, conn in workers]
    finally:
        for proc, conn in workers:
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    switch_entries: Dict[str, dict] = {}
    for payload in finals:
        switch_entries.update(payload["switches"])
    handled = sum(
        entry["stats"]["events_handled"] for entry in switch_entries.values()
    )
    combined = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "now_ns": horizon,
        "serial": 0,
        "queue": [],
        # every shard executed every CONTROL action, so link state agrees
        "down_links": finals[0]["down_links"],
        "switches": switch_entries,
    }

    for inv in setup.invariants:
        inv.reset(network, setup.topology)
    _replay_observations(network, setup, control_items, finals)
    network.restore(combined)

    result = build_result(
        setup,
        scenario.name,
        seed,
        coord_engine if len(set(shard_engines)) == 1 else ",".join(shard_engines),
        network,
        events_injected=injected,
        events_handled=handled,
        wall_s=wall,
        setup_s=setup_s,
        traffic_s=t2 - t1,
    )
    result.details["shards"] = {
        "num_shards": num_shards,
        "lookahead_ns": plan.lookahead_ns,
        "barrier_rounds": rounds,
        "engines": list(shard_engines),
        "switches_per_shard": [len(s) for s in plan.shards],
        "host_cpus": os.cpu_count(),
    }
    return result


def _replay_observations(network, setup, control_items, finals) -> None:
    """Feed the observing invariants the exact single-process dispatch order.

    CONTROL actions (kind 0, keyed by global stream index) and recorded
    dispatches (kind 0 = source-delivered, keyed by stream index; kind 1 =
    heap-popped, keyed by the content-derived heap key) from every shard
    sort into one total order on ``(time, kind, key)`` — the same order the
    single-process drain dispatches in.  Control actions run against the
    coordinator network (their array/link effects are overwritten by the
    authoritative restore afterwards; what must survive is their invariant
    side channel, e.g. ``announce_failure``)."""
    callback = observer_callback(setup.invariants)
    entries: List[tuple] = []
    for idx, time_ns, fn in control_items:
        entries.append((time_ns, 0, idx, None, fn))
    if callback is not None:
        for payload in finals:
            for (time_ns, kind, key, sid, name, args, fwd, dropped) in payload[
                "records"
            ]:
                entries.append((time_ns, kind, key, sid, (name, args, fwd, dropped)))
    if not entries:
        return
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    for time_ns, kind, key, sid, payload in entries:
        if sid is None:
            network.now_ns = time_ns
            payload(network)
        else:
            name, args, fwd, dropped = payload
            callback(
                TraceEntry(
                    time_ns=time_ns,
                    switch_id=sid,
                    event=EventInstance(name, args),
                    result=_ReplayResult(fwd, dropped),
                )
            )
