"""The shard worker: one process, one subset of a scenario's switches.

Each worker rebuilds the scenario from the registry (name + events + seed —
deterministic, so no closures cross the process boundary), filters the full
traffic stream down to the switches it owns (keeping *every* CONTROL action,
since link state is global), and then executes barrier windows on command
from the coordinator: deliver the peers' events, drain up to the window end
with the ordinary streaming drain, and ship back the heap entries that
window left queued for switches another shard owns (:func:`_take_foreign`).
The worker's network is an ordinary one — it holds every switch and knows
nothing of shards.

For scenarios with observing invariants the worker also records each
dispatch's ``(time, tie-break key)`` plus the fields those invariants read
(event name/args, forwarded port, drop flag); the coordinator sorts the
records from all shards into the exact single-process dispatch order and
replays them through fresh invariant instances.
"""

from __future__ import annotations

import heapq
import traceback
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.interp.network import CONTROL, GEN_KEY_SHIFT, Network, SourceItem, Switch
from repro.records import record


@record
class ShardSpec:
    """Everything a worker needs to rebuild and run its shard (picklable)."""

    scenario: str
    events: int
    seed: int
    engine: str
    shard_index: int
    owned: Tuple[int, ...]
    #: record per-dispatch observation tuples for invariant replay
    record_obs: bool = False


class ShardSource:
    """This shard's slice of the traffic stream, tagged with each item's
    *global* stream index (the deterministic tie-break key for source-
    delivered dispatches).  Implements the ``push_back`` hook so interrupted
    windows hold their place, exactly like the service-mode cursor."""

    def __init__(self, items: List[Tuple[int, SourceItem]]):
        self._items = items
        self._pos = 0
        self._pushed: Optional[Tuple[int, SourceItem]] = None
        #: global stream index of the most recently yielded item
        self.last_index = -1

    def __iter__(self) -> "ShardSource":
        return self

    def __next__(self) -> SourceItem:
        if self._pushed is not None:
            idx, item = self._pushed
            self._pushed = None
        else:
            if self._pos >= len(self._items):
                raise StopIteration
            idx, item = self._items[self._pos]
            self._pos += 1
        self.last_index = idx
        return item

    def push_back(self, item: SourceItem) -> None:
        # the drain only ever returns the item it pulled last
        self._pushed = (self.last_index, item)

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next item, or None when exhausted."""
        if self._pushed is not None:
            return self._pushed[1][0]
        if self._pos < len(self._items):
            return self._items[self._pos][1][0]
        return None


def _take_foreign(network: Network, foreign: Sequence[Switch]) -> List[tuple]:
    """Move the heap entries bound for the ``foreign`` switches (those other
    shards own) out of ``network``'s heap and return them, the same
    ``(time, key, switch, event)`` tuples, for their owners to queue.

    The lookahead makes every such entry due after the window that queued
    it, so a foreign switch that ran was handed an event inside the window,
    and an injected (external-key) entry for one was queued by its owner
    too: both come from a CONTROL action's ``inject()``, which every shard
    runs, and both are errors rather than a silently wrong run.  Entries
    for a switch id no shard owns stay: the drain skips and counts them, as
    in one process."""
    for switch in foreign:
        if switch.stats.events_handled:
            raise SimulationError(
                f"switch {switch.id} handled an event in a shard that does not "
                f"own it: an event reached it inside the barrier window (a "
                f"CONTROL action's inject(), or a send shorter than the lookahead)")
    queue = network._queue
    foreign_ids = {switch.id for switch in foreign}
    batch = [entry for entry in queue if entry[2] in foreign_ids]
    if batch:
        queue[:] = [entry for entry in queue if entry[2] not in foreign_ids]
        heapq.heapify(queue)
        for time_ns, key, switch_id, _ in batch:
            if key < 1 << GEN_KEY_SHIFT:
                raise SimulationError(
                    f"an event injected for switch {switch_id} at {time_ns} ns is "
                    f"queued in a shard that does not own it: CONTROL actions "
                    f"run on every shard and must not inject()")
    return batch


def _worker_loop(conn, spec: ShardSpec) -> None:
    # imported here so a spawned child only pays for what it uses
    from repro.scenarios import registry

    t0 = perf_counter()
    scenario = registry.get(spec.scenario)
    setup = scenario.build(spec.events, spec.seed)
    network = setup.make_network(spec.engine)
    if setup.prepare is not None:
        setup.prepare(network)
    network.trace_enabled = False
    owned = frozenset(spec.owned)
    foreign = [switch for sid, switch in network.switches.items() if sid not in owned]

    t1 = perf_counter()
    items: List[Tuple[int, SourceItem]] = []
    last_ns = 0
    injected = 0
    for idx, item in enumerate(setup.traffic()):
        if item[0] > last_ns:
            last_ns = item[0]
        sid = item[1]
        if sid == CONTROL:
            # link state is global: every shard replays every control action
            items.append((idx, item))
        elif sid in owned:
            injected += 1
            items.append((idx, item))
    source = ShardSource(items)
    t2 = perf_counter()

    records: List[tuple] = []
    if spec.record_obs:

        def on_handle(entry, _records=records, _network=network, _source=source):
            key = _network._last_pop_key
            if key is None:
                kind, key = 0, _source.last_index
            else:
                kind = 1
            result = entry.result
            _records.append(
                (
                    entry.time_ns,
                    kind,
                    key,
                    entry.switch_id,
                    entry.event.name,
                    entry.event.args,
                    result.forwarded_port,
                    result.dropped,
                )
            )

        network.on_handle = on_handle

    conn.send(
        (
            "ready",
            {
                "last_ns": last_ns,
                "injected": injected,
                "next": source.peek_time(),
                "setup_s": t1 - t0,
                "traffic_s": t2 - t1,
            },
        )
    )

    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == "window":
            _, until_ns, incoming = msg
            for time_ns, key, switch_id, event in incoming:
                network.enqueue_remote(time_ns, key, switch_id, event)
            network.run(source=source, until_ns=until_ns)
            batch = _take_foreign(network, foreign)
            heap_next = network._queue[0][0] if network._queue else None
            src_next = source.peek_time()
            candidates = [t for t in (heap_next, src_next) if t is not None]
            conn.send(("window_done", batch, min(candidates) if candidates else None))
        elif cmd == "finish":
            snap = network.snapshot()
            conn.send(
                (
                    "finished",
                    {
                        "switches": {
                            str(sid): snap["switches"][str(sid)] for sid in spec.owned
                        },
                        "down_links": snap["down_links"],
                        "records": records,
                        "injected": injected,
                    },
                )
            )
            return
        else:
            raise RuntimeError(f"shard worker: unknown command {cmd!r}")


def worker_main(conn, spec: ShardSpec) -> None:
    """Process entry point (module-level, so the spawn start method can
    import it).  Any exception is reported to the coordinator instead of
    dying silently."""
    try:
        _worker_loop(conn, spec)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()
