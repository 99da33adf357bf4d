"""Topology partitioning and lookahead computation for sharded execution.

The partitioner maps every switch to a shard and derives the *lookahead*:
the minimum simulated time any event takes to cross a shard boundary.  A
shard that has seen all peer events ``<= T`` can therefore safely execute
its own events in ``[T, T + lookahead)`` — nothing a peer does in that
window can land inside it (conservative, null-message-free barrier; the
classic Chandy–Misra–Bryant bound specialised to our fixed link latencies).

The lookahead must be a *global* bound, not just the minimum over declared
cross-shard links: the simulated fabric is logically full-mesh (a handler
may generate an event for *any* switch, delivered at the default link
latency — see :meth:`Network.link_latency`), so the default latency always
participates in the minimum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.interp.network import SchedulerConfig
from repro.records import field, record
from repro.scenarios.topology import Topology


@record
class ShardPlan:
    """Switch-to-shard assignment plus the barrier lookahead."""

    num_shards: int
    #: switch id -> shard index
    owner: Dict[int, int]
    #: shard index -> sorted switch ids
    shards: List[List[int]] = field(default_factory=list)
    #: conservative barrier window (ns): min simulated time for any event to
    #: cross a shard boundary
    lookahead_ns: int = 0
    #: declared links that cross a shard boundary, as (a, b, latency_ns)
    cross_links: List[Tuple[int, int, int]] = field(default_factory=list)

    def shard_of(self, switch_id: int) -> int:
        return self.owner[switch_id]


def partition_topology(
    topology: Topology,
    num_shards: int,
    config: Optional[SchedulerConfig] = None,
) -> ShardPlan:
    """Partition ``topology`` into ``num_shards`` shards.

    Locality groups (:attr:`Topology.pods`) are kept whole and distributed
    contiguously across shards; switches in no group (fat-tree cores,
    leaf-spine spines) are round-robined by id.  Topologies without pod
    metadata (line, ring) fall back to contiguous id ranges, which keeps
    neighbouring switches together.
    """
    if num_shards < 1:
        raise SimulationError(f"need at least one shard, got {num_shards}")
    if num_shards > topology.num_switches:
        raise SimulationError(
            f"cannot split {topology.num_switches} switches into "
            f"{num_shards} shards"
        )
    config = config or SchedulerConfig()

    owner: Dict[int, int] = {}
    pods = topology.pods
    if pods and len(pods) >= num_shards:
        # contiguous group chunking: group g of G goes to shard g*N//G, so
        # shard sizes differ by at most one group
        num_groups = len(pods)
        for g, members in enumerate(pods):
            shard = g * num_shards // num_groups
            for sid in members:
                owner[sid] = shard
        leftover = [s for s in range(topology.num_switches) if s not in owner]
        for i, sid in enumerate(leftover):
            owner[sid] = i % num_shards
    else:
        # contiguous id ranges (line/ring, or more shards than pods)
        n = topology.num_switches
        for sid in range(n):
            owner[sid] = sid * num_shards // n

    shards: List[List[int]] = [[] for _ in range(num_shards)]
    for sid in sorted(owner):
        shards[owner[sid]].append(sid)
    for shard, members in enumerate(shards):
        if not members:
            raise SimulationError(f"shard {shard} ended up with no switches")

    cross_links = [
        (a, b, latency)
        for a, b, latency in topology.links
        if owner[a] != owner[b]
    ]
    # the full-mesh default bounds every undeclared pair, and a declared
    # cross-shard link may be faster still
    min_link = config.link_latency_ns
    for _, _, latency in cross_links:
        min_link = min(min_link, latency)
    lookahead = config.pipeline_latency_ns + min_link
    if lookahead <= 0:
        raise SimulationError(
            "conservative sharding needs positive cross-shard latency "
            f"(pipeline {config.pipeline_latency_ns} ns + min link "
            f"{min_link} ns)"
        )
    return ShardPlan(
        num_shards=num_shards,
        owner=owner,
        shards=shards,
        lookahead_ns=lookahead,
        cross_links=cross_links,
    )
