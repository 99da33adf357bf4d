"""Topology generators: line, ring, leaf-spine, and k-ary fat-tree.

A :class:`Topology` is a switch-level graph with per-link latencies.  It can
instantiate itself as a ready-to-run :class:`~repro.interp.network.Network`,
binding each switch's multicast-group constants (``NEIGHBORS``, ``PEERS``,
``REPLICAS``, ...) to that switch's actual neighbour set from the graph —
the same program text thus runs unmodified on any topology.  Shortest-path
distances and a next-hop port map (Dijkstra over link latencies) are exposed
for preloading routing tables and for checking convergence invariants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.frontend import ast, parse_program
from repro.frontend.type_checker import check_program
from repro.interp.engine import DEFAULT_ENGINE
from repro.interp.network import Network, SchedulerConfig


@dataclass
class Topology:
    """A named multi-switch topology with per-link latencies."""

    name: str
    num_switches: int
    #: undirected links as (a, b, latency_ns), each listed once
    links: List[Tuple[int, int, int]] = field(default_factory=list)
    #: switches where external traffic enters (all switches if unset)
    edge: List[int] = field(default_factory=list)
    #: locality groups for shard partitioning (``repro.shard``): disjoint
    #: lists of switch ids that should stay in one shard (e.g. a fat-tree
    #: pod's edge+agg switches).  Switches in no group (cores, spines) are
    #: placed by the partitioner.  None → no locality structure; the
    #: partitioner falls back to contiguous id ranges.
    pods: Optional[List[List[int]]] = None

    def __post_init__(self) -> None:
        if not self.edge:
            self.edge = list(range(self.num_switches))
        self._adj: Dict[int, Dict[int, int]] = {s: {} for s in range(self.num_switches)}
        for a, b, latency in self.links:
            self._adj[a][b] = latency
            self._adj[b][a] = latency

    # -- graph queries -----------------------------------------------------
    def neighbors(self, switch_id: int) -> List[int]:
        return sorted(self._adj[switch_id])

    def degree(self, switch_id: int) -> int:
        return len(self._adj[switch_id])

    def distances_from(self, source: int) -> Dict[int, int]:
        """Dijkstra latencies (ns) from ``source`` to every switch."""
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for peer, latency in self._adj[node].items():
                candidate = d + latency
                if candidate < dist.get(peer, float("inf")):
                    dist[peer] = candidate
                    heapq.heappush(heap, (candidate, peer))
        return dist

    def hop_distances_from(self, source: int) -> Dict[int, int]:
        """BFS hop counts from ``source`` (unit link weights)."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in self._adj[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        nxt.append(peer)
            frontier = nxt
        return dist

    def shortest_path_ports(self) -> Dict[Tuple[int, int], int]:
        """``(switch, destination) -> next-hop switch id`` for every reachable
        pair, minimising total link latency.  Ties break toward the lowest
        neighbour id, so the map is deterministic."""
        ports: Dict[Tuple[int, int], int] = {}
        for dst in range(self.num_switches):
            dist = self.distances_from(dst)
            for node in range(self.num_switches):
                if node == dst or node not in dist:
                    continue
                best: Optional[int] = None
                for peer in self.neighbors(node):
                    if peer not in dist:
                        continue
                    cost = self._adj[node][peer] + dist[peer]
                    if cost == dist[node] and (best is None or peer < best):
                        best = peer
                if best is not None:
                    ports[(node, dst)] = best
        return ports

    # -- network construction ----------------------------------------------
    def group_bindings_for(self, switch_id: int, group_names: Sequence[str]) -> Dict[str, List[int]]:
        """Default per-switch group bindings: every named group becomes this
        switch's neighbour set (the common case for NEIGHBORS-style groups)."""
        return {name: self.neighbors(switch_id) for name in group_names}

    def build_network(
        self,
        program: str,
        config: Optional[SchedulerConfig] = None,
        groups: Optional[Callable[[int], Dict[str, List[int]]]] = None,
        symbolic_bindings: Optional[Dict[str, int]] = None,
        name: str = "<scenario>",
        engine: str = DEFAULT_ENGINE,
    ) -> Network:
        """Instantiate this topology as a :class:`Network` running ``program``
        on every switch.

        ``groups`` maps a switch id to that switch's group bindings (e.g.
        ``{"NEIGHBORS": [4, 5]}``); when omitted, every ``const group`` the
        program declares is bound to the switch's neighbour set.  The program
        is parsed once and re-checked per binding set.  ``engine`` selects
        the execution engine for every switch; switches sharing a binding set
        share one checked program — and, under the PISA engine, one compiled
        layout.
        """
        parsed = parse_program(program, name=name)
        declared_groups = [
            decl.name
            for decl in parsed.decls
            if isinstance(decl, ast.DConst) and isinstance(decl.ty, ast.TGroup)
        ]
        network = Network(config=config, engine=engine)
        checked_cache: Dict[Tuple[Tuple[str, Tuple[int, ...]], ...], object] = {}
        for switch_id in range(self.num_switches):
            if groups is not None:
                bindings = groups(switch_id)
            else:
                bindings = self.group_bindings_for(switch_id, declared_groups)
            cache_key = tuple(sorted((k, tuple(v)) for k, v in bindings.items()))
            checked = checked_cache.get(cache_key)
            if checked is None:
                checked = check_program(
                    parsed,
                    name=name,
                    symbolic_bindings=symbolic_bindings,
                    group_bindings=bindings,
                )
                checked_cache[cache_key] = checked
            network.add_switch(switch_id, checked)
        for a, b, latency in self.links:
            network.add_link(a, b, latency_ns=latency)
        return network


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def single_switch() -> Topology:
    """The degenerate one-switch topology (the paper's Figure 9 setting)."""
    return Topology(name="single", num_switches=1, links=[], edge=[0])


def line(n: int, latency_ns: int = 1_000) -> Topology:
    """``n`` switches in a path: 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("line topology needs at least one switch")
    links = [(i, i + 1, latency_ns) for i in range(n - 1)]
    return Topology(name=f"line-{n}", num_switches=n, links=links)


def ring(n: int, latency_ns: int = 1_000) -> Topology:
    """``n`` switches in a cycle."""
    if n < 3:
        raise ValueError("ring topology needs at least three switches")
    links = [(i, (i + 1) % n, latency_ns) for i in range(n)]
    return Topology(name=f"ring-{n}", num_switches=n, links=links)


def leaf_spine(leaves: int, spines: int, latency_ns: int = 1_000) -> Topology:
    """A two-tier Clos: every leaf connects to every spine.  Leaves are
    switches ``0..leaves-1`` (the traffic edge); spines follow."""
    if leaves < 1 or spines < 1:
        raise ValueError("leaf-spine topology needs at least one leaf and one spine")
    links = [
        (leaf, leaves + spine, latency_ns)
        for leaf in range(leaves)
        for spine in range(spines)
    ]
    return Topology(
        name=f"leafspine-{leaves}x{spines}",
        num_switches=leaves + spines,
        links=links,
        edge=list(range(leaves)),
        # each leaf is its own locality group; spines are placed by the
        # partitioner (they talk to every leaf equally)
        pods=[[leaf] for leaf in range(leaves)],
    )


def fat_tree(k: int, latency_ns: int = 1_000) -> Topology:
    """The classic k-ary fat-tree (Al-Fares et al.): ``k`` pods of ``k/2``
    edge and ``k/2`` aggregation switches, plus ``(k/2)^2`` core switches.

    Switch ids: edges first (pod-major), then aggregations, then cores; the
    edge switches are the traffic edge.  Every edge switch links to every
    aggregation switch in its pod; aggregation switch ``j`` of each pod links
    to cores ``j*k/2 .. (j+1)*k/2 - 1``.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("fat-tree arity k must be an even number >= 2")
    half = k // 2
    num_edge = k * half
    num_agg = k * half
    num_core = half * half
    edge_id = lambda pod, i: pod * half + i
    agg_id = lambda pod, j: num_edge + pod * half + j
    core_id = lambda j, c: num_edge + num_agg + j * half + c
    links: List[Tuple[int, int, int]] = []
    for pod in range(k):
        for i in range(half):
            for j in range(half):
                links.append((edge_id(pod, i), agg_id(pod, j), latency_ns))
    for pod in range(k):
        for j in range(half):
            for c in range(half):
                links.append((agg_id(pod, j), core_id(j, c), latency_ns))
    return Topology(
        name=f"fattree-{k}",
        num_switches=num_edge + num_agg + num_core,
        links=links,
        edge=list(range(num_edge)),
        # one locality group per pod (its edge + aggregation switches);
        # cores sit between pods and are placed by the partitioner
        pods=[
            [edge_id(pod, i) for i in range(half)] + [agg_id(pod, j) for j in range(half)]
            for pod in range(k)
        ],
    )
