"""A latency model of remote (switch-CPU) control, the Figure 17 baseline.

The paper compares Lucid's data-plane flow installation against Mantis [34], a
driver-level framework running on the switch's management CPU.  The measured
cost of installing one entry into a P4 match-action table from the CPU is
12 µs at minimum and 17.5 µs on average; that already excludes the time needed
to *detect* the new flow (e.g. by polling a register ring buffer over PCIe)
and any queueing when several flows arrive close together — both of which this
model can optionally add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import random


@dataclass
class ControlPlaneConfig:
    """Latency parameters of the remote controller."""

    #: minimum driver-level table-install latency (ns)
    install_min_ns: int = 12_000
    #: average driver-level table-install latency (ns)
    install_mean_ns: int = 17_500
    #: polling interval for new-flow detection (ns); 0 = detection is free
    poll_interval_ns: int = 0
    #: PCIe one-way latency for the notification path (ns); 0 = ignored
    pcie_latency_ns: int = 0
    #: if True, installs are serialised through a single control thread and
    #: may queue behind each other; the paper's measured baseline excludes
    #: this queueing, so it is off by default
    serialize_installs: bool = False


@dataclass
class InstallSummary:
    """Aggregate statistics of a streamed batch of flow installs."""

    count: int = 0
    total_latency_ns: int = 0
    min_latency_ns: int = 0
    max_latency_ns: int = 0

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.count if self.count else 0.0


@dataclass
class InstallRecord:
    """One flow-install request processed by the controller."""

    flow_id: int
    requested_at_ns: int
    completed_at_ns: int

    @property
    def latency_ns(self) -> int:
        return self.completed_at_ns - self.requested_at_ns


class RemoteController:
    """Simulates flow-entry installation through the switch CPU."""

    def __init__(self, config: Optional[ControlPlaneConfig] = None, seed: int = 0xC0FFEE):
        self.config = config or ControlPlaneConfig()
        self.records: List[InstallRecord] = []
        self._rng = random.Random(seed)
        self._busy_until_ns = 0

    def _sample_install_ns(self) -> int:
        """Sample one driver-level install latency.

        The distribution is exponential above the minimum, with the mean
        matching the measured 17.5 µs average — a conventional model for
        software/driver service times that preserves both reported statistics.
        """
        cfg = self.config
        excess_mean = max(1, cfg.install_mean_ns - cfg.install_min_ns)
        return int(cfg.install_min_ns + self._rng.expovariate(1.0 / excess_mean))

    def _completion_time_ns(self, requested_at_ns: int) -> int:
        """When one install requested at ``requested_at_ns`` completes —
        detection (polling tick), PCIe notification, optional serialisation
        behind earlier installs, then the sampled driver-level install."""
        cfg = self.config
        start = requested_at_ns
        if cfg.poll_interval_ns > 0:
            # the controller only notices the flow at the next polling tick
            next_poll = -(-requested_at_ns // cfg.poll_interval_ns) * cfg.poll_interval_ns
            start = max(start, next_poll)
        start += cfg.pcie_latency_ns
        if cfg.serialize_installs:
            start = max(start, self._busy_until_ns)
        completed = start + self._sample_install_ns()
        if cfg.serialize_installs:
            self._busy_until_ns = completed
        return completed

    def install_flow(self, flow_id: int, requested_at_ns: int) -> InstallRecord:
        """Install one flow entry; returns the completed record."""
        record = InstallRecord(
            flow_id=flow_id,
            requested_at_ns=requested_at_ns,
            completed_at_ns=self._completion_time_ns(requested_at_ns),
        )
        self.records.append(record)
        return record

    def install_stream(self, requests: Iterable[Tuple[int, int]]) -> InstallSummary:
        """Install a lazily generated stream of ``(flow_id, requested_at_ns)``
        requests and return aggregate latency statistics.

        The scenario engine's firewall install-latency comparison drives
        arbitrarily long flow streams through the controller model; unlike
        :meth:`install_flow`, nothing is appended to :attr:`records`, so the
        memory footprint is independent of the stream length.
        """
        summary = InstallSummary()
        for _flow_id, requested_at_ns in requests:
            latency = self._completion_time_ns(requested_at_ns) - requested_at_ns
            if summary.count == 0 or latency < summary.min_latency_ns:
                summary.min_latency_ns = latency
            if latency > summary.max_latency_ns:
                summary.max_latency_ns = latency
            summary.count += 1
            summary.total_latency_ns += latency
        return summary

    # -- statistics --------------------------------------------------------------
    def latencies_ns(self) -> List[int]:
        return [r.latency_ns for r in self.records]

    def mean_latency_ns(self) -> float:
        lat = self.latencies_ns()
        return sum(lat) / len(lat) if lat else 0.0

    def min_latency_ns(self) -> int:
        lat = self.latencies_ns()
        return min(lat) if lat else 0
