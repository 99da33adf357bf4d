"""The recirculation load a PISA pipeline can carry (Sections 2.5 and 7.3).

A PISA recirculation port has the bandwidth of one front-panel port and shares
the pipeline's packet-processing budget.  This module computes the figures the
paper derives in its overhead analysis (pipeline utilisation, minimum
line-rate packet size); how much of the port a simulated run consumed is
accounted by the event scheduler (:class:`repro.interp.network.SwitchStats`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PipelineBudget:
    """The packets-per-second budget of an idealised PISA pipeline
    (Section 7.3's "1B packets per second servicing 10 100 Gb/s ports")."""

    packets_per_second: float = 1e9
    front_panel_ports: int = 10
    port_bandwidth_bps: float = 100e9

    def pipeline_utilisation(self, recirc_pkts_per_second: float) -> float:
        """Fraction of the pipeline's packet budget consumed by recirculation."""
        return recirc_pkts_per_second / self.packets_per_second

    def min_line_rate_packet_bytes(self, recirc_pkts_per_second: float) -> float:
        """The smallest average front-panel packet size (bytes) at which the
        pipeline still sustains line rate on all ports, given the
        recirculation load.

        With no recirculation the pipeline supports line rate for packets of
        at least ``total_port_bandwidth / packets_per_second`` bytes (125 B for
        the idealised processor).  Recirculated packets consume pipeline slots,
        leaving fewer slots per second for front-panel traffic, so the minimum
        packet size grows accordingly.
        """
        available_pps = self.packets_per_second - recirc_pkts_per_second
        if available_pps <= 0:
            return float("inf")
        total_bps = self.front_panel_ports * self.port_bandwidth_bps
        return total_bps / 8 / available_pps
