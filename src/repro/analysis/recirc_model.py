"""The stateful firewall's recirculation-overhead model (Sections 2.5 and
7.3, Figure 16).

The paper derives a simple explanatory model of the stateful firewall's
worst-case recirculation rate on an idealised PISA processor (1 B packets/s
servicing ten 100 Gb/s front-panel ports, one 100 Gb/s recirculation port):

    r = N / i + f * log2(N)

where ``N`` is the firewall table size, ``i`` the per-flow timeout-check
interval, and ``f`` the flow-arrival rate.  The first term is the timeout
scan; the second is the worst case for cuckoo flow installation (an install
may require ``log2(N)`` cuckoo moves, each one recirculation).  Recirculated
packets take pipeline slots from front-panel traffic, so the smallest average
packet size that still runs every port at line rate grows from 125 B.  How
much of the port a simulated run consumed is accounted by the event
scheduler (:class:`repro.interp.network.SwitchStats`).
"""

from __future__ import annotations

import math
from typing import Dict, List

#: the idealised pipeline: packets per second, and total front-panel bits/s
PIPELINE_PPS = 1e9
FRONT_PANEL_BPS = 10 * 100e9


def firewall_overhead_table(
    flow_rates=(10_000, 100_000, 1_000_000),
    table_size: int = 2 ** 16,
    timeout_check_interval_s: float = 0.1,
) -> List[Dict[str, float]]:
    """Reproduce Figure 16: one row per flow rate, with the recirculation
    rate r, the share of the pipeline's packet budget it takes, and the
    minimum line-rate packet size."""
    rows = []
    for flow_rate in flow_rates:
        rate = table_size / timeout_check_interval_s + flow_rate * math.log2(table_size)
        available_pps = PIPELINE_PPS - rate
        rows.append({
            "flow_rate": flow_rate,
            "recirc_rate_pps": rate,
            "pipeline_utilization_pct": rate / PIPELINE_PPS * 100.0,
            "min_pkt_size_bytes": (
                FRONT_PANEL_BPS / 8 / available_pps if available_pps > 0 else float("inf")
            ),
        })
    return rows
