"""A latency model of remote (switch-CPU) control, the Figure 17 baseline.

The paper compares Lucid's data-plane flow installation against Mantis [34], a
driver-level framework running on the switch's management CPU.  The measured
cost of installing one entry into a P4 match-action table from the CPU is
12 µs at minimum and 17.5 µs on average, which already excludes the time
needed to *detect* the new flow and any queueing behind other installs; the
model excludes them too.
"""

from __future__ import annotations

import random
from typing import List

#: minimum and mean driver-level table-install latency (ns)
INSTALL_MIN_NS = 12_000
INSTALL_MEAN_NS = 17_500


def remote_install_latencies(count: int, seed: int) -> List[int]:
    """``count`` driver-level install latencies (ns), drawn in order from
    ``random.Random(seed)``: exponential above the minimum, with the mean at
    the measured 17.5 µs average — a conventional model for software/driver
    service times that preserves both reported statistics."""
    expovariate = random.Random(seed).expovariate
    lambd = 1.0 / (INSTALL_MEAN_NS - INSTALL_MIN_NS)
    return [int(INSTALL_MIN_NS + expovariate(lambd)) for _ in range(count)]
