"""The ten data-plane applications of Figure 9, written in Lucid.

``ALL_APPLICATIONS`` maps the short keys used throughout the evaluation
(``SFW``, ``RR``, ``DNS``, ``*Flow``, ``SRO``, ``DFW``, ``DFW(a)``, ``RIP``,
``NAT``, ``CM``) to :class:`~repro.apps.base.Application` records carrying the
Lucid source and the paper's reported numbers for comparison.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.base import Application
from repro.apps import (
    countmin,
    dist_firewall,
    dns_defense,
    fast_rerouter,
    nat,
    rip,
    sro,
    starflow,
    stateful_firewall,
)

#: every application of Figure 9, in the paper's order
ALL_APPLICATIONS: Dict[str, Application] = {
    app.key: app
    for app in (
        stateful_firewall.APP,
        fast_rerouter.APP,
        dns_defense.APP,
        starflow.APP,
        sro.APP,
        dist_firewall.APP,
        dist_firewall.AGING_APP,
        rip.APP,
        nat.APP,
        countmin.APP,
    )
}

__all__ = ["Application", "ALL_APPLICATIONS"]
