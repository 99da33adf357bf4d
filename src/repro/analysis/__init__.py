"""Analytic models and accounting used by the evaluation (Section 7)."""

from repro.analysis.loc import breakdown_for_compiled
from repro.analysis.recirc_model import firewall_overhead_table
from repro.analysis.recirc_uses import RECIRC_USES, RecircUse, recirc_uses_table

__all__ = [
    "breakdown_for_compiled",
    "firewall_overhead_table",
    "RecircUse",
    "RECIRC_USES",
    "recirc_uses_table",
]
