"""Classification of how applications use recirculation (Figure 15).

The paper groups recirculation uses into three categories with characteristic
rates:

* data-structure maintenance — a timed loop scans a table, so the rate is
  O(num_entries / scan_interval);
* flow setup — new flows trigger install events, so the expected rate is
  O(flow arrival rate);
* state synchronisation — every state update recirculates through one or more
  switches, so the rate is O(update rate).

:func:`classify_application` derives the categories automatically from a
compiled program: a handler that re-generates its own event with a delay is a
maintenance loop; a handler triggered by a packet event that generates a
different local event is flow setup; a handler that generates events located
at other switches is state synchronisation.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.backend.compiler import CompiledProgram
from repro.midend.normalize import Const
from repro.records import record


@record(frozen=True)
class RecircUse:
    """One recirculation use category."""

    category: str
    rate: str
    description: str


RECIRC_USES: Dict[str, RecircUse] = {
    "maintenance": RecircUse(
        category="Data struct. maintenance",
        rate="O(num. entries / scan interval)",
        description="a timed loop periodically scans or ages a table",
    ),
    "flow_setup": RecircUse(
        category="Flow setup",
        rate="E[O(flow rate)]",
        description="new flows trigger install events",
    ),
    "sync": RecircUse(
        category="State synchronization",
        rate="O(update rate)",
        description="state updates recirculate through one or more switches",
    ),
}


def classify_application(compiled: CompiledProgram) -> Set[str]:
    """Return the recirculation-use categories exercised by a program."""
    categories: Set[str] = set()
    for name, handler in compiled.normalized.items():
        for gen in handler.generates():
            delayed = not (isinstance(gen.delay, Const) and gen.delay.value == 0)
            remote = gen.group is not None or not (
                isinstance(gen.location, Const) and gen.location.value == -1
            )
            if remote:
                categories.add("sync")
            if gen.event == name and delayed:
                categories.add("maintenance")
            elif gen.event == name:
                # self-recursion without delay: serial scan / cuckoo chain
                categories.add("flow_setup")
            elif not remote and gen.event != name:
                categories.add("flow_setup")
            if delayed and gen.event != name:
                categories.add("maintenance")
    return categories


def recirc_uses_table(compiled_apps: Dict[str, CompiledProgram]) -> List[Dict[str, str]]:
    """Reproduce Figure 15: one row per category listing the applications."""
    rows: List[Dict[str, str]] = []
    for key, use in RECIRC_USES.items():
        apps = sorted(
            name for name, compiled in compiled_apps.items() if key in classify_application(compiled)
        )
        rows.append(
            {
                "use": use.category,
                "recirc_rate": use.rate,
                "applications": ", ".join(apps),
            }
        )
    return rows
