"""Lines-of-code accounting for Figure 10.

The paper compares the length of Lucid programs against their P4 equivalents
and breaks the P4 down by component (actions, register actions, tables,
headers, parsers).  Here, Lucid LoC is counted from the application sources in
:mod:`repro.apps`, and P4 LoC from the baseline-style P4 emitted by
:mod:`repro.backend.p4gen`: the authors' hand-written P4 is not published, so
the naive (hand-written-style) layout's generated P4 stands in for it.
"""

from __future__ import annotations

from typing import Dict

from repro.backend.compiler import CompiledProgram


def breakdown_for_compiled(compiled: CompiledProgram) -> Dict[str, object]:
    """One bar of Figure 10: the P4's line count by component beside the
    Lucid LoC, from the naive (hand-written style) P4 when it was
    generated."""
    p4 = compiled.naive_p4 or compiled.p4
    assert p4 is not None, "compile_checked prints no P4: compile with compile_program"
    counts = p4.line_counts()
    lucid = compiled.lucid_loc()
    row = {
        "application": compiled.name,
        "lucid_loc": lucid,
        "p4_actions": counts.get("actions", 0),
        "p4_register_actions": counts.get("registers", 0),
        "p4_tables": counts.get("tables", 0),
        "p4_headers": counts.get("headers", 0),
        "p4_parsers": counts.get("parsers", 0),
        "p4_other": counts.get("preamble", 0) + counts.get("control", 0) + counts.get("deparser", 0),
    }
    row["p4_total"] = total = sum(value for key, value in row.items() if key.startswith("p4_"))
    row["ratio"] = round(total / lucid if lucid else 0.0, 1)
    return row
