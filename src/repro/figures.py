"""Section 7 of the paper, regenerated: ``python -m repro.figures``.

Compiles the ten Figure 9 applications once, derives Figures 9-13, 15, 16 and
the merge ablation from that one dict plus the closed-form models
(:mod:`repro.analysis`, :func:`repro.pisa.queues.figure14_point`), runs the
``sfw-install-latency`` scenario for Figure 17, and writes ``RESULTS.md`` into
the current directory: first :data:`PAPER` — the one place the paper's numbers
and our tolerances live — with our value beside each, then every figure's rows.
The emission order is fixed and nothing is timed, so two runs are
byte-identical.  Exits non-zero when a row is outside its tolerance.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.analysis import breakdown_for_compiled, firewall_overhead_table, recirc_uses_table
from repro.apps import ALL_APPLICATIONS
from repro.backend import MergeOptions, build_layout
from repro.pisa.queues import figure14_point
from repro.scenarios import SCENARIOS, run_scenario

Rows = List[Dict[str, object]]

#: Figure 17: 640 flows x 2 packets into 2 x 1,024 slots (load factor 0.3125)
FIG17_EVENTS, FIG17_SEED = 1_280, 17
#: Figure 15: the assignments in the paper's table that our classifier must reproduce
FIG15_PAPER = {"Data struct. maintenance": ("SFW", "RR", "DNS", "CM"),
               "Flow setup": ("SFW", "NAT", "*Flow"), "State synchronization": ("SRO", "DFW")}

#: (measured value's key, quantity, the paper's value, tolerance on ours); a
#: tolerance is ``OP N`` clauses joined by ``and``, or ``N ±D`` / ``N ±P%``
PAPER: List[Tuple[str, str, str, str]] = [
    ("Fig. 9/apps", "applications", "10", "== 10"),
    ("Fig. 9/min_loc_ratio", "smallest P4 / Lucid LoC ratio", "7.8x (RR); ~10x claimed", ">= 5"),
    ("Fig. 9/min_stages", "fewest Tofino stages", "5 (CM)", ">= 2"),
    ("Fig. 9/max_stages", "most Tofino stages", "12 (*Flow)", "<= 12"),
    ("Fig. 10/min_p4_minus_lucid", "smallest P4 - Lucid LoC gap", "P4 larger for every app", "> 0"),
    ("Fig. 10/min_logic_share", "smallest table + action + register-action share", "they dominate", "> 1/3"),
    ("Fig. 11 (LoC proxy)/max_loc", "largest Lucid LoC of NAT, RIP, DFW, DFW(a)", "25-55 min each", "<= 150"),
    ("Fig. 12/min_ratio", "smallest unoptimised / optimised stage ratio", ">= 1x", ">= 1"),
    ("Fig. 12/apps_ratio_1_4", "applications with stage ratio >= 1.4", "most (1.5-4x)", ">= 6"),
    ("Fig. 12/max_ratio", "largest stage ratio", "> 4x for the complex apps", ">= 2.5"),
    ("Fig. 13/min_peak", "smallest per-app peak of ALU instructions in a stage", "2", ">= 2"),
    ("Fig. 13/max_peak", "largest per-app peak of ALU instructions in a stage", "13", ">= 6 and <= 20"),
    ("Fig. 14/queue_gbps", "pausable queue, 90 delayed 64 B events: Gb/s", "5.5", "> 3 and < 8"),
    ("Fig. 14/baseline_gbps", "pure recirculation, 90 events: Gb/s", "> 95 (saturated)", "> 90"),
    ("Fig. 14/queue_rel_error", "pausable queue, 90 events: mean relative error", "< 0.06", "<= 0.06"),
    ("Fig. 14/error_gap", "baseline error - queue error, 90 events", "baseline is exact", "<= 0"),
    ("Fig. 14/bw_inversions", "concurrency steps where baseline bandwidth falls", "0", "== 0"),
    ("Fig. 15/Data struct. maintenance", "of SFW, RR, DNS, CM: not classified so", "0", "== 0"),
    ("Fig. 15/Flow setup", "of SFW, NAT, *Flow: not classified so", "0", "== 0"),
    ("Fig. 15/State synchronization", "of SRO, DFW: not classified so", "0", "== 0"),
    ("Fig. 16/pps_10k", "recirculations/s at 10K flows/s", "815,360", "815360 ±1%"),
    ("Fig. 16/pps_100k", "recirculations/s at 100K flows/s", "2,255,360", "2255360 ±1%"),
    ("Fig. 16/pps_1m", "recirculations/s at 1M flows/s", "16,655,360", "16655360 ±1%"),
    ("Fig. 16/util_10k", "pipeline utilisation % at 10K flows/s", "0.08", "0.08 ±0.01"),
    ("Fig. 16/util_1m", "pipeline utilisation % at 1M flows/s", "1.66", "1.67 ±0.1"),
    ("Fig. 16/min_pkt_1m", "min line-rate packet bytes at 1M flows/s", "127.67", ">= 125 and <= 128.5"),
    ("Fig. 17/dp_mean_ns", "data-plane install: mean ns", "49", "< 200"),
    ("Fig. 17/first_pass_share", "flows installed in their first packet's pass", "> 0.9", "> 0.9"),
    ("Fig. 17/dp_max_ns", "data-plane install: worst case ns", "~2,400", "<= 2400"),
    ("Fig. 17/remote_min_ns", "remote control: fastest install ns", ">= 12,000", ">= 12000"),
    ("Fig. 17/remote_mean_ns", "remote control: mean ns", "17,500", ">= 15000 and <= 22000"),
    ("Fig. 17/speedup", "remote mean / data-plane mean", "> 300x", "> 300"),
    ("Merge ablation/max_full_minus_no_opt", "largest full - unoptimised stages", "never worse", "<= 0"),
    ("Merge ablation/apps_improved", "applications the full pipeline improves", "most", ">= 6"),
]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


def within(value: float, tolerance: str) -> bool:
    """Whether ``value`` meets a :data:`PAPER` tolerance."""
    if "±" in tolerance:
        centre, spread = tolerance.split("±")
        allowed = float(spread[:-1]) * abs(float(centre)) / 100 if spread.endswith("%") else float(spread)
        return abs(value - float(centre)) <= allowed
    clauses = (clause.split() for clause in tolerance.split(" and "))
    return all(_OPS[op](value, Fraction(bound)) for op, bound in clauses)


def _fig09(apps):
    """Figure 9: lines of code and Tofino stages, measured vs paper"""
    rows = []
    for (key, c), app in zip(apps.items(), ALL_APPLICATIONS.values()):
        rows.append({
            "app": key, "lucid_loc": c.lucid_loc(), "p4_loc": c.naive_p4_loc(),
            "loc_ratio": round(c.naive_p4_loc() / c.lucid_loc(), 1), "stages": c.stages(),
            "paper_lucid_loc": app.paper_lucid_loc, "paper_p4_loc": app.paper_p4_loc,
            "paper_stages": app.paper_stages})
    stages = [r["stages"] for r in rows]
    return rows, {"apps": len(rows), "min_loc_ratio": min(r["loc_ratio"] for r in rows),
                  "min_stages": min(stages), "max_stages": max(stages)}


def _fig10(apps):
    """Figure 10: P4 lines of code by component"""
    rows = [breakdown_for_compiled(c) for c in apps.values()]
    logic = [r["p4_tables"] + r["p4_actions"] + r["p4_register_actions"] for r in rows]
    return rows, {"min_p4_minus_lucid": min(r["p4_total"] - r["lucid_loc"] for r in rows),
                  "min_logic_share": min(n / r["p4_total"] for n, r in zip(logic, rows))}


def _fig11(apps):
    """Figure 11 (LoC proxy): application size vs the paper's reported development time"""
    rows = [{"app": key, "lucid_loc": apps[key].lucid_loc(), "paper_dev_time_min": minutes}
            for key, minutes in {"NAT": 25, "RIP": 40, "DFW": 25, "DFW(a)": 55}.items()]
    return rows, {"max_loc": max(r["lucid_loc"] for r in rows)}


def _fig12(apps):
    """Figure 12: optimised vs unoptimised stages"""
    rows = [{"app": key, "unoptimized_stages": c.unoptimized_stages(),
             "optimized_stages": c.stages(), "ratio": round(c.stage_ratio(), 2)}
            for key, c in apps.items()]
    ratios = [c.stage_ratio() for c in apps.values()]
    return rows, {"min_ratio": min(ratios), "max_ratio": max(ratios),
                  "apps_ratio_1_4": sum(1 for r in ratios if r >= 1.4)}


def _fig13(apps):
    """Figure 13: ALU instructions per stage"""
    rows = []
    for key, c in apps.items():
        per_stage = c.alu_instructions_per_stage()
        rows.append({"app": key, "max_per_stage": max(per_stage),
                     "mean_per_stage": round(sum(per_stage) / len(per_stage), 1),
                     "per_stage": " ".join(map(str, per_stage))})
    peaks = [r["max_per_stage"] for r in rows]
    return rows, {"min_peak": min(peaks), "max_peak": max(peaks)}


def _fig14(_apps):
    """Figure 14: pausable delay queue vs pure recirculation (model)"""
    rows = []
    for n in range(0, 100, 10):
        (queue_gbps, queue_error), (baseline_gbps, baseline_error) = (
            figure14_point(n, use_delay_queue=q) for q in (True, False))
        rows.append({"concurrent_events": n,
                     "queue_bw_gbps": round(queue_gbps, 2),
                     "baseline_bw_gbps": round(baseline_gbps, 2),
                     "queue_rel_error": round(queue_error, 3),
                     "baseline_rel_error": round(baseline_error, 4)})
    bw, last = [r["baseline_bw_gbps"] for r in rows], rows[-1]
    return rows, {"queue_gbps": last["queue_bw_gbps"], "baseline_gbps": last["baseline_bw_gbps"],
                  "queue_rel_error": last["queue_rel_error"],
                  "error_gap": last["baseline_rel_error"] - last["queue_rel_error"],
                  "bw_inversions": sum(1 for a, b in zip(bw, bw[1:]) if b < a)}


def _fig15(apps):
    """Figure 15: recirculation uses"""
    rows = recirc_uses_table(apps)
    ours = {r["use"]: r["applications"].split(", ") for r in rows}
    return rows, {use: sum(1 for app in expected if app not in ours[use])
                  for use, expected in FIG15_PAPER.items()}


def _fig16(_apps):
    """Figure 16: stateful-firewall recirculation model"""
    low, mid, high = rows = firewall_overhead_table()
    return rows, {
        "pps_10k": low["recirc_rate_pps"], "pps_100k": mid["recirc_rate_pps"],
        "pps_1m": high["recirc_rate_pps"], "util_10k": low["pipeline_utilization_pct"],
        "util_1m": high["pipeline_utilization_pct"], "min_pkt_1m": high["min_pkt_size_bytes"]}


def _fig17(_apps):
    """Figure 17: flow-install latency, the `sfw-install-latency` scenario on the pisa engine"""
    s = run_scenario(SCENARIOS["sfw-install-latency"], FIG17_EVENTS, FIG17_SEED, "pisa").details
    rows = [{"quantity": name, "value": value}
            for name, value in {"events": FIG17_EVENTS, "seed": FIG17_SEED, **s}.items()]
    return rows, {
        "dp_mean_ns": s["dataplane_mean_install_ns"], "dp_max_ns": s["dataplane_max_install_ns"],
        "first_pass_share": s["first_pass_share"], "remote_min_ns": s["remote_min_install_ns"],
        "remote_mean_ns": s["remote_mean_install_ns"],
        "speedup": s["remote_mean_install_ns"] / max(1.0, s["dataplane_mean_install_ns"])}


def _ablation(apps):
    """Merge ablation: stages with no optimisation, merging only, the full pipeline"""
    # merge_only (same greedy placer, program order kept) is informational
    rows = []
    for key, c in apps.items():
        merge_only = build_layout(c.checked.info, c.normalized, options=MergeOptions(reorder=False))
        rows.append({"app": key, "no_opt": c.unoptimized_stages(),
                     "merge_only": merge_only.num_stages(), "full": c.layout.num_stages()})
    return rows, {"max_full_minus_no_opt": max(r["full"] - r["no_opt"] for r in rows),
                  "apps_improved": sum(1 for r in rows if r["full"] < r["no_opt"])}


#: emission order; a docstring is the section title and, up to its colon, the PAPER key prefix
FIGURES = [_fig09, _fig10, _fig11, _fig12, _fig13, _fig14, _fig15, _fig16, _fig17, _ablation]


def evaluate() -> Tuple[Dict[str, float], List[Tuple[str, Rows]]]:
    """The values :data:`PAPER` is keyed by, and each figure's ``(title, rows)``."""
    apps = {key: app.compile(emit_naive_p4=True) for key, app in ALL_APPLICATIONS.items()}
    values, sections = {}, []
    for figure in FIGURES:
        rows, measured = figure(apps)
        label = figure.__doc__.split(":")[0].replace("Figure", "Fig.")
        values.update({f"{label}/{name}": value for name, value in measured.items()})
        sections.append((figure.__doc__, rows))
    return values, sections


def checks(values: Dict[str, float]) -> Rows:
    """:data:`PAPER` with our value and the verdict beside each row."""
    return [{"figure": key.split("/")[0], "quantity": quantity, "ours": values[key], "paper": paper,
             "tolerance": tolerance, "ok": "yes" if within(values[key], tolerance) else "NO"}
            for key, quantity, paper, tolerance in PAPER]


def _cell(value: object) -> str:
    if isinstance(value, float):
        return str(int(value)) if value == int(value) else str(round(value, 4))
    return str(value)


def _table(rows: Rows) -> List[str]:
    head = list(rows[0])
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    return lines + ["| " + " | ".join(_cell(row[h]) for h in head) + " |" for row in rows]


def render(values: Dict[str, float], sections: List[Tuple[str, Rows]]) -> str:
    lines = ["# Section 7, regenerated", "",
             "Written by `PYTHONPATH=src python -m repro.figures`; do not edit by hand.", "",
             "## Paper values and tolerances", ""] + _table(checks(values))
    for title, rows in sections:
        lines += ["", f"## {title}", ""] + _table(rows)
    return "\n".join(lines) + "\n"


def main() -> int:
    values, sections = evaluate()
    with open("RESULTS.md", "w") as fh:
        fh.write(render(values, sections))
    failed = sum(1 for row in checks(values) if row["ok"] != "yes")
    print(f"wrote RESULTS.md: {failed} of {len(PAPER)} rows outside their tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
