"""Profiling hooks: per-handler and per-pipeline-stage wall/sim-time
accounting.

:class:`HandlerProfiler` attaches to a :class:`~repro.interp.network.Network`
(``network.profiler = HandlerProfiler()``) and is fed by ``Network.run`` with
one sample per handled event: the handler name, the wall-clock seconds the
engine spent executing it, and the simulated nanoseconds the event occupies
(one pipeline pass).  :class:`StageProfiler` attaches to a
:class:`~repro.pisa.pipeline.PisaPipeline` (``pipeline.stage_prof``) and
times each physical stage's table walk.

Both are pull-based: nothing is printed until :meth:`HandlerProfiler.top`
is asked for, so benchmarks can embed the numbers in their JSON reports and
the CLI can print a top-N table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["HandlerProfiler", "StageProfiler", "merge_stage_rows"]


class HandlerProfiler:
    """Accumulates per-handler call counts, wall seconds, and sim ns."""

    __slots__ = ("_calls", "_wall_s", "_sim_ns")

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._wall_s: Dict[str, float] = {}
        self._sim_ns: Dict[str, int] = {}

    def record(self, name: str, wall_s: float, sim_ns: int) -> None:
        self._calls[name] = self._calls.get(name, 0) + 1
        self._wall_s[name] = self._wall_s.get(name, 0.0) + wall_s
        self._sim_ns[name] = self._sim_ns.get(name, 0) + sim_ns

    @property
    def total_calls(self) -> int:
        return sum(self._calls.values())

    @property
    def total_wall_s(self) -> float:
        return sum(self._wall_s.values())

    def top(self, n: int = 10) -> List[dict]:
        """Hottest handlers by cumulative wall time, with shares."""
        total_wall = self.total_wall_s or 1.0
        rows = []
        for name in sorted(self._wall_s, key=self._wall_s.get, reverse=True)[:n]:
            calls = self._calls[name]
            wall = self._wall_s[name]
            rows.append({
                "handler": name,
                "calls": calls,
                "wall_s": round(wall, 6),
                "wall_share": round(wall / total_wall, 4),
                "us_per_call": round(wall * 1e6 / calls, 3) if calls else 0.0,
                "sim_ns": self._sim_ns[name],
            })
        return rows



class StageProfiler:
    """Per-physical-stage accounting for one PISA pipeline.

    The pipeline calls :meth:`record` once per stage an event traverses,
    with the number of tables that actually executed and the wall seconds
    spent walking the stage.
    """

    __slots__ = ("_events", "_tables", "_wall_s")

    def __init__(self, num_stages: int) -> None:
        self._events = [0] * num_stages
        self._tables = [0] * num_stages
        self._wall_s = [0.0] * num_stages

    def record(self, stage: int, tables: int, wall_s: float) -> None:
        self._events[stage] += 1
        self._tables[stage] += tables
        self._wall_s[stage] += wall_s

    def rows(self) -> List[dict]:
        return [
            {
                "stage": i,
                "events": self._events[i],
                "tables_executed": self._tables[i],
                "wall_s": round(self._wall_s[i], 6),
            }
            for i in range(len(self._events))
        ]


def merge_stage_rows(profilers: List[Optional[StageProfiler]]) -> List[dict]:
    """Sum stage rows across switches (pipelines may differ in depth)."""
    merged: Dict[int, dict] = {}
    for prof in profilers:
        if prof is None:
            continue
        for row in prof.rows():
            slot = merged.setdefault(
                row["stage"],
                {"stage": row["stage"], "events": 0, "tables_executed": 0,
                 "wall_s": 0.0},
            )
            slot["events"] += row["events"]
            slot["tables_executed"] += row["tables_executed"]
            slot["wall_s"] = round(slot["wall_s"] + row["wall_s"], 6)
    return [merged[stage] for stage in sorted(merged)]
