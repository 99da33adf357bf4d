"""Pipeline layout data structures: merged tables, stages, and statistics.

These are the *results* of the greedy merging pass (:mod:`repro.backend.merge`)
and the inputs of P4 emission (:mod:`repro.backend.p4gen`) and of the
evaluation benchmarks (Figures 9, 12, and 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.backend.resources import TofinoModel
from repro.backend.tables import AtomicTable


@dataclass
class MergedTable:
    """A physical match-action table holding one or more atomic tables.

    Atomic tables merged together share one set of match keys (the union of
    their path-condition variables plus the event id) and their rules are the
    cross product of the members' rules, as in Figure 8.
    """

    name: str
    stage: int
    members: List[AtomicTable] = field(default_factory=list)

    def match_keys(self) -> List[str]:
        keys: List[str] = ["event_id"]
        for member in self.members:
            for cond in member.path_conditions:
                for operand in (cond.lhs, cond.rhs):
                    name = getattr(operand, "name", None)
                    if name is not None and name not in keys:
                        keys.append(name)
        return keys

    def rule_count(self) -> int:
        """Number of static rules after the cross-product merge."""
        count = 1
        for member in self.members:
            count *= max(1, len(member.path_conditions) + 1)
        return count


@dataclass
class StageLayout:
    """All tables placed in one physical pipeline stage."""

    index: int
    merged_tables: List[MergedTable] = field(default_factory=list)

    def atomic_tables(self) -> List[AtomicTable]:
        return [t for merged in self.merged_tables for t in merged.members]

    def alu_instructions(self) -> int:
        """Number of Lucid statements (ALU instructions) mapped to this stage —
        the quantity plotted in Figure 13."""
        return len(self.atomic_tables())


@dataclass
class PipelineLayout:
    """The complete placement of a program onto the pipeline."""

    program_name: str
    model: TofinoModel
    stages: List[StageLayout] = field(default_factory=list)
    #: global array name -> stage index
    array_stages: Dict[str, int] = field(default_factory=dict)
    #: per-handler unoptimised stage requirement (longest atomic-table path)
    unoptimized_stages_per_handler: Dict[str, int] = field(default_factory=dict)

    # -- statistics used by the evaluation ---------------------------------
    def num_stages(self) -> int:
        """Stages used by the optimised layout (Figure 9's "Tofino Stages")."""
        return len([s for s in self.stages if s.merged_tables])

    def unoptimized_stages(self) -> int:
        """The paper's unoptimised baseline: atomic tables on the longest
        code path, taken over the whole program."""
        return max(self.unoptimized_stages_per_handler.values(), default=0)

    def stage_ratio(self) -> float:
        """Unoptimised / optimised stage ratio (Figure 12)."""
        optimized = self.num_stages()
        if optimized == 0:
            return 1.0
        return self.unoptimized_stages() / optimized

    def alu_instructions_per_stage(self) -> List[int]:
        """ALU instructions mapped per (non-empty) stage (Figure 13)."""
        return [s.alu_instructions() for s in self.stages if s.merged_tables]

    def max_parallelism(self) -> int:
        counts = self.alu_instructions_per_stage()
        return max(counts) if counts else 0

    def total_atomic_tables(self) -> int:
        return sum(s.alu_instructions() for s in self.stages)

    def total_merged_tables(self) -> int:
        return sum(len(s.merged_tables) for s in self.stages)

    def fits(self) -> bool:
        return self.num_stages() <= self.model.num_stages

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "stages": self.num_stages(),
            "unoptimized_stages": self.unoptimized_stages(),
            "stage_ratio": round(self.stage_ratio(), 2),
            "atomic_tables": self.total_atomic_tables(),
            "merged_tables": self.total_merged_tables(),
            "max_alus_per_stage": self.max_parallelism(),
            "fits_tofino": self.fits(),
        }
