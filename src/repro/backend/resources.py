"""A resource model of the Intel Tofino's match-action pipeline.

The Lucid compiler's merging pass (Section 6.2) places atomic tables into
pipeline stages "based on data flow constraints, a simple model of the free
resources in each stage, and a small number of Tofino-specific constraints".
This module is that simple model.  The constants follow the publicly known
Tofino-1 architecture (and the figures in the paper: applications use 5-12
stages, with 2-13 ALU instructions mapped per stage).
"""

from __future__ import annotations

from repro.frontend.const_eval import STAGE_REGISTER_CELLS
from repro.records import record


@record(frozen=True)
class TofinoModel:
    """Per-pipeline resource limits used by the layout algorithm."""

    #: number of match-action stages in one pipeline
    num_stages: int = 12
    #: logical match-action tables per stage
    tables_per_stage: int = 16
    #: stateful ALUs (register blocks) per stage
    salus_per_stage: int = 4
    #: stateless ALU (VLIW action) slots per stage
    alus_per_stage: int = 20
    #: hash distribution units per stage
    hash_units_per_stage: int = 6
    #: SRAM available to register arrays per stage, in 32-bit words
    sram_words_per_stage: int = STAGE_REGISTER_CELLS
    #: maximum atomic tables the greedy pass merges into one physical table
    max_merge_width: int = 16


@record
class StageResources:
    """Mutable resource usage of one pipeline stage during layout."""

    model: TofinoModel
    tables: int = 0
    salus: int = 0
    alus: int = 0
    hash_units: int = 0
    sram_words: int = 0

    def can_fit(self, tables: int = 0, salus: int = 0, alus: int = 0, hash_units: int = 0,
                sram_words: int = 0) -> bool:
        return (
            self.tables + tables <= self.model.tables_per_stage
            and self.salus + salus <= self.model.salus_per_stage
            and self.alus + alus <= self.model.alus_per_stage
            and self.hash_units + hash_units <= self.model.hash_units_per_stage
            and self.sram_words + sram_words <= self.model.sram_words_per_stage
        )

    def claim(self, tables: int = 0, salus: int = 0, alus: int = 0, hash_units: int = 0,
              sram_words: int = 0) -> None:
        self.tables += tables
        self.salus += salus
        self.alus += alus
        self.hash_units += hash_units
        self.sram_words += sram_words
