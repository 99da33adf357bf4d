"""The Lucid compiler backend: atomic tables, layout optimisation, and P4
generation for the Intel Tofino.  The P4 printer, :mod:`repro.backend.p4gen`,
is imported by the runs that print P4 only."""

from repro.backend.compiler import (
    CompiledProgram,
    compile_checked,
    compile_program,
    count_lucid_loc,
)
from repro.backend.layout import MergedTable, PipelineLayout, StageLayout
from repro.backend.merge import MergeOptions, build_layout
from repro.backend.resources import TofinoModel
from repro.backend.tables import AtomicTable, TableKind, atomic_tables

__all__ = [
    "compile_program",
    "compile_checked",
    "CompiledProgram",
    "count_lucid_loc",
    "PipelineLayout",
    "StageLayout",
    "MergedTable",
    "MergeOptions",
    "build_layout",
    "TofinoModel",
    "AtomicTable",
    "TableKind",
    "atomic_tables",
]
