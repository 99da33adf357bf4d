"""The Lucid compiler backend: atomic tables, layout optimisation, and P4
generation for the Intel Tofino."""

from repro.backend.compiler import (
    CompiledProgram,
    compile_checked,
    compile_program,
    count_lucid_loc,
)
from repro.backend.layout import MergedTable, PipelineLayout, StageLayout
from repro.backend.merge import MergeOptions, build_layout
from repro.backend.p4gen import P4Program, generate_p4
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
    "P4Program",
    "generate_p4",
    "TofinoModel",
    "AtomicTable",
    "TableKind",
    "atomic_tables",
]
