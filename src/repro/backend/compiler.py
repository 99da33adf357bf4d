"""The Lucid compiler driver: frontend -> mid-end -> layout -> P4.

:func:`compile_program` is the main entry point used by the public API, the
applications, the examples, and the evaluation benchmarks.  It returns a
:class:`CompiledProgram` bundling the checked program, the pipeline layout,
the generated P4, and the statistics the paper's evaluation reports (stage
counts, optimisation ratios, parallelism, lines of code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.backend.layout import PipelineLayout
from repro.backend.merge import MergeOptions, build_layout
from repro.backend.p4gen import P4Program, generate_p4
from repro.backend.resources import TofinoModel
from repro.frontend.type_checker import CheckedProgram, check_program
from repro.midend.normalize import NormalizedHandler, normalize_program


@dataclass
class CompilerOptions:
    """All compiler knobs in one place."""

    enforce_stage_limit: bool = False
    emit_p4: bool = True
    emit_naive_p4: bool = False
    symbolic_bindings: Optional[Dict[str, int]] = None
    target: TofinoModel = field(default_factory=TofinoModel)


@dataclass
class CompiledProgram:
    """Everything the compiler produces for one Lucid program."""

    checked: CheckedProgram
    normalized: Dict[str, NormalizedHandler]
    layout: PipelineLayout
    p4: Optional[P4Program] = None
    naive_p4: Optional[P4Program] = None
    lucid_source: Optional[str] = None

    # -- statistics used throughout the evaluation -------------------------
    @property
    def name(self) -> str:
        return self.checked.program.name

    def stages(self) -> int:
        return self.layout.num_stages()

    def unoptimized_stages(self) -> int:
        return self.layout.unoptimized_stages()

    def stage_ratio(self) -> float:
        return self.layout.stage_ratio()

    def alu_instructions_per_stage(self) -> list:
        return self.layout.alu_instructions_per_stage()

    def lucid_loc(self) -> int:
        if self.lucid_source is None:
            return 0
        return count_lucid_loc(self.lucid_source)

    def p4_loc(self) -> int:
        return self.p4.line_counts()["total"] if self.p4 else 0

    def naive_p4_loc(self) -> int:
        return self.naive_p4.line_counts()["total"] if self.naive_p4 else 0

    def summary(self) -> Dict[str, object]:
        data = self.layout.summary()
        data.update(
            {
                "lucid_loc": self.lucid_loc(),
                "p4_loc": self.p4_loc(),
                "naive_p4_loc": self.naive_p4_loc(),
                "handlers": len(self.checked.handler_results),
                "events": len(self.checked.info.events),
                "globals": len(self.checked.info.globals),
            }
        )
        return data


def count_lucid_loc(source: str) -> int:
    """Lines of code of a Lucid program: non-blank, non-comment lines."""
    count = 0
    in_block_comment = False
    for line in source.splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if not stripped:
            continue
        if stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        count += 1
    return count


def compile_checked(
    checked: CheckedProgram,
    options: Optional[CompilerOptions] = None,
    source: Optional[str] = None,
) -> CompiledProgram:
    """Compile an already-checked program to a pipeline layout (and P4).

    This is the backend half of :func:`compile_program`, split out so
    execution engines (notably :class:`~repro.interp.engine.PisaEngine`) can
    lower a :class:`CheckedProgram` that was checked with per-switch group
    bindings or symbolic bindings — re-checking from source would lose them.
    """
    options = options or CompilerOptions()
    normalized = normalize_program(checked.info)
    layout = build_layout(
        checked.info,
        normalized,
        model=options.target,
        options=MergeOptions(enforce_stage_limit=options.enforce_stage_limit),
    )
    compiled = CompiledProgram(
        checked=checked,
        normalized=normalized,
        layout=layout,
        lucid_source=source,
    )
    if options.emit_p4:
        compiled.p4 = generate_p4(checked.info, layout, style="lucid")
    if options.emit_naive_p4:
        naive_layout = build_layout(
            checked.info,
            normalized,
            model=options.target,
            options=MergeOptions(optimize=False),
        )
        compiled.naive_p4 = generate_p4(checked.info, naive_layout, style="naive")
    return compiled


def compile_program(
    source: str,
    name: str = "<program>",
    options: Optional[CompilerOptions] = None,
) -> CompiledProgram:
    """Compile a Lucid program from source text to a pipeline layout and P4."""
    options = options or CompilerOptions()
    checked = check_program(source, name=name, symbolic_bindings=options.symbolic_bindings)
    return compile_checked(checked, options=options, source=source)
