"""The Lucid compiler driver: frontend -> mid-end -> layout -> P4.

:func:`compile_program` is the main entry point used by the public API, the
applications, the examples, and the evaluation benchmarks.  It returns a
:class:`CompiledProgram` bundling the checked program, the pipeline layout,
the generated P4, and the statistics the paper's evaluation reports (stage
counts, optimisation ratios, parallelism, lines of code).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.backend.layout import PipelineLayout
from repro.backend.merge import MergeOptions, build_layout
from repro.errors import LayoutError
from repro.frontend.type_checker import CheckedProgram, check_program
# normalize_program runs inside check_program; the name stays here for the
# per-layer spans of e2ebench/layers.py, which wrap it by this module's name
from repro.midend.normalize import NormalizedHandler, normalize_program  # noqa: F401
from repro.records import record

if TYPE_CHECKING:
    from repro.backend.p4gen import P4Program


def generate_p4(info, layout: PipelineLayout, style: str = "lucid") -> P4Program:
    """:func:`repro.backend.p4gen.generate_p4`, imported on the first call."""
    from repro.backend import p4gen

    return p4gen.generate_p4(info, layout, style)


@record
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


def compile_checked(checked: CheckedProgram) -> CompiledProgram:
    """Lay out an already-checked program, printing no P4 and refusing nothing.

    This is the execution engines' lowering (notably
    :class:`~repro.interp.engine.PisaEngine`): it takes a
    :class:`CheckedProgram` that was checked with per-switch group bindings or
    symbolic bindings — re-checking from source would lose them — and lays it
    out however many stages it needs, because the simulator runs any checked
    program.  The layout starts from the lowering checking produced,
    ``checked.normalized``: a checked program always has one.
    """
    normalized = checked.normalized
    return CompiledProgram(
        checked=checked,
        normalized=normalized,
        layout=build_layout(checked.info, normalized),
    )


def compile_program(
    source: str,
    name: str = "<program>",
    emit_naive_p4: bool = False,
) -> CompiledProgram:
    """Compile a Lucid program from source text to a pipeline layout and P4.

    A program whose layout does not fit the Tofino's stages is refused with a
    :class:`~repro.errors.LayoutError`.  With ``emit_naive_p4`` the
    hand-written-style P4 of the unoptimised layout is printed too.
    """
    compiled = compile_checked(check_program(source, name=name))
    layout = compiled.layout
    if not layout.fits():
        raise LayoutError(
            f"program '{name}' requires {layout.num_stages()} stages but the "
            f"target provides {layout.model.num_stages}"
        )
    info = compiled.checked.info
    compiled.lucid_source = source
    compiled.p4 = generate_p4(info, layout, style="lucid")
    if emit_naive_p4:
        naive_layout = build_layout(info, compiled.normalized, options=MergeOptions(optimize=False))
        compiled.naive_p4 = generate_p4(info, naive_layout, style="naive")
    return compiled
