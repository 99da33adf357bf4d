"""Common infrastructure for the example applications (Figure 9).

Every application module defines a Lucid source program; the
:class:`Application` record ties it to the paper's reported numbers, and is
what the evaluation (:mod:`repro.figures`) and the scenario catalogue iterate
over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.compiler import CompiledProgram, compile_program


@dataclass(frozen=True)
class Application:
    """One data-plane application with integrated control."""

    #: short key used in tables (e.g. "SFW")
    key: str
    #: human readable name (Figure 9's "Application" column)
    name: str
    #: one-line description
    description: str
    #: the role of control events, as bolded in Figure 9
    control_role: str
    #: Lucid source text
    source: str
    #: the Lucid LoC / Tofino stage numbers reported in Figure 9 of the paper
    paper_lucid_loc: int = 0
    paper_p4_loc: int = 0
    paper_stages: int = 0

    def compile(self, emit_naive_p4: bool = True) -> CompiledProgram:
        """Compile this application with the Lucid compiler."""
        return compile_program(self.source, name=self.key, emit_naive_p4=emit_naive_p4)
