"""Common infrastructure for the example applications (Figure 9).

Every application module defines a Lucid source program; the
:class:`Application` record ties it to the paper's reported numbers and the
invariants it upholds, and is what the evaluation (:mod:`repro.figures`) and
the scenario catalogue iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.backend.compiler import CompiledProgram, CompilerOptions, compile_program


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
    #: names of the safety/consistency invariants this application upholds,
    #: resolved against the scenario engine's invariant registry
    #: (:mod:`repro.scenarios.invariants`) by :meth:`make_invariants`
    invariants: Tuple[str, ...] = ()

    def compile(
        self, options: Optional[CompilerOptions] = None, emit_naive_p4: bool = True
    ) -> CompiledProgram:
        """Compile this application with the Lucid compiler."""
        options = replace(options or CompilerOptions(), emit_naive_p4=emit_naive_p4)
        return compile_program(self.source, name=self.key, options=options)

    def make_invariants(self) -> List[object]:
        """Instantiate this application's default invariant checks.

        The invariant classes live in :mod:`repro.scenarios.invariants`; the
        import is deferred so the application catalogue stays importable
        without the scenario engine (and without import cycles).
        """
        from repro.scenarios.invariants import make_invariant

        return [make_invariant(name) for name in self.invariants]
