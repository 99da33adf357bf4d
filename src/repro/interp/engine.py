"""Pluggable switch execution engines.

A :class:`~repro.interp.network.Switch` executes events through a
*switch engine* — the substrate that runs one handler invocation and
returns what it produced.  Three engines ship with the repository:

``reference``
    The tree-walking :class:`~repro.interp.interpreter.HandlerInterpreter`.
    Slow, obviously-correct AST interpretation; the semantic baseline the
    other two are tested against.

``pisa``
    The hardware-accurate model: the program is lowered **once** through
    the full compiler backend (:func:`repro.backend.compiler.compile_checked`
    — atomic tables over the checked program's normalised handlers,
    reordering, table merging, stage layout), the
    resulting :class:`~repro.backend.layout.PipelineLayout` is lowered
    **once** into a stage plan (one flat function per handler: its tables
    in stage order, path conditions as inline tests — see
    :mod:`repro.pisa.pipeline`), and every event then runs its handler's
    plan via :class:`~repro.pisa.pipeline.PisaPipeline`, over the *same*
    :class:`~repro.interp.interpreter.SwitchRuntime` (register file, clock,
    PRNG, externs) the network simulation owns.  It models what only it
    knows — the pipeline (stages traversed, tables executed, which each
    plan adds into its pipeline's counters); the events it ran, the
    recirculation port and the delay queue belong to the event scheduler
    (:class:`~repro.interp.network.Network`), for every engine alike.

``codegen``
    The source-generating fast path (:mod:`repro.interp.codegen`): each
    handler's midend lowering (inlining, normalisation into atomic
    statements — done once by ``check_program``, and the lowering ``pisa``
    and the P4 start from too) is printed as flat Python source, *the stage
    plan without stages*: plain locals, inlined memops and ALU templates,
    pre-bound array cell lists, nested ``if`` where the plan has path
    conditions.  Compiled once per checked program with
    :func:`compile`/``exec`` and shared by every switch running it.  A
    shape the midend cannot lower is refused by ``check_program``, so
    every handler of a checked program runs here.
    Behaviourally identical to ``reference`` and several times faster.  The
    default.

All three return plain :class:`~repro.interp.interpreter.ExecutionResult`
values, the two compiled engines through the one ``run(event)`` closure
:func:`repro.interp.emit.dispatcher` builds over a switch's bound handler
table, so the network scheduler is engine-agnostic: generated events —
including delayed and multicast ones — round-trip through the same
scheduler heap regardless of the substrate that produced them.  Identical
invariant verdicts and final array digests across engines are pinned by
the scenario parity suite (``tests/test_engines.py`` and
``python -m repro.scenarios run NAME --all-engines``).

Engines are looked up by name in :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import SimulationError
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, HandlerInterpreter, SwitchRuntime


class SwitchEngine:
    """One execution substrate for one switch.

    Subclasses implement :meth:`run`; everything around a handler call —
    scheduling, recirculation, the delay queue — is the scheduler's.
    """

    #: registry name; subclasses must override
    name = "abstract"

    def __init__(self, runtime: SwitchRuntime):
        self.runtime = runtime
        #: the underlying executor object (``Switch.interpreter`` aliases it);
        #: engines wrapping a distinct executor overwrite this
        self.executor = self

    # -- execution ---------------------------------------------------------
    def run(self, event: EventInstance) -> ExecutionResult:
        raise NotImplementedError

    # -- reporting ---------------------------------------------------------
    def pipeline_stats(self) -> Optional[Dict[str, object]]:
        """Per-switch pipeline statistics, or ``None`` when the engine does
        not model a pipeline (the interpreter engines)."""
        return None

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Optional[Dict[str, object]]:
        """Engine-side mutable state as a JSON-serialisable dict, or ``None``
        for engines that keep none (the interpreter engines: all their state
        lives in the shared :class:`SwitchRuntime`, which the network
        snapshot captures).  Must round-trip through :meth:`restore_state`
        so a restored run is byte-identical to an uninterrupted one."""
        return None

    def restore_state(self, state: Optional[Dict[str, object]]) -> None:
        """Restore the state produced by :meth:`snapshot_state`.  Engines
        without checkpoint support must refuse non-empty state rather than
        silently resuming wrong."""
        if state:
            raise SimulationError(
                f"engine '{self.name}' does not support restoring engine state"
            )


class ReferenceEngine(SwitchEngine):
    """Tree-walking AST interpretation (the semantic baseline)."""

    name = "reference"

    def __init__(self, runtime: SwitchRuntime):
        super().__init__(runtime)
        self.executor = HandlerInterpreter(runtime)
        self.run = self.executor.run  # direct bind: zero indirection per event


class CodegenEngine(SwitchEngine):
    """Source-generated handlers: each normalised handler body is printed as
    flat Python source, compiled once per checked program, shared across its
    switches (see :mod:`repro.interp.codegen`), and bound here to this one."""

    name = "codegen"

    def __init__(self, runtime: SwitchRuntime):
        super().__init__(runtime)
        # imported lazily to keep module import order flexible
        from repro.interp.codegen import compile_program
        from repro.interp.emit import dispatcher

        self.module = compile_program(runtime.checked)
        self._handlers = self.module.bind(runtime)
        self.run = dispatcher(self._handlers)

    @property
    def fallback_handler_names(self) -> List[str]:
        """Handlers of the program missing from the bound module: none, since
        a checked program always lowers (``codegen.fallback_handlers`` in
        ``e2ebench/`` reads it through ``Switch.interpreter``)."""
        return sorted(self.runtime.info.handlers.keys() - self._handlers.keys())


def _compiled_for(checked) -> "object":
    """Lower ``checked`` through the backend once, caching the result on the
    checked program itself — the switches running one checked program (every
    switch of a topology) share one layout, and with it the stage plan
    :func:`repro.pisa.pipeline.lower_layout` caches on the compiled program."""
    compiled = getattr(checked, "_engine_compiled", None)
    if compiled is None:
        from repro.backend.compiler import compile_checked

        compiled = checked._engine_compiled = compile_checked(checked)
    return compiled


class PisaEngine(SwitchEngine):
    """Execute events through the compiled pipeline layout; the pipeline
    counts the stages and tables each pass touches — what only it knows; the
    events it ran are the switch's ``SwitchStats.events_handled``."""

    name = "pisa"

    def __init__(self, runtime: SwitchRuntime):
        super().__init__(runtime)
        from repro.pisa.pipeline import PisaPipeline

        self.pipeline = PisaPipeline(_compiled_for(runtime.checked), runtime=runtime)
        self.run = self.pipeline.run

    # -- reporting ---------------------------------------------------------
    def pipeline_stats(self) -> Dict[str, object]:
        return {"stages": self.pipeline.layout.num_stages(), **self.pipeline.counters()}

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return self.pipeline.counters()

    def restore_state(self, state: Optional[Dict[str, object]]) -> None:
        if not state:
            raise SimulationError(
                "pisa engine restore requires the engine state captured by "
                "snapshot_state (got none)"
            )
        self.pipeline.stages_traversed = state["stages_traversed"]
        self.pipeline.max_stages_traversed = state["max_stages_traversed"]
        self.pipeline.tables_executed = state["tables_executed"]


#: engine registry: name -> constructor ``(runtime) -> SwitchEngine``
ENGINES: Dict[str, Type[SwitchEngine]] = {
    ReferenceEngine.name: ReferenceEngine,
    PisaEngine.name: PisaEngine,
    CodegenEngine.name: CodegenEngine,
}

#: the bundled engine names, in semantic-baseline-first order
ENGINE_NAMES = ("reference", "pisa", "codegen")

#: the engine a :class:`~repro.interp.network.Network`, the scenario runner,
#: the service mode and the CLI use when none is named
DEFAULT_ENGINE = "codegen"


def make_engine(name: str, runtime: SwitchRuntime) -> SwitchEngine:
    """Instantiate the engine registered under ``name``."""
    try:
        cls = ENGINES[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine '{name}'; known engines: {sorted(ENGINES)}"
        ) from None
    return cls(runtime)
