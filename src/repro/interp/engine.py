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
    knows — the pipeline (events, stages traversed, tables executed); the
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

All three produce :class:`~repro.interp.interpreter.ExecutionResult`
values, so the network scheduler is engine-agnostic: generated events —
including delayed and multicast ones — round-trip through the same
scheduler heap regardless of the substrate that produced them.  Identical
invariant verdicts and final array digests across engines are pinned by
the scenario parity suite (``tests/test_engines.py`` and
``python -m repro.scenarios run NAME --all-engines``).

Engines are looked up by name in :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.errors import SimulationError
from repro.interp.events import EventInstance
from repro.interp.interpreter import ExecutionResult, HandlerInterpreter, SwitchRuntime
from repro.obs.metrics import OBS as _OBS, REGISTRY

# PISA-engine instruments; only touched behind an ``if _OBS.enabled:`` guard
_M_PISA_EVENTS = REGISTRY.counter(
    "repro_engine_pisa_events_total",
    "Events executed through the PISA pipeline engine.")
_M_PISA_STAGES = REGISTRY.counter(
    "repro_engine_pisa_stages_traversed_total",
    "Physical stages traversed by PISA-engine events.")
_M_PISA_TABLES = REGISTRY.counter(
    "repro_engine_pisa_tables_executed_total",
    "Match-action tables executed by PISA-engine events.")


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

    # -- lifecycle / reporting --------------------------------------------
    def reset(self) -> None:
        """Clear engine-side accounting (called by ``Network.reset()``)."""

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
    flat Python source, compiled once per checked program, and shared across
    its switches (see :mod:`repro.interp.codegen`)."""

    name = "codegen"

    def __init__(self, runtime: SwitchRuntime):
        super().__init__(runtime)
        # imported lazily to keep module import order flexible
        from repro.interp.codegen import CodegenSwitchRuntime

        self.executor = CodegenSwitchRuntime(runtime)
        self.run = self.executor.run
        # obs-free dispatch for the network's inlined batch drain (which only
        # engages when nothing — tracer, profiler, obs — watches per-event)
        self.run_fast = self.executor.run_fast


def _compiled_for(checked) -> "object":
    """Lower ``checked`` through the backend once, caching the result on the
    checked program itself — the switches running one checked program (every
    switch of a topology) share one layout, and with it the stage plan
    :func:`repro.pisa.pipeline.lower_layout` caches on the compiled program."""
    compiled = getattr(checked, "_engine_compiled", None)
    if compiled is None:
        from repro.backend.compiler import CompilerOptions, compile_checked

        compiled = checked._engine_compiled = compile_checked(
            checked, options=CompilerOptions(emit_p4=False))
    return compiled


class PisaEngine(SwitchEngine):
    """Execute events through the compiled pipeline layout, counting the
    stages and tables each pass touches."""

    name = "pisa"

    def __init__(self, runtime: SwitchRuntime):
        super().__init__(runtime)
        from repro.pisa.pipeline import PisaPipeline

        self.pipeline = PisaPipeline(_compiled_for(runtime.checked), runtime=runtime)
        # counters
        self.events = 0
        self.stages_traversed = 0
        self.max_stages_traversed = 0
        self.tables_executed = 0

    # -- execution ---------------------------------------------------------
    def run(self, event: EventInstance) -> ExecutionResult:
        passed = self.pipeline.process(event)
        self.events += 1
        self.stages_traversed += passed.stages_traversed
        if passed.stages_traversed > self.max_stages_traversed:
            self.max_stages_traversed = passed.stages_traversed
        self.tables_executed += passed.tables_executed
        if _OBS.enabled:
            _M_PISA_EVENTS.inc()
            _M_PISA_STAGES.inc(passed.stages_traversed)
            _M_PISA_TABLES.inc(passed.tables_executed)
        # the pass result is itself the ExecutionResult the scheduler reads
        return passed

    # -- lifecycle / reporting --------------------------------------------
    def reset(self) -> None:
        self.events = 0
        self.stages_traversed = 0
        self.max_stages_traversed = 0
        self.tables_executed = 0

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "stages_traversed": self.stages_traversed,
            "max_stages_traversed": self.max_stages_traversed,
            "tables_executed": self.tables_executed,
        }

    def restore_state(self, state: Optional[Dict[str, object]]) -> None:
        if not state:
            raise SimulationError(
                "pisa engine restore requires the engine state captured by "
                "snapshot_state (got none)"
            )
        self.events = state["events"]
        self.stages_traversed = state["stages_traversed"]
        self.max_stages_traversed = state["max_stages_traversed"]
        self.tables_executed = state["tables_executed"]

    def pipeline_stats(self) -> Dict[str, object]:
        return {
            "stages": self.pipeline.layout.num_stages(),
            "events": self.events,
            "stages_traversed": self.stages_traversed,
            "max_stages_traversed": self.max_stages_traversed,
            "tables_executed": self.tables_executed,
        }


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
