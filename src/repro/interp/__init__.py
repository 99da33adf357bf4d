"""The Lucid interpreter: event-driven execution of Lucid programs on a
simulated switch or network of switches."""

from repro.interp.arrays import RuntimeArray
from repro.interp.engine import (
    ENGINE_NAMES,
    ENGINES,
    CodegenEngine,
    PisaEngine,
    ReferenceEngine,
    SwitchEngine,
    make_engine,
)
from repro.interp.events import LOCAL, EventInstance
from repro.interp.interpreter import (
    ExecutionResult,
    HandlerInterpreter,
    SwitchRuntime,
    lucid_hash,
)
from repro.interp.network import (
    CONTROL,
    Network,
    SchedulerConfig,
    Switch,
    SwitchStats,
    TraceEntry,
    single_switch_network,
)

__all__ = [
    "RuntimeArray",
    "EventInstance",
    "LOCAL",
    "CONTROL",
    "SwitchEngine",
    "ReferenceEngine",
    "CodegenEngine",
    "PisaEngine",
    "ENGINES",
    "ENGINE_NAMES",
    "make_engine",
    "HandlerInterpreter",
    "SwitchRuntime",
    "ExecutionResult",
    "lucid_hash",
    "Network",
    "Switch",
    "SwitchStats",
    "SchedulerConfig",
    "TraceEntry",
    "single_switch_network",
]
