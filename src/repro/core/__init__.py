"""The public API of the Lucid reproduction.

Typical usage::

    from repro.core import compile_program, check_program, Network, EventInstance

    compiled = compile_program(open("firewall.lucid").read(), name="firewall")
    print(compiled.stages(), "pipeline stages")
    print(compiled.p4.full_text())

    network, switch = single_switch_network(compiled.checked)
    network.inject(0, EventInstance("pkt_out", (1, 2)))
    network.run()

The submodules group the functionality the same way the paper does:

* :mod:`repro.frontend` — parsing, memop checks, the ordered type system;
* :mod:`repro.backend`  — the optimising compiler and P4 generation;
* :mod:`repro.interp`   — the interpreter and multi-switch simulation;
* :mod:`repro.pisa`     — the PISA/Tofino hardware substrate models;
* :mod:`repro.apps`     — the ten applications of Figure 9;
* :mod:`repro.analysis`, :mod:`repro.control` — the evaluation's closed-form
  models (LoC breakdown, Figures 15 and 16) and the remote-control baseline
  (:func:`~repro.control.remote_install_latencies`);
* :mod:`repro.scenarios` — the scenario engine: topologies, streaming
  traffic models, invariants, and the ``python -m repro.scenarios`` CLI;
* :mod:`repro.figures`  — ``python -m repro.figures`` regenerates Section 7
  into ``RESULTS.md``.
"""

from repro.apps import ALL_APPLICATIONS, Application
from repro.backend import (
    CompiledProgram,
    MergeOptions,
    PipelineLayout,
    TofinoModel,
    compile_checked,
    compile_program,
    count_lucid_loc,
)
from repro.backend.p4gen import P4Program, generate_p4
from repro.control import remote_install_latencies
from repro.errors import (
    LayoutError,
    LexError,
    LucidError,
    MemopError,
    OrderError,
    ParseError,
    TypeError_,
)
from repro.frontend import CheckedProgram, check_program, parse_program
from repro.interp import (
    ENGINE_NAMES,
    ENGINES,
    CodegenEngine,
    EventInstance,
    Network,
    PisaEngine,
    ReferenceEngine,
    RuntimeArray,
    SchedulerConfig,
    Switch,
    SwitchEngine,
    SwitchRuntime,
    lucid_hash,
    make_engine,
    single_switch_network,
)
from repro.interp.walker import HandlerInterpreter
from repro.pisa import PisaPipeline, figure14_point
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    run_scenario,
    run_scenario_engines,
)

__all__ = [
    # language frontend
    "parse_program",
    "check_program",
    "CheckedProgram",
    # compiler
    "compile_program",
    "compile_checked",
    "CompiledProgram",
    "MergeOptions",
    "PipelineLayout",
    "P4Program",
    "TofinoModel",
    "generate_p4",
    "count_lucid_loc",
    # interpreter / simulation
    "Network",
    "Switch",
    "SwitchRuntime",
    "HandlerInterpreter",
    # execution engines
    "SwitchEngine",
    "ReferenceEngine",
    "CodegenEngine",
    "PisaEngine",
    "ENGINES",
    "ENGINE_NAMES",
    "make_engine",
    "EventInstance",
    "RuntimeArray",
    "SchedulerConfig",
    "single_switch_network",
    "lucid_hash",
    "PisaPipeline",
    "figure14_point",
    # applications and evaluation support
    "ALL_APPLICATIONS",
    "Application",
    "remote_install_latencies",
    # scenario engine
    "SCENARIOS",
    "Scenario",
    "run_scenario",
    "run_scenario_engines",
    # errors
    "LucidError",
    "LexError",
    "ParseError",
    "MemopError",
    "TypeError_",
    "OrderError",
    "LayoutError",
]
