"""The scenario engine: topologies, streaming traffic models, invariants,
and a runner that wires them to the bundled applications.

Quick tour::

    from repro.scenarios import SCENARIOS, run_scenario, run_scenario_all_engines

    result = run_scenario(SCENARIOS["nat-churn"], events=20_000, seed=1)
    assert result.ok                       # every invariant held
    results = run_scenario_all_engines(SCENARIOS["dns-reflection"], 5_000, 1)

or from the command line::

    python -m repro.scenarios list
    python -m repro.scenarios run heavy-hitter-fattree --events 1000000 --seed 1

Traffic is streamed (`Network.run(source=...)`), so the peak memory of a run
is independent of the event count.
"""

from repro.scenarios.invariants import Invariant, InvariantReport
from repro.scenarios.registry import SCENARIOS, Scenario, get, register
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioSetup,
    network_array_digest,
    run_scenario,
    run_scenario_all_engines,
    run_scenario_engines,
    run_setup,
)
from repro.scenarios.topology import (
    Topology,
    fat_tree,
    leaf_spine,
    line,
    ring,
    single_switch,
)

__all__ = [
    "Invariant",
    "InvariantReport",
    "SCENARIOS",
    "Scenario",
    "get",
    "register",
    "ScenarioResult",
    "ScenarioSetup",
    "network_array_digest",
    "run_scenario",
    "run_scenario_all_engines",
    "run_scenario_engines",
    "run_setup",
    "Topology",
    "fat_tree",
    "leaf_spine",
    "line",
    "ring",
    "single_switch",
]
