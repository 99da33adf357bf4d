"""A cold start loads what it runs.

Preparing a ``codegen`` scenario run in a fresh interpreter imports neither
the P4 printer, the tracer, the profiler, the checkpoint store nor the tree
walker; a P4 compile, a traced run, a serve run and a ``reference`` run each
import theirs on demand.  One child interpreter takes the steps in order and
reports which of those modules are loaded after each."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

ON_DEMAND = (
    "repro.backend.p4gen",
    "repro.obs.profile",
    "repro.obs.trace",
    "repro.interp.walker",
    "repro.service.checkpoint",
)

STEPS = """
import io, json, os, sys, tempfile

from repro.scenarios import registry
from repro.scenarios.runner import prepare_run

loaded = {}
def note(step):
    loaded[step] = sorted(m for m in ON_DEMAND if m in sys.modules)

scenario = registry.get("sro-replicated-writes")
prepare_run(scenario.build(200, 1), "codegen")
note("cold")

from repro.apps import ALL_APPLICATIONS
ALL_APPLICATIONS["SRO"].compile()
note("p4")

from repro.scenarios.__main__ import main
with tempfile.TemporaryDirectory() as tmp:
    trace = os.path.join(tmp, "t.json")
    assert main(["run", "sro-replicated-writes", "--events", "200",
                 "--trace", trace, "--profile", "--quiet"]) == 0
    note("traced")

    from repro.service.server import ScenarioService, ServiceConfig
    config = ServiceConfig(engine="codegen", seed=1, events=200,
                           checkpoint_dir=os.path.join(tmp, "ck"),
                           telemetry_stream=io.StringIO())
    assert ScenarioService(scenario, config).run().result.ok
    note("serve")

prepare_run(scenario.build(200, 1), "reference")
note("reference")
sys.stdout.write("\\n" + json.dumps(loaded) + "\\n")
"""


@pytest.fixture(scope="module")
def loaded():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = f"ON_DEMAND = {ON_DEMAND!r}\n{STEPS}"
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_codegen_cold_start_loads_no_on_demand_module(loaded):
    assert loaded["cold"] == []


@pytest.mark.parametrize("step, adds", [
    ("p4", {"repro.backend.p4gen"}),
    ("traced", {"repro.obs.trace", "repro.obs.profile"}),
    ("serve", {"repro.service.checkpoint"}),
    ("reference", {"repro.interp.walker"}),
])
def test_each_run_loads_its_module_on_demand(loaded, step, adds):
    steps = list(loaded)
    before = set(loaded[steps[steps.index(step) - 1]])
    assert set(loaded[step]) - before == adds
