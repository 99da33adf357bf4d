"""``python -m repro.figures`` and the committed ``RESULTS.md`` it writes."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import figures
from repro.control import remote_install_latencies

REPO = Path(__file__).resolve().parents[1]

# Figure 17's data-plane side as the retired standalone Figure 17 program
# measured it: 640 generated flows (100K flows/s, seed 17) replayed into
# 2 x 1,024 slots, identical on all three engines
PARENT_FIG17 = {
    "Fig. 17/dp_mean_ns": 26.25,
    "Fig. 17/dp_max_ns": 600,
    "Fig. 17/first_pass_share": 0.95625,
}


@pytest.fixture(scope="module")
def evaluation():
    return figures.evaluate()


def test_results_md_is_what_the_module_renders_now(evaluation):
    """A compiler change that moves a pinned number fails here until
    ``python -m repro.figures`` is rerun and ``RESULTS.md`` committed."""
    assert figures.render(*evaluation) == (REPO / "RESULTS.md").read_text()


def test_every_row_is_inside_its_tolerance_of_the_paper_value(evaluation):
    values, _ = evaluation
    rows = figures.checks(values)
    assert [row for row in rows if row["ok"] != "yes"] == []
    for label in ("Fig. 9", "Fig. 10", "Fig. 11 (LoC proxy)", "Fig. 12", "Fig. 13", "Fig. 14",
                  "Fig. 15", "Fig. 16", "Fig. 17", "Merge ablation"):
        assert any(row["figure"] == label for row in rows), label


@pytest.mark.parametrize("value, tolerance, ok", [
    (5, ">= 5", True), (4.9, ">= 5", False), (200, "< 200", False), (8, "> 3 and < 8", False),
    (5.5, "> 3 and < 8", True), (0.34, "> 1/3", True), (1 / 3, "> 1/3", False),
    (823_513, "815360 ±1%", True), (823_514, "815360 ±1%", False), (0.0905, "0.08 ±0.01", False),
])
def test_tolerance_grammar(value, tolerance, ok):
    assert figures.within(value, tolerance) is ok


def test_fig17_from_the_scenario_is_what_the_retired_driver_measured(evaluation):
    values, _ = evaluation
    # the scenario's 1,280th event opens a 641st flow (the driver had 640), and
    # its summary rounds means to 0.1 ns and the share to four places
    assert values["Fig. 17/dp_mean_ns"] == pytest.approx(PARENT_FIG17["Fig. 17/dp_mean_ns"], abs=0.1)
    assert values["Fig. 17/dp_max_ns"] == PARENT_FIG17["Fig. 17/dp_max_ns"]
    assert values["Fig. 17/first_pass_share"] == pytest.approx(
        PARENT_FIG17["Fig. 17/first_pass_share"], abs=1e-3)
    # the remote baseline is one draw per flow from the run's own seed
    remote = remote_install_latencies(641, figures.FIG17_SEED)
    assert values["Fig. 17/remote_min_ns"] == min(remote)
    assert values["Fig. 17/remote_mean_ns"] == round(sum(remote) / len(remote), 1)


def test_importing_the_apps_stays_compile_only():
    script = (
        "import sys, repro.apps\n"
        "loaded = [m for m in ('repro.interp', 'repro.obs', 'repro.control') if m in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO / "src",
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
