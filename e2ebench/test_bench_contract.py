"""The benchmark keeps its contract: ``BENCHMARK.json`` is well-formed, and a
``--smoke`` run (tiny sizes, every check on) prints exactly the workloads and
metrics it declares.  Needs nothing but the standard library and pytest."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(HERE, "bench.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    done = subprocess.run([sys.executable, BENCH, "--smoke"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def test_contract_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == [os.path.basename(HERE)]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_smoke_is_quick_and_correct(smoke):
    result, elapsed = smoke
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert elapsed <= 15, f"--smoke took {elapsed:.1f} s"


def test_smoke_prints_what_the_contract_declares(contract, smoke):
    result, _ = smoke
    declared = {m["name"]: m["unit"]
                for m in contract["end_to_end"] + contract["per_layer"]}
    assert list(result["workloads"]) == [w["name"] for w in contract["workloads"]]
    for workload, metrics in result["workloads"].items():
        assert set(metrics) == set(declared), workload
        for name, entry in metrics.items():
            assert NAME.match(name), name
            assert entry["unit"] == declared[name], name
            assert isinstance(entry["value"], (int, float)), name
        for metric in contract["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, (workload, metric["name"])


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / os.path.basename(HERE),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "bench.py"),
         "--workload", "sro-leafspine", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
