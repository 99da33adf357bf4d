#!/usr/bin/env python3
"""One repeatable end-to-end benchmark (see README.md beside this file).

    python3 e2ebench/bench.py                      all five workloads
    python3 e2ebench/bench.py --workload sfw-pisa  one workload
    python3 e2ebench/bench.py --smoke              tiny sizes, every check on
    python3 e2ebench/bench.py --selfcheck          the benchmark's own noise

The driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``:
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; without ``--trace`` both are taken.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

How a run is made steady (ISSUE 12, measured on a 2-vCPU shared VM whose
speed drifts by 1.5x for seconds at a time):

* a time is the minimum over the passes of one process, a rate the maximum —
  a deterministic pass can only be slowed by a neighbour, never sped up;
  the median and IQR over the passes are reported beside each value;
* ``setup_s`` comes from fresh child interpreters, one launched after each
  timed pass, so set-up and pass samples span the same window;
* one workload per process, ``PYTHONHASHSEED=0``, one client in a closed
  loop, never more busy processes than the workload itself needs;
* scratch files live under ``e2ebench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)  # where the workloads import ``repro`` from

#: the end-to-end metrics, in ``BENCHMARK.json`` order: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("run_total_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + layers.PER_LAYER}

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------
def spread(values, best):
    """The gated value (best of the samples) with the ungated median and
    interquartile range beside it."""
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"value": best(values), "median": statistics.median(values),
            "iqr": iqr, "n": len(values)}


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, echo=False):
    """Run a helper process to completion; returns the JSON object on the
    last line of its standard output (``echo`` prints the lines before it)."""
    done = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    *report, last = done.stdout.strip().splitlines()
    if echo and report:
        print("\n".join(report))
    return json.loads(last)


def host_info():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = "unknown"  # the driver's checkout is not a git repository
    return {"host_cpus": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "git_sha": git_sha}


def peak_rss_mib():
    """Peak resident set of this process or of any child it has waited for
    (the shard workers), whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# one workload, one process
# ---------------------------------------------------------------------------
def measure(workload, seed, seconds, trace, smoke, tmp):
    """Run ``workload``: a discarded warm-up pass, timed passes with a cold
    start after each for ``seconds``, the reference check in a child, and
    (unless ``trace == 0``) the traced pass.  ``tmp`` is a scratch directory.
    Returns the report dict."""
    events = workload.smoke_events if smoke else workload.events
    workload.load()
    checks = []  # (what, ok) — every entry is one attempted operation

    # with --trace 1 the untraced passes only anchor the overhead ratio; most
    # of the time goes to traced passes
    timed_budget = seconds * (0.4 if trace == 1 else 1.0)
    min_passes = 2 if smoke else 3
    cold_argv = [os.path.join(HERE, "coldstart.py"), workload.name, str(seed),
                 "0" if trace == 0 else "1"]

    workload.run_pass(seed, events, tmp)  # warm-up: caches fill, not timed
    passes, cold = [], []
    started = perf_counter()
    while True:
        lap = perf_counter()
        gc.collect()
        done = workload.run_pass(seed, events, tmp)
        passes.append({"total_s": done.total_s, "window_s": done.window_s,
                       "work": done.work, "digest": done.digest})
        checks.append((f"pass {len(passes)} ok", done.ok))
        extra = done.extra
        cold.append(run_child(cold_argv))
        now = perf_counter()
        enough = len(passes) >= min_passes
        if enough and (smoke or now - started + (now - lap) > timed_budget):
            break
    rss = peak_rss_mib()

    digest = passes[0]["digest"]
    checks.append(("digest identical across passes",
                   all(p["digest"] == digest for p in passes)))
    reference = None
    if workload.reference is not None:
        reference = run_child([os.path.abspath(__file__), "--reference",
                               "--workload", workload.name, "--seed", str(seed),
                               *(["--smoke"] if smoke else [])])
        checks.append(("digest equals the reference run",
                       workload.check_reference(reference, digest)))

    metrics = {
        "setup_s": spread([c["setup_s"] for c in cold], min),
        "work_per_s": spread([p["work"] / p["window_s"] for p in passes], max),
        "run_total_s": spread([p["total_s"] for p in passes], min),
        "peak_rss_mb": {"value": rss},
    }
    layer_metrics = None
    if trace != 0:
        layer_metrics, traced_window_s = _trace(
            workload, seed, events, tmp, smoke, digest, checks,
            seconds - timed_budget if trace == 1 else 0.0)
        layer_metrics["obs.traced_overhead_ratio"] = traced_window_s / min(
            p["window_s"] for p in passes)
        layer_metrics["import_s"] = min(c["import_s"] for c in cold)
        layer_metrics["engine.lower_cold_s"] = min(c["lower_cold_s"] for c in cold)
        layer_metrics.update(workload.versus_reference(
            reference, metrics["run_total_s"]["value"], extra))

    failed = sum(1 for _, ok in checks if not ok)
    return {
        "benchmark": "e2ebench",
        "schema_version": SCHEMA_VERSION,
        "claim": None,
        **host_info(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "events": events,
        "unit_of_work": workload.unit,
        "passes": passes,
        "cold_starts": cold,
        "reference": reference,
        "rows": extra.get("rows"),
        "checks": [{"check": what, "ok": ok} for what, ok in checks],
        "attempted": len(checks),
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": metrics if trace != 1 else None,
        "per_layer": layer_metrics,
    }


def _trace(workload, seed, events, tmp, smoke, digest, checks, budget):
    """Run traced passes (one, or as many as fit in ``budget`` seconds), write
    the spans of the fastest to ``out/trace-<workload>.json`` and return the
    per-layer metrics and that pass's steady window."""
    best = None  # (probe, pass) of the fastest traced pass so far
    chunks = []  # the serve chunks of every traced pass, for the percentiles
    count = 0
    started = perf_counter()
    while True:
        lap = perf_counter()
        gc.collect()
        count += 1
        probe, done = layers.traced_pass(
            workload, seed, events, tmp, f"{workload.name}-seed{seed}-{count}")
        checks.append((f"traced pass {count} ok and digest unchanged",
                       done.ok and done.digest == digest))
        chunks.extend(probe.rec.named("network.drain"))
        if best is None or done.window_s < best[1].window_s:
            best = (probe, done)
        now = perf_counter()
        if smoke or now - started + (now - lap) > budget:
            break
    probe, done = best
    metrics = layers.span_metrics(probe, done, chunks)
    probe.rec.write(os.path.join(OUT, f"trace-{workload.name}.json"))
    return metrics, done.window_s


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def result_line(report):
    """The one JSON object the driver reads."""
    values = {}
    for name, entry in (report["end_to_end"] or {}).items():
        values[name] = entry["value"]
    values.update(report["per_layer"] or {})
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def print_report(report):
    name = report["workload"]
    print(f"== {name}: seed {report['seed']}, {report['events']} "
          f"{'rounds' if report['unit_of_work'] == 'programs' else 'events'}, "
          f"{len(report['passes'])} passes, {len(report['cold_starts'])} cold starts")
    for metric, entry in (report["end_to_end"] or {}).items():
        line = f"{name} {metric} {entry['value']:.6g} {UNITS[metric]}"
        if "median" in entry:
            line += (f"  ({metric}.median {entry['median']:.6g}, "
                     f"{metric}.iqr {entry['iqr']:.3g}, n={entry['n']})")
        print(line)
    for metric, value in (report["per_layer"] or {}).items():
        print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
    for row in report["rows"] or []:
        print(f"{name} app {row['app']}: {row['stages']} stages, "
              f"{row['p4_loc']} P4 LoC ({row['naive_p4_loc']} naive), "
              f"{row['best_compile_ms']:.2f} ms")
    if report["rows"]:
        geomean = statistics.geometric_mean(
            row["best_compile_ms"] for row in report["rows"])
        print(f"{name} geometric mean of per-app compile time {geomean:.3f} ms")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"{name} FAILED: {check['check']}")
    print(f"{name} fail_ratio {report['failed']}/{report['attempted']}")


def save_report(report):
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(
        OUT, f"{report['workload']}-seed{report['seed']}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(OUT, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(report, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def run_workload_process(name, args, trace, echo=True):
    """One workload in its own fresh interpreter; returns its result line."""
    argv = [os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    return run_child(argv, echo=echo)


def run_all(names, args):
    results = {name: run_workload_process(name, args, args.trace) for name in names}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0 if correct else 1


def selfcheck(names, args, contract):
    """Two sets of ``--runs`` runs of the same tree: per workload and
    end-to-end metric the two medians, their gap and the bound."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    sets = []
    for label in ("A", "B"):
        runs = {name: [] for name in names}
        for index in range(args.runs):
            for name in names:
                print(f"selfcheck set {label} run {index + 1}/{args.runs}: {name}",
                      file=sys.stderr)
                runs[name].append(run_workload_process(name, args, 0, echo=False))
        sets.append(runs)
    worst = 0
    print(f"{'workload':18} {'metric':12} {'median A':>12} {'median B':>12} "
          f"{'gap':>7} {'bound':>6}")
    for name in names:
        for metric, bound in bounds.items():
            a, b = (statistics.median(r["metrics"][metric]["value"] for r in runs[name])
                    for runs in sets)
            gap = abs(b - a) / a
            flag = "" if gap <= bound else "  EXCEEDS BOUND"
            worst += gap > bound
            print(f"{name:18} {metric:12} {a:12.6g} {b:12.6g} {gap:7.2%} "
                  f"{bound:6.0%}{flag}")
    failed = sum(r["failed"] for runs in sets for rs in runs.values() for r in rs)
    print(f"selfcheck: {worst} metric(s) beyond their bound, {failed} failed operation(s)")
    return 1 if worst or failed else 0


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"e2ebench: no program to measure: {SRC}/repro is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1,
                        help="traffic seed (a claim must also hold on --seed 2)")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two passes, every check on")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure the benchmark's own run-to-run gap")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set for --selfcheck")
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck([args.workload] if args.workload else names, args, contract)
    if args.workload is None:
        return run_all(names, args)

    # the workload process proper: pinned hash seed, repro importable
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    workload = WORKLOADS[args.workload]
    if args.reference:
        workload.load()
        events = workload.smoke_events if args.smoke else workload.events
        print(json.dumps(workload.reference(args.seed, events)))
        return 0
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        report = measure(workload, args.seed, args.seconds, args.trace,
                         args.smoke, tmp)
    save_report(report)
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0  # a result was printed; its "correct" field carries the verdict


if __name__ == "__main__":
    sys.exit(main())
