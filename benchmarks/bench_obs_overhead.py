#!/usr/bin/env python3
"""Overhead of the observability layer on the scheduler hot path.

The metrics instrumentation in :mod:`repro.interp.network` is designed to
cost one predicted-false branch per site when disabled (the
``if OBS.enabled:`` fast path — see :mod:`repro.obs.metrics`).  With
observability off, ``Network.run`` inlines its dispatch and never enters
``Network._dispatch``, so the only instrumented code an unobserved event
still executes is ``Network._schedule_generated`` (one ``OBS.enabled`` read
per generated event; its counters accumulate in locals and flush in one
guarded block).  This harness measures that cost:

* **baseline** — the shipped scheduler with ``_schedule_generated`` swapped
  for itself minus every ``OBS.enabled`` check and metric call (recompiled
  from its own source, see :func:`_uninstrumented`);
* **disabled** — the shipped code with observability off (the default);
* **enabled** — the shipped code with the metrics registry enabled (every
  event then goes through ``_dispatch`` and its metric sites).

Run standalone::

    python benchmarks/bench_obs_overhead.py            # full measurement
    python benchmarks/bench_obs_overhead.py --smoke    # CI mode

``--smoke`` asserts the disabled-mode overhead — ``1 - disabled_eps /
baseline_eps`` on one scenario's drain + settle, i.e. what the guards in
``_schedule_generated`` cost a run nobody observes — stays at or below 5%
(best-of-N interleaved rounds, so scheduler noise mostly cancels).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import json
import sys
import textwrap

from repro.interp import network as network_module
from repro.interp.network import Network
from repro.obs import disable, enable
from repro.scenarios import SCENARIOS, run_scenario

DEFAULT_SCENARIO = "heavy-hitter-single"
DEFAULT_EVENTS = 8_000
SMOKE_EVENTS = 4_000
MAX_DISABLED_OVERHEAD = 0.05


class _DropObsBlocks(ast.NodeTransformer):
    """Removes every ``if _OBS.enabled:`` statement, counting them."""

    def __init__(self):
        self.dropped = 0

    def visit_If(self, node):
        if ast.unparse(node.test) == "_OBS.enabled":
            self.dropped += 1
            return None
        return self.generic_visit(node)


def _uninstrumented(method):
    """``method`` recompiled from its own source without its observability
    blocks — derived, so it cannot drift from the shipped scheduler the way
    a hand copy would."""
    dropper = _DropObsBlocks()
    tree = dropper.visit(ast.parse(textwrap.dedent(inspect.getsource(method))))
    if not dropper.dropped:
        raise AssertionError(f"{method.__qualname__} has no `if _OBS.enabled:` block to drop")
    namespace = {}
    exec(compile(tree, f"<uninstrumented {method.__qualname__}>", "exec"),
         vars(network_module), namespace)
    return namespace[method.__name__]


@contextlib.contextmanager
def _baseline_patch():
    """Swap the uninstrumented ``_schedule_generated`` in for the duration."""
    shipped = Network._schedule_generated
    Network._schedule_generated = _uninstrumented(shipped)
    try:
        yield
    finally:
        Network._schedule_generated = shipped


def _eps(scenario, events: int, seed: int, engine: str) -> float:
    result = run_scenario(scenario, events, seed, engine=engine)
    if not result.ok:
        raise AssertionError(f"scenario failed under {engine}: {result.invariants}")
    return result.events_per_sec


def measure(scenario_name: str, events: int, seed: int, engine: str, rounds: int):
    """Best-of-``rounds`` events/sec for baseline / disabled / enabled,
    interleaved so machine noise hits all three modes alike."""
    scenario = SCENARIOS[scenario_name]
    best = {"baseline": 0.0, "disabled": 0.0, "enabled": 0.0}
    for _ in range(rounds):
        with _baseline_patch():
            best["baseline"] = max(best["baseline"], _eps(scenario, events, seed, engine))
        disable()
        best["disabled"] = max(best["disabled"], _eps(scenario, events, seed, engine))
        enable()
        try:
            best["enabled"] = max(best["enabled"], _eps(scenario, events, seed, engine))
        finally:
            disable()
    overhead = 1.0 - best["disabled"] / best["baseline"] if best["baseline"] else 0.0
    return {
        "engine": engine,
        "events": events,
        "baseline_eps": round(best["baseline"]),
        "disabled_eps": round(best["disabled"]),
        "enabled_eps": round(best["enabled"]),
        "disabled_overhead": round(overhead, 4),
        "enabled_overhead": round(
            1.0 - best["enabled"] / best["baseline"] if best["baseline"] else 0.0, 4
        ),
    }


def print_rows(rows):
    headers = list(rows[0].keys())
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=str, default=DEFAULT_SCENARIO)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--engines", type=str, default="codegen,reference,pisa",
                        help="comma-separated engine names")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved measurement rounds (best-of)")
    parser.add_argument("--out", type=str, default="BENCH_obs_overhead.json",
                        help="JSON report path (empty string disables)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: codegen engine only, fewer events, "
                        f"asserts disabled-mode overhead <= {MAX_DISABLED_OVERHEAD:.0%}")
    args = parser.parse_args(argv)

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: {sorted(SCENARIOS)}")
        return 2
    if args.smoke:
        engines = ["codegen"]
        events = min(args.events, SMOKE_EVENTS)
        rounds = max(3, args.rounds)
    else:
        engines = [e for e in args.engines.split(",") if e]
        events = args.events
        rounds = args.rounds

    rows = [measure(args.scenario, events, args.seed, eng, rounds) for eng in engines]
    print(f"=== observability overhead on {args.scenario} "
          f"(best of {rounds} interleaved rounds) ===")
    print_rows(rows)

    if args.out:
        report = {"scenario": args.scenario, "seed": args.seed, "rounds": rounds, "results": rows}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.smoke:
        worst = max(rows, key=lambda r: r["disabled_overhead"])
        if worst["disabled_overhead"] > MAX_DISABLED_OVERHEAD:
            print(
                f"OBS OVERHEAD REGRESSION: disabled-mode overhead "
                f"{worst['disabled_overhead']:.1%} on {worst['engine']} "
                f"(budget {MAX_DISABLED_OVERHEAD:.0%}) — a metric site is "
                f"missing its OBS.enabled guard"
            )
            return 1
        print(f"smoke ok: disabled-mode overhead {worst['disabled_overhead']:.1%} "
              f"<= {MAX_DISABLED_OVERHEAD:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
