"""Command-line entry point of the scenario engine.

::

    python -m repro.scenarios list
    python -m repro.scenarios run <name> [--events N] [--seed S]
                                  [--engine reference|pisa|codegen]
                                  [--all-engines]
                                  [--shards N] [--shard-engines E1,E2,...]
                                  [--trace PATH] [--profile] [--metrics]
                                  [--json PATH] [--quiet]
    python -m repro.scenarios serve <name> [--events N | --unbounded]
                                  [--seed S] [--engine E]
                                  [--checkpoint-dir DIR] [--checkpoint-every N]
                                  [--telemetry PATH] [--telemetry-every N]
                                  [--chunk N] [--keep N] [--max-events N]
                                  [--fresh]
    python -m repro.scenarios soak [<name> ...] [--events N] [--seed S]
                                  [--engine E] [--checkpoint-at N] [--json PATH]

``--engine`` selects the execution engine (default ``codegen``);
``--all-engines`` runs reference, the PISA pipeline engine AND codegen and
requires identical invariant verdicts and final array digests across all
three.  ``run`` exits 0 when every invariant held (and, with
``--all-engines``, when the engines agreed); 1 otherwise.

Observability (see :mod:`repro.obs`): ``--trace PATH`` writes the run's
event-lifecycle span tree as Chrome trace-event JSON (open in Perfetto);
with ``--all-engines`` one file per engine is written
(``out.<engine>.json``) and the traces are required to be byte-identical.
``--profile`` prints a top-N hot-handler report (plus per-PISA-stage rows);
``--metrics`` enables the global metrics registry and dumps its Prometheus
text exposition after the run.

``--shards N`` partitions the topology over N worker processes under the
conservative-lookahead barrier (see :mod:`repro.shard`); results are
byte-identical to ``--shards 1``.  ``--shard-engines`` optionally names one
engine per shard (comma-separated).  Sharding composes with ``--metrics``
(the registry reads the merged ledger the coordinator restores) but not
with ``--trace``/``--profile`` or ``--all-engines``.

``serve`` runs the scenario as a long-lived process: traffic streams in
bounded chunks, JSON-lines telemetry goes to ``--telemetry`` (stderr by
default), rolling checkpoints land in ``--checkpoint-dir``, SIGTERM/SIGINT
stop cleanly after writing a checkpoint, SIGUSR1 prints the same metrics
exposition ``--metrics`` prints to stderr, and a restarted serve resumes
from the newest checkpoint (``--fresh`` ignores it).  Exit code: 0 when stopped
mid-stream or finished with all invariants holding, 1 on violations.

``soak`` is the checkpoint/restore determinism gate: for each named
scenario (default: all) it runs straight-through AND as two serve runs over
one checkpoint directory, the first stopped at ``--checkpoint-at`` handled
events (default: half; past the end it resumes a finished run), and exits
non-zero unless both runs agree on every deterministic field.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import SimulationError
from repro.interp.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.scenarios.registry import SCENARIOS, get
from repro.scenarios.runner import (
    CHUNK_EVENTS,
    ScenarioResult,
    run_scenario,
    run_scenario_engines,
)


def _print_listing() -> None:
    width = max(len(name) for name in SCENARIOS)
    print(f"{'name'.ljust(width)}  app     topology        title")
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        print(f"{name.ljust(width)}  {s.app_key.ljust(6)}  {s.topology.ljust(14)}  {s.title}")


def _print_result(result: ScenarioResult, quiet: bool) -> None:
    status = "ok" if result.ok else "FAILED"
    print(
        f"[{result.engine}] {result.scenario}: {status} — "
        f"{result.events_injected} injected, {result.events_handled} handled, "
        f"{result.sim_ns / 1e6:.2f} ms simulated, "
        f"{result.events_per_sec:,.0f} events/s, digest {result.array_digest}"
    )
    for report in result.invariants:
        mark = "ok " if report.ok else "VIOLATED"
        print(f"  [{mark}] {report.name}" + (f" ({report.violations} violations)" if not report.ok else ""))
        if not report.ok and not quiet:
            for message in report.messages:
                print(f"        {message}")
    totals = result.pipeline_totals
    if totals:
        print(
            "  pipeline: "
            f"{totals.get('stages', 0)} stages occupied, "
            f"{totals.get('recirculated_events', 0)} events recirculated, "
            f"peak queue depth {totals.get('peak_queue_depth', 0)}, "
            f"{totals.get('recirc_passes', 0)} recirc passes "
            f"({totals.get('recirc_bytes', 0)} B"
            + (
                f", {totals['recirc_bandwidth_bps'] / 1e9:.3f} Gb/s"
                if "recirc_bandwidth_bps" in totals
                else ""
            )
            + f"), {totals.get('recirc_drops', 0)} queue-overflow drops"
        )
    if result.details and not quiet:
        for key, value in result.details.items():
            print(f"  {key}: {value}")
    if result.profile:
        _print_profile(result)


def _print_profile(result: ScenarioResult) -> None:
    rows = result.profile.get("hot_handlers", [])
    if rows:
        print(f"  hot handlers ({result.engine}):")
        header = f"    {'handler':<20} {'calls':>8} {'wall_s':>10} {'share':>7} {'us/call':>9}"
        print(header)
        for row in rows:
            print(
                f"    {row['handler']:<20} {row['calls']:>8} "
                f"{row['wall_s']:>10.6f} {row['wall_share'] * 100:>6.1f}% "
                f"{row['us_per_call']:>9.3f}"
            )
    stages = result.profile.get("stages", [])
    if stages:
        print(f"  pipeline stages ({result.engine}):")
        print(f"    {'stage':>5} {'events':>9} {'tables':>9} {'wall_s':>10}")
        for row in stages:
            print(
                f"    {row['stage']:>5} {row['events']:>9} "
                f"{row['tables_executed']:>9} {row['wall_s']:>10.6f}"
            )


def _trace_path(base: str, engine: str, multi: bool) -> str:
    """Per-engine trace file name: ``out.json`` -> ``out.<engine>.json``."""
    if not multi:
        return base
    root, dot, ext = base.rpartition(".")
    return f"{root}.{engine}.{ext}" if dot else f"{base}.{engine}"


def _serve(args) -> int:
    # imported here: the service layer is only needed by this subcommand
    from repro.service.server import (
        UNBOUNDED_EVENTS,
        ScenarioService,
        ServiceConfig,
    )

    try:
        scenario = get(args.name)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    try:
        config = ServiceConfig(
            engine=args.engine,
            seed=args.seed,
            events=UNBOUNDED_EVENTS if args.unbounded else args.events,
            checkpoint_dir=args.checkpoint_dir or None,
            checkpoint_every=args.checkpoint_every,
            keep_checkpoints=args.keep,
            telemetry_every=args.telemetry_every,
            chunk_events=args.chunk,
            max_events=args.max_events,
            resume=not args.fresh,
        )
    except SimulationError as exc:
        print(exc)
        return 2
    telemetry_file = None
    if args.telemetry and args.telemetry != "-":
        telemetry_file = config.telemetry_stream = open(args.telemetry, "a")
    service = ScenarioService(scenario, config)
    service.install_signal_handlers()
    try:
        outcome = service.run()
    finally:
        if telemetry_file is not None:
            telemetry_file.close()
    if outcome.resumed_from:
        print(f"resumed from {outcome.resumed_from}")
    if outcome.stopped:
        print(
            f"[{args.engine}] {scenario.name}: stopped after "
            f"{outcome.handled} handled events"
            + (f", checkpoint {outcome.checkpoint_path}" if outcome.checkpoint_path else "")
        )
        return 0
    _print_result(outcome.result, quiet=False)
    if outcome.checkpoint_path:
        print(f"final checkpoint: {outcome.checkpoint_path}")
    return 0 if outcome.result.ok else 1


def _soak(args) -> int:
    from repro.service.server import soak_compare

    names = args.names or sorted(SCENARIOS)
    comparisons = []
    failures = 0
    for name in names:
        try:
            scenario = get(name)
        except KeyError as exc:
            print(exc.args[0])
            return 2
        cmp = soak_compare(
            scenario, args.events, args.seed,
            engine=args.engine, checkpoint_after=args.checkpoint_at,
        )
        comparisons.append(cmp)
        status = "match" if cmp["match"] else "MISMATCH"
        verdict = "ok" if cmp["ok"] else "violations"
        print(
            f"[{cmp['engine']}] {name}: {status} — interrupted+resumed vs "
            f"straight-through at {cmp['events']} events "
            f"(checkpoint at {cmp['checkpoint_after']}), digest "
            f"{cmp['array_digest']}, {verdict}"
        )
        if not cmp["match"]:
            failures += 1
            for line in cmp["mismatches"]:
                print(f"    {line}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(comparisons, fh, indent=2)
        print(f"wrote {args.json}")
    print(
        f"soak: {len(comparisons) - failures}/{len(comparisons)} scenarios "
        f"deterministic under checkpoint/restore"
    )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the bundled scenarios")
    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument("name", help="scenario name (see 'list')")
    run_parser.add_argument("--events", type=int, default=20_000,
                            help="traffic events to stream (default 20000)")
    run_parser.add_argument("--seed", type=int, default=1, help="workload seed")
    engine = run_parser.add_mutually_exclusive_group()
    engine.add_argument("--engine", choices=ENGINE_NAMES, default=DEFAULT_ENGINE,
                        help=f"execution engine (default: {DEFAULT_ENGINE})")
    engine.add_argument("--all-engines", action="store_true",
                        help="run ALL engines "
                        f"({', '.join(ENGINE_NAMES)}) and "
                        "require identical verdicts and final array states")
    run_parser.add_argument("--shards", type=int, default=1,
                            help="partition the topology over N worker "
                            "processes (default 1: in-process)")
    run_parser.add_argument("--shard-engines", type=str, default="",
                            help="comma-separated engine name per shard "
                            "(requires --shards N with matching N)")
    run_parser.add_argument("--dump-source", action="store_true",
                            help="print the Python source generated for the "
                            "scenario's application — the codegen module, "
                            "or with --engine pisa the lowered stage plan — "
                            "then exit without running")
    run_parser.add_argument("--trace", type=str, default="",
                            help="write an event-lifecycle Chrome trace "
                            "(Perfetto-compatible JSON) to PATH; with "
                            "--all-engines, one file per engine")
    run_parser.add_argument("--profile", action="store_true",
                            help="per-handler (and per-PISA-stage) "
                            "wall-time profiling, printed as a top-N report")
    run_parser.add_argument("--metrics", action="store_true",
                            help="enable the metrics registry and print its "
                            "Prometheus text exposition after the run")
    run_parser.add_argument("--json", type=str, default="",
                            help="also write the result(s) as JSON to PATH")
    run_parser.add_argument("--quiet", action="store_true",
                            help="suppress violation messages and details")

    serve_parser = sub.add_parser(
        "serve", help="run one scenario as a checkpointed long-lived service"
    )
    serve_parser.add_argument("name", help="scenario name (see 'list')")
    events = serve_parser.add_mutually_exclusive_group()
    events.add_argument("--events", type=int, default=1_000_000,
                        help="traffic events to stream (default 1000000)")
    events.add_argument("--unbounded", action="store_true",
                        help="stream traffic until stopped (SIGTERM/SIGINT)")
    serve_parser.add_argument("--seed", type=int, default=1, help="workload seed")
    serve_parser.add_argument("--engine", choices=ENGINE_NAMES, default=DEFAULT_ENGINE,
                              help=f"execution engine (default: {DEFAULT_ENGINE})")
    serve_parser.add_argument("--checkpoint-dir", type=str, default="",
                              help="directory for rolling checkpoints "
                              "(no checkpointing when omitted)")
    serve_parser.add_argument("--checkpoint-every", type=int, default=200_000,
                              help="handled events between checkpoints "
                              "(default 200000)")
    serve_parser.add_argument("--keep", type=int, default=3,
                              help="rolling checkpoints to retain (default 3)")
    serve_parser.add_argument("--telemetry", type=str, default="",
                              help="append JSONL telemetry to PATH "
                              "('-' or omitted: stderr)")
    serve_parser.add_argument("--telemetry-every", type=int, default=25_000,
                              help="handled events between telemetry records "
                              "(default 25000)")
    serve_parser.add_argument("--chunk", type=int, default=CHUNK_EVENTS,
                              help="handled events per scheduler chunk — the "
                              f"signal/checkpoint granularity (default {CHUNK_EVENTS})")
    serve_parser.add_argument("--max-events", type=int, default=None,
                              help="stop (with a checkpoint) after N handled "
                              "events; for bounded soaks and tests")
    serve_parser.add_argument("--fresh", action="store_true",
                              help="ignore existing checkpoints instead of "
                              "resuming from the newest one")

    soak_parser = sub.add_parser(
        "soak", help="assert interrupted+resumed runs match straight-through runs"
    )
    soak_parser.add_argument("names", nargs="*",
                             help="scenario names (default: all bundled)")
    soak_parser.add_argument("--events", type=int, default=20_000,
                             help="traffic events per scenario (default 20000)")
    soak_parser.add_argument("--seed", type=int, default=1, help="workload seed")
    soak_parser.add_argument("--engine", choices=ENGINE_NAMES, default=DEFAULT_ENGINE,
                             help=f"execution engine (default: {DEFAULT_ENGINE})")
    soak_parser.add_argument("--checkpoint-at", type=int, default=None,
                             help="handled events before the checkpoint "
                             "(default: half of --events)")
    soak_parser.add_argument("--json", type=str, default="",
                             help="also write the comparisons as JSON to PATH")
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_listing()
        return 0
    if args.command == "serve":
        return _serve(args)
    if args.command == "soak":
        return _soak(args)

    try:
        scenario = get(args.name)
    except KeyError as exc:
        print(exc.args[0])
        return 2

    if args.metrics:
        from repro.obs import enable

        enable()
    try:
        return _run(args, scenario)
    finally:
        if args.metrics:
            from repro.obs import disable

            disable()


def _run(args, scenario) -> int:
    if args.dump_source:
        from repro.apps import ALL_APPLICATIONS
        from repro.frontend import check_program

        app = ALL_APPLICATIONS[scenario.app_key]
        checked = check_program(app.source, name=scenario.app_key)
        if args.engine == "pisa":
            from repro.backend.compiler import compile_checked
            from repro.pisa.pipeline import lower_layout

            print(lower_layout(compile_checked(checked)).source)
        else:
            from repro.interp.codegen import dump_program_source

            print(dump_program_source(checked))
        return 0

    tracer_factory = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer_factory = lambda engine_name: Tracer(seed=args.seed)  # noqa: E731

    if args.shards > 1 or args.shard_engines:
        if args.all_engines:
            print("--shards does not compose with --all-engines")
            return 2
        if args.trace or args.profile:
            print("--shards does not support --trace/--profile (the tracer "
                  "and profiler attach to a single in-process network)")
            return 2
        from repro.shard import run_sharded

        shard_engines = None
        if args.shard_engines:
            shard_engines = [s.strip() for s in args.shard_engines.split(",")]
        result = run_sharded(
            scenario, args.events, args.seed, args.shards,
            engine=args.engine, engines=shard_engines,
        )
        _print_result(result, args.quiet)
        if args.metrics:
            from repro.obs import REGISTRY

            print(REGISTRY.render_text(), end="")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(result.to_dict(), fh, indent=2)
            print(f"wrote {args.json}")
        return 0 if result.ok else 1

    results: List[ScenarioResult] = []
    if args.all_engines:
        try:
            results = run_scenario_engines(
                scenario, args.events, args.seed,
                tracer_factory=tracer_factory, profile=args.profile,
            )
        except AssertionError as exc:
            print(f"ENGINE MISMATCH: {exc}")
            return 1
    else:
        results = [run_scenario(
            scenario, args.events, args.seed, engine=args.engine,
            tracer=tracer_factory(args.engine) if tracer_factory else None,
            profile=args.profile,
        )]

    for result in results:
        _print_result(result, args.quiet)
    if args.all_engines:
        engines = ", ".join(r.engine for r in results)
        print(f"engines agree ({engines}): identical invariant verdicts and array states")

    traces_diverge = False
    if args.trace:
        multi = len(results) > 1
        blobs = {}
        for result in results:
            path = _trace_path(args.trace, result.engine, multi)
            spans = result.tracer.write(path)
            blobs[result.engine] = result.tracer.to_json_bytes()
            print(f"wrote {path} ({spans} spans)")
        if multi:
            if len(set(blobs.values())) == 1:
                print("traces byte-identical across engines")
            else:
                traces_diverge = True
                print("TRACE MISMATCH: engines produced different span trees")

    if args.metrics:
        from repro.obs import REGISTRY

        print(REGISTRY.render_text(), end="")

    if args.json:
        payload = [r.to_dict() for r in results]
        with open(args.json, "w") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh, indent=2)
        print(f"wrote {args.json}")

    return 0 if all(r.ok for r in results) and not traces_diverge else 1


if __name__ == "__main__":
    sys.exit(main())
