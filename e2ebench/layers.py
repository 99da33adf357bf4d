"""The traced pass: wrap the public function at each layer boundary, run one
ordinary pass, and read the per-layer metrics back from the spans.

Nothing under ``src/`` is edited.  A boundary is wrapped by swapping the
name a caller looks it up by (``repro.backend.compiler.build_layout``,
``Network.run``, ...) for a recording wrapper while the pass runs
(:class:`spans.Patches`).  Per-event costs are timed by the program's own
``HandlerProfiler`` (``prepare_run(profile=True)``) and by timed wrappers
around the invariant observer and the traffic iterator; they land in the
span tree as aggregate children of the drain they ran in, so the drain's
self time is the scheduler's own.

A traced pass is slower than a timed one (``obs.traced_overhead_ratio``
says by how much) and never contributes to an end-to-end metric.
"""

import dataclasses
from time import perf_counter

from spans import Patches, SpanRecorder
from workloads import ShardedScenario

#: every per-layer metric, in ``BENCHMARK.json`` order: (name, unit, better).
#: A layer a workload does not exercise reports 0.
PER_LAYER = [
    ("frontend.lex_s", "s", "lower"),
    ("frontend.parse_s", "s", "lower"),
    ("frontend.check_s", "s", "lower"),
    ("frontend.tokens", "count", "lower"),
    ("midend.normalize_s", "s", "lower"),
    ("midend.norm_stmts", "count", "lower"),
    ("backend.layout_s", "s", "lower"),
    ("backend.naive_layout_s", "s", "lower"),
    ("backend.p4gen_s", "s", "lower"),
    ("backend.stages_total", "count", "lower"),
    ("backend.p4_loc_total", "count", "lower"),
    ("engine.lower_cold_s", "s", "lower"),
    ("engine.lower_cached_s", "s", "lower"),
    ("codegen.fallback_handlers", "count", "lower"),
    ("handler.total_s", "s", "lower"),
    ("handler.calls", "count", "lower"),
    ("handler.ns_per_call", "ns", "lower"),
    ("network.drain_s", "s", "lower"),
    ("network.settle_s", "s", "lower"),
    ("network.events_handled", "count", "lower"),
    ("network.events_generated", "count", "lower"),
    ("network.remote_sends", "count", "lower"),
    ("network.sched_self_s", "s", "lower"),
    ("network.sched_ns_per_event", "ns", "lower"),
    ("pisa.pipeline_s", "s", "lower"),
    ("pisa.stages_traversed", "count", "lower"),
    ("pisa.tables_executed", "count", "lower"),
    ("pisa.recirc_passes", "count", "lower"),
    ("pisa.peak_queue_depth", "count", "lower"),
    ("pisa.ns_per_stage", "ns", "lower"),
    ("topology.build_s", "s", "lower"),
    ("traffic.gen_s", "s", "lower"),
    ("traffic.events", "count", "lower"),
    ("traffic.ns_per_event", "ns", "lower"),
    ("traffic.cursor_s", "s", "lower"),
    ("invariants.observe_s", "s", "lower"),
    ("invariants.observe_calls", "count", "lower"),
    ("invariants.evaluate_s", "s", "lower"),
    ("runner.digest_s", "s", "lower"),
    ("service.snapshot_s", "s", "lower"),
    ("service.checkpoint_save_s", "s", "lower"),
    ("service.checkpoints", "count", "lower"),
    ("service.checkpoint_bytes", "B", "lower"),
    ("service.telemetry_emit_s", "s", "lower"),
    ("service.telemetry_records", "count", "lower"),
    ("service.chunks", "count", "lower"),
    ("service.chunk_ms_p50", "ms", "lower"),
    ("service.chunk_ms_p95", "ms", "lower"),
    ("service.checkpoint_stall_ms_max", "ms", "lower"),
    ("service.overhead_vs_batch", "ratio", "lower"),
    ("shard.setup_s", "s", "lower"),
    ("shard.scan_s", "s", "lower"),
    ("shard.barrier_loop_s", "s", "lower"),
    ("shard.merge_replay_s", "s", "lower"),
    ("shard.barrier_rounds", "count", "lower"),
    ("shard.lookahead_ns", "ns", "higher"),
    ("shard.us_per_round", "us", "lower"),
    ("shard.worker_cpu_s", "s", "lower"),
    ("shard.cpu_efficiency", "ratio", "higher"),
    ("shard.speedup_vs_single", "ratio", "higher"),
    ("obs.traced_overhead_ratio", "ratio", "lower"),
    ("import_s", "s", "lower"),
    ("trace.layers_sum_ratio", "ratio", "higher"),
]


class Probe:
    """One traced pass: its recorder, the counts taken at the boundaries,
    and the last network ``prepare_run`` handed out."""

    def __init__(self, run_prefix):
        self.rec = SpanRecorder(run_prefix)
        self.tokens = 0
        self.norm_stmts = 0
        self.checkpoint_bytes = 0
        self.traffic_s = 0.0
        self.network = None

    # -- what gets wrapped -----------------------------------------------------
    def patches(self, groups):
        targets = []
        for group in groups:
            targets.extend(getattr(self, f"_{group}_targets")())
        return Patches(targets)

    def _span(self, name, after=None):
        return lambda fn: self.rec.wrap(fn, name, after=after)

    def _compile_targets(self):
        import repro.backend.compiler as compiler
        import repro.frontend.lexer as lexer
        import repro.frontend.type_checker as type_checker

        def count_tokens(tokens):
            self.tokens += len(tokens)

        def count_stmts(normalized):
            self.norm_stmts += sum(
                len(handler.flat_statements()) for handler in normalized.values()
            )

        def layout_name(args, kwargs):
            options = kwargs.get("options")
            naive = options is not None and not options.optimize
            return "backend.naive_layout" if naive else "backend.layout"

        return [
            (lexer.Lexer, "tokenize", self._span("frontend.lex", count_tokens)),
            (type_checker, "parse_program", self._span("frontend.parse")),
            (compiler, "check_program", self._span("frontend.check")),
            (compiler, "normalize_program",
             self._span("midend.normalize", count_stmts)),
            (compiler, "build_layout", self._span(layout_name)),
            (compiler, "generate_p4", self._span("backend.p4gen")),
        ]

    def _scenario_targets(self):
        import repro.interp.network as network
        import repro.scenarios.runner as runner
        import repro.scenarios.topology as topology
        from repro.service.source import ReplayableSource

        return [
            (ReplayableSource, "__next__", self._timed_cursor),
            (topology, "parse_program", self._span("frontend.parse")),
            (topology, "check_program", self._span("frontend.check")),
            (topology.Topology, "build_network",
             self._span("topology.build_network")),
            (network, "make_engine", self._span("engine.lower")),
            (network.Network, "run", self._traced_run),
            (runner, "prepare_run", self._traced_prepare),
            (runner, "build_result", self._span("runner.build_result")),
            (runner, "evaluate", self._span("invariants.evaluate")),
            (runner, "network_array_digest", self._span("runner.digest")),
        ]

    def _service_targets(self):
        import repro.interp.network as network
        import repro.service.server as server
        from repro.service.checkpoint import CheckpointStore
        from repro.service.telemetry import TelemetryEmitter

        def count_bytes(path):
            self.checkpoint_bytes += path.stat().st_size

        return [
            (server.ScenarioService, "run", self._span("service.run")),
            (server, "prepare_run", self._traced_prepare),
            (server, "build_result", self._span("runner.build_result")),
            (server, "evaluate", self._span("invariants.evaluate")),
            (network.Network, "snapshot", self._span("service.snapshot")),
            (CheckpointStore, "save",
             self._span("service.checkpoint_save", count_bytes)),
            (TelemetryEmitter, "emit", self._span("service.telemetry_emit")),
        ]

    def _traced_prepare(self, prepare_run):
        rec = self.rec

        def traced(setup, engine_name, tracer=None, profile=False):
            with rec.span("runner.prepare_run"):
                network, source = prepare_run(
                    setup, engine_name, tracer=tracer, profile=True)
            self.network = network
            observe = network.on_handle
            if observe is not None:
                charge = rec.charger("invariants.observe")

                def timed_observe(entry):
                    start = perf_counter()
                    observe(entry)
                    charge(perf_counter() - start)

                network.on_handle = timed_observe
            return network, source

        return traced

    def _timed_cursor(self, cursor_next):
        """The replayable cursor's own bookkeeping per item: the time in
        ``__next__`` that the traffic generator below it did not take."""
        charge = self.rec.charger("traffic.cursor")

        def timed(source):
            start, below = perf_counter(), self.traffic_s
            try:
                return cursor_next(source)
            finally:
                charge(perf_counter() - start - (self.traffic_s - below))

        return timed

    def _traced_run(self, run):
        rec = self.rec

        def traced(network, until_ns=None, max_events=None, source=None, batch=True):
            profiler = network.profiler
            with rec.span("network.drain" if source is not None else "network.settle"):
                if profiler is not None:
                    wall0, calls0 = profiler.total_wall_s, profiler.total_calls
                try:
                    return run(network, until_ns=until_ns, max_events=max_events,
                               source=source, batch=batch)
                finally:
                    if profiler is not None:
                        rec.charge("handler.run", profiler.total_wall_s - wall0,
                                   profiler.total_calls - calls0)

        return traced

    def traced_scenario(self, scenario):
        """``scenario`` with a span around ``build`` and a timed traffic
        iterator, charged to whichever span pulls the items."""
        rec = self.rec

        def timed_traffic(make_traffic):
            charge = rec.charger("traffic.gen")
            end = object()
            items = iter(make_traffic())
            while True:
                start = perf_counter()
                item = next(items, end)
                took = perf_counter() - start
                self.traffic_s += took
                if item is end:
                    charge(took, count=0)
                    return
                charge(took)
                yield item

        def build(events, seed):
            with rec.span("scenario.build"):
                setup = scenario.build(events, seed)
            make_traffic = setup.traffic
            setup.traffic = lambda: timed_traffic(make_traffic)
            return setup

        return dataclasses.replace(scenario, build=build)


def traced_pass(workload, seed, events, tmp, run_prefix):
    """Run one pass of ``workload`` under a fresh :class:`Probe`; returns
    ``(probe, pass_result)``."""
    if isinstance(workload, ShardedScenario):
        return _traced_sharded_pass(workload, seed, events, tmp, run_prefix)
    probe = Probe(run_prefix)
    with probe.rec.span("pass"), probe.patches(workload.layers):
        result = workload.run_pass(seed, events, tmp, wrap=probe.traced_scenario)
    return probe, result


def _traced_sharded_pass(workload, seed, events, tmp, run_prefix):
    """The sharded workload cannot be wrapped from outside — the layers run
    in the workers — so its trace is two roots: the sharded call, split by
    the timings ``run_sharded`` itself returns, and the same scenario in
    this process under the ordinary probe."""
    probe = Probe(run_prefix)
    rec = probe.rec
    with rec.span("pass"), rec.span("shard.run_sharded"):
        sharded = workload.run_pass(seed, events, tmp)
        rec.charge("shard.setup", sharded.result.setup_s)
        rec.charge("shard.scan", sharded.result.traffic_s)
        rec.charge("shard.barrier_loop", sharded.result.wall_s)
    with rec.span("pass"), probe.patches(workload.layers):
        sharded.extra["single"] = workload.run_batch(
            seed, events, workload.engine, wrap=probe.traced_scenario)
    return probe, sharded


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(probe, result, chunk_spans):
    """The per-layer metrics one traced pass can supply by itself; ``bench.py``
    fills in the ones that compare against cold starts, the reference run or
    the untraced passes.  ``chunk_spans`` pools the serve chunks of every
    traced pass for the percentiles."""
    rec = probe.rec
    m = {name: 0 for name, _, _ in PER_LAYER}

    m["frontend.lex_s"] = rec.self_total("frontend.lex")
    m["frontend.parse_s"] = rec.self_total("frontend.parse")
    m["frontend.check_s"] = rec.self_total("frontend.check")
    m["frontend.tokens"] = probe.tokens
    m["midend.normalize_s"] = rec.self_total("midend.normalize")
    m["midend.norm_stmts"] = probe.norm_stmts
    m["backend.layout_s"] = rec.self_total("backend.layout")
    m["backend.naive_layout_s"] = rec.self_total("backend.naive_layout")
    m["backend.p4gen_s"] = rec.self_total("backend.p4gen")
    m["engine.lower_cached_s"] = rec.total("engine.lower")
    m["topology.build_s"] = (rec.self_total("scenario.build")
                             + rec.self_total("topology.build_network"))
    m["traffic.gen_s"] = rec.total("traffic.gen")
    m["traffic.events"] = rec.count("traffic.gen")
    m["traffic.cursor_s"] = rec.total("traffic.cursor")
    m["invariants.observe_s"] = rec.total("invariants.observe")
    m["invariants.observe_calls"] = rec.count("invariants.observe")
    m["invariants.evaluate_s"] = rec.self_total("invariants.evaluate")
    m["runner.digest_s"] = rec.self_total("runner.digest")
    m["handler.total_s"] = rec.total("handler.run")
    m["handler.calls"] = rec.count("handler.run")
    m["network.drain_s"] = rec.total("network.drain")
    m["network.settle_s"] = rec.total("network.settle")
    m["network.sched_self_s"] = (rec.self_total("network.drain")
                                 + rec.self_total("network.settle"))
    m["trace.layers_sum_ratio"] = rec.attributed_ratio()

    rows = result.extra.get("rows")
    if rows is not None:  # compile-apps: one row per app, every round alike
        rounds = result.work // len(rows)
        m["backend.stages_total"] = rounds * sum(r["stages"] for r in rows)
        m["backend.p4_loc_total"] = rounds * sum(r["p4_loc"] for r in rows)

    # the scenario the layers above ran: the pass itself, or (sharded) the
    # in-process run of the same scenario
    scenario_result = result.extra.get("single", result).result
    if scenario_result is not None:
        stats = scenario_result.switch_stats.values()
        m["network.events_handled"] = sum(s["events_handled"] for s in stats)
        m["network.events_generated"] = sum(s["events_generated"] for s in stats)
        m["network.remote_sends"] = sum(s["remote_sends"] for s in stats)
        pipeline = scenario_result.pipeline_totals
        if pipeline:
            m["backend.stages_total"] = pipeline["stages"]
            m["pisa.stages_traversed"] = pipeline["stages_traversed"]
            m["pisa.tables_executed"] = pipeline["tables_executed"]
            m["pisa.recirc_passes"] = pipeline["recirc_passes"]
            m["pisa.peak_queue_depth"] = pipeline["peak_queue_depth"]
            m["pisa.pipeline_s"] = sum(
                row["wall_s"] for row in scenario_result.profile.get("stages", []))
    if probe.network is not None:
        m["codegen.fallback_handlers"] = sum(
            len(switch.interpreter.fallback_handler_names)
            for switch in probe.network.switches.values()
            if switch.engine_name == "codegen"
        )

    saves = rec.named("service.checkpoint_save")
    m["service.snapshot_s"] = rec.self_total("service.snapshot")
    m["service.checkpoint_save_s"] = rec.self_total("service.checkpoint_save")
    m["service.checkpoints"] = len(saves)
    m["service.checkpoint_bytes"] = probe.checkpoint_bytes
    m["service.telemetry_emit_s"] = rec.self_total("service.telemetry_emit")
    m["service.telemetry_records"] = len(rec.named("service.telemetry_emit"))
    if rec.named("service.run"):
        chunk_ms = [(s["end"] - s["start"]) * 1e3 for s in chunk_spans]
        m["service.chunks"] = len(rec.named("network.drain"))
        m["service.chunk_ms_p50"] = _percentile(chunk_ms, 0.50)
        m["service.chunk_ms_p95"] = _percentile(chunk_ms, 0.95)
        # how long the drain stood still around a checkpoint: from the end of
        # the chunk before it to the start of the chunk after it
        drains = rec.named("network.drain")
        stalls = [0.0]
        for save in saves:
            before = max((d["end"] for d in drains if d["end"] <= save["start"]),
                         default=save["start"])
            after = min((d["start"] for d in drains if d["start"] >= save["end"]),
                        default=save["end"])
            stalls.append((after - before) * 1e3)
        m["service.checkpoint_stall_ms_max"] = max(stalls)

    shards = getattr(result.result, "details", {}).get("shards")
    if shards is not None:
        m["shard.setup_s"] = rec.total("shard.setup")
        m["shard.scan_s"] = rec.total("shard.scan")
        m["shard.barrier_loop_s"] = rec.total("shard.barrier_loop")
        m["shard.merge_replay_s"] = rec.self_total("shard.run_sharded")
        m["shard.barrier_rounds"] = shards["barrier_rounds"]
        m["shard.lookahead_ns"] = shards["lookahead_ns"]
        m["shard.us_per_round"] = (
            m["shard.barrier_loop_s"] * 1e6 / max(1, shards["barrier_rounds"]))
        m["shard.worker_cpu_s"] = result.extra["worker_cpu_s"]

    for total, count, per in (
        ("handler.total_s", "handler.calls", "handler.ns_per_call"),
        ("network.sched_self_s", "network.events_handled", "network.sched_ns_per_event"),
        ("pisa.pipeline_s", "pisa.stages_traversed", "pisa.ns_per_stage"),
        ("traffic.gen_s", "traffic.events", "traffic.ns_per_event"),
    ):
        if m[count]:
            m[per] = m[total] * 1e9 / m[count]
    return m
