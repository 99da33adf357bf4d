"""The scenario runner: wire an application + topology + streaming traffic +
invariants, run it on any execution engine (reference interpreter, codegen
fast path, or the PISA pipeline model), and report verdicts and per-switch
stats — including pipeline/recirculation statistics for engines that model
the hardware substrate.

The scenario's traffic factory yields a lazy, time-ordered stream that is
merged with the simulator's internal event heap (:meth:`Network.run` with
``source=``).  The batch runner pulls that stream ``_CHUNK`` items at a
time, so a run holds one chunk of traffic however long it is, and times
each pull so that ``wall_s`` measures the engine alone (``traffic_s``
records the generation cost); the service mode pulls it item by item, since
its checkpoints serialise the cursor.  After the stream is exhausted the
network is drained for ``settle_ns`` more simulated time so
in-flight control events (cuckoo installs, sync updates, advertisement
rounds) complete before invariants are checked — self-perpetuating control
loops are bounded by the same horizon.
"""

from __future__ import annotations

import struct
import time
import zlib
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.interp.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.interp.network import Network, SourceItem
from repro.records import field, record
from repro.scenarios.invariants import (
    Invariant,
    InvariantReport,
    evaluate,
    observer_callback,
)
from repro.scenarios.topology import Topology
from repro.service.source import ReplayableSource

#: traffic items the batch runner pulls per chunk: its traffic buffer's bound
_CHUNK = 4096


@record
class ScenarioSetup:
    """Everything needed to run one scenario once: built fresh per run so
    stateful traffic models and invariants never leak between engines."""

    topology: Topology
    #: engine-name -> ready network factory (``"reference" | "pisa" | "codegen"``)
    make_network: Callable[[str], Network]
    #: zero-arg factory returning the streaming traffic source
    traffic: Callable[[], Iterable[SourceItem]]
    invariants: List[Invariant] = field(default_factory=list)
    #: preload state (routing tables, link status) before traffic starts
    prepare: Optional[Callable[[Network], None]] = None
    #: extra simulated time after the last traffic event before verdicts
    settle_ns: int = 2_000_000
    #: extra result details computed from the finished network
    details: Optional[Callable[[Network], Dict[str, object]]] = None


@record
class ScenarioResult:
    """Outcome of one scenario run on one engine."""

    scenario: str
    engine: str
    seed: int
    events_injected: int
    events_handled: int
    sim_ns: int
    wall_s: float
    events_per_sec: float
    invariants: List[InvariantReport]
    #: per-switch summary counters (includes the engine name and, for
    #: pipeline-modelling engines, a nested ``"pipeline"`` stats dict)
    switch_stats: Dict[int, Dict[str, object]]
    #: CRC32 digest of every switch's final array state
    array_digest: str
    #: wall time spent building the network + compiling handlers + preloading
    #: state (everything before the first event) — excluded from ``wall_s``
    setup_s: float = 0.0
    #: wall time spent generating the traffic workload — excluded from
    #: ``wall_s`` so ``events_per_sec`` measures the engines, not the
    #: traffic models
    traffic_s: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)
    #: network-wide pipeline totals (stage occupancy, recirculated events,
    #: peak queue depth, recirc passes/bytes/drops); empty for engines that
    #: do not model a pipeline
    pipeline_totals: Dict[str, object] = field(default_factory=dict)
    #: profiling report (``{"hot_handlers": [...], "stages": [...]}``) when
    #: the run was profiled; empty otherwise
    profile: Dict[str, object] = field(default_factory=dict)
    #: the :class:`repro.obs.trace.Tracer` attached to the run, when tracing
    #: was requested — excluded from :meth:`to_dict` (the CLI writes it to
    #: its own file)
    tracer: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.invariants)

    def verdict_signature(self) -> Tuple:
        """What must be identical across engines: every invariant verdict
        plus the final array states."""
        return (
            tuple((r.name, r.ok, r.violations) for r in self.invariants),
            self.array_digest,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "events_injected": self.events_injected,
            "events_handled": self.events_handled,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 4),
            "setup_s": round(self.setup_s, 4),
            "traffic_s": round(self.traffic_s, 4),
            "events_per_sec": round(self.events_per_sec),
            "ok": self.ok,
            "invariants": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "violations": r.violations,
                    "messages": r.messages,
                }
                for r in self.invariants
            ],
            "array_digest": self.array_digest,
            "details": self.details,
            "pipeline": self.pipeline_totals,
            **({"profile": self.profile} if self.profile else {}),
        }


def network_array_digest(network: Network) -> str:
    """CRC32 over every switch's final array cells, switch/array-name
    ordered — a compact equality signature for engine-parity checks."""
    crc = 0
    for sid in sorted(network.switches):
        switch = network.switches[sid]
        for name in sorted(switch.runtime.arrays):
            cells = switch.runtime.arrays[name].cells
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(struct.pack(f"<ii{len(cells)}I", sid, len(cells), *cells), crc)
    return f"{crc:08x}"


def _aggregate_pipeline_totals(switch_stats: Dict[int, Dict[str, object]]) -> Dict[str, object]:
    """Sum the per-switch ``"pipeline"`` dicts of :meth:`Network.stats` into
    a network-wide summary (max for depth/stage peaks, and for
    ``recirc_utilisation``: each switch has its own recirculation port, so
    the total is the busiest port's).  Heterogeneous networks aggregate only
    the switches whose engines model a pipeline."""
    pipelines = [entry["pipeline"] for entry in switch_stats.values() if "pipeline" in entry]
    totals: Dict[str, object] = {}
    for stats in pipelines:
        for key, value in stats.items():
            if not isinstance(value, (int, float)):
                continue
            if key in ("max_stages_traversed", "peak_queue_depth", "stages",
                       "recirc_utilisation"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    if pipelines:
        totals["switches"] = len(pipelines)
    return totals


def prepare_run(
    setup: ScenarioSetup,
    engine_name: str,
    tracer: Optional[object] = None,
    profile: bool = False,
) -> Tuple[Network, ReplayableSource]:
    """Build the network, preload state, reset + wire the invariants, and
    wrap the traffic stream in a replayable cursor — everything up to (but
    not including) the first handled event.  Shared by the batch runner and
    the service mode (:mod:`repro.service.server`), which restores a
    checkpoint into the returned network instead of running from scratch.

    ``tracer`` attaches a :class:`repro.obs.trace.Tracer` to the network;
    ``profile=True`` attaches a fresh
    :class:`repro.obs.profile.HandlerProfiler` (plus a per-pipeline
    :class:`~repro.obs.profile.StageProfiler` on every PISA switch)."""
    network = setup.make_network(engine_name)
    if setup.prepare is not None:
        setup.prepare(network)
    for inv in setup.invariants:
        inv.reset(network, setup.topology)
    network.trace_enabled = False
    network.on_handle = observer_callback(setup.invariants)
    if tracer is not None:
        network.tracer = tracer
    if profile:
        from repro.obs.profile import HandlerProfiler, StageProfiler

        network.profiler = HandlerProfiler()
        for switch in network.switches.values():
            pipeline = getattr(switch.engine, "pipeline", None)
            if pipeline is not None and hasattr(pipeline, "stage_prof"):
                pipeline.stage_prof = StageProfiler(pipeline.layout.num_stages())
    return network, ReplayableSource(setup.traffic)


def settle_horizon(setup: ScenarioSetup, last_ns: int) -> int:
    """The simulated time up to which the network is drained after a traffic
    stream whose last item came at ``last_ns``, so in-flight control events
    complete before final verdicts (self-perpetuating control loops are
    bounded by it).  It depends on the stream alone, so draining a settled
    network to it again handles nothing."""
    return last_ns + setup.settle_ns


def build_result(
    setup: ScenarioSetup,
    scenario_name: str,
    seed: int,
    engine_name: str,
    network: Network,
    events_injected: int,
    events_handled: int,
    wall_s: float,
    setup_s: float = 0.0,
    traffic_s: float = 0.0,
    timed_events: Optional[int] = None,
) -> ScenarioResult:
    """Evaluate the invariants and assemble the :class:`ScenarioResult` for
    a finished (streamed + settled) network.  ``events_per_sec`` divides
    ``timed_events`` (default: ``events_handled``), the events handled
    inside ``wall_s``, by ``wall_s``."""
    if timed_events is None:
        timed_events = events_handled
    reports = evaluate(setup.invariants, network)
    stats = network.stats()
    details = setup.details(network) if setup.details is not None else {}
    profile: Dict[str, object] = {}
    if network.profiler is not None:
        from repro.obs.profile import merge_stage_rows

        profile["hot_handlers"] = network.profiler.top(10)
        stage_rows = merge_stage_rows([
            getattr(getattr(sw.engine, "pipeline", None), "stage_prof", None)
            for sw in network.switches.values()
        ])
        if stage_rows:
            profile["stages"] = stage_rows
    return ScenarioResult(
        scenario=scenario_name,
        engine=engine_name,
        seed=seed,
        events_injected=events_injected,
        events_handled=events_handled,
        sim_ns=network.now_ns,
        wall_s=wall_s,
        setup_s=setup_s,
        traffic_s=traffic_s,
        events_per_sec=timed_events / wall_s if wall_s > 0 else 0.0,
        invariants=reports,
        switch_stats=stats,
        array_digest=network_array_digest(network),
        details=details,
        pipeline_totals=_aggregate_pipeline_totals(stats),
        profile=profile,
        tracer=network.tracer,
    )


def run_setup(setup: ScenarioSetup, scenario_name: str, seed: int,
              engine: str = DEFAULT_ENGINE,
              tracer: Optional[object] = None,
              profile: bool = False) -> ScenarioResult:
    """Execute one prepared scenario on the engine named ``engine``.
    ``tracer`` / ``profile`` attach observability hooks — see
    :func:`prepare_run`.

    Wall time is split three ways so ``events_per_sec`` measures the engine
    rather than everything around it: ``setup_s`` (network construction +
    handler compilation + preload), ``traffic_s`` (workload generation —
    the drain pulls the replayable cursor ``_CHUNK`` items at a time, and
    each pull is timed), and ``wall_s`` (the drain + settle, less the
    pulls)."""
    t0 = time.perf_counter()
    network, source = prepare_run(setup, engine, tracer=tracer, profile=profile)
    t1 = time.perf_counter()
    traffic_s = 0.0

    def next_chunk() -> List[SourceItem]:
        nonlocal traffic_s
        pulled = time.perf_counter()
        chunk = list(islice(source, _CHUNK))
        traffic_s += time.perf_counter() - pulled
        return chunk

    # ``chain`` drops a used-up chunk before it pulls the next one
    handled = network.run(source=chain.from_iterable(iter(next_chunk, [])))
    handled += network.run(until_ns=settle_horizon(setup, source.last_ns))
    wall = time.perf_counter() - t1 - traffic_s
    return build_result(
        setup, scenario_name, seed, engine, network,
        events_injected=source.injected, events_handled=handled, wall_s=wall,
        setup_s=t1 - t0, traffic_s=traffic_s,
    )


def run_scenario(scenario, events: int, seed: int,
                 engine: str = DEFAULT_ENGINE,
                 tracer: Optional[object] = None,
                 profile: bool = False) -> ScenarioResult:
    """Build and run a registered scenario once (see
    :mod:`repro.scenarios.registry` for the catalogue).  ``engine`` selects
    the execution engine."""
    setup = scenario.build(events, seed)
    return run_setup(setup, scenario.name, seed,
                     engine=engine, tracer=tracer, profile=profile)


def run_scenario_engines(
    scenario, events: int, seed: int, engines: Sequence[str] = ENGINE_NAMES,
    tracer_factory: Optional[Callable[[str], object]] = None,
    profile: bool = False,
) -> List[ScenarioResult]:
    """Run one scenario under several engines (a fresh setup per engine, so
    stateful traffic models cannot leak) and require identical invariant
    verdicts and final array digests across all of them — the differential
    conformance contract.

    ``tracer_factory(engine_name)`` supplies a fresh tracer per engine run
    (each result keeps its tracer on ``result.tracer``), so callers can
    compare the serialized traces across engines."""
    results = [
        run_scenario(
            scenario, events, seed, engine=name,
            tracer=tracer_factory(name) if tracer_factory is not None else None,
            profile=profile,
        )
        for name in engines
    ]
    baseline = results[0]
    for other in results[1:]:
        if other.verdict_signature() != baseline.verdict_signature():
            raise AssertionError(
                f"engines diverge on scenario '{scenario.name}': "
                f"{baseline.engine}={baseline.verdict_signature()!r} "
                f"{other.engine}={other.verdict_signature()!r}"
            )
    return results


def run_scenario_all_engines(scenario, events: int, seed: int) -> List[ScenarioResult]:
    """Run a scenario on every bundled engine (reference, pisa, codegen)
    and assert they agree; returns the results in :data:`ENGINE_NAMES` order."""
    return run_scenario_engines(scenario, events, seed, engines=ENGINE_NAMES)
