"""The serve loop: run a scenario as a long-lived, checkpointed process.

``python -m repro.scenarios serve <name>`` builds a scenario exactly like
the batch runner and drives it with the same loop,
:func:`~repro.scenarios.runner.drive`, after restoring the newest
checkpoint; a batch run is a serve with no store and nothing between the
chunks.  Between chunks the serve:

* emits telemetry (:mod:`repro.service.telemetry`) and evaluates the
  *streaming* invariants;
* writes rolling checkpoints (:mod:`repro.service.checkpoint`);
* prints the global registry's Prometheus text on stderr when SIGUSR1 asked
  for it — the same ``repro_network_*`` / ``repro_engine_*`` exposition
  ``run --metrics`` prints, read from this network's ledger;
* stops when SIGTERM/SIGINT asked it to, writing a final checkpoint.

On start-up, ``--resume`` (the default) loads the newest checkpoint in the
checkpoint directory and continues from it.  Its result times the run as a
batch result does: ``wall_s`` leaves out the traffic pulled after the
restore (``traffic_s``), and ``events_per_sec`` counts only the events this
process handled.

The determinism contract: a run interrupted anywhere and resumed from its
checkpoint produces byte-identical array digests, stats, event counts, and
invariant verdicts to the uninterrupted run, and a finished run started
again on its checkpoint directory returns its result unchanged (the settle
horizon depends on the traffic stream alone).
:func:`run_scenario_interrupted` is that contract as a harness — two
:class:`ScenarioService` runs over one temporary checkpoint directory, the
second resuming from the file the first wrote — returning a
:class:`~repro.scenarios.runner.ScenarioResult` directly comparable to
:func:`~repro.scenarios.runner.run_scenario`'s.  ``tests/test_service.py``
and the CI soak job pin it for every bundled scenario on every engine.

Memory is not bounded by the run length: traffic is streamed a chunk at a
time and tracing is off, but some invariants and traffic models keep one
entry per flow they have seen, and checkpoints carry it
(``sfw-install-latency``'s ``tracemalloc`` peak rises 7.3x from 10k to 80k
events).  ``events=UNBOUNDED_EVENTS`` makes the bundled traffic models
stream forever (they iterate lazily over the requested count), so a serve
process runs until stopped.
"""

from __future__ import annotations

import io
import signal
import sys
import tempfile
import time
from typing import Dict, List, Optional, TextIO

from repro.errors import SimulationError
from repro.interp.engine import DEFAULT_ENGINE
from repro.interp.network import Network, watch_metrics
from repro.obs.metrics import REGISTRY
from repro.records import record
from repro.scenarios.invariants import (
    capture_invariant_states,
    evaluate,
    restore_invariant_states,
)
from repro.scenarios.runner import (
    CHUNK_EVENTS,
    ScenarioResult,
    ScenarioSetup,
    build_result,
    drive,
    prepare_run,
    run_scenario,
    settle_horizon,
)
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointStore,
)
from repro.service.source import ReplayableSource
from repro.service.telemetry import TelemetryEmitter

#: an event count no bundled traffic model can exhaust: the models iterate
#: lazily over the requested count, so asking for this many streams forever
UNBOUNDED_EVENTS = 10**18


@record
class ServiceConfig:
    """Knobs of one :class:`ScenarioService` run."""

    engine: str = DEFAULT_ENGINE
    seed: int = 1
    #: traffic events to request from the scenario builder
    #: (:data:`UNBOUNDED_EVENTS` streams until stopped)
    events: int = 20_000
    #: where rolling checkpoints live (``None`` disables checkpointing)
    checkpoint_dir: Optional[str] = None
    #: handled events between checkpoints
    checkpoint_every: int = 200_000
    #: rolling checkpoints retained on disk
    keep_checkpoints: int = 3
    #: handled events between telemetry records (also the streaming-invariant
    #: evaluation cadence)
    telemetry_every: int = 25_000
    #: handled events per ``Network.run`` call (>= 1) — the stop-signal and
    #: checkpoint granularity
    chunk_events: int = CHUNK_EVENTS
    #: stop the service after this many handled events (``None`` = only the
    #: stream end or a signal stops it); used by tests and bounded soaks
    max_events: Optional[int] = None
    #: resume from the newest checkpoint when one exists
    resume: bool = True
    #: telemetry sink (defaults to stderr so stdout stays machine-readable)
    telemetry_stream: Optional[TextIO] = None

    def __post_init__(self) -> None:
        # a chunk of 0 events never advances the stream: the loop would spin
        if self.chunk_events < 1:
            raise SimulationError(
                f"ServiceConfig.chunk_events must be >= 1, got {self.chunk_events}")


@record
class ServiceOutcome:
    """What one service run did, for callers and the CLI exit code."""

    handled: int
    injected: int
    stopped: bool
    resumed_from: Optional[str] = None
    checkpoint_path: Optional[str] = None
    result: Optional[ScenarioResult] = None


def _restore_run(
    state: Dict[str, object],
    setup: ScenarioSetup,
    network: Network,
    source: ReplayableSource,
) -> int:
    """Load a checkpoint into freshly built run objects; returns the handled
    count at checkpoint time.  The traffic replay is validated against the
    recorded cursor, so a changed seed or scenario is caught instead of
    silently producing a franken-run."""
    network.restore(state["network"])
    cursor = state["cursor"]
    source.skip(cursor["consumed"])
    replayed = source.cursor()
    if replayed != cursor:
        raise SimulationError(
            f"traffic replay diverged from the checkpointed cursor "
            f"(checkpoint {cursor} vs replay {replayed}): the scenario, "
            f"seed, or event count differs from the checkpointed run"
        )
    restore_invariant_states(setup.invariants, state["invariants"])
    return int(state["handled"])


def _check_compatible(state: Dict[str, object], scenario_name: str, config: ServiceConfig) -> None:
    for key, want in (
        ("scenario", scenario_name),
        ("engine", config.engine),
        ("seed", config.seed),
        ("events", config.events),
    ):
        if state.get(key) != want:
            raise SimulationError(
                f"checkpoint was taken with {key}={state.get(key)!r}, this "
                f"service is configured with {key}={want!r}; refusing to "
                f"resume (pass a fresh --checkpoint-dir or matching flags)"
            )


class ScenarioService:
    """Run one scenario as a checkpointed, signal-aware service."""

    def __init__(self, scenario, config: ServiceConfig):
        self.scenario = scenario
        self.config = config
        self.stop_requested = False
        self.metrics_dump_requested = False

    # -- signals -------------------------------------------------------------
    def request_stop(self, signum=None, frame=None) -> None:
        """Ask the serve loop to stop after its current chunk (signal-safe)."""
        self.stop_requested = True

    def request_metrics_dump(self, signum=None, frame=None) -> None:
        """Ask the serve loop to print the global metrics registry
        (Prometheus text exposition, read from its network's ledger) to
        stderr after the current chunk (signal-safe)."""
        self.metrics_dump_requested = True

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self.request_stop)
        signal.signal(signal.SIGINT, self.request_stop)
        if hasattr(signal, "SIGUSR1"):  # not on Windows
            signal.signal(signal.SIGUSR1, self.request_metrics_dump)

    # -- the loop ------------------------------------------------------------
    def run(self) -> ServiceOutcome:
        cfg = self.config
        setup = self.scenario.build(cfg.events, cfg.seed)
        t0 = time.perf_counter()
        network, source = prepare_run(setup, cfg.engine)
        store = (CheckpointStore(cfg.checkpoint_dir, keep=cfg.keep_checkpoints)
                 if cfg.checkpoint_dir else None)

        def save(handled: int) -> Optional[str]:
            if store is None:
                return None
            return str(store.save({
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "scenario": self.scenario.name,
                "engine": cfg.engine,
                "seed": cfg.seed,
                "events": cfg.events,
                "handled": handled,
                "cursor": source.cursor(),
                "network": network.snapshot(),
                "invariants": capture_invariant_states(setup.invariants),
            }))

        restored = 0
        resumed_from: Optional[str] = None
        if store is not None and cfg.resume:
            latest = store.latest()
            if latest is not None:
                state = store.load(latest)
                _check_compatible(state, self.scenario.name, cfg)
                restored = _restore_run(state, setup, network, source)
                resumed_from = str(latest)
        # the rate counts only the events this process handles
        telemetry = TelemetryEmitter(
            cfg.telemetry_stream if cfg.telemetry_stream is not None else sys.stderr,
            self.scenario.name, cfg.engine, cfg.seed, handled=restored,
        )
        if resumed_from is not None:
            telemetry.emit(network, restored, source.injected, phase="run",
                           extra={"resumed_from": resumed_from})

        # handled counts at the last telemetry record and the last checkpoint;
        # a cadence of 0 means after every chunk, not also before the first
        telemetry_at = checkpoint_at = restored
        checkpoint_path: Optional[str] = None

        def between(handled: int) -> bool:
            nonlocal telemetry_at, checkpoint_at, checkpoint_path
            if handled - telemetry_at >= max(1, cfg.telemetry_every):
                telemetry_at = handled
                reports = evaluate(setup.invariants, network, streaming_only=True)
                telemetry.emit(network, handled, source.injected,
                               phase="run", invariants=reports)
            if store is not None and handled - checkpoint_at >= max(1, cfg.checkpoint_every):
                checkpoint_at = handled
                checkpoint_path = save(handled)
                telemetry.emit(network, handled, source.injected,
                               phase="checkpoint",
                               extra={"checkpoint": checkpoint_path})
            if self.metrics_dump_requested:
                self.metrics_dump_requested = False
                watch_metrics(network)
                sys.stderr.write(REGISTRY.render_text())
                sys.stderr.flush()
            return self.stop_requested

        start = time.perf_counter()
        traffic0 = source.traffic_s  # the restore's replay is not this run's
        handled, stopped = drive(network, source, restored, cfg.chunk_events,
                                 cfg.max_events, between)
        result: Optional[ScenarioResult] = None
        if stopped:
            # interrupted mid-stream: persist a resumable checkpoint and
            # leave settling + verdicts to the run that finishes the stream
            checkpoint_path = save(handled)
            telemetry.emit(network, handled, source.injected, phase="checkpoint",
                           extra={"stopped": True, "checkpoint": checkpoint_path})
        else:
            # the stream ended: drain to the settle horizon and judge
            telemetry.emit(network, handled, source.injected, phase="settle")
            handled += network.run(until_ns=settle_horizon(setup, source.last_ns))
            traffic_s = source.traffic_s - traffic0
            result = build_result(
                setup, self.scenario.name, cfg.seed, cfg.engine, network,
                events_injected=source.injected, events_handled=handled,
                wall_s=time.perf_counter() - start - traffic_s,
                setup_s=start - t0, traffic_s=traffic_s,
                timed_events=handled - restored,
            )
            checkpoint_path = save(handled)
            telemetry.emit(network, handled, source.injected, phase="final",
                           invariants=result.invariants,
                           extra={"ok": result.ok, "array_digest": result.array_digest})
        return ServiceOutcome(handled=handled, injected=source.injected, stopped=stopped,
                              resumed_from=resumed_from, checkpoint_path=checkpoint_path,
                              result=result)


# ---------------------------------------------------------------------------
# the determinism contract as a harness
# ---------------------------------------------------------------------------
def run_scenario_interrupted(
    scenario,
    events: int,
    seed: int,
    engine: str = DEFAULT_ENGINE,
    checkpoint_after: Optional[int] = None,
) -> ScenarioResult:
    """Run ``scenario`` as two :class:`ScenarioService` runs over one
    on-disk checkpoint store.

    The first run stops after ``checkpoint_after`` handled events (default:
    half the requested event count) and writes its checkpoint; the second
    builds everything afresh — network, traffic stream, invariants — resumes
    from that file and finishes the run.  A ``checkpoint_after`` beyond the
    run's length lets the first run finish, so the second restarts a
    finished run.  The returned result must equal
    :func:`~repro.scenarios.runner.run_scenario`'s in every deterministic
    field (digest, stats, verdicts, counts, sim clock)."""
    if checkpoint_after is None:
        checkpoint_after = max(1, events // 2)
    with tempfile.TemporaryDirectory() as directory:
        def serve(max_events: Optional[int]) -> ServiceOutcome:
            config = ServiceConfig(
                engine=engine, seed=seed, events=events, checkpoint_dir=directory,
                max_events=max_events, telemetry_stream=io.StringIO(),
            )
            return ScenarioService(scenario, config).run()

        serve(checkpoint_after)
        return serve(None).result


def soak_compare(
    scenario,
    events: int,
    seed: int,
    engine: str = DEFAULT_ENGINE,
    checkpoint_after: Optional[int] = None,
) -> Dict[str, object]:
    """Run straight-through AND interrupted+resumed; return the comparison
    the soak job asserts on.  ``match`` covers every deterministic field."""
    straight = run_scenario(scenario, events, seed, engine=engine)
    resumed = run_scenario_interrupted(
        scenario, events, seed, engine=engine, checkpoint_after=checkpoint_after
    )
    mismatches: List[str] = []
    if straight.verdict_signature() != resumed.verdict_signature():
        mismatches.append(
            f"verdicts/digest: {straight.verdict_signature()!r} != "
            f"{resumed.verdict_signature()!r}"
        )
    for fieldname in ("events_injected", "events_handled", "sim_ns"):
        a, b = getattr(straight, fieldname), getattr(resumed, fieldname)
        if a != b:
            mismatches.append(f"{fieldname}: {a} != {b}")
    if straight.switch_stats != resumed.switch_stats:
        mismatches.append("per-switch stats differ")
    return {
        "scenario": scenario.name,
        "engine": straight.engine,
        "seed": seed,
        "events": events,
        "checkpoint_after": checkpoint_after if checkpoint_after is not None else max(1, events // 2),
        "array_digest": straight.array_digest,
        "events_handled": straight.events_handled,
        "ok": straight.ok,
        "match": not mismatches,
        "mismatches": mismatches,
    }
