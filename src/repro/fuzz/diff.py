"""Differential execution of one fuzz case on every switch engine.

Each engine gets its own :class:`~repro.interp.network.Network` (fresh
runtime state), but all of them share one :class:`CheckedProgram` — so the
PISA layout is compiled once per case, and the comparison is between
executions, not between independent frontend runs.  The observables compared
are exactly the ones the paper's "same program, same meaning" claim is about:

* the handled-event trace — ``(time_ns, switch_id, event, args)`` per event;
* the final array digest (every cell of every switch's register file);
* per-switch scheduler stats (handled/generated/recirculations/sends/drops);
* per-switch print logs;
* crash behaviour — a checked program must not crash *any* engine, and an
  error in one engine but not another is a divergence like any other.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.frontend.type_checker import CheckedProgram, check_program
from repro.fuzz.case import FuzzCase
from repro.interp.engine import ENGINE_NAMES
from repro.interp.events import EventInstance
from repro.interp.network import Network
from repro.scenarios.runner import network_array_digest
from repro.service.checkpoint import write_json

#: per-switch counters compared across engines (all scheduler-maintained)
_STAT_KEYS = (
    "events_handled",
    "events_generated",
    "recirculations",
    "remote_sends",
    "drops",
    "link_drops",
    "recirc_drops",
)

#: one handled event, as compared across engines
TraceRow = Tuple[int, int, str, Tuple[int, ...]]

#: hard ceiling on handled events per engine run.  Generated programs always
#: terminate (hop-counted chains), but shrink candidates can legally rewrite
#: ``generate ev(hops - 1)`` into ``generate ev(hops)`` — a well-typed,
#: non-terminating program.  The cap is deterministic and identical across
#: engines, so a capped run still compares exactly.
MAX_EVENTS_PER_RUN = 20_000


@dataclass
class CaseResult:
    """Everything observable about one engine's execution of one case."""

    engine: str
    error: Optional[str] = None
    digest: Optional[str] = None
    trace: List[TraceRow] = field(default_factory=list)
    stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    logs: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def crashed(self) -> bool:
        return self.error is not None


@dataclass
class DiffOutcome:
    """Every registered engine's result plus the list of disagreements."""

    case: FuzzCase
    results: Dict[str, CaseResult] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return f"{self.case.name}: all engines agree"
        lines = [f"{self.case.name}: {len(self.divergences)} divergence(s)"]
        lines.extend(f"  - {d}" for d in self.divergences)
        return "\n".join(lines)


def _build_network(case: FuzzCase, engine: str, checked: CheckedProgram) -> Network:
    network = Network(engine=engine)
    for switch_id in range(case.switches):
        network.add_switch(switch_id, checked)
    for a, b in case.links:
        network.add_link(a, b)
    return network


def _inject(network: Network, case: FuzzCase) -> Network:
    for time_ns, switch_id, name, args in case.events:
        network.inject(switch_id, EventInstance(name=name, args=tuple(args)), at_ns=time_ns)
    return network


def _trace_rows(network: Network) -> List[TraceRow]:
    return [
        (entry.time_ns, entry.switch_id, entry.event.name, tuple(entry.event.args))
        for entry in network.trace
    ]


def _observe(result: CaseResult, network: Network, trace_prefix: List[TraceRow]) -> CaseResult:
    """Fill ``result`` with what ``network`` ends in; its trace follows
    ``trace_prefix`` (what an earlier segment of the run handled)."""
    result.digest = network_array_digest(network)
    result.trace = trace_prefix + _trace_rows(network)
    for switch_id in sorted(network.switches):
        switch = network.switches[switch_id]
        result.stats[switch_id] = {key: getattr(switch.stats, key) for key in _STAT_KEYS}
        result.logs[switch_id] = list(switch.log)
    return result


def run_case(case: FuzzCase, engine: str, checked: Optional[CheckedProgram] = None) -> CaseResult:
    """Execute ``case`` under one engine and collect its observables.

    Any exception — compiling the program for the engine, or executing any
    event — is captured as the result's ``error``: crash-freedom is one of
    the differential properties, so crashes are data, not runner failures.
    """
    result = CaseResult(engine=engine)
    try:
        if checked is None:
            checked = check_program(case.source)
        network = _inject(_build_network(case, engine, checked), case)
        network.run(max_events=MAX_EVENTS_PER_RUN)
    except Exception as error:  # noqa: BLE001 - crash capture is the point
        result.error = f"{type(error).__name__}: {error}"
        return result
    return _observe(result, network, [])


def _first_diff_index(a: List, b: List) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _compare(base: CaseResult, other: CaseResult, out: List[str]) -> None:
    tag = f"{base.engine} vs {other.engine}"
    if base.crashed or other.crashed:
        if base.error != other.error:
            out.append(
                f"{tag}: crash behaviour differs "
                f"({base.engine}: {base.error or 'ok'}; {other.engine}: {other.error or 'ok'})"
            )
        return
    if base.digest != other.digest:
        out.append(f"{tag}: array digest {base.digest} != {other.digest}")
    if base.trace != other.trace:
        i = _first_diff_index(base.trace, other.trace)
        lhs = base.trace[i] if i < len(base.trace) else "<end>"
        rhs = other.trace[i] if i < len(other.trace) else "<end>"
        out.append(
            f"{tag}: trace differs at event {i} "
            f"({len(base.trace)} vs {len(other.trace)} handled): {lhs} != {rhs}"
        )
    if base.stats != other.stats:
        out.append(f"{tag}: stats differ ({base.stats} != {other.stats})")
    if base.logs != other.logs:
        out.append(f"{tag}: print logs differ ({base.logs} != {other.logs})")


def run_case_checkpointed(
    case: FuzzCase,
    engine: str,
    checked: Optional[CheckedProgram] = None,
    split: int = 1,
) -> CaseResult:
    """Execute ``case`` with a snapshot/restore cycle after ``split`` handled
    events: the first segment's network is snapshotted, the snapshot is
    written by the checkpoint store's :func:`write_json` and decoded again
    (the on-disk checkpoint path), and a *fresh* network finishes the run
    from the restored state.  All observables — including the handled-event
    trace, concatenated across the two segments — must equal
    :func:`run_case`'s."""
    result = CaseResult(engine=f"{engine}+checkpoint")
    split = max(0, min(split, MAX_EVENTS_PER_RUN))
    try:
        if checked is None:
            checked = check_program(case.source)
        network = _inject(_build_network(case, engine, checked), case)
        handled = network.run(max_events=split)
        trace_prefix = _trace_rows(network)
        text = io.StringIO()
        write_json(text.write, network.snapshot())
        state = json.loads(text.getvalue())
        network = _build_network(case, engine, checked)
        network.restore(state)
        network.run(max_events=MAX_EVENTS_PER_RUN - handled)
    except Exception as error:  # noqa: BLE001 - crash capture is the point
        result.error = f"{type(error).__name__}: {error}"
        return result
    return _observe(result, network, trace_prefix)


def run_checkpoint_differential(
    case: FuzzCase,
    split: int,
    engines: Tuple[str, ...] = ENGINE_NAMES,
    straight: Optional[DiffOutcome] = None,
) -> DiffOutcome:
    """The checkpoint/restore mutation: for every engine, compare the
    straight-through execution against one interrupted after ``split``
    handled events, snapshotted through JSON, and resumed on a fresh
    network.  ``straight`` reuses an existing :func:`run_differential`
    outcome instead of re-running the baselines."""
    outcome = DiffOutcome(case=case)
    try:
        checked = check_program(case.source)
    except Exception as error:  # noqa: BLE001
        outcome.divergences.append(f"frontend rejects the case: {error}")
        return outcome
    for engine in engines:
        if straight is not None and engine in straight.results:
            base = straight.results[engine]
        else:
            base = run_case(case, engine, checked)
        resumed = run_case_checkpointed(case, engine, checked, split=split)
        outcome.results[resumed.engine] = resumed
        _compare(base, resumed, outcome.divergences)
    return outcome


def run_differential(
    case: FuzzCase, engines: Tuple[str, ...] = ENGINE_NAMES
) -> DiffOutcome:
    """Run ``case`` under every engine and compare against the first one
    (the reference interpreter, per ``ENGINE_NAMES`` ordering)."""
    outcome = DiffOutcome(case=case)
    try:
        checked = check_program(case.source)
    except Exception as error:  # noqa: BLE001
        # a case that no longer checks cannot diverge; report it distinctly
        outcome.divergences.append(f"frontend rejects the case: {error}")
        return outcome
    for engine in engines:
        outcome.results[engine] = run_case(case, engine, checked)
    base = outcome.results[engines[0]]
    if base.crashed:
        outcome.divergences.append(
            f"{base.engine}: checked program crashed the baseline engine: {base.error}"
        )
    for engine in engines[1:]:
        _compare(base, outcome.results[engine], outcome.divergences)
    return outcome
