"""Per-pass observables of the PISA pipeline, for pinning against a golden.

Wraps :meth:`PisaPipeline.process` (public API only, so the same recorder
runs against any checkout) and summarises every pass a run makes: the
handled event, the stages traversed, the tables executed, the generated
events and the printed lines, in dispatch order.
"""

import hashlib
from contextlib import contextmanager

from repro.fuzz.case import load_case
from repro.fuzz.diff import run_case
from repro.pisa.pipeline import PisaPipeline
from repro.scenarios import registry
from repro.scenarios.runner import run_scenario


@contextmanager
def recorded_passes():
    records = []
    original = PisaPipeline.process

    def recording(self, event, time_ns=None):
        result = original(self, event, time_ns)
        records.append((
            self.switch_id, event.name, tuple(event.args),
            result.stages_traversed, result.tables_executed,
            [(g.name, tuple(g.args), g.delay_ns, g.location, g.group, g.source)
             for g in result.generated],
            list(result.prints),
        ))
        return result

    PisaPipeline.process = recording
    try:
        yield records
    finally:
        PisaPipeline.process = original


def summarise(records):
    return {
        "passes": len(records),
        "stages_traversed": sum(r[3] for r in records),
        "tables_executed": sum(r[4] for r in records),
        "generated": sum(len(r[5]) for r in records),
        "prints": sum(len(r[6]) for r in records),
        "sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
    }


def pass_summary_for_scenario(name, events, seed):
    with recorded_passes() as records:
        result = run_scenario(registry.get(name), events, seed, engine="pisa")
    summary = summarise(records)
    summary["array_digest"] = result.array_digest
    return summary


def pass_summary_for_case(path):
    with recorded_passes() as records:
        result = run_case(load_case(path), "pisa")
    assert result.error is None, result.error
    summary = summarise(records)
    summary["array_digest"] = result.digest
    return summary
