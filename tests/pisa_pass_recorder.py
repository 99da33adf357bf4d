"""Per-pass observables of the PISA pipeline, for pinning against a golden.

Records every pass a run makes through a :class:`PisaPipeline` (public API
only) and summarises it: the handled event, the stages traversed, the tables
executed, the generated events and the printed lines, in dispatch order.

A pipeline with ``counters()`` sums its passes' counts itself: its ``run``
is wrapped, and a pass's counts are its deltas of those counters.  Older
trees, whose passes all go through ``process`` and return the counts on the
result, are recorded from that result, so the recorder runs against them
too.
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

    def record(pipeline, event, result, stages, tables):
        records.append((
            pipeline.switch_id, event.name, tuple(event.args), stages, tables,
            [(g.name, tuple(g.args), g.delay_ns, g.location, g.group, g.source)
             for g in result.generated],
            list(result.prints),
        ))

    if hasattr(PisaPipeline, "counters"):
        original = PisaPipeline.__init__

        def patched(self, *args, **kwargs):
            original(self, *args, **kwargs)
            run = self.run

            def recording(event):
                before = self.counters()
                result = run(event)
                after = self.counters()
                record(self, event, result,
                       after["stages_traversed"] - before["stages_traversed"],
                       after["tables_executed"] - before["tables_executed"])
                return result

            self.run = recording

        attr = "__init__"
    else:
        original = PisaPipeline.process

        def patched(self, event, time_ns=None):
            result = original(self, event, time_ns)
            record(self, event, result, result.stages_traversed, result.tables_executed)
            return result

        attr = "process"
    setattr(PisaPipeline, attr, patched)
    try:
        yield records
    finally:
        setattr(PisaPipeline, attr, original)


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
