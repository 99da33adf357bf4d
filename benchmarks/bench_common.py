"""Shared envelope for the ``BENCH_*.json`` reports.

Every benchmark harness in this directory writes its machine-readable
output through :func:`write_report`, so every report file carries the same
top-level keys:

* ``benchmark`` — the harness name (``"obs-overhead"``,
  ``"fig14_pausable_queue"``, ...);
* ``schema_version`` — :data:`BENCH_SCHEMA_VERSION`, bumped when envelope
  or row fields change meaning;
* ``engine`` — which execution engine(s) produced the numbers: an engine
  name, a comma-joined list (``"reference,pisa,codegen"``), or
  ``"model"`` for the analytic hardware-model figures that run no engine;
* ``python`` — the interpreter version;
* ``wall_s`` — wall-clock seconds the measured work took (``None`` when
  the harness cannot attribute a duration);
* ``results`` — the benchmark-specific rows.

Harness-specific scalars (seed, event counts, ...) sit between ``wall_s``
and ``results``.
"""

from __future__ import annotations

import json
import platform
from typing import List, Optional

#: version of the shared report envelope; bump when fields change meaning
BENCH_SCHEMA_VERSION = 2


def make_report(
    benchmark: str,
    engine: str,
    wall_s: Optional[float],
    results: List[dict],
    **extra,
) -> dict:
    return {
        "benchmark": benchmark,
        "schema_version": BENCH_SCHEMA_VERSION,
        "engine": engine,
        "python": platform.python_version(),
        "wall_s": round(wall_s, 3) if wall_s is not None else None,
        **extra,
        "results": results,
    }


def write_report(
    path: str,
    benchmark: str,
    engine: str,
    wall_s: Optional[float],
    results: List[dict],
    **extra,
) -> dict:
    """Write one report file and return the report dict."""
    report = make_report(benchmark, engine, wall_s, results, **extra)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return report
