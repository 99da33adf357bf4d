"""Differential fuzzing of the three execution engines.

The Lucid paper's central promise is that one program means one thing on
every substrate.  This package turns that promise into a generative test:

* :mod:`repro.fuzz.gen` — a seeded generator of small well-typed programs
  (arrays, memops, branchy handlers, event chains, delays, recirculation)
  that uses the type checker as its validity oracle, plus a matching random
  traffic generator;
* :mod:`repro.fuzz.diff` — a differential runner that executes one
  (program, traffic) case under the reference interpreter, the PISA
  pipeline executor, and the codegen fast path and demands identical traces,
  array digests, stats, prints, and crash behaviour;
* :mod:`repro.fuzz.shrink` — an AST-level shrinker that reduces a failing
  case to a minimal reproducer (re-validated through the type checker at
  every step);
* ``python -m repro.fuzz`` — the CLI tying them together, writing shrunk
  reproducers ready to check into ``tests/regressions/``.
"""

from repro.fuzz.case import FuzzCase, load_case, save_case
from repro.fuzz.diff import CaseResult, DiffOutcome, run_case, run_differential
from repro.fuzz.gen import CaseGenerator
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CaseGenerator",
    "CaseResult",
    "DiffOutcome",
    "FuzzCase",
    "load_case",
    "run_case",
    "run_differential",
    "save_case",
    "shrink_case",
]
