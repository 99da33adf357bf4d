"""Service mode: run scenarios as long-lived processes with checkpoints.

The batch runner (:mod:`repro.scenarios.runner`) runs a bounded workload to
completion and reports verdicts.  This package adds what unbounded runs
need on top of it:

* :mod:`repro.service.source` — :class:`ReplayableSource`, a streaming
  traffic cursor that counts what it has yielded and can replay itself to
  any recorded position (streams cannot be pickled; their position can);
* :mod:`repro.service.checkpoint` — the versioned on-disk checkpoint store
  (a network snapshot + source cursor + invariant observation state);
* :mod:`repro.service.telemetry` — rolling JSON-lines telemetry;
* :mod:`repro.service.server` — :class:`ScenarioService`, the serve loop
  (chunked streaming, periodic checkpoints, SIGTERM-safe shutdown, resume),
  the only code that checkpoints and resumes a scenario; its
  :func:`run_scenario_interrupted` (two service runs over one temporary
  checkpoint directory) is the parity harness behind ``soak``.

This ``__init__`` imports only the cursor, so ``repro.scenarios.runner``
can use :class:`ReplayableSource` without an import cycle or the checkpoint
store; the runs that serve or checkpoint import those modules themselves.
"""

from repro.service.source import ReplayableSource

__all__ = ["ReplayableSource"]
