"""First-class observability: metrics, event-lifecycle tracing, profiling.

Three cooperating layers, all off by default and (near) free when disabled:

* :mod:`repro.obs.metrics` — a Prometheus-style registry.  The scheduler's
  metrics are *collected*: read from each switch's ``SwitchStats`` when the
  registry is read, so the dispatch path counts nothing beside that ledger.
  The few counted sites (the compile caches) guard their block behind one
  ``if OBS.enabled:`` check against the module-level
  :data:`~repro.obs.metrics.OBS` singleton.
* :mod:`repro.obs.trace` — span trees over simulated time.  A
  :class:`Tracer` attached to a network records one span per dispatched
  event, linked parent→child through ``EventInstance.trace_parent``, and
  exports Chrome trace-event JSON (Perfetto-compatible) that is
  byte-identical across execution engines for the same seed.
* :mod:`repro.obs.profile` — per-handler and per-PISA-stage wall/sim-time
  accounting, surfaced as a top-N hot-handler report by the scenario CLI
  and embedded in benchmark JSON.

Metric naming convention
========================

``repro_<subsystem>_<quantity>[_<unit>][_total]``

* ``<subsystem>`` is the owning module family: ``network`` (the event
  scheduler and its recirculation ports), ``engine`` (per-engine dispatch,
  the PISA pipeline's stage and table counts, the compile caches).
* counters end in ``_total`` and only ever increase; gauges carry no
  suffix.
* units are base SI: seconds for wall time, nanoseconds (``_ns``) for
  simulated time, bytes for payload volume.
* labels are few and low-cardinality by design: ``event`` (handler name),
  ``engine`` (one of reference/pisa/codegen).  Never label by per-run
  values (switch count is fine as a gauge; switch *id* is not a label).

Catalogue (declared at import time in their owning modules; the scheduler's
and the per-engine event counts in :mod:`repro.interp.network`): see the
README's Observability section for the full table with meanings.
"""

from repro.obs.metrics import (
    OBS,
    REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    parse_text_exposition,
)
from repro.obs.profile import HandlerProfiler, StageProfiler, merge_stage_rows
from repro.obs.trace import Span, Tracer, validate_chrome_trace

__all__ = [
    "OBS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "HandlerProfiler",
    "StageProfiler",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "merge_stage_rows",
    "parse_text_exposition",
    "validate_chrome_trace",
]
