"""The PISA hardware substrate: the pipeline's packet budget, the pausable
delay queue, and a pipeline executor for compiled layouts.  The timing
constants are the scheduler's (:class:`repro.interp.network.SchedulerConfig`)."""

from repro.interp.events import MIN_FRAME_BYTES
from repro.pisa.pipeline import PisaPipeline
from repro.pisa.queues import (
    DelayedEvent,
    DelayMechanismResult,
    PausableDelayQueue,
    simulate_concurrent_delays,
)
from repro.pisa.recirculation import PipelineBudget

__all__ = [
    "PisaPipeline",
    "PausableDelayQueue",
    "DelayedEvent",
    "DelayMechanismResult",
    "simulate_concurrent_delays",
    "PipelineBudget",
    "MIN_FRAME_BYTES",
]
