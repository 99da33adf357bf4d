"""The PISA hardware substrate: the pausable delay queue, the Figure 14
closed form, and a pipeline executor for compiled layouts.  The timing
constants are the scheduler's (:class:`repro.interp.network.SchedulerConfig`)."""

from repro.interp.events import MIN_FRAME_BYTES
from repro.pisa.pipeline import PisaPipeline
from repro.pisa.queues import DelayedEvent, PausableDelayQueue, figure14_point

__all__ = [
    "PisaPipeline",
    "PausableDelayQueue",
    "DelayedEvent",
    "figure14_point",
    "MIN_FRAME_BYTES",
]
