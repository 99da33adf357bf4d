"""The PISA hardware substrate: timing constants, the pipeline's packet
budget, the pausable delay queue, and a pipeline executor for compiled
layouts."""

from repro.pisa.pipeline import PisaPipeline
from repro.pisa.queues import (
    DelayedEvent,
    DelayMechanismResult,
    PausableDelayQueue,
    simulate_concurrent_delays,
)
from repro.pisa.recirculation import PipelineBudget
from repro.pisa.tofino import DEFAULT_TIMING, MIN_FRAME_BYTES, TofinoTiming

__all__ = [
    "PisaPipeline",
    "PausableDelayQueue",
    "DelayedEvent",
    "DelayMechanismResult",
    "simulate_concurrent_delays",
    "PipelineBudget",
    "TofinoTiming",
    "DEFAULT_TIMING",
    "MIN_FRAME_BYTES",
]
