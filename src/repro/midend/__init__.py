"""Mid-end of the Lucid compiler: function inlining and normalisation of
handler bodies into atomic (single-ALU) statements — the one lowering every
engine but the tree walker starts from."""

from repro.midend.inline import Inliner
from repro.midend.normalize import NormalizedHandler, normalize_handler, normalize_program

__all__ = [
    "Inliner",
    "normalize_handler",
    "normalize_program",
    "NormalizedHandler",
]
