"""Evaluation harness: figure renderers, report assembly, speedup math."""

from repro.analysis.figures import FigureTable, render_strip
from repro.analysis.speedup import (
    normalized_weighted_speedup,
    run_mix,
    run_solo,
)

__all__ = [
    "FigureTable",
    "render_strip",
    "run_mix",
    "run_solo",
    "normalized_weighted_speedup",
]
