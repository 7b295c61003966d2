"""Result analysis: pivots, capacity estimates, timelines, persistence."""

from repro.analysis.persistence import load_grid, load_run_traces, save_grid
from repro.analysis.pivot import find_pivot, pivot_table
from repro.analysis.report import (
    AGGREGATE_METRICS,
    aggregate_to_csv,
    ascii_chart,
    render_aggregate_table,
    render_fig1_table,
    render_sweep_table,
    sweep_to_csv,
)
from repro.analysis.timeline import (
    KernelSpan,
    context_occupancy,
    extract_spans,
    first_divergence,
    render_gantt,
    stage_latency_breakdown,
)

__all__ = [
    "find_pivot",
    "pivot_table",
    "ascii_chart",
    "render_sweep_table",
    "render_fig1_table",
    "sweep_to_csv",
    "AGGREGATE_METRICS",
    "aggregate_to_csv",
    "KernelSpan",
    "extract_spans",
    "context_occupancy",
    "stage_latency_breakdown",
    "render_gantt",
    "first_divergence",
    "render_aggregate_table",
    "save_grid",
    "load_grid",
    "load_run_traces",
]
