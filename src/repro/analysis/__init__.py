"""Result analysis: metrics, tables, time-series."""

from .metrics import (
    PhaseSummary,
    failure_rate,
    fraction_above,
    nearest_rank,
    normalize_to,
    per_request_phase_table,
    phase_means,
    speedup_cdf,
    speedups,
)
from .series import server_load_series, sparkline
from .tables import format_cell, render_table

__all__ = [
    "PhaseSummary",
    "phase_means",
    "speedups",
    "speedup_cdf",
    "fraction_above",
    "failure_rate",
    "nearest_rank",
    "per_request_phase_table",
    "normalize_to",
    "render_table",
    "format_cell",
    "server_load_series",
    "sparkline",
]
