"""Experiment harness: ratio measurements, tables, efficiency."""

from .ratio import (
    RatioMeasurement,
    RatioSummary,
    measure_cioq_ratio,
    measure_crossbar_ratio,
    measure_many,
    per_seed_ratios,
    ratio_of,
    summarize,
    worst,
)
from .report import (
    csv_table,
    format_mean_ci,
    format_summary_table,
    format_table,
    markdown_table,
    print_table,
)
from .efficiency import (
    compare_unit_matching_cost,
    compare_weighted_matching_cost,
    efficiency_scaling_table,
    random_occupancy,
    random_weights,
)
from .latency import delay_rows, occupancy_report, sparkline
from .classes import banded_breakdown, class_breakdown, value_classes

__all__ = [
    "RatioMeasurement",
    "RatioSummary",
    "measure_cioq_ratio",
    "measure_crossbar_ratio",
    "measure_many",
    "per_seed_ratios",
    "ratio_of",
    "summarize",
    "worst",
    "csv_table",
    "format_mean_ci",
    "format_summary_table",
    "format_table",
    "markdown_table",
    "print_table",
    "compare_unit_matching_cost",
    "compare_weighted_matching_cost",
    "efficiency_scaling_table",
    "random_occupancy",
    "random_weights",
    "delay_rows",
    "occupancy_report",
    "sparkline",
    "banded_breakdown",
    "class_breakdown",
    "value_classes",
]
