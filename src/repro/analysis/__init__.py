"""Experiment drivers, scaling fits, and table rendering."""

from repro.analysis.experiments import (
    auxiliary_schemes_experiment,
    certificate_size_fit,
    certificate_size_scaling,
    comparison_experiment,
    completeness_experiment,
    lower_bound_table,
    soundness_experiment,
    upper_vs_lower_bound_table,
)
from repro.analysis.fitting import ScalingFit, fit_log_scaling
from repro.analysis.tables import format_table, print_table

__all__ = [
    "auxiliary_schemes_experiment",
    "certificate_size_fit",
    "certificate_size_scaling",
    "comparison_experiment",
    "completeness_experiment",
    "lower_bound_table",
    "soundness_experiment",
    "upper_vs_lower_bound_table",
    "ScalingFit",
    "fit_log_scaling",
    "format_table",
    "print_table",
]
