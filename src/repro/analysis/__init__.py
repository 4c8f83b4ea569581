"""Experiment harnesses, bound checks, ablations, and report tables.

This package holds the reproduction campaign (:mod:`repro.analysis.campaign`,
one pass/fail section per claim of the paper) and what it is built from:
it runs parameter sweeps (rounds vs. k, faults, dynamism levels), fits and
checks the paper's bounds (O(k) rounds, Theta(log k) bits), reconstructs
the Figure 3/4 worked example, and renders aligned text tables so every
section prints the same kind of rows the paper reports.
"""

from repro.analysis.experiments import (
    DispersionOutcome,
    run_dispersion,
    sweep_rounds_vs_k,
    sweep_faults,
)
from repro.analysis.bounds import (
    linear_fit,
    check_rounds_upper_bound,
    check_memory_logarithmic,
    check_monotone_progress,
)
from repro.analysis.figures import build_fig3_instance, Fig3Instance
from repro.analysis.tables import format_table
from repro.analysis.ablation import (
    BfsTreeVariant,
    NoDisjointnessVariant,
    NoTruncationVariant,
    UnorderedLeafVariant,
)
from repro.analysis.statistics import (
    LinearFit,
    SampleSummary,
    fit_line,
    fit_logarithm,
    summarize_samples,
)
from repro.analysis.dot import configuration_to_dot, components_to_dot, figure3_dot

__all__ = [
    "DispersionOutcome",
    "run_dispersion",
    "sweep_rounds_vs_k",
    "sweep_faults",
    "linear_fit",
    "check_rounds_upper_bound",
    "check_memory_logarithmic",
    "check_monotone_progress",
    "build_fig3_instance",
    "Fig3Instance",
    "format_table",
    "BfsTreeVariant",
    "NoDisjointnessVariant",
    "NoTruncationVariant",
    "UnorderedLeafVariant",
    "LinearFit",
    "SampleSummary",
    "fit_line",
    "fit_logarithm",
    "summarize_samples",
    "configuration_to_dot",
    "components_to_dot",
    "figure3_dot",
]
