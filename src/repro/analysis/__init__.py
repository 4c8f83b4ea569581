"""The reproduction campaign and what it is built from.

This package holds the campaign (:mod:`repro.analysis.campaign`, one
pass/fail section per claim of the paper -- the only place a claim is
checked) and its parts: the run grids (rounds vs. k, faults), fits and
checks of the paper's round bounds, the ablation variants, the Figure 3/4
worked example, and aligned text tables so every section prints the same
kind of rows the paper reports.
"""

from repro.analysis.bounds import check_rounds_upper_bound
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
    fit_line,
    fit_logarithm,
)
from repro.analysis.dot import configuration_to_dot, components_to_dot, figure3_dot

__all__ = [
    "check_rounds_upper_bound",
    "build_fig3_instance",
    "Fig3Instance",
    "format_table",
    "BfsTreeVariant",
    "NoDisjointnessVariant",
    "NoTruncationVariant",
    "UnorderedLeafVariant",
    "LinearFit",
    "fit_line",
    "fit_logarithm",
    "configuration_to_dot",
    "components_to_dot",
    "figure3_dot",
]
