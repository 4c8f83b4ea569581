"""Shape tests for experiment aggregates.

The campaign's sections fit their per-``k`` means to a line (the Theta(k)
rounds shape) or to ``log2 k`` (the Theta(log k) memory shape) and test
trends for monotonicity.  The fits use numpy's least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LinearFit:
    """A least-squares line with its coefficient of determination."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """The fitted value at ``x``."""
        return self.slope * x + self.intercept


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line fit with R^2 (the Theta(k) shape test)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r_squared)


def fit_logarithm(ks: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit ``y ~ a * log2(k) + b`` (the Theta(log k) memory shape)."""
    if any(k <= 0 for k in ks):
        raise ValueError("log fit needs positive k values")
    return fit_line([math.log2(k) for k in ks], ys)


def is_monotone_decreasing(
    values: Sequence[float], *, tolerance: float = 0.0
) -> bool:
    """Whether the sequence trends down (each step may rise by at most
    ``tolerance`` -- sweeps over random seeds are noisy)."""
    return all(
        later <= earlier + tolerance
        for earlier, later in zip(values, values[1:])
    )
