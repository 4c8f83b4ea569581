"""Tests for the statistics helpers."""

import math

import pytest

from repro.analysis.statistics import (
    LinearFit,
    fit_line,
    fit_logarithm,
    is_monotone_decreasing,
)


class TestFits:
    def test_fit_line_exact(self):
        fit = fit_line([1, 2, 3, 4], [5, 7, 9, 11])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(23.0)

    def test_fit_line_noisy_r2_below_one(self):
        fit = fit_line([1, 2, 3, 4, 5], [2.0, 4.2, 5.8, 8.1, 9.9])
        assert 0.9 < fit.r_squared < 1.0

    def test_fit_line_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_line([1], [2])

    def test_fit_logarithm_recovers_log_shape(self):
        ks = [4, 16, 64, 256]
        bits = [math.ceil(math.log2(k + 1)) for k in ks]
        fit = fit_logarithm(ks, bits)
        assert 0.8 < fit.slope < 1.2  # ~1 bit per doubling
        assert fit.r_squared > 0.95

    def test_fit_logarithm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_logarithm([0, 2], [1, 2])

    def test_linear_fit_dataclass(self):
        fit = LinearFit(2.0, 1.0, 1.0)
        assert fit.predict(3) == 7.0


class TestTrends:
    def test_monotone_decreasing(self):
        assert is_monotone_decreasing([9, 7, 7, 3])
        assert not is_monotone_decreasing([3, 5, 2])
        assert is_monotone_decreasing([3, 3.4, 2], tolerance=0.5)
