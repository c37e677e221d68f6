"""Tests for repro.utils.validation."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_in_range, check_positive, check_probability


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive("x", bad)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 3.0, 1.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", float("nan"), 0.0, 1.0)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)
