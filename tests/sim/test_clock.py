"""Unit tests for time helpers."""

import pytest

from repro.sim.clock import TIME_EPS, is_before, times_close, validate_time


class TestTimesClose:
    def test_equal_times(self):
        assert times_close(1.0, 1.0)

    def test_within_epsilon(self):
        assert times_close(1.0, 1.0 + TIME_EPS / 2)

    def test_beyond_epsilon(self):
        assert not times_close(1.0, 1.0 + 10 * TIME_EPS)

    def test_custom_epsilon(self):
        assert times_close(1.0, 1.5, eps=1.0)


class TestIsBefore:
    def test_strictly_before(self):
        assert is_before(1.0, 2.0)

    def test_not_before_when_equal(self):
        assert not is_before(1.0, 1.0)

    def test_simultaneous_within_epsilon(self):
        assert not is_before(1.0, 1.0 + TIME_EPS / 10)

    def test_after(self):
        assert not is_before(2.0, 1.0)


class TestValidateTime:
    def test_accepts_zero(self):
        assert validate_time(0.0) == 0.0

    def test_accepts_positive(self):
        assert validate_time(12.5) == 12.5

    def test_coerces_int(self):
        value = validate_time(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_time(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_time(float("nan"))

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            validate_time(float("inf"))

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            validate_time("soon")

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_naming_the_field(self, value):
        # bool subclasses int, but a truth value is no time
        with pytest.raises(TypeError, match="horizon must be a number, got bool"):
            validate_time(value, name="horizon")

    def test_error_mentions_name(self):
        with pytest.raises(ValueError, match="horizon"):
            validate_time(-1.0, name="horizon")
