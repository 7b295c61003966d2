"""Unit tests for speedup curve primitives."""

import pytest

from repro.speedup.model import (
    SaturatingCurve,
    WidthLimitedCurve,
    sigma_for_target,
)


class TestSigmaForTarget:
    def test_exact_fit(self):
        sigma = sigma_for_target(32.0, 68)
        curve = SaturatingCurve(sigma)
        assert curve.speedup(68) == pytest.approx(32.0)

    def test_linear_speedup_gives_zero_sigma(self):
        assert sigma_for_target(68.0, 68) == pytest.approx(0.0)

    def test_no_speedup_gives_sigma_one(self):
        assert sigma_for_target(1.0, 68) == pytest.approx(1.0)

    def test_target_above_sms_rejected(self):
        with pytest.raises(ValueError):
            sigma_for_target(100.0, 68)

    def test_target_below_one_rejected(self):
        with pytest.raises(ValueError):
            sigma_for_target(0.5, 68)

    def test_at_sms_of_one_rejected(self):
        with pytest.raises(ValueError):
            sigma_for_target(1.0, 1)


class TestSaturatingCurve:
    def test_identity_at_one_sm(self):
        assert SaturatingCurve(0.1).speedup(1.0) == pytest.approx(1.0)

    def test_monotone_increasing(self):
        curve = SaturatingCurve(0.05)
        values = [curve.speedup(s) for s in range(1, 69)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_concave(self):
        curve = SaturatingCurve(0.05)
        gains = [
            curve.speedup(s + 1) - curve.speedup(s) for s in range(1, 68)
        ]
        assert all(b < a + 1e-12 for a, b in zip(gains, gains[1:]))

    def test_fractional_share_degrades_linearly(self):
        assert SaturatingCurve(0.1).speedup(0.5) == pytest.approx(0.5)

    def test_zero_share_is_zero(self):
        assert SaturatingCurve(0.1).speedup(0.0) == 0.0

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            SaturatingCurve(-0.1)
        with pytest.raises(ValueError):
            SaturatingCurve(1.5)


class TestWidthLimitedCurve:
    def test_below_width_matches_inner(self):
        inner = SaturatingCurve(0.05)
        limited = WidthLimitedCurve(inner, width=16.0)
        assert limited.speedup(8.0) == pytest.approx(inner.speedup(8.0))

    def test_above_width_clamps(self):
        inner = SaturatingCurve(0.05)
        limited = WidthLimitedCurve(inner, width=16.0)
        assert limited.speedup(64.0) == pytest.approx(inner.speedup(16.0))

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            WidthLimitedCurve(SaturatingCurve(0.05), width=0.5)
