"""Unit tests for composite workloads."""

import pickle

import pytest

from repro.dnn.models import build_simple_cnn
from repro.dnn.resnet import build_resnet18
from repro.speedup.composite import CompositeWorkload, composite_for_ops
from repro.speedup.model import SaturatingCurve, WidthLimitedCurve


def make_composite(works=(1e-3, 2e-3), sigma=0.05, overhead=1e-5, width=68.0):
    curve = WidthLimitedCurve(SaturatingCurve(sigma), width)
    return CompositeWorkload(
        name="stage",
        segments=tuple((w, curve) for w in works),
        overhead=overhead,
    )


class TestTimeModel:
    def test_base_time_is_time_at_one(self):
        composite = make_composite()
        assert composite.base_time == composite.time_at(1.0)

    def test_base_time_sums_work_and_overhead(self):
        composite = make_composite(works=(1e-3, 2e-3), overhead=1e-5)
        assert composite.base_time == pytest.approx(3e-3 + 1e-5)

    def test_time_decreases_with_sms(self):
        composite = make_composite()
        assert composite.time_at(34) < composite.time_at(8) < composite.time_at(1)

    def test_overhead_not_parallelised(self):
        composite = make_composite(works=(1e-9,), overhead=1e-3)
        # With negligible work, time is dominated by the serial overhead at
        # any SM count.
        assert composite.time_at(68) == pytest.approx(1e-3, rel=1e-3)

    def test_zero_sms_rejected(self):
        with pytest.raises(ValueError):
            make_composite().time_at(0)


class TestSpeedup:
    def test_identity_at_one(self):
        assert make_composite().speedup(1.0) == pytest.approx(1.0)

    def test_monotone(self):
        composite = make_composite()
        values = [composite.speedup(s) for s in (1, 2, 4, 8, 16, 32, 68)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_share_rate_is_zero(self):
        assert make_composite().speedup(0.0) == 0.0

    def test_bounded_by_best_segment_curve(self):
        composite = make_composite(sigma=0.05)
        assert composite.speedup(68) <= SaturatingCurve(0.05).speedup(68)


class TestSpeedupMemo:
    def test_repeat_query_evaluates_once(self, monkeypatch):
        composite = make_composite()
        calls = []
        time_at = CompositeWorkload.time_at

        def counting(self, sms):
            calls.append(sms)
            return time_at(self, sms)

        monkeypatch.setattr(CompositeWorkload, "time_at", counting)
        first = composite.speedup(8.0)
        second = composite.speedup(8.0)
        assert first == second == composite.base_time / time_at(composite, 8.0)
        assert calls == [8.0]

    def test_memo_excluded_from_eq_hash_repr(self):
        warm, cold = make_composite(), make_composite()
        warm.speedup(8.0)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert "base_time" not in repr(warm)

    def test_pickle_round_trip(self):
        composite = make_composite()
        composite.speedup(8.0)
        restored = pickle.loads(pickle.dumps(composite))
        assert restored == composite
        assert restored.base_time == composite.base_time
        assert restored.speedup(8.0) == composite.speedup(8.0)

    def test_memo_cleared_past_bound(self, monkeypatch):
        monkeypatch.setattr(CompositeWorkload, "MEMO_MAX_ENTRIES", 4)
        composite = make_composite()
        for index in range(1, 11):
            sms = float(index)
            value = composite.speedup(sms)
            assert len(composite._speedup_memo) <= 4
            assert value == composite.base_time / composite.time_at(sms)


class TestWidthDemand:
    def test_width_demand_below_total(self):
        composite = make_composite(sigma=0.1)
        demand = composite.width_demand(68.0, fraction=0.9)
        assert 1.0 <= demand < 68.0

    def test_higher_fraction_needs_more_width(self):
        composite = make_composite(sigma=0.1)
        assert composite.width_demand(68.0, 0.95) > composite.width_demand(68.0, 0.8)

    def test_demand_meets_fraction(self):
        composite = make_composite(sigma=0.1)
        demand = composite.width_demand(68.0, 0.9)
        assert composite.speedup(demand) >= 0.9 * composite.speedup(68.0) - 1e-6

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_composite().width_demand(68.0, 0.0)


class TestValidation:
    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            CompositeWorkload(name="x", segments=(), overhead=0.0)

    def test_negative_overhead_rejected(self):
        curve = WidthLimitedCurve(SaturatingCurve(0.05), 68.0)
        with pytest.raises(ValueError):
            CompositeWorkload(name="x", segments=((1.0, curve),), overhead=-1.0)

    def test_negative_work_rejected(self):
        curve = WidthLimitedCurve(SaturatingCurve(0.05), 68.0)
        with pytest.raises(ValueError):
            CompositeWorkload(name="x", segments=((-1.0, curve),), overhead=0.0)


class TestCompositeForOps:
    def test_skips_zero_cost_markers(self):
        graph = build_simple_cnn()
        composite = composite_for_ops("net", graph.topological_order())
        # the synthetic input marker contributes no segment
        assert len(composite.segments) == len(graph) - 1

    def test_whole_network_time_is_sum_of_stage_times(self):
        graph = build_resnet18()
        order = graph.topological_order()
        whole = composite_for_ops("net", order)
        mid = len(order) // 2
        first = composite_for_ops("a", order[:mid])
        second = composite_for_ops("b", order[mid:])
        for sms in (1.0, 8.0, 34.0, 68.0):
            assert whole.time_at(sms) == pytest.approx(
                first.time_at(sms) + second.time_at(sms), rel=1e-9
            )

    def test_rejects_all_marker_sequence(self):
        graph = build_resnet18()
        marker = graph.node("input")
        with pytest.raises(ValueError):
            composite_for_ops("empty", [marker])

    def test_total_work_positive(self):
        graph = build_resnet18()
        composite = composite_for_ops("net", graph.topological_order())
        assert composite.total_work > 0
