"""Unit tests for context pool configuration."""

import pytest

from repro.core.context_pool import ContextPoolConfig, build_contexts
from repro.gpu.spec import RTX_2080_TI


class TestConfig:
    def test_total_nominal_sms(self):
        config = ContextPoolConfig(num_contexts=2, sms_per_context=34.0)
        assert config.total_nominal_sms == pytest.approx(68.0)

    def test_oversubscription_level(self):
        config = ContextPoolConfig(num_contexts=2, sms_per_context=51.0)
        assert config.oversubscription(RTX_2080_TI) == pytest.approx(1.5)

    def test_from_oversubscription_scenario1(self):
        config = ContextPoolConfig.from_oversubscription(2, 1.5, RTX_2080_TI)
        assert config.sms_per_context == pytest.approx(51.0)

    def test_from_oversubscription_scenario2(self):
        config = ContextPoolConfig.from_oversubscription(3, 1.0, RTX_2080_TI)
        assert config.sms_per_context == pytest.approx(68.0 / 3.0)

    def test_round_trip(self):
        for num_contexts in (2, 3):
            for level in (1.0, 1.5, 2.0):
                config = ContextPoolConfig.from_oversubscription(
                    num_contexts, level, RTX_2080_TI
                )
                assert config.oversubscription(RTX_2080_TI) == pytest.approx(level)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ContextPoolConfig(num_contexts=0, sms_per_context=10.0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sms_per_context"):
                ContextPoolConfig(num_contexts=2, sms_per_context=bad)
            with pytest.raises(ValueError, match="oversubscription"):
                ContextPoolConfig.from_oversubscription(2, bad, RTX_2080_TI)


class TestBuildContexts:
    def test_count_and_sizes(self):
        config = ContextPoolConfig.from_oversubscription(3, 1.5, RTX_2080_TI)
        contexts = build_contexts(config, RTX_2080_TI)
        assert len(contexts) == 3
        for context in contexts:
            assert context.nominal_sms == pytest.approx(34.0)

    def test_stream_layout_from_spec(self):
        config = ContextPoolConfig(num_contexts=1, sms_per_context=34.0)
        context = build_contexts(config, RTX_2080_TI)[0]
        assert len(context.streams) == 4

    def test_unique_ids(self):
        config = ContextPoolConfig(num_contexts=3, sms_per_context=20.0)
        contexts = build_contexts(config, RTX_2080_TI)
        assert [c.context_id for c in contexts] == [0, 1, 2]
