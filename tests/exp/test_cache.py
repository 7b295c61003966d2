"""Unit tests for the on-disk result cache."""

import json

from repro.exp.cache import ResultCache
from repro.exp.grid import GridPoint
from repro.exp.worker import PointResult


def make_point(**overrides):
    fields = dict(
        scenario="scenario1",
        num_contexts=2,
        variant="sgprs_1.5",
        num_tasks=4,
        seed=7,
        duration=1.0,
        warmup=0.2,
    )
    fields.update(overrides)
    return GridPoint(**fields)


def make_result(point=None, fps=120.0):
    return PointResult(
        point=point if point is not None else make_point(),
        total_fps=fps,
        dmr=0.0,
        utilization=0.4,
        mean_pressure=0.5,
        released=120,
        completed=118,
        elapsed=0.25,
    )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = make_result()
        cache.put(result)
        loaded = cache.get(result.point)
        assert loaded is not None
        assert loaded.total_fps == result.total_fps
        assert loaded.point == result.point
        assert cache.hits == 1

    def test_hit_zeroes_elapsed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_result())
        assert cache.get(make_point()).elapsed == 0.0

    def test_absent_point_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(make_point()) is None
        assert cache.misses == 1

    def test_different_config_is_different_slot(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_result())
        assert cache.get(make_point(num_tasks=8)) is None
        assert cache.get(make_point(seed=8)) is None
        assert cache.backend.list_prefix("") == [cache.key_for(make_point())]


class TestRobustness:
    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = make_point()
        cache.backend.atomic_replace(cache.key_for(point), b"{not json")
        assert cache.get(point) is None

    def test_wrong_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = make_point()
        payload = make_result().to_dict()
        payload["version"] = 999
        cache.backend.atomic_replace(
            cache.key_for(point), json.dumps(payload).encode()
        )
        assert cache.get(point) is None

    def test_mismatched_point_is_a_miss(self, tmp_path):
        # a result stored under the wrong filename must not be served
        cache = ResultCache(tmp_path)
        point = make_point()
        other = make_result(point=make_point(num_tasks=9))
        cache.backend.atomic_replace(
            cache.key_for(point), json.dumps(other.to_dict()).encode()
        )
        assert cache.get(point) is None

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_result(fps=100.0))
        cache.put(make_result(fps=200.0))
        assert cache.get(make_point()).total_fps == 200.0
        assert cache.backend.list_prefix("") == [cache.key_for(make_point())]
