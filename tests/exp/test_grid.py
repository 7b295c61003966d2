"""Unit tests for the experiment-grid specification."""

import math

import pytest

from repro.core.naive import NaiveScheduler
from repro.core.sgprs import SgprsScheduler
from repro.exp.grid import (
    GridPoint,
    GridSpec,
    derive_seed,
    register_variant,
    resolve_variant,
)
from tests.core.test_admission import BAD_ADMISSION_SPECS
from tests.workloads.test_arrivals import BAD_ARRIVAL_SPECS


#: Time-axis values a point or spec must refuse when it is built, with
#: the field the error names (``RunConfig``'s rules, plus the period).
BAD_TIME_AXES = [
    ({"duration": math.nan}, "duration"),
    ({"duration": math.inf}, "duration"),
    ({"duration": -1.0}, "duration"),
    ({"warmup": math.nan}, "warmup"),
    ({"warmup": -0.5}, "warmup"),
    ({"warmup": 1.0, "duration": 1.0}, "warmup"),
    ({"period": math.nan}, "period"),
    ({"period": math.inf}, "period"),
    ({"period": 0.0}, "period"),
]


def small_spec(**overrides):
    fields = dict(
        scenario="scenario1",
        num_contexts=2,
        variants=("naive", "sgprs_1.5"),
        task_counts=(2, 4),
        seeds=(0, 1),
        duration=1.0,
        warmup=0.2,
    )
    fields.update(overrides)
    return GridSpec(**fields)


class TestResolveVariant:
    def test_naive_is_monolithic(self):
        scheduler, oversub, stages = resolve_variant("naive", num_stages=6)
        assert scheduler is NaiveScheduler
        assert oversub == 1.0
        assert stages == 1

    def test_sgprs_parses_oversubscription(self):
        scheduler, oversub, stages = resolve_variant("sgprs_1.5", num_stages=6)
        assert scheduler is SgprsScheduler
        assert oversub == 1.5
        assert stages == 6

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            resolve_variant("mystery")
        with pytest.raises(ValueError):
            resolve_variant("sgprs_abc")

    def test_registered_variant_resolves(self):
        class Custom(SgprsScheduler):
            name = "custom"

        register_variant("grid_test_custom", lambda s: (Custom, 2.0, s))
        scheduler, oversub, stages = resolve_variant(
            "grid_test_custom", num_stages=4
        )
        assert scheduler is Custom
        assert oversub == 2.0
        assert stages == 4

    def test_registration_cannot_shadow_builtins(self):
        with pytest.raises(ValueError):
            register_variant("naive", lambda s: (NaiveScheduler, 1.0, 1))
        with pytest.raises(ValueError):
            register_variant("sgprs_9", lambda s: (SgprsScheduler, 9.0, s))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_sensitive_to_every_coordinate(self):
        base = derive_seed(0, "scenario1", "naive", 4)
        assert derive_seed(1, "scenario1", "naive", 4) != base
        assert derive_seed(0, "scenario2", "naive", 4) != base
        assert derive_seed(0, "scenario1", "sgprs_1", 4) != base
        assert derive_seed(0, "scenario1", "naive", 8) != base


class TestGridPoint:
    def point(self, **overrides):
        fields = dict(
            scenario="scenario1",
            num_contexts=2,
            variant="sgprs_1.5",
            num_tasks=4,
            seed=7,
        )
        fields.update(overrides)
        return GridPoint(**fields)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.point(num_tasks=0)
        with pytest.raises(ValueError):
            self.point(num_contexts=0)
        with pytest.raises(ValueError):
            self.point(variant="mystery")

    def test_hash_is_stable_and_sensitive(self):
        assert self.point().config_hash() == self.point().config_hash()
        assert (
            self.point(num_tasks=5).config_hash()
            != self.point().config_hash()
        )
        assert self.point(seed=8).config_hash() != self.point().config_hash()
        assert (
            self.point(allow_stream_borrowing=False).config_hash()
            != self.point().config_hash()
        )

    def test_dict_roundtrip(self):
        point = self.point(work_jitter_cv=0.1, base_seed=3)
        assert GridPoint.from_dict(point.config_dict()) == point

    def test_label(self):
        assert self.point(base_seed=3).label == "scenario1/sgprs_1.5/n4/s3"

    @pytest.mark.parametrize(
        "overrides,field",
        BAD_TIME_AXES
        + [
            ({"workload": "mixed_fleet", "total_utilization": bad}, "total_utilization")
            for bad in (math.nan, math.inf, -1.0)
        ],
    )
    def test_bad_axis_fails_when_the_point_is_built(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            self.point(**overrides)


class TestGridSpec:
    def test_len_and_order(self):
        spec = small_spec()
        points = list(spec.points())
        assert len(points) == len(spec) == 2 * 2 * 2
        # deterministic (variant, count, seed) order
        coords = [(p.variant, p.num_tasks, p.base_seed) for p in points]
        assert coords == [
            ("naive", 2, 0),
            ("naive", 2, 1),
            ("naive", 4, 0),
            ("naive", 4, 1),
            ("sgprs_1.5", 2, 0),
            ("sgprs_1.5", 2, 1),
            ("sgprs_1.5", 4, 0),
            ("sgprs_1.5", 4, 1),
        ]
        assert list(spec.points()) == points

    def test_zero_jitter_passes_seed_through(self):
        for point in small_spec().points():
            assert point.seed == point.base_seed

    def test_jitter_derives_per_point_seeds(self):
        points = list(small_spec(work_jitter_cv=0.1).points())
        seeds = {p.seed for p in points}
        assert len(seeds) == len(points), "every point gets its own stream"
        for point in points:
            assert point.seed == derive_seed(
                point.base_seed, "scenario1", point.variant, point.num_tasks
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(variants=())
        with pytest.raises(ValueError):
            small_spec(task_counts=())
        with pytest.raises(ValueError):
            small_spec(seeds=())
        with pytest.raises(ValueError):
            small_spec(variants=("mystery",))

    @pytest.mark.parametrize(
        "overrides,field",
        BAD_TIME_AXES
        + [
            ({"workload": "mixed_fleet", "utilizations": (1.0, bad)}, "utilizations")
            for bad in (math.nan, math.inf)
        ],
    )
    def test_bad_axis_fails_when_the_spec_is_built(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            small_spec(**overrides)

    def test_from_scenario(self):
        from repro.workloads.scenarios import SCENARIO_2

        spec = GridSpec.from_scenario(
            SCENARIO_2, variants=("naive",), task_counts=(2,)
        )
        assert spec.scenario == "scenario2"
        assert spec.num_contexts == 3

class TestArrivalAxis:
    """The open-system axis introduced with schema v3."""

    def test_default_spec_is_closed_system(self):
        spec = small_spec()
        assert spec.arrivals == ("periodic",)
        assert spec.admission == ""
        for point in spec.points():
            assert point.arrival == "periodic"
            assert point.admission == ""
            assert "/periodic" not in point.label

    def test_arrival_axis_multiplies_the_grid(self):
        spec = small_spec(arrivals=("periodic", "poisson"))
        points = list(spec.points())
        assert len(points) == len(spec) == 2 * 2 * 2 * 2
        arrivals = {p.arrival for p in points}
        assert arrivals == {"periodic", "poisson"}

    def test_non_periodic_arrival_shows_in_label(self):
        spec = small_spec(arrivals=("poisson",))
        point = next(iter(spec.points()))
        assert point.label.endswith("/poisson")

    def test_admission_flows_to_every_point(self):
        spec = small_spec(
            arrivals=("mmpp:burst=6",), admission="queue:depth=2"
        )
        for point in spec.points():
            assert point.arrival == "mmpp:burst=6"
            assert point.admission == "queue:depth=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(arrivals=())
        with pytest.raises(ValueError):
            small_spec(arrivals=("bogus_process",))
        with pytest.raises(ValueError):
            small_spec(admission="bogus_policy")
        with pytest.raises(ValueError):
            GridPoint(
                scenario="scenario1",
                num_contexts=2,
                variant="naive",
                num_tasks=2,
                seed=0,
                arrival="",
            )

    @pytest.mark.parametrize(
        "axis,spec,field",
        [("arrival", spec, field) for spec, field in BAD_ARRIVAL_SPECS]
        + [("admission", spec, field) for spec, field in BAD_ADMISSION_SPECS],
    )
    def test_bad_spec_fails_when_the_point_is_built(self, axis, spec, field):
        # GridPoint resolves both specs, so a sweep fails before any
        # point runs
        with pytest.raises(ValueError, match=field):
            GridPoint(
                scenario="scenario1",
                num_contexts=2,
                variant="sgprs_1.5",
                num_tasks=4,
                seed=0,
                **{axis: spec},
            )

    def test_hash_sensitive_to_arrival_and_admission(self):
        def point(**overrides):
            fields = dict(
                scenario="scenario1",
                num_contexts=2,
                variant="naive",
                num_tasks=2,
                seed=0,
            )
            fields.update(overrides)
            return GridPoint(**fields)

        base = point().config_hash()
        assert point(arrival="poisson").config_hash() != base
        assert point(admission="reject").config_hash() != base

    def test_dict_roundtrip_carries_the_axis(self):
        point = GridPoint(
            scenario="scenario1",
            num_contexts=2,
            variant="naive",
            num_tasks=2,
            seed=0,
            arrival="mmpp:burst=6",
            admission="queue:depth=2",
        )
        assert GridPoint.from_dict(point.config_dict()) == point

    def test_seed_streams_are_arrival_independent(self):
        """Adding the arrival axis must not reshuffle historical seeds."""
        jittered = small_spec(
            work_jitter_cv=0.1, arrivals=("periodic", "poisson")
        )
        by_coords = {}
        for point in jittered.points():
            key = (point.variant, point.num_tasks, point.base_seed)
            by_coords.setdefault(key, set()).add(point.seed)
        assert all(len(seeds) == 1 for seeds in by_coords.values())
