"""The arrivals subsystem: processes, registry, determinism, replay.

Includes the fast-tier seed-determinism smoke: a pinned golden hash of
the first arrivals of every registered process x 2 seeds, so any change
to a stream's draws (new RNG, reordered draws, libm-visible formula
change) fails loudly instead of silently invalidating cached sweeps.
"""

import hashlib
import pickle

import pytest

from repro.core.task import TaskSpec
from repro.dnn.models import build_simple_cnn
from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MmppArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    ReplayArrivals,
    arrival_names,
    derive_arrival_seed,
    list_arrivals,
    read_arrival_log,
    record_arrivals,
    register_arrival,
    resolve_arrival,
    write_arrival_log,
)
from repro.workloads.generator import identical_periodic_tasks


def make_task(name="cam0", period=1 / 30, offset=0.0):
    return TaskSpec(
        name=name,
        graph=build_simple_cnn(),
        period=period,
        relative_deadline=period,
        release_offset=offset,
    )


def take(stream, n):
    return [next(stream) for _ in range(n)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_are_registered(self):
        assert arrival_names() == (
            "periodic", "poisson", "mmpp", "diurnal", "replay",
        )

    def test_listing_carries_descriptions(self):
        assert all(desc for _, desc in list_arrivals())

    def test_resolve_spec_with_parameters(self):
        process = resolve_arrival("mmpp:burst=6,calm=0.5")
        assert isinstance(process, MmppArrivals)
        assert process.burst == 6
        assert process.calm == 0.5

    def test_resolve_passes_instances_through(self):
        process = PoissonArrivals(rate_scale=2.0)
        assert resolve_arrival(process) is process

    def test_resolve_rejects_unknown_and_bad_params(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            resolve_arrival("bogus")
        with pytest.raises(ValueError, match="bad parameters"):
            resolve_arrival("poisson:nope=1")
        with pytest.raises(ValueError, match="empty arrival spec"):
            resolve_arrival("")

    def test_custom_registration_is_resolvable(self):
        class EveryOther(ArrivalProcess):
            name = "every_other_test"

            def stream(self, task, seed):
                def generate():
                    when = task.release_offset
                    while True:
                        yield when
                        when += 2.0 * task.period

                return generate()

        register_arrival("every_other_test", EveryOther, "test-only")
        try:
            assert isinstance(
                resolve_arrival("every_other_test"), EveryOther
            )
        finally:
            from repro.workloads.arrivals.base import _ARRIVAL_REGISTRY

            del _ARRIVAL_REGISTRY["every_other_test"]


#: Specs whose parameters are not finite and positive, each with the
#: field its error must name.  An infinite rate never lets the release
#: clock advance (the run hangs), a NaN one releases almost nothing and
#: reports DMR 0, and a replay without a log releases nothing at all.
#: They are only ever resolved, never run.
BAD_ARRIVAL_SPECS = [
    ("poisson:rate_scale=inf", "rate_scale"),
    ("poisson:rate_scale=nan", "rate_scale"),
    ("mmpp:burst=inf", "burst"),
    ("mmpp:burst=nan", "burst"),
    ("mmpp:calm=nan", "calm"),
    ("mmpp:sojourn_periods=nan", "sojourn_periods"),
    ("diurnal:peak=nan", "peak"),
    ("diurnal:trough=inf", "trough"),
    ("diurnal:day=inf", "day"),
    ("replay", "path"),
    ("replay:path=", "path"),
]


class TestParameterValidation:
    @pytest.mark.parametrize("spec,field", BAD_ARRIVAL_SPECS)
    def test_resolve_names_the_bad_field(self, spec, field):
        with pytest.raises(ValueError, match=field):
            resolve_arrival(spec)


# ---------------------------------------------------------------------------
# Seed derivation and determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_arrival_seed_is_stable_and_namespaced(self):
        a = derive_arrival_seed(0, "poisson", "cam0")
        assert a == derive_arrival_seed(0, "poisson", "cam0")
        assert a != derive_arrival_seed(1, "poisson", "cam0")
        assert a != derive_arrival_seed(0, "mmpp", "cam0")
        assert a != derive_arrival_seed(0, "poisson", "cam1")

    @pytest.mark.parametrize(
        "process",
        [PoissonArrivals(), MmppArrivals(), DiurnalArrivals()],
        ids=lambda p: p.name,
    )
    def test_streams_are_seed_deterministic(self, process):
        task = make_task()
        first = take(process.stream(task, 42), 50)
        second = take(process.stream(task, 42), 50)
        assert first == second
        assert take(process.stream(task, 43), 50) != first

    @pytest.mark.parametrize(
        "process",
        [
            PeriodicArrivals(),
            PoissonArrivals(),
            MmppArrivals(),
            DiurnalArrivals(),
            ReplayArrivals(events=[(0.0, "cam0"), (0.5, "cam0")]),
        ],
        ids=lambda p: p.name,
    )
    def test_streams_start_at_offset_and_never_decrease(self, process):
        task = make_task(offset=0.25)
        events = (
            [(0.25, "cam0"), (0.5, "cam0")]
            if isinstance(process, ReplayArrivals)
            else None
        )
        if events:
            process = ReplayArrivals(events=events)
        stream = process.stream(task, 7)
        times = take(stream, 2 if events else 50)
        assert times[0] >= task.release_offset
        assert all(b >= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize(
        "process",
        [
            PeriodicArrivals(),
            PoissonArrivals(rate_scale=1.5),
            MmppArrivals(burst=6.0),
            DiurnalArrivals(peak=4.0),
            ReplayArrivals(events=[(0.0, "cam0")]),
        ],
        ids=lambda p: p.name,
    )
    def test_processes_are_picklable_and_equivalent(self, process):
        clone = pickle.loads(pickle.dumps(process))
        task = make_task()
        n = 1 if isinstance(process, ReplayArrivals) else 20
        assert take(process.stream(task, 5), n) == take(
            clone.stream(task, 5), n
        )

    def test_streams_are_interleaving_independent(self):
        """Pulling one task's stream never perturbs another task's."""
        process = PoissonArrivals()
        a, b = make_task("cam0"), make_task("cam1")
        seed_a = derive_arrival_seed(0, process.name, "cam0")
        seed_b = derive_arrival_seed(0, process.name, "cam1")
        solo = take(process.stream(a, seed_a), 30)
        stream_a = process.stream(a, seed_a)
        stream_b = process.stream(b, seed_b)
        interleaved = []
        for _ in range(30):
            interleaved.append(next(stream_a))
            next(stream_b)
        assert interleaved == solo


# ---------------------------------------------------------------------------
# Per-process behaviour
# ---------------------------------------------------------------------------
class TestPeriodic:
    def test_exact_legacy_float_sequence(self):
        """Repeated addition, not multiplication: when_k = (...((o+p)+p)...)."""
        task = make_task(period=1 / 30, offset=0.01)
        times = take(PeriodicArrivals().stream(task, 0), 100)
        when = task.release_offset
        for observed in times:
            assert observed == when  # exact float equality, bit for bit
            when = when + task.period

    def test_seed_is_ignored(self):
        task = make_task()
        assert take(PeriodicArrivals().stream(task, 0), 20) == take(
            PeriodicArrivals().stream(task, 999), 20
        )


class TestPoisson:
    def test_mean_rate_tracks_rate_scale(self):
        task = make_task(period=0.1)
        for scale in (0.5, 1.0, 2.0):
            times = take(PoissonArrivals(rate_scale=scale).stream(task, 3), 4000)
            mean_gap = (times[-1] - times[0]) / (len(times) - 1)
            assert mean_gap == pytest.approx(task.period / scale, rel=0.1)

    def test_rejects_nonpositive_rate_scale(self):
        with pytest.raises(ValueError, match="rate_scale"):
            PoissonArrivals(rate_scale=0.0)


class TestMmpp:
    def test_time_average_rate_between_states(self):
        task = make_task(period=0.1)
        process = MmppArrivals(burst=4.0, calm=0.25, sojourn_periods=8.0)
        times = take(process.stream(task, 11), 8000)
        rate = (len(times) - 1) / (times[-1] - times[0])
        calm_rate = 0.25 / task.period
        burst_rate = 4.0 / task.period
        # Equal mean sojourns: the long-run rate is the plain average.
        assert calm_rate < rate < burst_rate
        assert rate == pytest.approx((calm_rate + burst_rate) / 2, rel=0.25)

    def test_burst_gaps_are_shorter_than_calm_gaps(self):
        task = make_task(period=0.1)
        process = MmppArrivals(burst=8.0, calm=0.25, sojourn_periods=20.0)
        times = take(process.stream(task, 5), 4000)
        gaps = sorted(
            b - a for a, b in zip(times, times[1:]) if b > a
        )
        # Bimodal gap distribution: the shortest quartile is far below
        # the longest quartile (>= the two state rates' ratio would give).
        q = len(gaps) // 4
        assert sum(gaps[:q]) / q < sum(gaps[-q:]) / q / 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="burst"):
            MmppArrivals(burst=0.0)
        with pytest.raises(ValueError, match="calm"):
            MmppArrivals(calm=-1.0)
        with pytest.raises(ValueError, match="sojourn_periods"):
            MmppArrivals(sojourn_periods=-1.0)


class TestDiurnal:
    def test_rate_follows_the_phase_curve(self):
        task = make_task(period=0.01)
        process = DiurnalArrivals(day=2.0, trough=0.25, peak=4.0)
        times = take(process.stream(task, 9), 20000)
        horizon = times[-1]
        full_days = int(horizon // 2.0)
        assert full_days >= 2
        # Count arrivals landing in trough vs peak quarters of whole days.
        trough_count = peak_count = 0
        for t in times:
            day, pos = divmod(t, 2.0)
            if day >= full_days:
                break
            phase = pos / 2.0
            if phase < 0.25:
                trough_count += 1
            elif 0.5 <= phase < 0.75:
                peak_count += 1
        assert peak_count > 4 * trough_count  # 16x rate ratio, halved margin

    def test_phase_boundaries(self):
        process = DiurnalArrivals(day=2.0, trough=0.25, peak=3.0)
        base = 1.0
        rate, boundary = process._rate_at(0.0, base)
        assert rate == 0.25 and boundary == 0.5
        rate, boundary = process._rate_at(1.0, base)
        assert rate == 3.0 and boundary == 1.5
        rate, boundary = process._rate_at(1.9, base)
        assert rate == pytest.approx(1.625) and boundary == 2.0
        # Second day repeats the curve.
        rate, boundary = process._rate_at(2.0, base)
        assert rate == 0.25 and boundary == 2.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="day"):
            DiurnalArrivals(day=0.0)
        with pytest.raises(ValueError, match="trough"):
            DiurnalArrivals(trough=-1.0)
        with pytest.raises(ValueError, match="peak"):
            DiurnalArrivals(peak=0.0)


# ---------------------------------------------------------------------------
# Replay: logs, recording, round trips
# ---------------------------------------------------------------------------
class TestReplay:
    def test_log_round_trip(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        events = [(0.0, "cam0"), (0.01, "cam1"), (0.02, "cam0")]
        assert write_arrival_log(path, events) == 3
        assert read_arrival_log(path) == events

    def test_write_rejects_unsorted(self, tmp_path):
        with pytest.raises(ValueError, match="not sorted"):
            write_arrival_log(
                tmp_path / "bad.jsonl", [(1.0, "a"), (0.5, "a")]
            )
        with pytest.raises(ValueError, match="non-finite"):
            write_arrival_log(
                tmp_path / "bad.jsonl", [(0.0, "a"), (float("nan"), "a")]
            )

    def test_read_rejects_malformed_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 0.0, "task": "a"}\n{"time": "x"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_arrival_log(path)

    def test_read_rejects_negative_and_unsorted(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text('{"time": -1.0, "task": "a"}\n')
        with pytest.raises(ValueError, match="negative"):
            read_arrival_log(path)
        path.write_text(
            '{"time": 1.0, "task": "a"}\n{"time": 0.5, "task": "a"}\n'
        )
        with pytest.raises(ValueError, match="not sorted"):
            read_arrival_log(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_read_rejects_non_finite_with_location(self, tmp_path, literal):
        # A NaN passes both the negative-time and the ordering check, and
        # so would every line after it.
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"time": 0.0, "task": "a"}\n'
            f'{{"time": {literal}, "task": "a"}}\n'
            '{"time": 0.01, "task": "a"}\n'
        )
        with pytest.raises(ValueError, match=r"nan\.jsonl:2: non-finite"):
            read_arrival_log(path)

    def test_record_matches_live_streams(self):
        tasks = identical_periodic_tasks(count=3, nominal_sms=34)
        process = PoissonArrivals()
        events = record_arrivals(process, tasks, horizon=0.5, seed=7)
        assert events == sorted(events, key=lambda e: e[0])
        for task in tasks:
            logged = [t for t, name in events if name == task.name]
            stream = process.stream(
                task, derive_arrival_seed(7, process.name, task.name)
            )
            live = []
            for t in stream:
                if t >= 0.5:
                    break
                live.append(t)
            assert logged == live

    def test_replay_feeds_back_exactly(self, tmp_path):
        tasks = identical_periodic_tasks(count=2, nominal_sms=34)
        events = record_arrivals(MmppArrivals(), tasks, horizon=0.4, seed=3)
        path = tmp_path / "log.jsonl"
        write_arrival_log(path, events)
        replay = ReplayArrivals(path=path)
        for task in tasks:
            expected = [t for t, name in events if name == task.name]
            assert list(replay.stream(task, 0)) == expected

    def test_events_and_path_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ReplayArrivals(events=[(0.0, "a")], path=tmp_path / "x.jsonl")

    def test_lazy_path_instance_pickles_before_reading(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_arrival_log(path, [(0.0, "cam0")])
        replay = pickle.loads(pickle.dumps(ReplayArrivals(path=path)))
        assert list(replay.stream(make_task("cam0"), 0)) == [0.0]

    def test_unknown_tasks_never_release(self):
        replay = ReplayArrivals(events=[(0.0, "cam0")])
        assert list(replay.stream(make_task("other"), 0)) == []

    def test_replay_spec_drives_a_grid_point(self, tmp_path):
        # The spec-string path end to end: GridPoint resolves the spec
        # through the registry, and the worker's run reads the log lazily.
        from repro.exp.grid import GridPoint
        from repro.exp.worker import run_point

        duration = 0.5
        tasks = identical_periodic_tasks(count=4, nominal_sms=34)
        events = record_arrivals(
            PoissonArrivals(), tasks, horizon=duration, seed=3
        )
        path = tmp_path / "log.jsonl"
        assert write_arrival_log(path, events) == len(events) > 0
        result = run_point(
            GridPoint(
                scenario="scenario1",
                num_contexts=2,
                variant="sgprs_1.5",
                num_tasks=4,
                seed=0,
                duration=duration,
                warmup=0.1,
                arrival=f"replay:path={path}",
            )
        )
        assert result.released == len(events)


# ---------------------------------------------------------------------------
# Golden hashes: the fast-tier seed-determinism smoke
# ---------------------------------------------------------------------------
def stream_digest(spec: str, seed: int, count: int = 64) -> str:
    """Hash of the first ``count`` arrivals of the resolved process.

    Times are rounded through ``%.12e`` so the pin survives sub-ulp libm
    differences while still catching any real change to the draws.
    """
    task = make_task(period=1 / 30)
    process = resolve_arrival(spec)
    stream = process.stream(
        task, derive_arrival_seed(seed, process.name, task.name)
    )
    payload = ",".join(f"{t:.12e}" for _, t in zip(range(count), stream))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: (spec, seed) -> first-64-arrivals digest.  Regenerate with
#: ``python -c "from tests.workloads.test_arrivals import stream_digest; ..."``
#: ONLY when a stream's draws change on purpose (a cache-invalidating
#: event that must ride a SCHEMA_VERSION bump).
GOLDEN_DIGESTS = {
    ("periodic", 0): "239c7aff7b25a0f0",
    ("periodic", 1): "239c7aff7b25a0f0",
    ("poisson", 0): "31e46bb73f83914f",
    ("poisson", 1): "ba21ca0e0c556052",
    ("mmpp", 0): "ed008ccc1a045a54",
    ("mmpp", 1): "d5214e7644508115",
    ("diurnal", 0): "c708f000e2aab4f3",
    ("diurnal", 1): "ca1250b1525079ee",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("spec,seed", sorted(GOLDEN_DIGESTS))
    def test_stream_digest_is_pinned(self, spec, seed):
        assert stream_digest(spec, seed) == GOLDEN_DIGESTS[(spec, seed)]

    def test_every_stochastic_builtin_is_pinned(self):
        pinned = {spec for spec, _ in GOLDEN_DIGESTS}
        assert pinned == set(arrival_names()) - {"replay"}
