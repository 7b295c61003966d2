"""Crash/resume behaviour of the distributed sweep protocol.

A sweep killed after K points must leave K valid checkpoints behind; a
re-run with the same cache (the ``--resume`` path) must recompute *only*
the missing points and produce a final grid identical to an
uninterrupted run's.  Claim-mode crashes additionally leave a claim file
behind, which peers must steal once it goes stale — and must NOT steal
while it is fresh.
"""

import json
import threading

import pytest

from repro.analysis.persistence import grid_to_dict
from repro.exp.cache import ResultCache
from repro.exp.dist import (
    CACHE_SUBDIR,
    ClaimBoard,
    init_run,
    merge_run,
    run_dist_worker,
)
from repro.exp.grid import GridSpec
from repro.exp.runner import run_grid

from tests.exp.test_dist_properties import fake_point, identity

SPEC = GridSpec(
    scenario="scenario1",
    num_contexts=2,
    variants=("naive", "sgprs_1", "sgprs_1.5"),
    task_counts=(2, 4, 6),
    seeds=(0, 1),
    duration=0.5,
    warmup=0.1,
)
NUM_POINTS = len(SPEC)  # 18


class WorkerKilled(RuntimeError):
    """The simulated mid-sweep crash."""


class CrashingWorker:
    """A fault-injecting point function: dies after ``budget`` points."""

    def __init__(self, budget):
        self.budget = budget
        self.calls = 0

    def __call__(self, point):
        if self.calls >= self.budget:
            raise WorkerKilled(f"killed after {self.budget} points")
        self.calls += 1
        return fake_point(point)


class CountingWorker:
    """Counts how many points actually recompute on resume."""

    def __init__(self):
        self.calls = 0

    def __call__(self, point):
        self.calls += 1
        return fake_point(point)


class TestCacheResume:
    KILL_AFTER = 5

    def test_resume_recomputes_only_missing_points(self, tmp_path):
        crasher = CrashingWorker(self.KILL_AFTER)
        with pytest.raises(WorkerKilled):
            run_grid(SPEC, cache_dir=tmp_path, point_fn=crasher)
        # the crash left exactly K valid checkpoints behind
        assert len(ResultCache(tmp_path).backend.list_prefix("")) == (
            self.KILL_AFTER
        )

        counter = CountingWorker()
        resumed = run_grid(SPEC, cache_dir=tmp_path, point_fn=counter)
        assert resumed.cache_hits == self.KILL_AFTER
        assert resumed.cache_misses == NUM_POINTS - self.KILL_AFTER
        assert counter.calls == NUM_POINTS - self.KILL_AFTER

        uninterrupted = run_grid(SPEC, point_fn=fake_point)
        assert identity(resumed.results) == identity(uninterrupted.results)
        # ... and so is the persisted document
        assert json.dumps(
            {**grid_to_dict(resumed), "points": identity(resumed.results)},
            sort_keys=True,
        ) == json.dumps(
            {
                **grid_to_dict(uninterrupted),
                "points": identity(uninterrupted.results),
            },
            sort_keys=True,
        )

    def test_double_crash_then_resume(self, tmp_path):
        for budget in (3, 4):  # two crashes at different depths
            with pytest.raises(WorkerKilled):
                run_grid(
                    SPEC, cache_dir=tmp_path, point_fn=CrashingWorker(budget)
                )
        counter = CountingWorker()
        resumed = run_grid(SPEC, cache_dir=tmp_path, point_fn=counter)
        assert counter.calls == NUM_POINTS - 7
        assert identity(resumed.results) == identity(
            run_grid(SPEC, point_fn=fake_point).results
        )


class TestClaimResume:
    def test_crashed_worker_frees_its_claims_on_clean_failure(self, tmp_path):
        """A point_fn exception releases held claims so peers need not
        wait out the TTL."""
        init_run(tmp_path, SPEC)
        with pytest.raises(WorkerKilled):
            run_dist_worker(
                tmp_path, owner="doomed", point_fn=CrashingWorker(4)
            )
        board = ClaimBoard(tmp_path, owner="observer", ttl=60.0)
        for point in SPEC.points():
            assert board.owner_of(point) is None

    def test_stale_claim_of_hard_crashed_worker_is_recovered(self, tmp_path):
        """A hard crash (no cleanup) leaves a claim file; a peer steals
        it once stale and the run completes."""
        import time

        init_run(tmp_path, SPEC)
        points = list(SPEC.points())
        victim = points[2]
        # the hard-crashed worker: claimed a point just now, never
        # released it, never checkpointed it
        dead = ClaimBoard(tmp_path, owner="dead", ttl=30.0)
        assert dead.try_claim(victim)

        # while the claim is fresh, a worker pass must skip the point
        fresh = run_dist_worker(
            tmp_path,
            owner="early",
            ttl=3600.0,
            point_fn=fake_point,
        )
        assert fresh.skipped == 1
        assert len(fresh.results) == NUM_POINTS - 1
        with pytest.raises(ValueError, match="incomplete"):
            merge_run(tmp_path)

        # past the TTL (clock advanced, no sleeping) the claim is stale:
        # the next pass steals and finishes the point, completing the run
        recovery = run_dist_worker(
            tmp_path,
            owner="late",
            ttl=30.0,
            point_fn=fake_point,
            clock=lambda: time.time() + 3600.0,
        )
        assert recovery.cache_misses == 1
        assert recovery.skipped == 0
        merged = merge_run(tmp_path)
        assert identity(merged.results) == identity(
            run_grid(SPEC, point_fn=fake_point).results
        )

    def test_interleaved_crash_and_recovery_fleet(self, tmp_path):
        """A fleet where some workers crash mid-pass still converges: the
        survivors' passes drain everything the crashers left behind."""
        init_run(tmp_path, SPEC)
        barrier = threading.Barrier(4)

        def crasher(owner):
            barrier.wait()
            try:
                run_dist_worker(
                    tmp_path, owner=owner, point_fn=CrashingWorker(2)
                )
            except WorkerKilled:
                pass

        threads = [
            threading.Thread(target=crasher, args=(f"c{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # crashed workers released their claims; one clean pass finishes
        run_dist_worker(tmp_path, owner="finisher", point_fn=fake_point)
        merged = merge_run(tmp_path)
        assert identity(merged.results) == identity(
            run_grid(SPEC, point_fn=fake_point).results
        )


class TestCliResume:
    """The ``--resume`` surface end-to-end, against the real simulator
    (a 4-point grid at a 0.4 s horizon keeps this in the fast tier)."""

    ARGS = [
        "sweep",
        "--scenario",
        "1",
        "--tasks",
        "2,3",
        "--duration",
        "0.4",
        "--warmup",
        "0.1",
    ]

    def test_resume_by_run_dir_and_by_id(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "run"
        assert main(self.ARGS + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "8 computed" in first

        # resume by directory: everything is cached now
        assert main(["sweep", "--resume", str(run_dir)]) == 0
        resumed = capsys.readouterr().out
        assert "8 cached, 0 computed" in resumed

        # resume by id under --runs-root
        run_id = run_dir.name
        assert (
            main(
                [
                    "sweep",
                    "--resume",
                    run_id,
                    "--runs-root",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "8 cached, 0 computed" in capsys.readouterr().out

    def test_resume_recomputes_only_evicted_points(self, tmp_path, capsys):
        from repro.cli import main
        from repro.exp.dist import load_manifest

        run_dir = tmp_path / "run"
        assert main(self.ARGS + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        # simulate an interrupted run: drop three checkpoints
        cache = ResultCache(run_dir / CACHE_SUBDIR)
        spec = load_manifest(run_dir).spec
        for point in list(spec.points())[:3]:
            assert cache.backend.delete(cache.key_for(point))
        assert main(["sweep", "--resume", str(run_dir)]) == 0
        assert "5 cached, 3 computed" in capsys.readouterr().out

    def test_resume_of_unknown_run_fails_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="not a run directory"):
            main(["sweep", "--resume", str(tmp_path / "ghost")])
