"""Daemon-mode worker behaviour (:mod:`repro.exp.daemon`).

The daemon's promises, each pinned here:

* one ``--once`` pass drains every pending run under the root;
* runs *hot-added* while the daemon is serving are discovered on the
  next poll cycle, with no restart;
* ``--max-idle`` bounds how long an idle daemon lingers;
* a stop request (signal or caller-owned event) interrupts a drain at
  the next wave boundary and releases every claim still held;
* the background heartbeat ticker keeps a held claim fresh for as long
  as its point computes, even with a TTL far below the compute cost;
* the CLI surface (``python -m repro worker``) exits 0 on SIGTERM.

Everything but the CLI tests drives :func:`repro.exp.daemon.serve`
in-process with the pure ``fake_point`` stand-in over a runs-root
directory, so a whole fleet lifecycle costs milliseconds.
"""

import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.exp.backend import LocalFSBackend
from repro.exp.daemon import (
    DaemonConfig,
    HeartbeatTicker,
    discover_runs,
    run_store,
    serve,
)
from repro.exp.dist import ClaimBoard, init_run, merge_run, pending_points
from repro.exp.grid import GridSpec
from repro.exp.runner import run_grid

from tests.exp.test_dist_properties import fake_point, identity

SPEC_A = GridSpec(
    scenario="scenario1",
    num_contexts=2,
    variants=("naive", "sgprs_1.5"),
    task_counts=(2, 4),
    seeds=(0, 1),
    duration=0.5,
    warmup=0.1,
)
SPEC_B = GridSpec(
    scenario="scenario2",
    num_contexts=3,
    variants=("naive", "sgprs_1"),
    task_counts=(3,),
    seeds=(0,),
    duration=0.5,
    warmup=0.1,
)


@pytest.fixture
def runs_root(tmp_path):
    """A runs-root directory, as the CLI's ``--runs-root`` names one."""
    return tmp_path / "runs"


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDiscovery:
    def test_only_manifest_holding_children_are_runs(self, runs_root):
        assert discover_runs(runs_root) == []
        init_run(run_store(runs_root, "runA"), SPEC_A)
        run_store(runs_root, "noise").atomic_replace("stray.json", b"{}")
        assert discover_runs(runs_root) == ["runA"]
        init_run(run_store(runs_root, "runB"), SPEC_B)
        assert discover_runs(runs_root) == ["runA", "runB"]

    def test_discovery_order_independent_of_creation_order(self, runs_root):
        """Drain order must not follow filesystem/creation order.

        ``discover_runs`` feeds the fleet's drain loop; it globs the
        runs root, and directory-entry order is whatever the filesystem
        hands back (often creation order).  Pin
        the sort: however the run directories came into being, every
        worker sees the same deterministic run sequence.
        """
        names = [f"run{i:02d}" for i in range(8)]
        shuffled = list(names)
        random.Random(20240807).shuffle(shuffled)
        assert shuffled != names  # the scenario must exercise the sort
        for name in shuffled:
            init_run(run_store(runs_root, name), SPEC_A)
        assert discover_runs(runs_root) == names

    def test_corrupt_manifest_is_skipped_not_fatal(self, runs_root):
        init_run(run_store(runs_root, "good"), SPEC_A)
        run_store(runs_root, "bad").atomic_replace(
            "manifest.json", b"{truncated"
        )
        lines = []
        stats = serve(
            DaemonConfig(runs_root=runs_root, once=True),
            point_fn=fake_point,
            echo=lines.append,
        )
        assert stats.drained_runs == ["good"]
        assert any("skipping bad" in line for line in lines)
        assert pending_points(run_store(runs_root, "good")) == []


class TestServe:
    def test_once_drains_every_pending_run(self, runs_root):
        init_run(run_store(runs_root, "runA"), SPEC_A)
        init_run(run_store(runs_root, "runB"), SPEC_B)
        stats = serve(
            DaemonConfig(runs_root=runs_root, once=True),
            point_fn=fake_point,
        )
        assert stats.stopped_by == "once"
        assert stats.points_computed == len(SPEC_A) + len(SPEC_B)
        for run_id, spec in (("runA", SPEC_A), ("runB", SPEC_B)):
            merged = merge_run(run_store(runs_root, run_id))
            whole = run_grid(spec, point_fn=fake_point)
            assert identity(merged.results) == identity(whole.results)

    def test_hot_added_run_is_discovered_and_drained(self, runs_root):
        init_run(run_store(runs_root, "runA"), SPEC_A)
        stop = threading.Event()
        done = {}

        def daemon():
            done["stats"] = serve(
                DaemonConfig(runs_root=runs_root, poll=0.02, ttl=60.0),
                point_fn=fake_point,
                stop=stop,
            )

        thread = threading.Thread(target=daemon)
        thread.start()
        try:
            assert wait_until(
                lambda: not pending_points(run_store(runs_root, "runA"))
            ), "runA never drained"
            # hot-add a second run while the daemon is live
            init_run(run_store(runs_root, "runB"), SPEC_B)
            assert wait_until(
                lambda: not pending_points(run_store(runs_root, "runB"))
            ), "hot-added runB never discovered"
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert done["stats"].points_computed == len(SPEC_A) + len(SPEC_B)
        assert done["stats"].stopped_by == "signal"

    def test_max_idle_bounds_an_idle_daemon(self, runs_root):
        stats = serve(
            DaemonConfig(runs_root=runs_root, poll=0.001, max_idle=3),
            point_fn=fake_point,
        )
        assert stats.stopped_by == "idle"
        assert stats.cycles == 3
        assert stats.points_computed == 0

    def test_work_resets_the_idle_counter(self, runs_root):
        init_run(run_store(runs_root, "runA"), SPEC_A)
        stats = serve(
            DaemonConfig(runs_root=runs_root, poll=0.001, max_idle=2),
            point_fn=fake_point,
        )
        # cycle 1 drains, then 2 idle cycles before exiting
        assert stats.cycles == 3
        assert stats.points_computed == len(SPEC_A)

    def test_stop_mid_drain_releases_held_claims(self, runs_root):
        init_run(run_store(runs_root, "runA"), SPEC_A)
        stop = threading.Event()
        first_point = threading.Event()
        gate = threading.Event()

        def slow_point(point):
            first_point.set()
            assert gate.wait(timeout=30)
            return fake_point(point)

        done = {}

        def daemon():
            done["stats"] = serve(
                DaemonConfig(runs_root=runs_root, poll=0.02, ttl=60.0),
                point_fn=slow_point,
                stop=stop,
            )

        thread = threading.Thread(target=daemon)
        thread.start()
        try:
            assert first_point.wait(timeout=30)
            stop.set()  # shutdown requested mid-point
        finally:
            gate.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        # only the in-flight wave finished; the rest was left unclaimed
        assert 1 <= done["stats"].points_computed < len(SPEC_A)
        store = run_store(runs_root, "runA")
        observer = ClaimBoard(store, owner="observer", ttl=60.0)
        for point in SPEC_A.points():
            assert observer.owner_of(point) is None, "claim left behind"

    def test_completed_runs_are_not_reprobed_every_cycle(
        self, runs_root, monkeypatch
    ):
        """An idle daemon's steady-state footprint is one listing per
        poll cycle — never a per-point existence probe of runs it has
        already seen fully checkpointed."""
        probes = []
        exists = LocalFSBackend.exists

        def counting_exists(backend, key):
            probes.append(key)
            return exists(backend, key)

        monkeypatch.setattr(LocalFSBackend, "exists", counting_exists)
        init_run(run_store(runs_root, "runA"), SPEC_A)
        stats = serve(
            DaemonConfig(runs_root=runs_root, poll=0.001, max_idle=5),
            point_fn=fake_point,
        )
        assert stats.points_computed == len(SPEC_A)
        assert stats.cycles == 6  # 1 drain + 5 idle
        # pending_points probes exactly twice (pre-drain, post-drain);
        # the idle cycles must add none
        assert len(probes) == 2 * len(SPEC_A)

    def test_two_daemons_split_one_run(self, runs_root):
        init_run(run_store(runs_root, "runA"), SPEC_A)
        barrier = threading.Barrier(2)
        reports = {}

        def daemon(name):
            barrier.wait()
            reports[name] = serve(
                DaemonConfig(
                    runs_root=runs_root, poll=0.001, max_idle=2, owner=name
                ),
                point_fn=fake_point,
            )

        threads = [
            threading.Thread(target=daemon, args=(f"d{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(r.points_computed for r in reports.values())
        assert total == len(SPEC_A)  # exactly once across the fleet
        merged = merge_run(run_store(runs_root, "runA"))
        whole = run_grid(SPEC_A, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)


class TestHeartbeatTicker:
    def test_ticker_keeps_a_slow_point_claim_fresh(self, tmp_path):
        """With a TTL far below the point's compute time, the ticker's
        refreshes are the only thing standing between a live claim and
        a rival's steal — exactly the daemon's long-point scenario."""
        init_run(tmp_path, SPEC_A)
        point = next(SPEC_A.points())
        board = ClaimBoard(tmp_path, owner="slow", ttl=0.3, skew=0.0)
        rival = ClaimBoard(tmp_path, owner="rival", ttl=0.3, skew=0.0)
        assert board.try_claim(point)
        with HeartbeatTicker(board, interval=0.05):
            time.sleep(0.8)  # well past TTL: only refreshes keep it alive
            assert not rival.try_claim(point)
            assert rival.owner_of(point) == "slow"
        # ticker stopped (worker "crashed"): the claim ages out normally
        time.sleep(0.5)
        assert rival.try_claim(point)

    def test_ticker_stops_cleanly_and_rejects_bad_intervals(self, tmp_path):
        init_run(tmp_path, SPEC_A)
        board = ClaimBoard(tmp_path, owner="w", ttl=60.0)
        ticker = HeartbeatTicker(board, interval=0.01)
        with ticker:
            time.sleep(0.05)
        assert ticker._thread is None  # joined, not leaked
        with pytest.raises(ValueError):
            HeartbeatTicker(board, interval=0.0)

    def test_refresh_held_reports_lost_claims(self, tmp_path):
        init_run(tmp_path, SPEC_A)
        points = list(SPEC_A.points())
        now = [1000.0]
        board = ClaimBoard(
            tmp_path, owner="w", ttl=10.0, skew=0.0, clock=lambda: now[0]
        )
        rival = ClaimBoard(
            tmp_path, owner="r", ttl=10.0, skew=0.0, clock=lambda: now[0]
        )
        assert board.try_claim(points[0])
        assert board.try_claim(points[1])
        assert board.refresh_held() == 2
        now[0] += 60.0  # both stale; the rival steals one
        assert rival.try_claim(points[0])
        assert board.refresh_held() == 1  # the stolen claim is reported lost
        assert set(board.held()) == {points[1]}


class TestWorkerCli:
    """The ``python -m repro worker`` surface, as real subprocesses."""

    @staticmethod
    def _spawn(*argv):
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        init_run(tmp_path / "runA", SPEC_A)
        proc = self._spawn(
            "--runs-root", str(tmp_path), "--poll", "0.2", "--owner", "cli"
        )
        try:
            deadline = time.monotonic() + 60
            while pending_points(tmp_path / "runA") and (
                time.monotonic() < deadline
            ):
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "received SIGTERM, shutting down cleanly" in out
        assert "stopped by signal" in out
        merged = merge_run(tmp_path / "runA")
        assert len(merged.results) == len(SPEC_A)

    def test_max_idle_exits_zero_after_draining(self, tmp_path):
        init_run(tmp_path / "runA", SPEC_A)
        proc = self._spawn(
            "--runs-root",
            str(tmp_path),
            "--poll",
            "0.05",
            "--max-idle",
            "2",
        )
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out
        assert "stopped by idle" in out
        assert pending_points(tmp_path / "runA") == []
