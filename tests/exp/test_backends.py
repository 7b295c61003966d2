"""Backend contract tests + the protocol property suite over both backends.

Three layers:

* **Contract tests** pin the atomicity guarantees each
  :class:`~repro.exp.backend.StorageBackend` must honor (exclusive put,
  CAS lease, owner-conditional delete — each single-winner under
  threads).  The claim protocol's correctness reduces to exactly these.
* **Protocol properties** re-run the distributed-sweep invariants
  (single-owner claims, stale-steal single-winner, merge==whole,
  crash/resume) *parametrized over both backends*, so LocalFS is held
  to the behavior of the InMemory reference.
* **Fault injection** wraps each backend in the test double
  :class:`tests.exp.faults.FaultInjectingBackend` and proves a lost or
  duplicated operation never produces two owners or a corrupted merge
  — the failure modes a flaky NFS mount actually exhibits.
"""

import json
import threading
import time

import pytest

from repro.exp.backend import InMemoryBackend, LocalFSBackend
from repro.exp.dist import (
    ClaimBoard,
    init_run,
    merge_run,
    pending_points,
    run_cache,
    run_dist_worker,
)
from repro.exp.grid import GridSpec
from repro.exp.runner import run_grid

from tests.exp.faults import BackendFault, FaultInjectingBackend
from tests.exp.test_dist_properties import fake_point, identity
from tests.exp.test_dist_resume import CrashingWorker, WorkerKilled

BACKEND_NAMES = ("local", "memory")

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


def make_backend(name, tmp_path):
    if name == "local":
        return LocalFSBackend(tmp_path / "store")
    return InMemoryBackend()


@pytest.fixture(params=BACKEND_NAMES)
def backend(request, tmp_path):
    """One raw backend instance per parametrized run."""
    return make_backend(request.param, tmp_path)


class TestBackendContract:
    def test_put_exclusive_is_single_winner(self, backend):
        winners = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def contender(name):
            barrier.wait()
            if backend.put_exclusive("key", name.encode()):
                with lock:
                    winners.append(name)

        threads = [
            threading.Thread(target=contender, args=(f"w{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1, f"multiple exclusive-put winners: {winners}"
        record = backend.read("key")
        assert record is not None
        assert record.data == winners[0].encode()

    def test_put_exclusive_record_is_complete_on_appearance(self, backend):
        assert backend.put_exclusive("k", b"whole-record")
        assert not backend.put_exclusive("k", b"other")
        assert backend.read("k").data == b"whole-record"

    def test_atomic_replace_creates_and_replaces(self, backend):
        backend.atomic_replace("k", b"v1")
        assert backend.read("k").data == b"v1"
        backend.atomic_replace("k", b"v2")
        assert backend.read("k").data == b"v2"

    def test_lease_respects_the_version_token(self, backend):
        backend.atomic_replace("k", b"v1")
        token = backend.read("k").token
        assert backend.lease("k", b"v2", token)
        assert backend.read("k").data == b"v2"
        # the old revision's token must no longer swap
        assert not backend.lease("k", b"v3", token)
        assert backend.read("k").data == b"v2"

    def test_lease_on_missing_key_fails(self, backend):
        assert not backend.lease("ghost", b"x", b"ghost-token")

    def test_lease_is_single_winner(self, backend):
        backend.atomic_replace("k", b"stale")
        token = backend.read("k").token
        winners = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def stealer(name):
            barrier.wait()
            if backend.lease("k", name.encode(), token):
                with lock:
                    winners.append(name)

        threads = [
            threading.Thread(target=stealer, args=(f"s{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1, f"multiple CAS winners: {winners}"
        assert backend.read("k").data == winners[0].encode()

    def test_delete_if_owner_conditions_on_the_owner(self, backend):
        record = json.dumps({"owner": "alice", "heartbeat": 1.0}).encode()
        backend.atomic_replace("k", record)
        assert not backend.delete_if_owner("k", "bob")
        assert backend.read("k") is not None
        assert backend.delete_if_owner("k", "alice")
        assert backend.read("k") is None
        assert not backend.delete_if_owner("k", "alice")  # already gone

    def test_delete_if_owner_never_matches_anonymous_records(self, backend):
        backend.atomic_replace("k", b"not json at all")
        assert not backend.delete_if_owner("k", "")
        assert backend.read("k") is not None

    def test_delete_and_exists_and_list_prefix(self, backend):
        backend.atomic_replace("a/one", b"1")
        backend.atomic_replace("a/two", b"2")
        backend.atomic_replace("b/three", b"3")
        assert backend.exists("a/one")
        assert not backend.exists("a/ghost")
        assert backend.list_prefix("a/") == ["a/one", "a/two"]
        assert backend.delete("a/one")
        assert not backend.delete("a/one")
        assert backend.list_prefix("a/") == ["a/two"]


class TestFaultWrapper:
    def test_fail_raises_before_applying(self, backend):
        faulty = FaultInjectingBackend(backend)
        faulty.inject("put_exclusive", 1, "fail")
        with pytest.raises(BackendFault):
            faulty.put_exclusive("k", b"v")
        assert backend.read("k") is None  # the op never happened
        assert faulty.put_exclusive("k", b"v")  # only the Nth call faults

    def test_lost_applies_but_reports_failure(self, backend):
        faulty = FaultInjectingBackend(backend)
        faulty.inject("put_exclusive", 1, "lost")
        assert faulty.put_exclusive("k", b"v") is False
        assert backend.read("k").data == b"v"  # ...yet it landed

    def test_duplicate_applies_twice(self, backend):
        counting = FaultInjectingBackend(backend)
        faulty = FaultInjectingBackend(counting)
        faulty.inject("atomic_replace", 1, "duplicate")
        faulty.atomic_replace("k", b"v")
        assert counting.calls("atomic_replace") == 2
        assert backend.read("k").data == b"v"

    def test_hook_action_runs_before_applying(self, backend):
        order = []
        faulty = FaultInjectingBackend(backend)
        faulty.inject("read", 1, lambda: order.append("hook"))
        backend.atomic_replace("k", b"v")
        assert faulty.read("k").data == b"v"
        assert order == ["hook"]
        assert faulty.log == [("read", 1, "<lambda>")]

    def test_unknown_ops_and_bad_nth_rejected(self, backend):
        faulty = FaultInjectingBackend(backend)
        with pytest.raises(ValueError):
            faulty.inject("rename", 1)
        with pytest.raises(ValueError):
            faulty.inject("read", 0)


class TestProtocolOverBackends:
    """The PR-3 property suite, now over every backend."""

    def test_fresh_claims_have_single_owner(self, backend):
        init_run(backend, SPEC)
        points = list(SPEC.points())
        winners = {}
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def claimer(owner):
            board = ClaimBoard(backend, owner=owner, ttl=60.0)
            barrier.wait()
            for point in points:
                if board.try_claim(point):
                    with lock:
                        winners.setdefault(point.config_hash(), []).append(
                            owner
                        )

        threads = [
            threading.Thread(target=claimer, args=(f"w{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(winners) == {p.config_hash() for p in points}
        multi = {h: o for h, o in winners.items() if len(o) != 1}
        assert multi == {}, f"points with != 1 owner: {multi}"

    def test_stale_steal_has_single_winner(self, backend):
        init_run(backend, SPEC)
        point = next(SPEC.points())
        dead = ClaimBoard(backend, owner="dead", ttl=60.0, clock=lambda: 0.0)
        assert dead.try_claim(point)
        wins = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def stealer(owner):
            board = ClaimBoard(backend, owner=owner, ttl=60.0)
            barrier.wait()
            if board.try_claim(point):
                with lock:
                    wins.append(owner)

        threads = [
            threading.Thread(target=stealer, args=(f"s{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1, f"stale claim stolen by {wins}"
        observer = ClaimBoard(backend, owner="observer", ttl=60.0)
        assert observer.owner_of(point) == wins[0]

    def test_claim_fleet_merges_to_whole(self, backend):
        init_run(backend, SPEC)
        reports = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def worker(owner):
            barrier.wait()
            report = run_dist_worker(backend, owner=owner, point_fn=fake_point)
            with lock:
                reports.append(report)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # every point computed exactly once across the fleet
        assert sum(r.cache_misses for r in reports) == NUM_POINTS
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)

    def test_crash_then_resume_completes(self, backend):
        init_run(backend, SPEC)
        with pytest.raises(WorkerKilled):
            run_dist_worker(
                backend, owner="doomed", point_fn=CrashingWorker(5)
            )
        # the crash left exactly 5 checkpoints and zero held claims
        assert len(pending_points(backend)) == NUM_POINTS - 5
        observer = ClaimBoard(backend, owner="observer", ttl=60.0)
        for point in SPEC.points():
            assert observer.owner_of(point) is None
        finisher = run_dist_worker(
            backend, owner="finisher", point_fn=fake_point
        )
        assert finisher.cache_misses == NUM_POINTS - 5
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)

    def test_hard_crash_ttl_recovery(self, backend):
        """A kill -9'd worker's fresh claim blocks its point only until
        the TTL+skew window lapses; then a peer steals and completes."""
        init_run(backend, SPEC)
        victim = list(SPEC.points())[2]
        dead = ClaimBoard(backend, owner="dead", ttl=30.0)
        assert dead.try_claim(victim)

        fresh = run_dist_worker(
            backend, owner="early", ttl=3600.0, point_fn=fake_point
        )
        assert fresh.skipped == 1
        with pytest.raises(ValueError, match="incomplete"):
            merge_run(backend)

        recovery = run_dist_worker(
            backend,
            owner="late",
            ttl=30.0,
            point_fn=fake_point,
            clock=lambda: time.time() + 3600.0,
        )
        assert recovery.cache_misses == 1
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)

    def test_init_is_idempotent_and_validates(self, backend):
        first = init_run(backend, SPEC)
        second = init_run(backend, SPEC)
        assert first.run_id == second.run_id
        import dataclasses

        other = dataclasses.replace(SPEC, duration=9.0)
        with pytest.raises(ValueError, match="different grid"):
            init_run(backend, other)

    def test_pending_points_shrink_as_the_cache_fills(self, backend):
        init_run(backend, SPEC)
        points = list(SPEC.points())
        assert pending_points(backend) == points
        cache = run_cache(backend)
        for point in points[:3]:
            cache.put(fake_point(point))
        assert pending_points(backend) == points[3:]


class TestFaultInjection:
    """Lost/duplicated/failed operations never violate single-ownership.

    Each scenario runs over every backend (the acceptance criterion):
    the faulty fleet may skip or double-*attempt* work, but every point
    is checkpointed exactly once per content hash and the merge is
    bit-identical to an uninterrupted single-host run.
    """

    def test_lost_claim_put_is_recovered_by_ttl(self, backend):
        """A claim lands but its ack is lost: nobody computes the point
        (the writer itself sees a fresh foreign-looking claim), until
        the ghost claim goes stale and is stolen like any dead worker's."""
        init_run(backend, SPEC)
        faulty = FaultInjectingBackend(backend)
        faulty.inject("put_exclusive", 1, "lost")

        first = run_dist_worker(faulty, owner="w1", point_fn=fake_point)
        assert first.skipped == 1  # the ghost-claimed point
        assert first.cache_misses == NUM_POINTS - 1
        with pytest.raises(ValueError, match="incomplete"):
            merge_run(backend)

        # past the TTL the ghost claim is stale; a peer steals it
        recovery = run_dist_worker(
            backend,
            owner="w2",
            point_fn=fake_point,
            clock=lambda: time.time() + 3600.0,
        )
        assert recovery.cache_misses == 1
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)

    def test_duplicated_deliveries_are_idempotent(self, backend):
        """At-least-once delivery: claim puts and checkpoint writes
        applied twice change nothing — ownership stays single and the
        merge stays canonical."""
        init_run(backend, SPEC)
        faulty = FaultInjectingBackend(backend)
        for nth in (1, 3, 7):
            faulty.inject("put_exclusive", nth, "duplicate")
        for nth in (2, 5):
            faulty.inject("atomic_replace", nth, "duplicate")

        reports = []
        lock = threading.Lock()
        barrier = threading.Barrier(2)

        def worker(owner):
            barrier.wait()
            report = run_dist_worker(faulty, owner=owner, point_fn=fake_point)
            with lock:
                reports.append(report)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # exactly once per point, despite the duplicated deliveries
        assert sum(r.cache_misses for r in reports) == NUM_POINTS
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)

    def test_failed_steal_leaves_exactly_one_winner(self, backend):
        """One stealer's CAS raises mid-steal; the rival still wins the
        stale claim exactly once and the loser's error surfaces."""
        init_run(backend, SPEC)
        point = next(SPEC.points())
        dead = ClaimBoard(backend, owner="dead", ttl=60.0, clock=lambda: 0.0)
        assert dead.try_claim(point)

        faulty = FaultInjectingBackend(backend)
        faulty.inject("lease", 1, "fail")
        unlucky = ClaimBoard(faulty, owner="unlucky", ttl=60.0)
        with pytest.raises(BackendFault):
            unlucky.try_claim(point)
        lucky = ClaimBoard(backend, owner="lucky", ttl=60.0)
        assert lucky.try_claim(point)
        assert lucky.owner_of(point) == "lucky"

    def test_lost_release_is_harmless(self, backend):
        """A release whose ack is lost leaves a stray claim behind — but
        completion lives in the checkpoint, so the merge is whole and
        nothing is recomputed on resume."""
        init_run(backend, SPEC)
        faulty = FaultInjectingBackend(backend)
        faulty.inject("delete_if_owner", 1, "lost")
        report = run_dist_worker(faulty, owner="w1", point_fn=fake_point)
        assert report.cache_misses == NUM_POINTS
        merged = merge_run(backend)
        whole = run_grid(SPEC, point_fn=fake_point)
        assert identity(merged.results) == identity(whole.results)
        assert pending_points(backend) == []
        # the stray claim exists yet changes nothing: resume finds no work
        resumed = run_dist_worker(backend, owner="w2", point_fn=fake_point)
        assert resumed.cache_misses == 0

    def test_stale_refresh_cannot_resurrect_a_stolen_claim(self, backend):
        """The refresh TOCTOU: a stalled worker's heartbeat ticker wakes
        up after its claim was stolen, having already read the record
        showing itself as owner.  The CAS re-stamp must fail on the
        changed revision — never overwrite the thief's live claim —
        leaving exactly one owner."""
        init_run(backend, SPEC)
        point = next(SPEC.points())
        now = [1000.0]
        faulty = FaultInjectingBackend(backend)
        holder = ClaimBoard(
            faulty, owner="holder", ttl=10.0, skew=0.0, clock=lambda: now[0]
        )
        rival = ClaimBoard(
            backend, owner="rival", ttl=10.0, skew=0.0, clock=lambda: now[0]
        )
        assert holder.try_claim(point)

        def steal_in_the_window():
            # between the holder's read and its CAS write: the claim
            # goes stale and the rival steals it
            now[0] += 60.0
            assert rival.try_claim(point)

        # the holder's refresh CAS is its 2nd lease-capable write path;
        # its claim used put_exclusive, so this is lease call #1
        faulty.inject("lease", 1, steal_in_the_window)
        assert holder.refresh(point) is False
        assert rival.owner_of(point) == "rival"
        assert point not in holder.held()

    def test_delayed_read_does_not_double_own(self, backend):
        """A slow read overtaken by a rival's claim/compute cycle must
        not let the slow worker claim on top of the rival."""
        init_run(backend, SPEC)
        point = next(SPEC.points())
        rival = ClaimBoard(backend, owner="rival", ttl=60.0)

        faulty = FaultInjectingBackend(backend)
        started = threading.Event()
        overtaken = threading.Event()

        def slow_read():
            started.set()
            assert overtaken.wait(timeout=30)

        # the slow worker's first read (after losing the exclusive put)
        # parks while the rival completes a full claim cycle
        faulty.inject("read", 1, slow_read)
        slow = ClaimBoard(faulty, owner="slow", ttl=60.0)

        outcome = {}

        def slow_claimer():
            outcome["claimed"] = slow.try_claim(point)

        assert rival.try_claim(point)
        thread = threading.Thread(target=slow_claimer)
        thread.start()
        assert started.wait(timeout=30)
        overtaken.set()
        thread.join()
        assert outcome["claimed"] is False
        assert rival.owner_of(point) == "rival"
