"""Distributed, resumable sweep execution over a shared run store.

Large grids are embarrassingly parallel over points; what N workers on M
hosts need is not compute but *coordination*: carve up one grid without
double-running points, survive crashes, and merge into one canonical
result set.  This module provides that coordination over any
:mod:`repro.exp.backend` storage backend — a directory every worker can
reach (NFS, a shared bind-mount, or one host's disk), or an in-memory
store for tests.

Run-store layout
----------------
::

    <run store>/
      manifest.json   grid spec + schema/format versions + calibration
      cache/          one JSON per completed point (repro.exp.cache)
      claims/         <config-hash>.claim ownership markers
      traces/         <config-hash>.trace per-point execution traces
                      (optional; repro.sim.trace_io format, written when
                      workers run with record_traces)

Protocol
--------
* **Shard mode** needs no coordination at all: worker ``i`` of ``n``
  evaluates the deterministic round-robin slice
  :meth:`~repro.exp.grid.GridSpec.shard`; the ``n`` shards are a
  disjoint exact cover of the grid.
* **Claim mode** coordinates through the run store: a worker owns a
  point iff it created ``claims/<hash>.claim`` through the backend's
  atomic exclusive put (``O_CREAT | os.O_EXCL``-style).  The claim
  records the owner and a heartbeat timestamp; a claim whose heartbeat
  is older than the TTL (plus a cross-host clock-``skew`` allowance) is
  *stale* — its worker is presumed dead — and may be stolen.  Stealing
  is single-winner: the stealer replaces the stale record through the
  backend's compare-and-swap :meth:`~repro.exp.backend.StorageBackend.\
lease` on the exact revision it observed, so of any number of
  concurrent stealers (and fresh claimers) exactly one ends up owning
  the claim.  On the local filesystem the CAS holds a per-key lock file
  and swaps with ``os.replace``, so the claim never goes absent while a
  stealer compares it.
* **Completion** is recorded by the :class:`~repro.exp.cache.ResultCache`
  checkpoint (atomic write), never by the claim file, so every finished
  point survives any crash and an interrupted sweep is resumable: a
  re-run (``--resume``) recomputes only the missing points.  A worker
  that outlives its TTL and completes anyway merely double-computes a
  point — every point is a pure function of its coordinates, so the
  duplicate writes identical bits.
* **Merge** (:func:`merge_run`, or
  :func:`repro.analysis.persistence.merge_grid_dicts` for per-shard grid
  JSONs) reassembles one canonical grid in grid order, refusing mixed
  schema versions, mixed calibration fingerprints, incomplete coverage
  (unless asked) and conflicting duplicate results.

Claiming is lazy: a worker holds at most one compute-wave of claims at
a time (``max(workers, 1)`` points — see
:func:`repro.exp.runner.run_grid`), so late-joining workers immediately
find unclaimed work.  Choose the TTL (``--heartbeat``) comfortably
above the cost of the slowest single point: the heartbeat is stamped
when a point is claimed, single-pass workers cannot refresh it
mid-simulation, and a wave's points compute concurrently, so one
point's cost bounds how long any claim goes un-refreshed.  (The daemon
— :mod:`repro.exp.daemon` — *does* refresh heartbeats from a
background ticker, so daemon fleets can run short TTLs safely.)

Clock skew: heartbeats are wall-clock stamps compared across hosts, so
a staleness check naively comparing raw ``time.time()`` values would
let a worker whose clock runs a few seconds ahead steal a live claim a
few seconds early.  The ``skew`` parameter (default
:data:`DEFAULT_SKEW`) widens the staleness window to ``ttl + skew``,
bounding how far apart two NTP-synced hosts' clocks may drift before
the protocol double-computes (never corrupts) a point.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.exp.backend import StorageBackend, as_backend
from repro.exp.cache import ResultCache
from repro.exp.grid import SCHEMA_VERSION, GridPoint, GridSpec
from repro.exp.worker import run_point

#: Default claim time-to-live in seconds; a claim not refreshed within
#: this window (plus the skew allowance) is presumed abandoned and may
#: be stolen.
DEFAULT_TTL = 300.0

#: Default cross-host clock-skew allowance folded into the staleness
#: check: a claim is stale only when ``now - heartbeat > ttl + skew``.
DEFAULT_SKEW = 5.0

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

CACHE_SUBDIR = "cache"
CLAIMS_SUBDIR = "claims"
TRACES_SUBDIR = "traces"

#: Anything an init/claim/merge call accepts as "the run store".
RunStore = Union[str, Path, StorageBackend]


def default_owner() -> str:
    """A claim-owner id unique per worker process: ``<host>-<pid>``."""
    import os

    return f"{socket.gethostname()}-{os.getpid()}"


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI shard spec ``"i/n"`` into a 1-based ``(i, n)`` pair."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"expected a shard spec like 2/8, got {text!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must be in [1, {count}]: {text!r}")
    return index, count


def _calibration_digest() -> str:
    """The ambient device calibration's digest (what workers will use)."""
    from repro.speedup.calibration import DEFAULT_CALIBRATION

    return DEFAULT_CALIBRATION.digest


def run_id_for(spec: GridSpec) -> str:
    """Deterministic run id of a grid: same spec (under the same schema
    and calibration) always maps to the same id, so re-launching a sweep
    lands in the same run directory and resumes it."""
    blob = json.dumps(
        {
            "spec": asdict(spec),
            "schema_version": SCHEMA_VERSION,
            "calibration": _calibration_digest(),
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class RunManifest:
    """The identity record of one distributed run (``manifest.json``).

    Written once at :func:`init_run`; every later worker validates its
    own spec/schema/calibration against it, so two hosts can never push
    incompatible results into one run store.
    """

    run_id: str
    spec: GridSpec
    schema_version: int = SCHEMA_VERSION
    calibration: str = ""

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "run_id": self.run_id,
            "schema_version": self.schema_version,
            "calibration": self.calibration,
            "spec": asdict(self.spec),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        if payload.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported manifest format: {payload.get('format')!r}"
            )
        spec_fields = dict(payload["spec"])
        for key in ("variants", "task_counts", "seeds", "utilizations", "arrivals"):
            if key in spec_fields:
                spec_fields[key] = tuple(spec_fields[key])
        return cls(
            run_id=payload["run_id"],
            spec=GridSpec(**spec_fields),
            schema_version=payload["schema_version"],
            calibration=payload.get("calibration", ""),
        )


def run_cache(run: RunStore) -> ResultCache:
    """The shared checkpoint cache of a run store (``cache/`` keys)."""
    return ResultCache(as_backend(run), prefix=CACHE_SUBDIR)


def trace_key(point: GridPoint) -> str:
    """Run-store key of a point's execution trace."""
    return f"{TRACES_SUBDIR}/{point.config_hash()}.trace"


def save_point_trace(run: RunStore, point: GridPoint, trace) -> None:
    """Ship one point's trace (see :func:`repro.sim.trace_io.trace_to_bytes`)
    into the store.

    Atomic like the cache checkpoints: readers see a complete trace or
    none.  Points are pure functions of their coordinates and the trace
    serialisation is deterministic, so a double-computed point rewrites
    identical bytes.
    """
    from repro.sim.trace_io import put_trace

    put_trace(as_backend(run), trace_key(point), trace)


def load_point_trace(run: RunStore, point: GridPoint):
    """One point's stored trace as a
    :class:`~repro.sim.trace_columnar.ColumnarTrace`, or ``None`` when
    the run was not traced (or this point has not completed yet)."""
    from repro.sim.trace_io import get_trace

    return get_trace(as_backend(run), trace_key(point))


def load_manifest(run: RunStore) -> RunManifest:
    """Read and validate the manifest of an existing run store."""
    record = as_backend(run).read(MANIFEST_NAME)
    if record is None:
        raise ValueError(
            f"{run} is not a run directory (no readable {MANIFEST_NAME})"
        )
    try:
        payload = json.loads(record.data)
    except ValueError as error:
        raise ValueError(f"corrupt manifest in {run}: {error}") from None
    return RunManifest.from_dict(payload)


def init_run(run: RunStore, spec: GridSpec) -> RunManifest:
    """Create (or join) a run store for ``spec``.

    Idempotent and race-safe: the first worker publishes the manifest
    via the backend's atomic exclusive put (the record is complete the
    instant it appears); every other worker — including one racing the
    first — loads it and verifies it describes the *same* grid under
    the same schema version and calibration.  A mismatch raises
    ``ValueError`` rather than letting two different sweeps interleave
    in one store.
    """
    backend = as_backend(run)
    backend.ensure_prefix(CACHE_SUBDIR)
    backend.ensure_prefix(CLAIMS_SUBDIR)
    manifest = RunManifest(
        run_id=run_id_for(spec), spec=spec, calibration=_calibration_digest()
    )
    data = json.dumps(manifest.to_dict(), indent=1).encode()
    if backend.put_exclusive(MANIFEST_NAME, data):
        return manifest
    existing = load_manifest(run)
    if asdict(existing.spec) != asdict(spec):
        raise ValueError(
            f"{run} already holds run {existing.run_id} over a "
            f"different grid; use a fresh --run-dir"
        )
    if existing.schema_version != SCHEMA_VERSION:
        raise ValueError(
            f"{run} was created under point-schema "
            f"v{existing.schema_version}, this build uses "
            f"v{SCHEMA_VERSION}; results must not mix"
        )
    if existing.calibration and existing.calibration != manifest.calibration:
        raise ValueError(
            f"{run} was created under a different device "
            f"calibration (fingerprint {existing.calibration[:12]}… vs "
            f"{manifest.calibration[:12]}…); results must not mix"
        )
    return existing


class ClaimBoard:
    """Atomic per-point ownership over a run store's ``claims/`` keys.

    One instance per worker; ``owner`` must be unique per worker process
    (see :func:`default_owner`).  All methods take a
    :class:`~repro.exp.grid.GridPoint` and address its claim record by
    config hash.  ``clock`` is injectable so staleness is testable
    without sleeping; ``skew`` is the cross-host clock tolerance folded
    into the staleness check (``stale iff now - heartbeat > ttl +
    skew``).

    The board tracks the claims it currently holds (:meth:`held`), so a
    background ticker can keep them alive (:meth:`refresh_held`) while
    long points compute — see :class:`repro.exp.daemon.HeartbeatTicker`.
    """

    def __init__(
        self,
        run: RunStore,
        owner: str,
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
        skew: float = DEFAULT_SKEW,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        self.backend = as_backend(run)
        self.backend.ensure_prefix(CLAIMS_SUBDIR)
        self.owner = owner
        self.ttl = ttl
        self.skew = skew
        self.clock = clock
        self._held: set = set()
        self._held_lock = threading.Lock()

    def _key(self, point: GridPoint) -> str:
        return f"{CLAIMS_SUBDIR}/{point.config_hash()}.claim"

    def _record(self) -> bytes:
        return json.dumps(
            {"owner": self.owner, "heartbeat": self.clock()}
        ).encode()

    @staticmethod
    def _parse(data: bytes) -> Tuple[str, float]:
        """(owner, heartbeat) of a claim record; an unparseable record
        reads as an anonymous epoch-old claim — i.e. immediately stale,
        so garbage can always be stolen through the CAS gate."""
        try:
            info = json.loads(data)
            return str(info["owner"]), float(info["heartbeat"])
        except (ValueError, KeyError, TypeError):
            return "", 0.0

    def _read(self, key: str) -> Optional[Tuple[str, float]]:
        """(owner, heartbeat) of a claim, or ``None`` if it vanished."""
        record = self.backend.read(key)
        if record is None:
            return None
        return self._parse(record.data)

    def _is_fresh(self, heartbeat: float) -> bool:
        return self.clock() - heartbeat <= self.ttl + self.skew

    def _track(self, point: GridPoint) -> None:
        with self._held_lock:
            self._held.add(point)

    def _untrack(self, point: GridPoint) -> None:
        with self._held_lock:
            self._held.discard(point)

    def held(self) -> List[GridPoint]:
        """The points this board currently believes it owns."""
        with self._held_lock:
            return list(self._held)

    def try_claim(self, point: GridPoint) -> bool:
        """Attempt to become the sole owner of ``point``.

        Returns ``True`` iff this worker now holds the claim.  A held,
        fresh claim yields ``False``; a stale claim is stolen through
        the backend's compare-and-swap on the exact revision observed
        (single winner among stealers *and* concurrent fresh claimers).
        """
        key = self._key(point)
        for _ in range(3):
            if self.backend.put_exclusive(key, self._record()):
                self._track(point)
                return True
            record = self.backend.read(key)
            if record is None:
                continue  # released under us: retry the exclusive put
            _, heartbeat = self._parse(record.data)
            if self._is_fresh(heartbeat):
                return False
            if self.backend.lease(key, self._record(), record.token):
                self._track(point)
                return True
            # lost the CAS to a rival stealer or fresh claimer: observe
            # the new record (it may itself be stale) and retry
        return False

    def refresh(self, point: GridPoint) -> bool:
        """Re-stamp the heartbeat of a claim we hold.

        Returns ``False`` (without writing) when the claim is gone or
        owned by someone else — the caller has lost it and must not
        assume ownership.  The re-stamp itself goes through the CAS
        :meth:`~repro.exp.backend.StorageBackend.lease` on the exact
        revision read, never an unconditional write: a claim stolen (or
        released) between the read and the write stays with its new
        owner instead of being resurrected by a stale refresher.
        """
        key = self._key(point)
        record = self.backend.read(key)
        if record is not None:
            owner, _ = self._parse(record.data)
            if (not owner or owner == self.owner) and self.backend.lease(
                key, self._record(), record.token
            ):
                return True
        self._untrack(point)
        return False

    def refresh_held(self) -> int:
        """Re-stamp every claim this board holds; returns how many are
        still ours.  This is what the daemon's heartbeat ticker calls,
        so claims stay fresh while long points compute."""
        alive = 0
        for point in self.held():
            if self.refresh(point):
                alive += 1
        return alive

    def release(self, point: GridPoint) -> bool:
        """Drop our claim on ``point`` (no-op if it is not ours).

        Release goes through the backend's owner-conditional delete: if
        a stealer replaced our (necessarily stale) claim with its own
        between our read and the delete, the foreign record survives
        and we report the loss — we never delete a claim that is no
        longer ours.
        """
        self._untrack(point)
        key = self._key(point)
        info = self._read(key)
        if info is None or info[0] != self.owner:
            return False
        return self.backend.delete_if_owner(key, self.owner)

    def owner_of(self, point: GridPoint) -> Optional[str]:
        """Current claim owner of ``point``, or ``None`` if unclaimed."""
        info = self._read(self._key(point))
        return info[0] if info is not None else None


@dataclass(frozen=True)
class ClaimConfig:
    """How a :func:`repro.exp.runner.run_grid` call should claim points.

    ``board`` lets a caller (the daemon) share one pre-built
    :class:`ClaimBoard` between the runner and a heartbeat ticker;
    ``stop`` is polled between claim waves so a long drain can be
    interrupted cleanly (held claims are released on the way out).
    """

    run_dir: RunStore
    owner: str
    ttl: float = DEFAULT_TTL
    clock: Callable[[], float] = time.time
    skew: float = DEFAULT_SKEW
    board: Optional[ClaimBoard] = None
    stop: Optional[Callable[[], bool]] = None

    def make_board(self) -> ClaimBoard:
        if self.board is not None:
            return self.board
        return ClaimBoard(
            self.run_dir,
            owner=self.owner,
            ttl=self.ttl,
            clock=self.clock,
            skew=self.skew,
        )

    def make_cache(self) -> ResultCache:
        return run_cache(self.run_dir)

    def should_stop(self) -> bool:
        return self.stop is not None and bool(self.stop())


def pending_points(run: RunStore) -> List[GridPoint]:
    """Grid points of a run with no cache checkpoint yet, in grid order."""
    manifest = load_manifest(run)
    cache = run_cache(run)
    return [
        point
        for point in manifest.spec.points()
        if not cache.contains(point)
    ]


def run_dist_worker(
    run: RunStore,
    owner: Optional[str] = None,
    ttl: float = DEFAULT_TTL,
    workers: int = 0,
    point_fn: Callable[[GridPoint], "PointResult"] = run_point,
    progress=None,
    clock: Callable[[], float] = time.time,
    skew: float = DEFAULT_SKEW,
    board: Optional[ClaimBoard] = None,
    stop: Optional[Callable[[], bool]] = None,
    record_traces: bool = False,
):
    """One claim-mode worker pass over an initialised run store.

    Claims and computes whatever is pending, checkpoints every completed
    point through the shared cache, and returns this worker's (partial)
    :class:`~repro.exp.runner.GridResult`: cached points plus the points
    it computed; points freshly claimed by other live workers are counted
    in ``skipped``.  Run it from as many processes/hosts as you like;
    :func:`merge_run` assembles the canonical whole once the claim set
    drains.

    With ``record_traces`` every computed point additionally ships its
    columnar execution trace into the store's ``traces/`` prefix (see
    :func:`save_point_trace`); cached points are not re-traced.
    """
    import functools

    from repro.exp.runner import run_grid

    if record_traces:
        if point_fn is not run_point:
            raise ValueError(
                "record_traces only applies to the default point_fn; "
                "a custom point_fn must ship its own traces"
            )
        point_fn = functools.partial(run_point, trace_store=run)
    manifest = load_manifest(run)
    return run_grid(
        manifest.spec,
        workers=workers,
        progress=progress,
        claim=ClaimConfig(
            run_dir=run,
            owner=owner if owner is not None else default_owner(),
            ttl=ttl,
            clock=clock,
            skew=skew,
            board=board,
            stop=stop,
        ),
        point_fn=point_fn,
    )


def merge_run(run: RunStore, allow_partial: bool = False):
    """Assemble the canonical :class:`GridResult` of a run store.

    Reads every checkpointed point from the shared cache in grid order.
    An incomplete run raises ``ValueError`` naming the first missing
    point unless ``allow_partial`` — a partial merge is still a valid
    (sparse) grid document that :func:`~repro.analysis.persistence.\
merge_grid_dicts` can later combine with the stragglers.
    """
    from repro.exp.runner import GridResult

    manifest = load_manifest(run)
    cache = run_cache(run)
    results = []
    missing = []
    for point in manifest.spec.points():
        hit = cache.get(point)
        if hit is not None:
            results.append(hit)
        else:
            missing.append(point)
    if missing and not allow_partial:
        raise ValueError(
            f"run {manifest.run_id} is incomplete: {len(missing)} of "
            f"{len(manifest.spec)} points missing (first: "
            f"{missing[0].label}); finish the sweep (--resume) or merge "
            f"with allow_partial"
        )
    return GridResult(
        spec=manifest.spec,
        results=results,
        cache_hits=len(results),
        # provenance from the manifest, not from whoever merges: the
        # points were computed under the calibration recorded at init
        calibration=manifest.calibration or None,
    )


def run_payload(run: RunStore, allow_partial: bool = False) -> dict:
    """A run store as a grid *document* (dict), carrying the manifest's
    calibration fingerprint so merges across runs validate against what
    the points were actually computed under."""
    from repro.analysis.persistence import grid_to_dict

    return grid_to_dict(merge_run(run, allow_partial=allow_partial))
