"""Sharded sweep execution over a grid.

:func:`run_grid` is the one entry point: it enumerates a
:class:`~repro.exp.grid.GridSpec` (or one deterministic shard of it),
satisfies what it can from the result cache, optionally claims the rest
through the distributed claim board (:mod:`repro.exp.dist`), shards the
remaining points over a ``multiprocessing`` pool, and returns a
:class:`GridResult` in the grid's deterministic point order.

Because every point is evaluated by the same pure function
(:func:`repro.exp.worker.run_point`) with a seed derived from the point's
own coordinates, the parallel path is bit-identical to the serial one —
``workers``, ``shard`` and ``claim`` only change *which process computes
what and when*, never the results.

Distribution modes
------------------
``shard=(i, n)``
    Static partition: evaluate only round-robin shard ``i`` of ``n``
    (1-based) — no coordination needed, merge the ``n`` outputs with
    ``python -m repro merge``.
``claim=ClaimConfig(...)``
    Dynamic partition over a shared run directory: pending points are
    atomically claimed before being computed, so any number of
    concurrent ``run_grid`` calls (across hosts) split the grid without
    double-running points; crashed workers' claims go stale and are
    re-claimed after the TTL.  The returned result is this worker's
    slice; points held by other live workers are counted in
    :attr:`GridResult.skipped`.

Either way every completed point is checkpointed through the
:class:`~repro.exp.cache.ResultCache` (when one is configured), which is
what makes interrupted sweeps resumable: a re-run recomputes only the
missing points.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.exp.aggregate import AggregatePoint, aggregate_results, to_sweep
from repro.exp.cache import ResultCache
from repro.exp.grid import GridPoint, GridSpec
from repro.exp.worker import PointResult, run_point

if TYPE_CHECKING:  # pragma: no cover - circular at runtime, fine for types
    from repro.exp.backend import StorageBackend
    from repro.exp.dist import ClaimConfig

ProgressFn = Callable[[PointResult], None]
PointFn = Callable[[GridPoint], PointResult]


@dataclass
class GridResult:
    """All point results of one grid run, in grid order, plus provenance.

    Under ``shard``/``claim`` the result is *partial*: ``results`` holds
    only this worker's slice (``skipped`` counts the points another live
    worker held at return time); :func:`repro.exp.dist.merge_run` or
    :func:`repro.analysis.persistence.merge_grid_dicts` reassemble the
    whole.

    ``calibration`` is the device-calibration digest the results were
    computed under when that is *known to differ from ambient* — merged
    results carry their validated input fingerprint here so persisting
    them on another host does not re-label them with that host's
    calibration.  ``None`` (fresh runs) means "the ambient calibration".
    """

    spec: GridSpec
    results: List[PointResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    calibration: Optional[str] = None

    def sweep(self):
        """Seed-mean results as ``variant -> [SweepPoint]`` (see report.py)."""
        return to_sweep(self.results)

    def aggregate(self) -> Dict[str, List[AggregatePoint]]:
        """Per-cell mean +/- 95% CI over the grid's replication seeds."""
        return aggregate_results(self.results)


def _effective_workers(workers: int, pending: int) -> int:
    """Shards actually worth spawning (never more than pending points)."""
    if workers <= 1 or pending <= 1:
        return 0
    return min(workers, pending)


def run_grid(
    spec: GridSpec,
    workers: int = 0,
    cache_dir: Optional[Union[str, Path, "StorageBackend"]] = None,
    progress: Optional[ProgressFn] = None,
    shard: Optional[Tuple[int, int]] = None,
    claim: Optional["ClaimConfig"] = None,
    point_fn: PointFn = run_point,
) -> GridResult:
    """Evaluate every point of ``spec`` this call is responsible for.

    Parameters
    ----------
    workers:
        0 or 1 runs in-process and serially; ``N > 1`` shards the
        uncached points over ``N`` worker processes.  Results are
        identical either way.
    cache_dir:
        Directory (or :class:`~repro.exp.backend.StorageBackend`) of the
        result cache; ``None`` disables caching (defaults to the claim
        run store's ``cache/`` in claim mode).
    progress:
        Optional callback invoked with each :class:`PointResult` as it
        becomes available (cache hits first, then computed points in
        completion order).
    shard:
        Optional 1-based ``(index, count)``: evaluate only that
        round-robin shard of the grid (see :meth:`GridSpec.shard`).
    claim:
        Optional :class:`~repro.exp.dist.ClaimConfig`: atomically claim
        pending points through the shared claim board before computing
        them, so concurrent callers partition the grid dynamically.
        Claiming is lazy — at most ``max(workers, 1)`` points are held
        at a time, so a worker joining mid-sweep immediately finds work,
        no claim outlives its wave (the TTL only needs to cover the
        slowest single wave), and a crash forfeits at most one wave of
        claims.  Points freshly held by another worker are skipped
        (``GridResult.skipped``); stale claims are stolen after the TTL.
    point_fn:
        The per-point evaluation function; the default is the real
        simulator, tests inject pure/fault-injecting stand-ins (a custom
        ``point_fn`` must be picklable to combine with ``workers > 1``).
    """
    started = time.perf_counter()
    board = None
    cache = None
    if claim is not None:
        board = claim.make_board()
        if cache_dir is None:
            cache = claim.make_cache()
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if shard is not None:
        points = spec.shard(*shard)
    else:
        points = list(spec.points())
    computed: Dict[GridPoint, PointResult] = {}
    pending: List[GridPoint] = []
    skipped = 0
    for point in points:
        hit = cache.get(point) if cache is not None else None
        if hit is not None:
            computed[point] = hit
            if progress is not None:
                progress(hit)
        else:
            pending.append(point)
    hits = len(points) - len(pending)

    effective = _effective_workers(workers, len(pending))
    pool = multiprocessing.Pool(processes=effective) if effective > 0 else None
    fresh_count = 0

    def consume(results):
        nonlocal fresh_count
        for result in results:
            computed[result.point] = result
            fresh_count += 1
            if cache is not None:
                cache.put(result)
            if board is not None:
                board.release(result.point)
            if progress is not None:
                progress(result)

    def compute(batch):
        if pool is not None and len(batch) > 1:
            # chunksize 1: point costs vary by an order of magnitude
            # across task counts, so fine-grained dispatch keeps the
            # shards balanced
            consume(pool.imap_unordered(point_fn, batch, chunksize=1))
        else:
            consume(map(point_fn, batch))

    try:
        if board is None:
            compute(pending)
        else:
            # Lazy wave-based claiming: hold at most one pool's worth of
            # claims at a time, so concurrent workers interleave through
            # the grid point by point instead of one worker fencing off
            # everything pending at its start, and so no claim is held
            # (un-refreshed) longer than one wave of compute.
            wave_size = max(workers, 1)
            cursor = 0
            while cursor < len(pending):
                if claim.should_stop():
                    # a daemon shutting down: stop claiming new work;
                    # the finally block releases anything still held
                    break
                wave: List[GridPoint] = []
                while cursor < len(pending) and len(wave) < wave_size:
                    point = pending[cursor]
                    cursor += 1
                    if not board.try_claim(point):
                        skipped += 1
                        continue
                    # another worker may have checkpointed the point and
                    # released its claim between our cache scan and the
                    # claim — honour the checkpoint over recomputing
                    hit = cache.get(point)
                    if hit is not None:
                        board.release(point)
                        computed[point] = hit
                        hits += 1
                        if progress is not None:
                            progress(hit)
                    else:
                        wave.append(point)
                compute(wave)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        if board is not None:
            # free claims we still hold on points we never finished
            # (clean failure, an early-terminated pool, or a stop
            # request) so peers need not wait out the TTL; a hard crash
            # skips this and TTL recovery applies
            for point in board.held():
                board.release(point)

    return GridResult(
        spec=spec,
        results=[computed[point] for point in points if point in computed],
        cache_hits=hits,
        cache_misses=fresh_count,
        skipped=skipped,
        elapsed=time.perf_counter() - started,
    )
