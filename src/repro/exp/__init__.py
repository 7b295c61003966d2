"""Parallel experiment harness (sweep grids, sharded execution, caching).

The paper's evaluation is a grid of independent simulation runs
(scenario x scheduler variant x task count x seed).  This package turns
that grid into a first-class object:

* :mod:`repro.exp.grid` — :class:`GridSpec` / :class:`GridPoint`, the
  declarative description of a sweep, with deterministic per-point seeds
  and a stable configuration hash per point;
* :mod:`repro.exp.worker` — the process-safe function that evaluates one
  point (:func:`run_point`) and its slim, picklable result record;
* :mod:`repro.exp.cache` — an on-disk JSON result cache keyed by the
  point's configuration hash, so re-runs skip already-computed points;
* :mod:`repro.exp.runner` — :func:`run_grid`, the sharded
  ``multiprocessing`` sweep runner (``workers=0`` runs serially and
  bit-identically to the parallel path);
* :mod:`repro.exp.aggregate` — seed-replication statistics (mean and 95%
  confidence intervals over >= 3 seeds);
* :mod:`repro.exp.backend` — the run-store backends (a local
  directory, or an in-memory dict) behind one atomicity contract;
* :mod:`repro.exp.dist` — distributed, resumable execution over a shared
  run store: deterministic shard partitions, an atomic claim/heartbeat
  protocol (with cross-host clock-skew tolerance) for dynamic
  multi-host partitioning with crash recovery, and the merge step that
  reassembles one canonical grid;
* :mod:`repro.exp.daemon` — long-lived workers (``python -m repro
  worker``) that poll a runs root, drain hot-added runs through the
  claim protocol with background heartbeat refresh, and shut down
  cleanly on SIGTERM or idle timeout.

Figures 1/3/4 and the ablation all run on top of this harness; the CLI
front-end is ``python -m repro sweep`` / ``python -m repro merge`` and
the compatibility wrapper is
:func:`repro.workloads.scenarios.run_scenario_sweep`.
"""

from repro.exp.aggregate import AggregatePoint, aggregate_results, to_sweep
from repro.exp.backend import (
    InMemoryBackend,
    LocalFSBackend,
    StorageBackend,
    as_backend,
)
from repro.exp.cache import ResultCache
from repro.exp.daemon import DaemonConfig, DaemonStats, HeartbeatTicker, serve
from repro.exp.grid import (
    GridPoint,
    GridSpec,
    derive_seed,
    register_variant,
    resolve_variant,
)
from repro.exp.runner import GridResult, run_grid
from repro.exp.worker import PointResult, run_point
from repro.exp.dist import (
    ClaimBoard,
    ClaimConfig,
    RunManifest,
    default_owner,
    init_run,
    load_manifest,
    merge_run,
    parse_shard,
    pending_points,
    run_cache,
    run_dist_worker,
    run_id_for,
)

__all__ = [
    "AggregatePoint",
    "ClaimBoard",
    "ClaimConfig",
    "DaemonConfig",
    "DaemonStats",
    "GridPoint",
    "GridResult",
    "GridSpec",
    "HeartbeatTicker",
    "InMemoryBackend",
    "LocalFSBackend",
    "PointResult",
    "ResultCache",
    "RunManifest",
    "StorageBackend",
    "aggregate_results",
    "as_backend",
    "default_owner",
    "derive_seed",
    "init_run",
    "load_manifest",
    "merge_run",
    "parse_shard",
    "pending_points",
    "register_variant",
    "resolve_variant",
    "run_cache",
    "run_dist_worker",
    "run_grid",
    "run_id_for",
    "run_point",
    "serve",
    "to_sweep",
]
