"""Saving and loading sweep results as JSON.

Sweeps are expensive; persisting them lets EXPERIMENTS.md, notebooks and
regression checks reuse one run.  The format is a plain versioned JSON
document, deliberately boring: the *grid* document
(``GRID_FORMAT_VERSION``) holds the full
:class:`~repro.exp.grid.GridSpec` plus every per-seed
:class:`~repro.exp.worker.PointResult`, so aggregation (mean/CI) can be
redone offline without re-simulating.  ``repro sweep --out`` writes one
and ``repro merge`` reads them.

Grid documents also record the device-calibration fingerprint
they were computed under, and :func:`merge_grid_dicts` — the engine of
``python -m repro merge`` — refuses to combine documents whose format
versions or calibration fingerprints differ, or whose duplicate points
disagree: partial shard outputs merge into one canonical grid or fail
loudly, never silently concatenate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Sequence, Union

from repro.exp.grid import GridSpec
from repro.exp.runner import GridResult
from repro.exp.worker import PointResult
from repro.speedup.calibration import DEFAULT_CALIBRATION

#: v2: the serialized GridSpec/GridPoint carry the synthesis axes
#: (workload/utilizations/period_class/zoo_mix/deadline_mode); a v1
#: reader would choke on the new spec fields, so the bump turns that into
#: a clean "unsupported version" error there.
#: v3: the open-system axes (arrivals/admission on the spec,
#: arrival/admission per point) plus the v2 result payload (goodput,
#: rejection rate, tail latency, queue depth).
GRID_FORMAT_VERSION = 3

#: Versions this reader can load: v1 documents lack the synthesis-axis
#: fields and v2 documents lack the open-system fields; both default.
_READABLE_GRID_VERSIONS = (1, 2, GRID_FORMAT_VERSION)


def grid_to_dict(result: GridResult) -> dict:
    """Serialisable representation of a grid run (per-seed points).

    Partial results (a shard's or claim worker's slice) serialise the
    same way — the document's spec still describes the whole grid, and
    ``points`` holds whatever slice was computed; :func:`merge_grid_dicts`
    reassembles the whole.  The calibration fingerprint is recorded so
    merges can refuse to mix cost models: the ambient calibration for
    fresh runs, or the result's own provenance
    (:attr:`GridResult.calibration`) when it carries one — a merged
    document keeps its *inputs'* validated fingerprint even when
    persisted on a host whose ambient calibration differs.
    """
    return {
        "version": GRID_FORMAT_VERSION,
        "calibration": result.calibration or DEFAULT_CALIBRATION.digest,
        "spec": asdict(result.spec),
        "points": [point.to_dict() for point in result.results],
    }


def grid_from_dict(payload: dict) -> GridResult:
    """Inverse of :func:`grid_to_dict` (cache/timing provenance is not kept).

    Raises
    ------
    ValueError
        On a missing or unsupported format version.
    """
    version = payload.get("version")
    if version not in _READABLE_GRID_VERSIONS:
        raise ValueError(f"unsupported grid format version: {version!r}")
    spec_fields = dict(payload["spec"])
    for key in ("variants", "task_counts", "seeds", "utilizations", "arrivals"):
        if key in spec_fields:
            spec_fields[key] = tuple(spec_fields[key])
    return GridResult(
        spec=GridSpec(**spec_fields),
        results=[PointResult.from_dict(row) for row in payload["points"]],
    )


def _result_identity(result: PointResult) -> str:
    """Canonical value identity of a result — everything but ``elapsed``,
    which is wall-clock provenance and legitimately differs between the
    two computations of one double-run point."""
    return json.dumps(
        replace(result, elapsed=0.0).to_dict(), sort_keys=True
    )


def merge_grid_dicts(
    payloads: Sequence[dict], allow_partial: bool = False
) -> GridResult:
    """Merge grid documents (shard outputs, claim-run exports) into one.

    Validation, in order; each failure raises ``ValueError``:

    * every document must carry the same, readable format version;
    * calibration fingerprints, where recorded, must agree;
    * every document must describe the same :class:`GridSpec`;
    * a point appearing in several documents must carry identical
      results (a conflicting duplicate means the inputs do not belong to
      one run — different code, calibration, or a corrupted file);
    * every result must belong to the spec's grid (no stray points);
    * coverage must be complete unless ``allow_partial``.

    Returns the merged :class:`GridResult` in canonical grid order (the
    present subset, when partial).
    """
    if not payloads:
        raise ValueError("nothing to merge: no grid documents given")
    versions = sorted({p.get("version") for p in payloads}, key=repr)
    if len(versions) > 1:
        raise ValueError(
            f"refusing to merge grid documents with mixed format "
            f"versions: {versions}"
        )
    if versions[0] not in _READABLE_GRID_VERSIONS:
        raise ValueError(f"unsupported grid format version: {versions[0]!r}")
    calibrations = sorted(
        {p["calibration"] for p in payloads if p.get("calibration")}
    )
    if len(calibrations) > 1:
        raise ValueError(
            "refusing to merge grid documents computed under different "
            "device calibrations (fingerprints "
            + ", ".join(f"{c[:12]}…" for c in calibrations)
            + ")"
        )
    grids = []
    for payload in payloads:
        try:
            grids.append(grid_from_dict(payload))
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"not a grid document (missing or invalid field: {error})"
            ) from None
    spec = grids[0].spec
    for grid in grids[1:]:
        if grid.spec != spec:
            raise ValueError(
                "refusing to merge grid documents describing different "
                f"grids: {asdict(spec)} vs {asdict(grid.spec)}"
            )
    merged: Dict[str, PointResult] = {}
    for grid in grids:
        for result in grid.results:
            key = result.point.config_hash()
            previous = merged.get(key)
            if previous is None:
                merged[key] = result
            elif _result_identity(previous) != _result_identity(result):
                raise ValueError(
                    f"conflicting duplicate results for point "
                    f"{result.point.label}: the documents do not come "
                    f"from one run"
                )
    hashes = [point.config_hash() for point in spec.points()]
    stray = sorted(set(merged) - set(hashes))
    if stray:
        raise ValueError(
            f"{len(stray)} merged point(s) do not belong to the spec's "
            f"grid (first hash: {stray[0][:12]}…)"
        )
    results = [merged[key] for key in hashes if key in merged]
    missing = len(hashes) - len(results)
    if missing and not allow_partial:
        raise ValueError(
            f"merged documents cover only {len(results)} of {len(hashes)} "
            f"grid points; run the missing shards/workers or pass "
            f"allow_partial"
        )
    return GridResult(
        spec=spec,
        results=results,
        # carry the validated input fingerprint so persisting the merge
        # elsewhere does not re-label it with that host's calibration
        calibration=calibrations[0] if calibrations else None,
    )


def save_grid(result: GridResult, path: Union[str, Path]) -> None:
    """Write a grid run to a JSON file."""
    with open(path, "w") as handle:
        json.dump(grid_to_dict(result), handle, indent=1)


def load_grid(path: Union[str, Path]) -> GridResult:
    """Read a grid run from a JSON file."""
    with open(path) as handle:
        return grid_from_dict(json.load(handle))


def load_run_traces(run) -> Dict[str, "object"]:
    """Per-point execution traces stored in a run directory.

    Returns ``{point label: ColumnarTrace}`` for every grid point whose
    trace is present under the store's ``traces/`` prefix (runs executed
    without ``record_traces`` simply yield an empty dict).  Combined
    with :func:`repro.analysis.timeline.first_divergence` this is the
    cross-run comparison path: load the same point's trace from two run
    directories and diff them event by event without re-simulating.
    """
    from repro.exp.dist import load_manifest, load_point_trace

    manifest = load_manifest(run)
    out: Dict[str, object] = {}
    for point in manifest.spec.points():
        trace = load_point_trace(run, point)
        if trace is not None:
            out[point.label] = trace
    return out
