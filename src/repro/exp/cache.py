"""Result cache for sweep points, on any storage backend.

One JSON record per evaluated :class:`~repro.exp.grid.GridPoint`, keyed
by the point's configuration hash.  Sweeps consult the cache before
running a point and store fresh results afterwards, so

* re-running a sweep costs only the points that changed;
* a grid can be grown (more seeds, more task counts) incrementally;
* concurrent writers are safe: records are published atomically
  (:meth:`~repro.exp.backend.StorageBackend.atomic_replace`), and the
  worst case of a race is recomputing one point — every point is a pure
  function of its coordinates, so the duplicate writes identical bits.

The cache is rooted either in a plain directory (the historical layout:
one ``<hash>.json`` file per point) or in any
:class:`~repro.exp.backend.StorageBackend` under an optional key prefix
— the distributed layer keeps its checkpoints at ``cache/<hash>.json``
inside a run store.  Either way a record is reached one way only: its
key (:meth:`ResultCache.key_for`) on ``cache.backend``; the cache offers
no file paths, listing or bulk delete of its own.

Corrupt or stale-schema entries are treated as misses and overwritten.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

from repro.exp.backend import LocalFSBackend, StorageBackend
from repro.exp.grid import GridPoint
from repro.exp.worker import PointResult


class ResultCache:
    """Content-addressed store of :class:`PointResult` records."""

    def __init__(
        self,
        root: Union[str, Path, StorageBackend],
        prefix: str = "",
    ) -> None:
        if isinstance(root, StorageBackend):
            self.backend = root
        else:
            Path(root).mkdir(parents=True, exist_ok=True)
            self.backend = LocalFSBackend(root)
        self.prefix = prefix.strip("/")
        self.hits = 0
        self.misses = 0

    def key_for(self, point: GridPoint) -> str:
        """The backend key a point maps to."""
        name = f"{point.config_hash()}.json"
        return f"{self.prefix}/{name}" if self.prefix else name

    def contains(self, point: GridPoint) -> bool:
        """Whether a record exists for ``point`` (no parse, no hit/miss
        accounting) — the cheap pending-point check the distributed layer
        uses; a subsequent :meth:`get` still validates the contents."""
        return self.backend.exists(self.key_for(point))

    def get(self, point: GridPoint) -> Optional[PointResult]:
        """Return the cached result for ``point``, or ``None`` on a miss."""
        record = self.backend.read(self.key_for(point))
        try:
            if record is None:
                raise ValueError("missing")
            payload = json.loads(record.data)
            result = PointResult.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if result.point != point:  # hash collision or hand-edited record
            self.misses += 1
            return None
        self.hits += 1
        # elapsed measures compute cost; a cache load costs (almost) nothing
        return dataclasses.replace(result, elapsed=0.0)

    def put(self, result: PointResult) -> None:
        """Store a result atomically under its point's hash."""
        data = json.dumps(result.to_dict(), indent=1).encode()
        self.backend.atomic_replace(self.key_for(result.point), data)
