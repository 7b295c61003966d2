"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper table/figure at reduced grid size
(full-fidelity sweeps live behind ``python -m repro fig3|fig4``), prints
the rows the paper reports and, in a session run with ``--runslow``,
appends them to ``results/bench_*.txt`` so the output survives pytest's
capture.  The fast-tier guardrails only print: a default run leaves the
tracked ``results/`` files untouched.

All benchmarks are in the ``slow`` tier (``--runslow`` to enable) and the
sweep-shaped ones run through :mod:`repro.exp`; three environment knobs
steer that harness without touching the code:

* ``REPRO_BENCH_WORKERS`` — worker processes per sweep (default 0, serial;
  results are identical either way);
* ``REPRO_BENCH_CACHE`` — directory for the on-disk point cache (default
  unset: every run recomputes);
* ``REPRO_BENCH_SHARD`` — ``i/n`` (1-based): run only the slow-tier
  benchmarks of shard ``i`` of ``n``, so CI can split the slow tier
  across a job matrix.  Assignment is a stable hash of each test's node
  id — the same deterministic disjoint-exact-cover contract the sweep
  shards have (see :mod:`repro.exp.dist`), so the ``n`` shard jobs
  together run every slow benchmark exactly once.
"""

import hashlib
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_workers() -> int:
    """Worker-process count for benchmark sweeps (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def bench_cache_dir():
    """Result-cache directory for benchmark sweeps, or ``None``."""
    return os.environ.get("REPRO_BENCH_CACHE") or None


def bench_shard():
    """The ``(i, n)`` benchmark shard from ``REPRO_BENCH_SHARD``, or
    ``None`` when unset (run everything)."""
    from repro.exp.dist import parse_shard

    raw = os.environ.get("REPRO_BENCH_SHARD")
    return parse_shard(raw) if raw else None


def _shard_of(nodeid: str, count: int) -> int:
    """Stable 1-based shard assignment of one test (process-independent,
    unlike ``hash()``)."""
    digest = hashlib.sha256(nodeid.encode()).digest()
    return int.from_bytes(digest[:4], "big") % count + 1


def pytest_collection_modifyitems(config, items):
    """Skip slow benchmarks that belong to another ``REPRO_BENCH_SHARD``.

    Only ``slow``-marked items shard — the fast-tier golden smokes run
    in every job, so each shard still gates on the pinned points.
    """
    shard = bench_shard()
    if shard is None:
        return
    index, count = shard
    for item in items:
        if "slow" not in item.keywords:
            continue
        assigned = _shard_of(item.nodeid, count)
        if assigned != index:
            item.add_marker(
                pytest.mark.skip(
                    reason=(
                        f"REPRO_BENCH_SHARD: belongs to shard "
                        f"{assigned}/{count}"
                    )
                )
            )


#: Whether this session writes under results/ (set from ``--runslow``).
_PERSIST = False


def pytest_configure(config):
    global _PERSIST
    _PERSIST = bool(config.getoption("--runslow"))


#: Result files already truncated this session (emit starts each file
#: fresh on first write, then appends — so running a *subset* of the
#: benchmarks never deletes the other committed result files).
_FRESH: set = set()


def emit(filename: str, text: str) -> None:
    """Print a result block; persist it under results/ in a ``--runslow``
    session."""
    print(text)
    if not _PERSIST:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    mode = "a" if filename in _FRESH else "w"
    _FRESH.add(filename)
    with open(path, mode) as handle:
        handle.write(text + "\n")


#: Accumulated JSON snapshots of this session, per target file (emit_json
#: rewrites the whole document on each call, starting fresh per session —
#: the same semantics `emit` has for the text blocks).
_JSON_DOCS: dict = {}


def emit_json(filename: str, key: str, payload: dict) -> None:
    """Record one machine-readable benchmark snapshot under results/.

    ``BENCH_*.json`` files are the perf trajectory future PRs are judged
    against: one JSON document per benchmark family, one top-level ``key``
    per measured configuration, rewritten atomically from this session's
    accumulated snapshots (a partial run never merges stale data from a
    previous session into its keys).  Like :func:`emit`, it prints the
    snapshot and writes only in a ``--runslow`` session.
    """
    import json

    print(json.dumps({key: payload}, sort_keys=True))
    if not _PERSIST:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = _JSON_DOCS.setdefault(filename, {})
    doc[key] = payload
    path = RESULTS_DIR / filename
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tmp.replace(path)
