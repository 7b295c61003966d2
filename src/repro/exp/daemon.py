"""Long-lived sweep workers: ``python -m repro worker``.

A single-pass claim worker (``repro sweep --claim`` /
:func:`repro.exp.dist.run_dist_worker`) drains what is pending *now*
and exits.  A fleet serving heavy sweep traffic wants the opposite
shape: workers that outlive any one sweep, polling a shared *runs
root* for newly-submitted run stores, draining whatever appears, and
dying only when told to (SIGTERM) or when there has been nothing to do
for a while (``--max-idle``)::

    # submit work (initialises the run store, computes nothing)
    python -m repro sweep --scenario 1 --submit --runs-root /srv/runs

    # any number of hosts: long-lived workers over the same root
    python -m repro worker --runs-root /srv/runs --poll 5

    # afterwards, anywhere
    python -m repro merge /srv/runs/<RUN_ID> --out grid.json

The daemon adds two things the single-pass worker deliberately lacks:

* **Discovery** — every poll cycle re-lists the runs root, so a run
  store *hot-added* while the fleet is busy is picked up on the next
  cycle, no restarts.  The root is a directory; each child directory
  holding a ``manifest.json`` is a run.
* **Heartbeat refresh** — a background :class:`HeartbeatTicker`
  re-stamps every claim the worker holds (every ``ttl/4`` by default),
  so the claim TTL no longer needs to exceed the slowest point's cost:
  a daemon fleet can run short TTLs and still never has a live claim
  stolen, while a SIGKILL-ed daemon's claims go stale one TTL later
  exactly like the single-pass worker's.

Shutdown is cooperative and clean: SIGTERM/SIGINT (or a caller-owned
stop event) stops new claims at the next wave boundary, releases every
claim still held, and returns — completed points are already
checkpointed, so nothing is lost and peers need not wait out the TTL.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.exp.backend import LocalFSBackend
from repro.exp.dist import (
    DEFAULT_SKEW,
    DEFAULT_TTL,
    MANIFEST_NAME,
    ClaimBoard,
    default_owner,
    pending_points,
    run_dist_worker,
)
from repro.exp.grid import GridPoint
from repro.exp.worker import run_point

EchoFn = Callable[[str], None]


@dataclass(frozen=True)
class DaemonConfig:
    """How one ``repro worker`` process should behave.

    ``poll`` is the idle re-discovery interval (seconds); ``max_idle``
    exits after that many consecutive cycles with nothing computed
    (``None`` = run until signalled); ``once`` does a single
    discover-and-drain pass.  ``heartbeat_interval`` defaults to
    ``ttl / 4`` — comfortably more than the two refreshes a claim needs
    per TTL window to survive scheduling hiccups.
    """

    runs_root: Union[str, Path]
    poll: float = 5.0
    max_idle: Optional[int] = None
    once: bool = False
    owner: Optional[str] = None
    ttl: float = DEFAULT_TTL
    skew: float = DEFAULT_SKEW
    workers: int = 0
    heartbeat_interval: Optional[float] = None

    def interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(self.ttl / 4.0, 0.05)


@dataclass
class DaemonStats:
    """What one :func:`serve` call did before it returned."""

    cycles: int = 0
    runs_seen: int = 0
    points_computed: int = 0
    points_skipped: int = 0
    stopped_by: str = ""
    drained_runs: List[str] = field(default_factory=list)


class HeartbeatTicker:
    """Background thread re-stamping a board's held claims.

    Context manager: entering starts the ticker, exiting stops and
    joins it.  The thread calls :meth:`ClaimBoard.refresh_held` every
    ``interval`` seconds, so claims stay fresh for as long as their
    points actually compute — which is what lets a daemon fleet run a
    TTL far below the slowest point's cost without live claims being
    stolen.  A crashed daemon stops ticking, its claims age out, and
    the normal stale-steal recovery applies.
    """

    def __init__(self, board: ClaimBoard, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.board = board
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HeartbeatTicker":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.board.refresh_held()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "HeartbeatTicker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def discover_runs(runs_root: Union[str, Path]) -> List[str]:
    """Run ids (child directories holding a ``manifest.json``) under a
    runs root."""
    # Don't walk every cache checkpoint of every run per poll cycle.
    # The glob MUST be sorted: directory-entry order is
    # filesystem-dependent, and the fleet's drain order (which run a
    # worker claims first) follows this list (lint rule D004).
    manifests = sorted(Path(runs_root).glob(f"*/{MANIFEST_NAME}"))
    return [path.parent.name for path in manifests]


def run_store(runs_root: Union[str, Path], run_id: str) -> LocalFSBackend:
    """The run store of one run inside a runs root."""
    return LocalFSBackend(Path(runs_root) / run_id)


def _install_signal_handlers(
    stop: threading.Event, say: EchoFn
) -> Callable[[], None]:
    """SIGTERM/SIGINT -> set ``stop``; returns an undo function.

    Signal handlers only work from the main thread; a :func:`serve`
    running anywhere else (tests, embedding) relies on the caller's
    stop event instead.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    previous = {}

    def handler(signum, frame):
        say(f"received {signal.Signals(signum).name}, shutting down cleanly")
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass

    def restore() -> None:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    return restore


def serve(
    config: DaemonConfig,
    point_fn: Callable[[GridPoint], object] = run_point,
    stop: Optional[threading.Event] = None,
    echo: Optional[EchoFn] = None,
) -> DaemonStats:
    """Run the daemon loop until signalled, idle-timed-out, or ``once``.

    Every cycle: re-discover the runs under ``config.runs_root``, and
    for each with pending points run one claim-mode drain with a
    heartbeat ticker keeping this worker's claims fresh.  Between
    cycles the loop sleeps ``config.poll`` seconds (interruptibly).
    Runs observed fully checkpointed are remembered and never re-probed
    — an idle daemon's footprint is one listing per cycle, not one
    existence check per point of every historical run.

    ``stop`` lets an embedding caller (tests, another scheduler) own
    the shutdown; SIGTERM/SIGINT set the same event when :func:`serve`
    runs on the main thread.  Returns a :class:`DaemonStats` summary.
    """
    stop = stop if stop is not None else threading.Event()
    say: EchoFn = echo if echo is not None else (lambda message: None)
    owner = config.owner or default_owner()
    stats = DaemonStats()
    restore = _install_signal_handlers(stop, say)
    say(
        f"worker {owner} serving {config.runs_root} "
        f"(poll {config.poll:g}s, ttl {config.ttl:g}s)"
    )
    try:
        idle = 0
        # runs observed fully checkpointed: never re-probed (a grid is
        # frozen at init, so a complete run stays complete — deleting
        # its checkpoints to force recomputation needs a daemon restart)
        completed = set()
        while not stop.is_set():
            stats.cycles += 1
            computed = 0
            runs = discover_runs(config.runs_root)
            stats.runs_seen = max(stats.runs_seen, len(runs))
            for run_id in runs:
                if stop.is_set():
                    break
                if run_id in completed:
                    continue
                store = run_store(config.runs_root, run_id)
                try:
                    if not pending_points(store):
                        completed.add(run_id)
                        continue
                except ValueError as error:
                    # a half-written or foreign child: skip, keep serving
                    say(f"skipping {run_id}: {error}")
                    continue
                board = ClaimBoard(
                    store, owner=owner, ttl=config.ttl, skew=config.skew
                )
                with HeartbeatTicker(board, config.interval()):
                    result = run_dist_worker(
                        store,
                        owner=owner,
                        ttl=config.ttl,
                        workers=config.workers,
                        point_fn=point_fn,
                        skew=config.skew,
                        board=board,
                        stop=stop.is_set,
                    )
                computed += result.cache_misses
                stats.points_skipped += result.skipped
                if result.cache_misses:
                    say(
                        f"run {run_id}: computed {result.cache_misses}, "
                        f"skipped {result.skipped} (claimed by peers)"
                    )
                    if run_id not in stats.drained_runs:
                        stats.drained_runs.append(run_id)
                if not result.skipped and not pending_points(store):
                    # nothing left and no peer mid-point: done for good
                    completed.add(run_id)
            stats.points_computed += computed
            if config.once:
                stats.stopped_by = "once"
                break
            if computed:
                idle = 0
            else:
                idle += 1
                if config.max_idle is not None and idle >= config.max_idle:
                    stats.stopped_by = "idle"
                    say(
                        f"idle for {idle} cycles, exiting "
                        f"({stats.points_computed} points computed)"
                    )
                    break
            # interruptible sleep: a signal or stop event wakes us early
            stop.wait(config.poll)
        if stop.is_set() and not stats.stopped_by:
            stats.stopped_by = "signal"
    finally:
        restore()
    say(
        f"worker {owner} done: {stats.points_computed} points over "
        f"{stats.cycles} cycle(s) ({stats.stopped_by or 'stopped'})"
    )
    return stats
