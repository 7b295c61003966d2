"""Simulated CUDA context: an SM partition with prioritized stream slots.

A context owns

* a **nominal SM allocation** (``nominal_sms``) — the hard cap the device
  allocator enforces (MPS active-thread-percentage semantics);
* a fixed set of streams (2 hardware-high + 2 hardware-low by default),
  bounding resident concurrency at four stages (Section IV-B3);
* three EDF wait queues, one per scheduler priority level, holding stages
  that have been *assigned* to this context but have no free stream yet.

Dispatch order follows the paper: the highest non-empty priority level
first, earliest absolute deadline first within a level.

**Scheduler-layer fast path (PR 9).**  The online phase queries this layer
on every release and every settle — ``queued_count`` / ``queue_empty`` /
``backlog_work`` / ``estimated_finish_time`` for SGPRS's context
assignment, ``free_streams`` for stream picking, ``dispatch_ready`` at
every device change point.  All of those used to be per-call scans over
the queues and streams (O(queued) each, paid O(contexts) times per
release), which profiling showed dominating backlogged runs.  The default
``accounting="fast"`` mode instead maintains the answers incrementally:

* per-level **live counters** and aggregate **backlog accumulators**
  (queued single-SM work; queued ETA seconds at the context's nominal
  speedup) updated at enqueue / pop / tombstone time, so the four
  accounting queries are O(1) plus an O(#streams) walk over residents;
* a cached **free-stream occupancy** (per-class free lists plus the
  concatenated index-ordered list), invalidated by ``residency_rev`` —
  the same revision the device uses to skip allocation passes — and
  rebuilt at most once per residency change instead of once per call;
* a **batched** ``dispatch_ready`` that fills every free slot of a level
  in one pass (highest level first) instead of restarting from the top
  after each attach.  Because dispatching only ever *consumes* streams, a
  level found blocked stays blocked for the rest of the pass, so the
  batched walk dispatches exactly the stages the restart-scan did — but
  without popping and re-queueing blocked stages.  That also fixes an EDF
  FIFO bug: the old scan re-enqueued a blocked stage under a fresh
  sequence number, letting an equal-deadline peer that arrived later
  leapfrog it within the same settle;
* **tombstone compaction** in the per-level EDF heaps, mirroring
  :class:`repro.sim.engine.SimulationEngine`'s majority-compaction rule
  (rebuild when tombstones outnumber live entries), so aborted stages
  stop occupying memory and pop time under heavy shedding.

``accounting="scan"`` keeps the historical per-call scans (and the
restart-scan dispatch loop, seq-preserving) as a frozen perf baseline for
``benchmarks/test_bench_engine.py``; it is not used by any scheduler.
Both modes maintain the incremental state (it is O(1) per transition), so
the ``stat_*`` observability counters mean the same thing in each.

Float caveat, deliberate: the fast accumulators produce the same values a
scan would *up to summation order* — an accumulator that adds and
subtracts contributions is not bit-identical to re-summing the survivors.
The estimates feed SGPRS placement heuristics only, both device re-arm
modes share this code (so cross-mode trace equivalence is
unaffected), and the accumulators are reset to exactly 0.0 whenever the
queues drain, bounding drift.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.stream import PREFERRED_CLASS, CudaStream, StreamClass

_QUEUE_SEQ = itertools.count()

#: Dispatch walks levels highest-first.
_LEVELS_DESC: Tuple[PriorityLevel, ...] = tuple(
    sorted(PriorityLevel, reverse=True)
)

#: Accounting modes: ``"fast"`` (incremental counters/caches, the default)
#: and ``"scan"`` (per-call scans — the frozen pre-PR-9 perf baseline).
ACCOUNTING_MODES: Tuple[str, ...] = ("fast", "scan")


class SimContext:
    """One partition of the simulated GPU.

    Parameters
    ----------
    context_id:
        Stable identifier within the pool.
    nominal_sms:
        Hard SM cap (may be fractional; over-subscribed pools configure
        more total nominal SMs than the device physically has).
    high_streams / low_streams:
        Number of hardware high-/low-priority streams.
    allow_stream_borrowing:
        When ``True`` (default) a stage may occupy an idle stream of the
        non-preferred class instead of waiting — the work-conserving
        behaviour real stream priorities exhibit (priorities order work
        distribution, they do not reserve slots).  ``False`` gives the
        strict interpretation; the ablation benchmark compares both.
    accounting:
        ``"fast"`` (default) answers occupancy/backlog queries from
        incrementally maintained state; ``"scan"`` re-scans queues and
        streams on every call (the historical behaviour, kept as the
        benchmark baseline).  See the module docstring.
    """

    #: Per-level EDF heaps smaller than this are never compacted
    #: (rebuilding a handful of entries costs more than the tombstones).
    COMPACT_MIN_SIZE = 32

    def __init__(
        self,
        context_id: int,
        nominal_sms: float,
        high_streams: int = 2,
        low_streams: int = 2,
        allow_stream_borrowing: bool = True,
        accounting: str = "fast",
    ) -> None:
        if nominal_sms <= 0:
            raise ValueError(f"nominal_sms must be positive, got {nominal_sms}")
        if accounting not in ACCOUNTING_MODES:
            raise ValueError(
                f"accounting must be one of {ACCOUNTING_MODES}, "
                f"got {accounting!r}"
            )
        self.context_id = context_id
        self.nominal_sms = nominal_sms
        self.allow_stream_borrowing = allow_stream_borrowing
        self.accounting = accounting
        self.streams: List[CudaStream] = []
        for index in range(high_streams):
            self.streams.append(CudaStream(index, StreamClass.HIGH, owner=self))
        for index in range(low_streams):
            self.streams.append(
                CudaStream(high_streams + index, StreamClass.LOW, owner=self)
            )
        self._queues: Dict[PriorityLevel, List[Tuple[float, int, StageKernel]]] = {
            level: [] for level in PriorityLevel
        }
        #: Monotonic counter bumped on every stream attach/detach; the device
        #: compares snapshots of it to detect that the resident set (and
        #: therefore the whole allocation) is unchanged since the last
        #: settle, and the free-stream occupancy cache below is keyed on it.
        self.residency_rev = 0
        self._resident_cache: List[StageKernel] = []
        self._resident_cache_rev = -1
        # Cached free-stream occupancy (rebuilt when residency_rev moved).
        self._free_cache_rev = -1
        self._free_by_class: Dict[StreamClass, List[CudaStream]] = {
            StreamClass.HIGH: [],
            StreamClass.LOW: [],
        }
        self._free_all: List[CudaStream] = []
        # Incremental queue accounting (maintained in both modes).
        self._live: Dict[PriorityLevel, int] = {level: 0 for level in PriorityLevel}
        self._live_total = 0
        self._tombstones: Dict[PriorityLevel, int] = {
            level: 0 for level in PriorityLevel
        }
        #: kernel_id -> (level, queued work, queued ETA contribution); the
        #: exact floats added to the accumulators, so unregistering
        #: subtracts precisely what was added.
        self._queued_entry: Dict[int, Tuple[PriorityLevel, float, float]] = {}
        self._queued_work = 0.0
        self._queued_eta = 0.0
        #: id(curve) -> (curve, speedup at nominal_sms).  The curve object
        #: is held strongly so a collected curve can never alias the id.
        self._speedup_cache: Dict[int, Tuple[object, float]] = {}
        #: Identity of the task whose state the partition is configured for;
        #: used by reconfiguration policies (naive pays to change it).
        self.configured_task: Optional[str] = None
        # Observability counters (deterministic; the scheduler-layer
        # benchmark gates on ratios between the two accounting modes).
        #: Accounting queries answered (queued_count/queue_empty/
        #: backlog_work/estimated_finish_time).
        self.stat_acct_queries = 0
        #: Queue entries walked while answering them (0 on the fast path).
        self.stat_scan_elems = 0
        #: Free-stream list constructions (per call in scan mode; per
        #: residency change in fast mode).
        self.stat_free_builds = 0
        #: Blocked stages popped and re-queued by the scan-mode dispatch
        #: loop (the fast batched dispatch never re-queues).
        self.stat_requeues = 0
        #: Tombstone-dropping EDF heap rebuilds performed.
        self.stat_compactions = 0

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def enqueue(self, kernel: StageKernel) -> None:
        """Queue an assigned stage, EDF-ordered within its priority level."""
        kernel.context_id = self.context_id
        heapq.heappush(
            self._queues[kernel.priority],
            (kernel.deadline, next(_QUEUE_SEQ), kernel),
        )
        self._register_queued(kernel)

    def _nominal_speedup(self, kernel: StageKernel) -> float:
        """``kernel.curve.speedup(nominal_sms)`` memoised per curve object."""
        # repro: lint-ok[D003] the memo stores (curve, value) — the strong ref pins the id for the cache's lifetime
        key = id(kernel.curve)
        hit = self._speedup_cache.get(key)
        if hit is None:
            value = max(kernel.curve.speedup(self.nominal_sms), 1e-9)
            self._speedup_cache[key] = (kernel.curve, value)
            return value
        return hit[1]

    def _register_queued(self, kernel: StageKernel) -> None:
        """Fold a newly queued stage into the live counters/accumulators.

        A queued stage's ``work_remaining`` and ``setup_remaining`` are
        frozen until it is dispatched (only residents advance), so its
        contribution is computed once here and stored for exact removal.
        """
        level = kernel.priority
        work = kernel.work_remaining
        eta = kernel.setup_remaining + work / self._nominal_speedup(kernel)
        self._queued_entry[kernel.kernel_id] = (level, work, eta)
        self._live[level] += 1
        self._live_total += 1
        self._queued_work += work
        self._queued_eta += eta

    def _unregister_queued(self, kernel: StageKernel) -> bool:
        """Remove a stage's contribution; ``False`` if it was not queued.

        When the last live entry leaves, the accumulators are reset to
        exactly 0.0 so add/subtract rounding residue cannot accumulate
        across backlog episodes.
        """
        entry = self._queued_entry.pop(kernel.kernel_id, None)
        if entry is None:
            return False
        level, work, eta = entry
        self._live[level] -= 1
        self._live_total -= 1
        if self._live_total == 0:
            self._queued_work = 0.0
            self._queued_eta = 0.0
        else:
            self._queued_work -= work
            self._queued_eta -= eta
        return True

    def _maybe_compact(self, level: PriorityLevel) -> None:
        """Drop a level's tombstones when they outnumber live entries.

        Mirrors the engine heap's majority-compaction rule: an O(n)
        rebuild paid at most every n tombstones is amortised O(1) per
        abort, and it bounds both memory and the ``log n`` every push/pop
        pays.  ``(deadline, seq)`` keys are unique, so the re-heapified
        queue pops in exactly the order the original would have.
        """
        queue = self._queues[level]
        if (
            self._tombstones[level] * 2 > len(queue)
            and len(queue) >= self.COMPACT_MIN_SIZE
        ):
            live = [entry for entry in queue if not entry[2].aborted]
            heapq.heapify(live)
            self._queues[level] = live
            self._tombstones[level] = 0
            self.stat_compactions += 1

    def queued_count(self, level: Optional[PriorityLevel] = None) -> int:
        """Stages waiting for a stream (optionally at one level)."""
        self.stat_acct_queries += 1
        if self.accounting == "scan":
            if level is not None:
                self.stat_scan_elems += len(self._queues[level])
                return sum(
                    1 for _, _, k in self._queues[level] if not k.aborted
                )
            self.stat_scan_elems += sum(len(q) for q in self._queues.values())
            return sum(
                1
                for queue in self._queues.values()
                for _, _, k in queue
                if not k.aborted
            )
        if level is not None:
            return self._live[level]
        return self._live_total

    def queue_empty(self) -> bool:
        """Whether no stage is waiting for a stream."""
        return self.queued_count() == 0

    def is_idle(self) -> bool:
        """Whether the context has no resident and no queued stage."""
        return not self.resident_kernels() and self.queue_empty()

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def _on_residency_change(self) -> None:
        """Stream attach/detach hook: invalidate residency-keyed caches."""
        self.residency_rev += 1

    def resident_kernels(self) -> List[StageKernel]:
        """Kernels currently occupying streams, in stream-index order.

        The list is cached and rebuilt only when a stream attach/detach
        moved :attr:`residency_rev` — the allocator and device call this on
        every change point, so the rebuild must not be paid when nothing
        moved.  Callers must treat the result as read-only (a fresh list
        object replaces it on the next residency change, so held references
        stay stable snapshots).

        The stream-index ordering is load-bearing: the allocator's
        order-sensitive float sums accumulate in this order, so changing
        it changes traces.
        """
        if self._resident_cache_rev != self.residency_rev:
            self._resident_cache = [
                s.kernel for s in self.streams if s.kernel is not None
            ]
            self._resident_cache_rev = self.residency_rev
        return self._resident_cache

    def _refresh_free_cache(self) -> None:
        """Rebuild the free-stream occupancy if the residency moved."""
        if self._free_cache_rev == self.residency_rev:
            return
        high: List[CudaStream] = []
        low: List[CudaStream] = []
        free: List[CudaStream] = []
        for stream in self.streams:
            if stream.kernel is None:
                free.append(stream)
                if stream.stream_class is StreamClass.HIGH:
                    high.append(stream)
                else:
                    low.append(stream)
        self._free_by_class[StreamClass.HIGH] = high
        self._free_by_class[StreamClass.LOW] = low
        self._free_all = free
        self._free_cache_rev = self.residency_rev
        self.stat_free_builds += 1

    def free_streams(
        self, stream_class: Optional[StreamClass] = None
    ) -> List[CudaStream]:
        """Idle streams, optionally filtered by hardware class.

        Fast mode returns the cached occupancy list (read-only — a fresh
        list replaces it on the next residency change); scan mode builds
        a fresh list per call, as the historical code did.
        """
        if self.accounting == "scan":
            self.stat_free_builds += 1
            return [
                s
                for s in self.streams
                if not s.busy
                and (stream_class is None or s.stream_class is stream_class)
            ]
        self._refresh_free_cache()
        if stream_class is None:
            return self._free_all
        return self._free_by_class[stream_class]

    def free_stream_count(
        self, stream_class: Optional[StreamClass] = None
    ) -> int:
        """Number of idle streams (optionally of one hardware class)."""
        return len(self.free_streams(stream_class))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch_ready(self) -> List[StageKernel]:
        """Move queued stages onto free streams; return those dispatched.

        Highest priority level first, EDF within a level.  Each stage takes
        an idle stream of its preferred hardware class, falling back to the
        other class when borrowing is enabled.

        The fast path fills all free slots of a level in one batched pass:
        dispatching only consumes streams, so once a level is blocked (no
        stream its stages may use) it stays blocked for the remainder of
        the pass, and the restart-from-the-top loop of the historical scan
        dispatch is equivalent but redundant.  Blocked stages are never
        popped, so their EDF FIFO position is preserved by construction.
        """
        if self.accounting == "scan":
            return self._dispatch_ready_scan()
        if self._live_total == 0:
            return []
        dispatched: List[StageKernel] = []
        for level in _LEVELS_DESC:
            while self._live[level] > 0:
                stream = self._pick_stream(level)
                if stream is None:
                    break  # blocked level: lower ones may use other classes
                kernel = self._pop_live(level)
                if kernel is None:  # pragma: no cover - counters guarantee
                    break
                stream.attach(kernel)
                dispatched.append(kernel)
        return dispatched

    def _dispatch_ready_scan(self) -> List[StageKernel]:
        """The historical restart-scan dispatch loop (benchmark baseline).

        Pops one stage at a time and restarts from the highest level after
        every attach; a blocked stage is pushed back under its *original*
        sequence number, so EDF FIFO tie-breaks match the fast path (the
        pre-PR-9 code used a fresh sequence number here, letting an
        equal-deadline later arrival leapfrog a blocked stage).
        """
        dispatched: List[StageKernel] = []
        progressing = True
        while progressing:
            progressing = False
            for level in _LEVELS_DESC:
                entry = self._pop_live_entry(level)
                if entry is None:
                    continue
                stream = self._pick_stream(level)
                if stream is None:
                    # No slot for this level; put the stage back (keeping
                    # its seq) and try the next (lower) level, which may
                    # target the other stream class.
                    heapq.heappush(self._queues[level], entry)
                    self.stat_requeues += 1
                    continue
                kernel = entry[2]
                self._unregister_queued(kernel)
                stream.attach(kernel)
                dispatched.append(kernel)
                progressing = True
                break  # restart from the highest level
        return dispatched

    def _pop_live_entry(
        self, level: PriorityLevel
    ) -> Optional[Tuple[float, int, StageKernel]]:
        """Pop the earliest live heap entry of one level (tombstones
        dropped), *without* touching the queued accounting."""
        queue = self._queues[level]
        while queue:
            entry = heapq.heappop(queue)
            if entry[2].aborted:
                self._tombstones[level] -= 1
                continue
            return entry
        return None

    def _pop_live(self, level: PriorityLevel) -> Optional[StageKernel]:
        """Pop the earliest-deadline non-aborted stage of one level."""
        entry = self._pop_live_entry(level)
        if entry is None:
            return None
        kernel = entry[2]
        self._unregister_queued(kernel)
        return kernel

    def _pick_stream(self, level: PriorityLevel) -> Optional[CudaStream]:
        preferred = PREFERRED_CLASS[level]
        candidates = self.free_streams(preferred)
        if not candidates and self.allow_stream_borrowing:
            candidates = self.free_streams()
        return candidates[0] if candidates else None

    def remove(self, kernel: StageKernel) -> None:
        """Detach a kernel wherever it lives (stream or queue).

        Queued copies are tombstoned (``aborted`` kernels are skipped when
        popped), the live counters/accumulators are settled immediately,
        and a tombstone-majority heap is compacted — so removal stays
        amortised O(1) and shed stages stop costing memory or pop time.
        """
        for stream in self.streams:
            if stream.kernel is kernel:
                stream.detach()
                return
        kernel.aborted = True
        if self._unregister_queued(kernel):
            level = kernel.priority
            self._tombstones[level] += 1
            self._maybe_compact(level)

    # ------------------------------------------------------------------
    # Estimates used by the SGPRS context-assignment policy
    # ------------------------------------------------------------------
    def backlog_work(self) -> float:
        """Single-SM seconds of work resident + queued on this context."""
        self.stat_acct_queries += 1
        if self.accounting == "scan":
            total = sum(k.work_remaining for k in self.resident_kernels())
            for queue in self._queues.values():
                self.stat_scan_elems += len(queue)
                total += sum(
                    k.work_remaining for _, _, k in queue if not k.aborted
                )
            return total
        total = 0.0
        for kernel in self.resident_kernels():
            total += kernel.work_remaining
        return total + self._queued_work

    def estimated_finish_time(self, now: float) -> float:
        """Crude ETA for draining the current backlog.

        Assumes the backlog runs sequentially at the composite speedup its
        kernels achieve at the context's nominal allocation — an
        intentionally simple estimate, mirroring what an online scheduler
        can actually compute cheaply.  The fast path sums the (frozen)
        queued contributions once at enqueue time and only walks the
        residents here.
        """
        self.stat_acct_queries += 1
        if self.accounting == "scan":
            kernels = self.resident_kernels() + [
                k
                for queue in self._queues.values()
                for _, _, k in queue
                if not k.aborted
            ]
            self.stat_scan_elems += sum(
                len(queue) for queue in self._queues.values()
            )
            eta = now
            for kernel in kernels:
                speedup = max(kernel.curve.speedup(self.nominal_sms), 1e-9)
                eta += kernel.setup_remaining + kernel.work_remaining / speedup
            return eta
        eta = now
        for kernel in self.resident_kernels():
            eta += (
                kernel.setup_remaining
                + kernel.work_remaining / self._nominal_speedup(kernel)
            )
        return eta + self._queued_eta

    def estimate_completion(self, kernel: StageKernel, now: float) -> float:
        """ETA for ``kernel`` if it were assigned to this context now."""
        speedup = self._nominal_speedup(kernel)
        own_time = kernel.setup_remaining + kernel.work_remaining / speedup
        if self.queue_empty() and len(self.resident_kernels()) < len(self.streams):
            # Would start immediately, sharing the partition.
            return now + own_time
        return self.estimated_finish_time(now) + own_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimContext({self.context_id}, sms={self.nominal_sms:.1f}, "
            f"resident={len(self.resident_kernels())}, queued={self.queued_count()})"
        )
