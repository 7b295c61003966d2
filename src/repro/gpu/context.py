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

**Incremental accounting.**  The online phase queries this layer on every
release and every settle — the live queue count (``live_queued``), the
free-stream views and ``estimate_completion`` / ``estimated_finish_time``
for SGPRS's context assignment, the free-stream views for stream
picking, ``dispatch_ready`` at every device change point.  None of them
scans the wait queues; the answers are maintained as the queues and
streams change:

* a **live count** and aggregate **backlog accumulators**
  (queued single-SM work; queued ETA seconds at the context's nominal
  speedup) updated at enqueue / pop / remove time, so the accounting
  queries (``queued_count`` / ``queue_empty`` / ``backlog_work`` /
  ``estimated_finish_time``) are O(1) plus an O(#streams) walk over
  residents, and ``live_queued`` is a plain attribute.
  Enqueueing stores the kernel's speedup at the nominal SMs on the
  kernel (``nominal_speedup``), so the walk over residents never
  queries a curve;
* **residency views kept current at attach/detach**: every stream
  attach or detach bumps ``residency_rev`` — the revision the device
  uses to skip allocation passes — and rebuilds, as new lists,
  ``residents`` (the resident kernels in stream-index order),
  ``free_high``, ``free_low`` and ``free_all`` (the idle streams of each
  hardware class and of both).  The device, the allocator and stream
  picking read them as plain attributes; a query never rebuilds or
  re-validates anything, and a held reference stays a snapshot;
* the allocator's last **water-fill** of the partition (``fill_rev``,
  ``fill_shares``, ``fill_granted``), keyed on the same revision, so an
  allocation pass re-fills only the contexts whose residents moved;
* a **batched** ``dispatch_ready`` that fills every free slot of a level
  in one pass, highest level first.  Dispatching only ever *consumes*
  streams, so a level found blocked stays blocked for the rest of the
  pass; its stages are never popped, so a blocked stage keeps its EDF
  FIFO rank among equal deadlines;
* **only queued stages in the per-level EDF heaps**, so a level's heap
  length is its count: :meth:`SimContext.remove` takes a shed stage's
  entry out at once (found by identity, deleted, the heap re-heapified),
  as :meth:`repro.sim.engine.SimulationEngine.cancel` does for events.
  ``(deadline, seq)`` keys are unique, so the survivors pop in exactly
  the order they would have.

Float caveat, deliberate: the accumulators produce the values a re-sum of
the queued stages would *up to summation order* — an accumulator that
adds and subtracts contributions is not bit-identical to re-summing the
survivors.  The estimates feed SGPRS placement heuristics only, they are
deterministic (so traces and their recorded digests are reproducible),
and the accumulators are reset to exactly 0.0 whenever the queues drain,
bounding drift.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.stream import PREFERRED_CLASS, CudaStream, StreamClass

_QUEUE_SEQ = itertools.count()

#: Dispatch walks levels highest-first.
_LEVELS_DESC: Tuple[PriorityLevel, ...] = tuple(
    sorted(PriorityLevel, reverse=True)
)


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
    """

    def __init__(
        self,
        context_id: int,
        nominal_sms: float,
        high_streams: int = 2,
        low_streams: int = 2,
        allow_stream_borrowing: bool = True,
    ) -> None:
        if not (math.isfinite(nominal_sms) and nominal_sms > 0):
            raise ValueError(
                f"nominal_sms must be finite and positive, got {nominal_sms}"
            )
        self.context_id = context_id
        self.nominal_sms = nominal_sms
        self.allow_stream_borrowing = allow_stream_borrowing
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
        #: settle, and the water-fill below is keyed on it.
        self.residency_rev = 0
        #: Residency views, rebuilt as new lists at every attach/detach
        #: and read-only for everyone else: ``residents`` (the resident
        #: kernels in stream-index order), and ``free_high``, ``free_low``
        #: and ``free_all`` (the idle streams of each hardware class and of
        #: both, in stream-index order).
        self._build_views()
        #: The allocator's last water-fill of this partition: each
        #: resident's share of ``nominal_sms`` (in resident order), their
        #: sum, and the ``residency_rev`` it was computed at.  The split
        #: depends only on the residents' weights and width demands and on
        #: ``nominal_sms``, none of which change while a kernel is
        #: resident, so an equal revision proves the fill still holds.
        self.fill_rev = -1
        self.fill_shares: List[float] = []
        self.fill_granted = 0.0
        # Incremental queue accounting.
        #: Stages waiting for a stream, over all levels: the count
        #: ``queued_count()`` answers, kept current at enqueue / pop /
        #: remove time and read-only for everyone else.
        self.live_queued = 0
        #: kernel_id -> (level, queued work, queued ETA contribution); the
        #: exact floats added to the accumulators, so unregistering
        #: subtracts precisely what was added.
        self._queued_entry: Dict[int, Tuple[PriorityLevel, float, float]] = {}
        self._queued_work = 0.0
        self._queued_eta = 0.0
        #: Identity of the task whose state the partition is configured for;
        #: used by reconfiguration policies (naive pays to change it).
        self.configured_task: Optional[str] = None
        # Observability counters (deterministic work counts).
        #: Accounting queries answered: calls of ``queued_count`` (which
        #: ``queue_empty`` and ``is_idle`` make), ``backlog_work`` and
        #: ``estimated_finish_time``.  SGPRS's context assignment reads
        #: ``live_queued`` and ``free_all`` directly, so only its ETAs
        #: count: ``estimate_completion`` asks ``estimated_finish_time``
        #: when the stage could not start at once, and the earliest-ETA
        #: fallback asks every context.
        self.stat_acct_queries = 0

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
        """``kernel.curve.speedup(nominal_sms)``, floored away from zero.

        Composite curves memoise their own speedups, so this is a lookup
        after the first query of each curve.
        """
        return max(kernel.curve.speedup(self.nominal_sms), 1e-9)

    def _register_queued(self, kernel: StageKernel) -> None:
        """Fold a newly queued stage into the count and accumulators.

        A queued stage's ``work_remaining`` and ``setup_remaining`` are
        frozen until it is dispatched (only residents advance), so its
        contribution is computed once here and stored for exact removal.
        Its nominal speedup is kept on the kernel for the estimates that
        walk the residents once it is dispatched.
        """
        level = kernel.priority
        work = kernel.work_remaining
        kernel.nominal_speedup = speedup = self._nominal_speedup(kernel)
        eta = kernel.setup_remaining + work / speedup
        self._queued_entry[kernel.kernel_id] = (level, work, eta)
        self.live_queued += 1
        self._queued_work += work
        self._queued_eta += eta

    def _unregister_queued(self, kernel: StageKernel) -> Optional[PriorityLevel]:
        """Remove a stage's contribution and return its level; ``None``
        if it was not queued.

        When the last queued stage leaves, the accumulators are reset to
        exactly 0.0 so add/subtract rounding residue cannot accumulate
        across backlog episodes.
        """
        entry = self._queued_entry.pop(kernel.kernel_id, None)
        if entry is None:
            return None
        level, work, eta = entry
        self.live_queued -= 1
        if self.live_queued == 0:
            self._queued_work = 0.0
            self._queued_eta = 0.0
        else:
            self._queued_work -= work
            self._queued_eta -= eta
        return level

    def queued_count(self, level: Optional[PriorityLevel] = None) -> int:
        """Stages waiting for a stream (optionally at one level)."""
        self.stat_acct_queries += 1
        if level is not None:
            return len(self._queues[level])
        return self.live_queued

    def queue_empty(self) -> bool:
        """Whether no stage is waiting for a stream."""
        return self.queued_count() == 0

    def is_idle(self) -> bool:
        """Whether the context has no resident and no queued stage."""
        return not self.residents and self.queue_empty()

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def _on_residency_change(self) -> None:
        """Stream attach/detach hook: bump the revision, rebuild the views."""
        self.residency_rev += 1
        self._build_views()

    def _build_views(self) -> None:
        """Rebuild the residency views from the streams, as new lists.

        The stream-index ordering of ``residents`` is load-bearing: the
        allocator's order-sensitive float sums accumulate in this order,
        so changing it changes traces.
        """
        residents: List[StageKernel] = []
        high: List[CudaStream] = []
        low: List[CudaStream] = []
        free: List[CudaStream] = []
        for stream in self.streams:
            kernel = stream.kernel
            if kernel is not None:
                residents.append(kernel)
                continue
            free.append(stream)
            if stream.stream_class is StreamClass.HIGH:
                high.append(stream)
            else:
                low.append(stream)
        self.residents = residents
        self.free_high = high
        self.free_low = low
        self.free_all = free

    def resident_kernels(self) -> List[StageKernel]:
        """Kernels currently occupying streams, in stream-index order.

        The :attr:`residents` view: read-only, and replaced by a new list
        at the next attach/detach.
        """
        return self.residents

    def free_streams(self) -> List[CudaStream]:
        """Idle streams of either hardware class, in stream-index order.

        The :attr:`free_all` view: read-only, and replaced by a new list
        at the next attach/detach.
        """
        return self.free_all

    def free_stream_count(self) -> int:
        """Number of idle streams."""
        return len(self.free_all)

    @property
    def stat_free_builds(self) -> int:
        """Residency-view rebuilds: one per attach/detach, so always
        equal to :attr:`residency_rev`."""
        return self.residency_rev

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch_ready(self) -> List[StageKernel]:
        """Move queued stages onto free streams; return those dispatched.

        Highest priority level first, EDF within a level.  Each stage takes
        an idle stream of its preferred hardware class, falling back to the
        other class when borrowing is enabled.

        All free slots of a level are filled in one batched pass:
        dispatching only consumes streams, so once a level is blocked (no
        stream its stages may use) it stays blocked for the remainder of
        the pass.  Blocked stages are never popped, so their EDF FIFO
        position is preserved by construction.
        """
        if self.live_queued == 0:
            return []
        dispatched: List[StageKernel] = []
        for level in _LEVELS_DESC:
            queue = self._queues[level]
            while queue:
                stream = self._pick_stream(level)
                if stream is None:
                    break  # blocked level: lower ones may use other classes
                kernel = heapq.heappop(queue)[2]
                self._unregister_queued(kernel)
                stream.attach(kernel)
                dispatched.append(kernel)
        return dispatched

    def _pick_stream(self, level: PriorityLevel) -> Optional[CudaStream]:
        if PREFERRED_CLASS[level] is StreamClass.HIGH:
            candidates = self.free_high
        else:
            candidates = self.free_low
        if not candidates and self.allow_stream_borrowing:
            candidates = self.free_all
        return candidates[0] if candidates else None

    def remove(self, kernel: StageKernel) -> None:
        """Detach a kernel wherever it lives (stream or queue).

        A queued stage leaves its level's heap at once: its entry, found
        by identity, is deleted and the heap re-heapified.  The count and
        accumulators are settled with it.
        """
        for stream in self.streams:
            if stream.kernel is kernel:
                stream.detach()
                return
        level = self._unregister_queued(kernel)
        if level is None:
            return
        queue = self._queues[level]
        index = next(i for i, entry in enumerate(queue) if entry[2] is kernel)
        del queue[index]
        heapq.heapify(queue)

    # ------------------------------------------------------------------
    # Estimates used by the SGPRS context-assignment policy
    # ------------------------------------------------------------------
    def backlog_work(self) -> float:
        """Single-SM seconds of work resident + queued on this context."""
        self.stat_acct_queries += 1
        total = 0.0
        for kernel in self.residents:
            total += kernel.work_remaining
        return total + self._queued_work

    def estimated_finish_time(self, now: float) -> float:
        """Crude ETA for draining the current backlog.

        Assumes the backlog runs sequentially at the composite speedup its
        kernels achieve at the context's nominal allocation — an
        intentionally simple estimate, mirroring what an online scheduler
        can actually compute cheaply.  The (frozen) queued contributions
        are summed once at enqueue time; only the residents are walked
        here, at the nominal speedup each was enqueued with.
        """
        self.stat_acct_queries += 1
        eta = now
        for kernel in self.residents:
            eta += (
                kernel.setup_remaining
                + kernel.work_remaining / kernel.nominal_speedup
            )
        return eta + self._queued_eta

    def estimate_completion(self, kernel: StageKernel, now: float) -> float:
        """ETA for ``kernel`` if it were assigned to this context now."""
        speedup = self._nominal_speedup(kernel)
        own_time = kernel.setup_remaining + kernel.work_remaining / speedup
        if self.live_queued == 0 and len(self.residents) < len(self.streams):
            # Would start immediately, sharing the partition.
            return now + own_time
        return self.estimated_finish_time(now) + own_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimContext({self.context_id}, sms={self.nominal_sms:.1f}, "
            f"resident={len(self.residents)}, queued={self.queued_count()})"
        )
