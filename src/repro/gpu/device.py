"""The simulated GPU device: progress integration and completion events.

``GpuDevice`` ties the pieces together: contexts hold resident kernels, the
allocator assigns shares/rates, and the device integrates progress over
simulated time, firing a completion callback whenever a stage kernel
finishes.  Rates are piecewise-constant between *change points* (submit,
completion, abort); at every change point the device

1. advances each resident kernel by the elapsed time at its previous rate,
2. recomputes the allocation — unless the resident set is untouched since
   the last settle (a submit that only queued, an abort that only
   tombstoned), in which case shares, rates and every armed completion
   event are still exact and the whole pass is skipped,
3. re-arms provisional completion events **only for kernels whose rate
   actually changed** (tracked by a per-kernel rate revision the allocator
   bumps).  A kernel's completion time is anchored at the instant its rate
   last changed — ``anchor_now + time_to_completion`` — and at a constant
   rate that absolute time stays exact, so the provisional event scheduled
   then needs no churn.

This makes a change point O(changed) in engine heap operations instead of
O(resident): a busy device with K resident kernels does not pay O(K)
cancels and re-pushes on every submit/complete/abort (O(K²) events per
hyperperiod).  ``tests/gpu/test_trace_equivalence.py`` pins the traces
this produces to recorded digests.

The completion callback is the scheduler's online hook (release successor
stages, complete jobs); anything it submits or aborts is folded into the
same change point.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.gpu.allocator import (
    AllocationParams,
    AllocationResult,
    WaterfillCache,
    compute_allocation,
)
from repro.gpu.context import SimContext
from repro.gpu.kernel import StageKernel
from repro.gpu.spec import GpuDeviceSpec
from repro.sim.clock import TIME_EPS
from repro.sim.engine import Event, SimulationEngine
from repro.sim.trace import TraceRecorder
from repro.sim.trace_kinds import ALLOCATION, KERNEL_DONE, KERNEL_START

CompletionCallback = Callable[[StageKernel], None]


class GpuDevice:
    """Rate-based execution of stage kernels on a partitioned GPU.

    Parameters
    ----------
    engine:
        The discrete-event engine driving simulated time.
    spec:
        Architectural constants (SM count, stream counts, aggregate cap).
    contexts:
        The context pool.  Nominal SM totals may exceed ``spec.total_sms``
        (over-subscription); the allocator resolves the contention.
    params:
        Allocation model constants.
    trace:
        Optional trace recorder (kinds: ``kernel_start``, ``kernel_done``,
        ``allocation``).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        spec: GpuDeviceSpec,
        contexts: Sequence[SimContext],
        params: AllocationParams = AllocationParams(),
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if not contexts:
            raise ValueError("device needs at least one context")
        self.engine = engine
        self.spec = spec
        self.contexts = list(contexts)
        self._context_by_id: Dict[int, SimContext] = {}
        for context in self.contexts:
            if context.context_id in self._context_by_id:
                raise ValueError(f"duplicate context id {context.context_id}")
            self._context_by_id[context.context_id] = context
        self.params = params
        self.trace = trace
        self.on_kernel_complete: Optional[CompletionCallback] = None
        #: kernel_id -> (rate revision at arming, scheduled completion
        #: event or None when stalled).  The event itself carries the
        #: anchored absolute time.
        self._armed: Dict[int, Tuple[int, Optional[Event]]] = {}
        #: Bit-transparent memoisation of per-context water-fills.
        self._shares_cache = WaterfillCache()
        self._start_time = engine.now
        self._last_update = engine.now
        self._last_allocation = AllocationResult()
        #: Residency-revision snapshot the last allocation pass saw; an
        #: unchanged snapshot proves the pass would reproduce itself.
        self._alloc_residency_rev = -1
        self._settling = False
        self._resident_cache: List[StageKernel] = []
        self._resident_cache_rev = -1
        # Accumulated statistics
        self.total_work_done = 0.0
        self.busy_time = 0.0
        self.pressure_time_integral = 0.0
        #: Allocation passes actually computed vs. skipped as provably
        #: unchanged (observability for tests and benchmarks).
        self.alloc_passes = 0
        self.alloc_skips = 0

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def context(self, context_id: int) -> SimContext:
        """Look up a context by id (O(1))."""
        try:
            return self._context_by_id[context_id]
        except KeyError:
            raise KeyError(f"unknown context {context_id}") from None

    def submit(self, kernel: StageKernel, context: SimContext) -> None:
        """Assign a stage kernel to a context and (re)settle the device."""
        context.enqueue(kernel)
        self._settle()

    def abort(self, kernel: StageKernel) -> None:
        """Cancel a kernel wherever it is (queued or resident).

        Progress up to the abort instant is integrated *before* the kernel
        is detached, so the work an aborted kernel performed still shows in
        ``total_work_done``/``busy_time`` (the GPU cycles were spent).
        """
        self._advance_progress()
        self._abort_one(kernel)
        self._settle()

    def abort_many(self, kernels: Iterable[StageKernel]) -> None:
        """Cancel several kernels in one change point (one settle pass).

        The shedding path aborts every pending stage of a job at once;
        folding them into a single settle avoids re-dispatching and
        re-allocating between aborts that happen at the same instant.
        Like :meth:`abort`, progress is integrated before any detach.
        """
        self._advance_progress()
        for kernel in kernels:
            self._abort_one(kernel)
        self._settle()

    def _abort_one(self, kernel: StageKernel) -> None:
        kernel.aborted = True
        self._disarm(kernel.kernel_id)
        context = (
            self._context_by_id.get(kernel.context_id)
            if kernel.context_id is not None
            else None
        )
        if context is not None:
            context.remove(kernel)

    def resident_kernels(self) -> List[StageKernel]:
        """All kernels currently on streams, across contexts.

        Cached between residency changes; treat the result as read-only
        (the cache is replaced, never mutated in place, so held references
        stay stable snapshots).
        """
        rev = self._residency_rev()
        if rev != self._resident_cache_rev:
            kernels: List[StageKernel] = []
            for context in self.contexts:
                kernels.extend(context.resident_kernels())
            self._resident_cache = kernels
            self._resident_cache_rev = rev
        return self._resident_cache

    @property
    def last_allocation(self) -> AllocationResult:
        """Result of the most recent allocation pass."""
        return self._last_allocation

    # ------------------------------------------------------------------
    # Change-point handling
    # ------------------------------------------------------------------
    def _residency_rev(self) -> int:
        """Sum of the per-context residency revisions.

        Each revision is a monotone counter bumped on every attach and
        detach, so an unchanged sum proves the resident set is untouched
        (no ABA: any change strictly increases the sum).
        """
        return sum(context.residency_rev for context in self.contexts)

    def _settle(self) -> None:
        """Advance progress, dispatch queues, re-allocate, re-arm events."""
        if self._settling:
            # A nested mutation (from a completion callback) will be folded
            # into the enclosing settle pass.
            return
        self._settling = True
        try:
            self._advance_progress()
            for context in self.contexts:
                newly = context.dispatch_ready()
                if self.trace is not None:
                    for kernel in newly:
                        kernel.dispatched_at = self.engine.now
                        self.trace.record(
                            self.engine.now,
                            KERNEL_START,
                            kernel=kernel.label,
                            context=context.context_id,
                            priority=kernel.priority.name,
                        )
                else:
                    for kernel in newly:
                        kernel.dispatched_at = self.engine.now
            self._reallocate()
        finally:
            self._settling = False

    def _advance_progress(self) -> None:
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed <= 0:
            return
        aggregate = 0.0
        for kernel in self.resident_kernels():
            # advance() reports the work actually consumed: setup seconds
            # burn at rate 1 without producing work, so integrating
            # rate * elapsed would overcount any kernel mid-setup (the
            # naive scheduler's reconfiguration path).
            self.total_work_done += kernel.advance(elapsed)
            aggregate += kernel.rate
        if aggregate > 0:
            self.busy_time += elapsed
        self.pressure_time_integral += self._last_allocation.pressure * elapsed
        self._last_update = now

    def _reallocate(self) -> None:
        residency_rev = self._residency_rev()
        if residency_rev == self._alloc_residency_rev:
            # Nothing entered or left a stream since the last pass: shares,
            # rates and every armed completion event are still exact.  Only
            # the allocation trace record is emitted (from the cached
            # result, which the skipped pass would have reproduced).
            self.alloc_skips += 1
            self._record_allocation(self._last_allocation)
            return
        result = compute_allocation(
            self.contexts,
            float(self.spec.total_sms),
            self.spec.aggregate_speedup_cap,
            self.params,
            cache=self._shares_cache,
        )
        self.alloc_passes += 1
        self._last_allocation = result
        self._alloc_residency_rev = residency_rev
        self._record_allocation(result)
        for kernel in self.resident_kernels():
            record = self._armed.get(kernel.kernel_id)
            if record is not None and record[0] == kernel.rate_rev:
                # Unchanged rate: the provisional event is still exact.
                continue
            if record is not None and record[1] is not None:
                self.engine.cancel(record[1])
            self._arm(kernel, self.engine.now + kernel.time_to_completion())

    def _arm(self, kernel: StageKernel, when: float) -> None:
        """Store an arm record for ``kernel`` completing at absolute ``when``."""
        if when == float("inf"):
            # Stalled (zero rate): no event, but remember the revision so
            # the kernel is only revisited when its rate moves.
            self._armed[kernel.kernel_id] = (kernel.rate_rev, None)
            return
        event = self.engine.schedule_at(
            max(when, self.engine.now),
            lambda k=kernel: self._on_completion(k),
            tag=f"complete:{kernel.label}",
        )
        self._armed[kernel.kernel_id] = (kernel.rate_rev, event)

    def _disarm(self, kernel_id: int) -> None:
        record = self._armed.pop(kernel_id, None)
        if record is not None and record[1] is not None:
            self.engine.cancel(record[1])

    def _record_allocation(self, result: AllocationResult) -> None:
        if self.trace is not None:
            self.trace.record(
                self.engine.now,
                ALLOCATION,
                pressure=round(result.pressure, 4),
                aggregate_rate=round(result.aggregate_rate, 3),
                resident=len(result.rates),
            )

    def _on_completion(self, kernel: StageKernel) -> None:
        self._armed.pop(kernel.kernel_id, None)
        self._advance_progress()
        if kernel.aborted:
            return
        if not kernel.is_complete:
            residual = kernel.time_to_completion()
            if residual < TIME_EPS:
                # Residual below the simulator's time resolution: finishing
                # "now" is indistinguishable from finishing 1 ns from now,
                # and re-arming would spin at the current instant forever.
                kernel.force_complete()
            else:
                # Accumulated per-step rounding left real residual work (the
                # anchored completion time undershot): re-arm this kernel at
                # its remaining time; rates are unchanged.
                self._arm(kernel, self.engine.now + residual)
                return
        context = self.context(kernel.context_id)
        context.remove(kernel)
        if self.trace is not None:
            self.trace.record(
                self.engine.now,
                KERNEL_DONE,
                kernel=kernel.label,
                context=context.context_id,
            )
        callback = self.on_kernel_complete
        self._settling = True
        try:
            if callback is not None:
                callback(kernel)
        finally:
            self._settling = False
        self._settle()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def utilization(self, now: Optional[float] = None) -> float:
        """Busy fraction of wall time since the device was constructed.

        The span is measured from the construction time, not from time 0 —
        they differ for engines created with a nonzero ``start_time``.
        """
        now = self.engine.now if now is None else now
        elapsed = now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    def mean_pressure(self, now: Optional[float] = None) -> float:
        """Time-averaged over-subscription pressure since construction."""
        now = self.engine.now if now is None else now
        elapsed = now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self.pressure_time_integral / elapsed
