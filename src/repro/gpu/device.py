"""The simulated GPU device: progress integration and completion events.

``GpuDevice`` ties the pieces together: contexts hold resident kernels, the
allocator assigns shares/rates, and the device integrates progress over
simulated time, firing a completion callback whenever a stage kernel
finishes.  Rates are piecewise-constant between *change points* (submit,
completion, abort); at every change point the device

1. advances each resident kernel by the elapsed time at its previous rate,
   walking each context's ``residents`` view (kept current at every
   attach/detach),
2. recomputes the allocation — unless the resident set is untouched since
   the last settle (a submit that only queued, an abort that only
   dropped a queued stage), in which case shares, rates and every completion anchor
   are still exact and the whole pass is skipped,
3. re-anchors the completion **only of the kernels the allocator reports
   as changed** (``AllocationResult.changed``: their rate moved, or they
   were just dispatched), in resident order.  A kernel's completion anchor
   ``(when, stamp)`` is fixed at the instant its rate last changed —
   ``when = anchor_now + time_to_completion``, exact for as long as the
   rate stays constant — and ``stamp`` is an engine order stamp reserved
   at that instant.  A stalled (zero-rate) kernel has no anchor.

The device holds **one** engine event, at the smallest ``(when, stamp)``
anchor, and moves it only when that minimum changes.  A settle that
rescales every survivor's rate (a saturated aggregate ceiling, rising
over-subscription pressure) therefore costs O(resident) anchor writes but
at most one engine cancel and one heap push, instead of one of each per
survivor.  Because every anchor reserves its stamp exactly where a
per-kernel push would have taken a sequence number, the event pops in the
same order, with the same same-time tie-breaks, as one event per kernel
would.  ``tests/gpu/test_trace_equivalence.py`` pins the traces this
produces to recorded digests.

The completion callback is the scheduler's online hook (release successor
stages, complete jobs); anything it submits or aborts is folded into the
same change point.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.gpu.allocator import (
    AllocationParams,
    AllocationResult,
    compute_allocation,
)
from repro.gpu.context import SimContext
from repro.gpu.kernel import PRIORITY_NAMES, StageKernel
from repro.gpu.spec import GpuDeviceSpec
from repro.sim.clock import TIME_EPS
from repro.sim.engine import Event, SimulationEngine
from repro.sim.trace import TraceRecorder
from repro.sim.trace_kinds import ALLOCATION, KERNEL_DONE, KERNEL_START

CompletionCallback = Callable[[StageKernel], None]

_INF = float("inf")


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
        #: kernel_id -> completion anchor ``(when, stamp, kernel)``: the
        #: absolute completion time and the engine order stamp reserved for
        #: it.  One entry per resident kernel with a nonzero rate (a stalled
        #: kernel has none); stamps are unique, so the minimum anchor never
        #: compares kernels.
        self._armed: Dict[int, Tuple[float, int, StageKernel]] = {}
        #: The device's one engine event, pending at the smallest
        #: ``(when, stamp)`` anchor, and the kernel that anchor belongs to.
        self._event: Optional[Event] = None
        self._event_kernel: Optional[StageKernel] = None
        self._start_time = engine.now
        self._last_update = engine.now
        self._last_allocation = AllocationResult()
        #: Residency-revision snapshot the last allocation pass saw; an
        #: unchanged snapshot proves the pass would reproduce itself.
        self._alloc_residency_rev = -1
        self._settling = False
        # Accumulated statistics
        self.total_work_done = 0.0
        self.busy_time = 0.0
        self.pressure_time_integral = 0.0
        #: Allocation passes actually computed vs. skipped as provably
        #: unchanged (observability for tests and benchmarks).
        self.alloc_passes = 0
        self.alloc_skips = 0
        #: Completion anchors written and device events fired.
        self.arms = 0
        self.completions = 0

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
        context = (
            self._context_by_id.get(kernel.context_id)
            if kernel.context_id is not None
            else None
        )
        if context is not None:
            context.remove(kernel)
        # Detached first: re-pointing the device event must not re-anchor it.
        self._disarm(kernel)

    # ------------------------------------------------------------------
    # Change-point handling
    # ------------------------------------------------------------------
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
                            priority=PRIORITY_NAMES[kernel.priority],
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
        work_done = self.total_work_done
        for context in self.contexts:
            for kernel in context.residents:
                # advance() reports the work actually consumed: setup
                # seconds burn at rate 1 without producing work, so
                # integrating rate * elapsed would overcount any kernel
                # mid-setup (the naive scheduler's reconfiguration path).
                work_done += kernel.advance(elapsed)
                aggregate += kernel.rate
        self.total_work_done = work_done
        if aggregate > 0:
            self.busy_time += elapsed
        self.pressure_time_integral += self._last_allocation.pressure * elapsed
        self._last_update = now

    def _reallocate(self) -> None:
        # The sum of the per-context residency revisions.  Each is a
        # monotone counter bumped on every attach and detach, so an
        # unchanged sum proves the resident set is untouched (no ABA: any
        # change strictly increases the sum).
        residency_rev = 0
        for context in self.contexts:
            residency_rev += context.residency_rev
        if residency_rev == self._alloc_residency_rev:
            # Nothing entered or left a stream since the last pass: shares,
            # rates and every completion anchor are still exact.  Only
            # the allocation trace record is emitted (from the cached
            # result, which the skipped pass would have reproduced).
            self.alloc_skips += 1
            if self.trace is not None:
                self._record_allocation(self._last_allocation)
            return
        result = compute_allocation(
            self.contexts,
            float(self.spec.total_sms),
            self.spec.aggregate_speedup_cap,
            self.params,
        )
        self.alloc_passes += 1
        self._last_allocation = result
        self._alloc_residency_rev = residency_rev
        if self.trace is not None:
            self._record_allocation(result)
        self._rearm(result.changed)

    def _rearm(self, kernels: Sequence[StageKernel]) -> None:
        """Anchor ``kernels`` at their current rates, in order, and keep
        the device event at the smallest ``(when, stamp)`` anchor.

        Every write to the anchor table ends here before control returns
        to the engine.  Each finite anchor reserves an engine order stamp,
        exactly where a push of its own would take a sequence number, so
        stamps follow the order of ``kernels`` (resident order).  A
        stalled kernel takes no stamp and drops its anchor: it is anchored
        again when its rate moves.  The event moves (one cancel, one push)
        only when the minimum changed.
        """
        engine = self.engine
        now = engine.now
        armed = self._armed
        self.arms += len(kernels)
        for kernel in kernels:
            when = now + kernel.time_to_completion()
            if when == _INF:
                armed.pop(kernel.kernel_id, None)
                continue
            if when != when:
                raise ValueError("when must not be NaN")
            if when < now:
                when = now
            armed[kernel.kernel_id] = (when, engine.reserve_seq(), kernel)
        event = self._event
        if not armed:
            if event is not None:
                engine.cancel(event)
            self._event = self._event_kernel = None
            return
        when, stamp, owner = min(armed.values())
        if event is not None:
            if event.seq == stamp:
                return
            engine.cancel(event)
        self._event_kernel = owner
        self._event = engine.schedule_at_seq(
            when, stamp, self._on_completion, f"complete:{owner.label}"
        )

    def _disarm(self, kernel: StageKernel) -> None:
        """Drop a detached kernel's anchor; move the event if it owned it."""
        if (
            self._armed.pop(kernel.kernel_id, None) is not None
            and kernel is self._event_kernel
        ):
            self._rearm(())

    def _record_allocation(self, result: AllocationResult) -> None:
        """Record an allocation pass; called only when a trace is kept."""
        self.trace.record(
            self.engine.now,
            ALLOCATION,
            pressure=round(result.pressure, 4),
            aggregate_rate=round(result.aggregate_rate, 3),
            resident=result.resident,
        )

    def _on_completion(self) -> None:
        """The device event fired: its owner reached its anchored time."""
        kernel = self._event_kernel
        self._event = None
        self.completions += 1
        del self._armed[kernel.kernel_id]
        self._advance_progress()
        if not kernel.is_complete:
            residual = kernel.time_to_completion()
            if residual < TIME_EPS:
                # Residual below the simulator's time resolution: finishing
                # "now" is indistinguishable from finishing 1 ns from now,
                # and re-arming would spin at the current instant forever.
                kernel.force_complete()
            else:
                # Accumulated per-step rounding left real residual work (the
                # anchored completion time undershot): re-anchor this kernel
                # at its remaining time; rates are unchanged.
                self._rearm((kernel,))
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
