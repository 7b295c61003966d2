"""SGPRS: the paper's online phase (Section IV-B).

Context assignment (IV-B2), in order:

1. a context with an **empty queue** (ties: most free streams, lowest id);
2. among contexts whose estimated completion of this stage **meets its
   deadline**, the one with the **shortest queue** (ties: lowest id);
3. otherwise the context with the **earliest estimated finish time**
   (ties: lowest id).

Stage queuing (IV-B3) — two high- and two low-priority streams per context,
EDF within each priority level, and promotion of LOW stages to MEDIUM when
their predecessor missed its virtual deadline — is implemented by
:class:`repro.gpu.context.SimContext` and
:mod:`repro.core.priority`; this class only picks contexts and sheds stale
work.

Overload behaviour: the shared base class models the paper's deployment —
periodic client threads issuing blocking inference calls — so a release that
arrives while the task's previous frame is still in flight is dropped at the
source (a deadline miss, but no wasted GPU work).  Under SGPRS this yields
the paper's sustained FPS with a gently growing miss rate; the naive
baseline's per-partition FIFO instead pushes every job's waiting time past
the deadline soon after the pivot (the domino effect).
"""

from __future__ import annotations

from typing import Optional

from repro.core.scheduler import SchedulerBase
from repro.gpu.context import SimContext
from repro.gpu.kernel import StageKernel


class SgprsScheduler(SchedulerBase):
    """Seamless GPU Partitioning Real-time Scheduler."""

    name = "sgprs"

    def select_context(self, kernel: StageKernel) -> SimContext:
        """The paper's three-criteria context assignment.

        Each criterion breaks its ties by the lowest context id, whatever
        order the device lists its contexts in.  Queue lengths and free
        streams are read from each context's ``live_queued`` count and
        ``free_all`` view.
        """
        contexts = self.device.contexts
        best: Optional[SimContext] = None

        # 1. An empty queue: the most free streams.
        most_free = -1
        for context in contexts:
            if context.live_queued == 0:
                free = len(context.free_all)
                if free > most_free or (
                    free == most_free and context.context_id < best.context_id
                ):
                    best, most_free = context, free
        if best is not None:
            return best

        # 2. Meets the stage's deadline: the shortest queue.
        now = self.engine.now
        deadline = kernel.deadline
        shortest = 0
        for context in contexts:
            if context.estimate_completion(kernel, now) <= deadline:
                queued = context.live_queued
                if (
                    best is None
                    or queued < shortest
                    or (queued == shortest and context.context_id < best.context_id)
                ):
                    best, shortest = context, queued
        if best is not None:
            return best

        # 3. Otherwise the earliest estimated finish time.
        earliest = 0.0
        for context in contexts:
            eta = context.estimated_finish_time(now)
            if (
                best is None
                or eta < earliest
                or (eta == earliest and context.context_id < best.context_id)
            ):
                best, earliest = context, eta
        return best
