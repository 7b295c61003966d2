"""CUDA stream model.

Each context owns a small fixed set of streams (the paper: two
hardware-high-priority and two hardware-low-priority streams, capping
concurrency at four stages per context).  A stream holds at most one
resident stage kernel at a time; queued stages wait in the context's
priority queues until a stream frees up.

A stream created by a :class:`~repro.gpu.context.SimContext` carries a
back-reference to its owner; :meth:`CudaStream.attach` and
:meth:`CudaStream.detach` notify the owner so its residency revision and
residency views (resident kernels, idle streams) can never go stale, no
matter which code path moved the kernel.  Bare streams (``owner=None``,
as unit tests build them) skip the notification.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.gpu.kernel import PriorityLevel, StageKernel


class StreamClass(enum.Enum):
    """Hardware priority class of a CUDA stream."""

    HIGH = "high"
    LOW = "low"


#: Which hardware stream class each scheduler priority level prefers.
#: HIGH stages target high-priority streams; MEDIUM and LOW stages target
#: low-priority streams (MEDIUM is a scheduler-level promotion, not a
#: hardware class — the paper adds it on top of the two stream classes).
PREFERRED_CLASS = {
    PriorityLevel.HIGH: StreamClass.HIGH,
    PriorityLevel.MEDIUM: StreamClass.LOW,
    PriorityLevel.LOW: StreamClass.LOW,
}


class CudaStream:
    """One stream: a slot that executes at most one stage kernel."""

    def __init__(
        self,
        stream_id: int,
        stream_class: StreamClass,
        owner: Optional[object] = None,
    ) -> None:
        self.stream_id = stream_id
        self.stream_class = stream_class
        self.kernel: Optional[StageKernel] = None
        #: Owning context (or ``None`` for bare streams); attach/detach
        #: notify it so its residency views stay exact.
        self.owner = owner

    @property
    def busy(self) -> bool:
        """Whether a kernel is resident on this stream."""
        return self.kernel is not None

    def attach(self, kernel: StageKernel) -> None:
        """Make ``kernel`` resident.

        Raises
        ------
        RuntimeError
            If the stream is already busy.
        """
        if self.kernel is not None:
            raise RuntimeError(
                f"stream {self.stream_id} is busy with {self.kernel.label!r}"
            )
        self.kernel = kernel
        kernel.stream_id = self.stream_id
        if self.owner is not None:
            self.owner._on_residency_change()

    def detach(self) -> StageKernel:
        """Remove and return the resident kernel.

        Raises
        ------
        RuntimeError
            If the stream is idle.
        """
        if self.kernel is None:
            raise RuntimeError(f"stream {self.stream_id} is idle")
        kernel = self.kernel
        self.kernel = None
        kernel.stream_id = None
        if self.owner is not None:
            self.owner._on_residency_change()
        return kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.kernel.label if self.kernel else "idle"
        return f"CudaStream({self.stream_id}, {self.stream_class.value}, {state})"
