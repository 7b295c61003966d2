"""Context pool configuration (paper Section II: ``CP = {cp_1..cp_np}``).

A pool has ``np`` contexts of ``sm`` SMs each.  The evaluation
over-subscribes the pool: total nominal SMs = ``os * total_sms`` for
over-subscription level ``os`` in {1.0, 1.5, 2.0}, split evenly across the
``np`` contexts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.gpu.context import SimContext
from repro.gpu.spec import GpuDeviceSpec


@dataclass(frozen=True)
class ContextPoolConfig:
    """Sizing of a context pool.

    Attributes
    ----------
    num_contexts:
        ``np`` — number of pre-created CUDA contexts.
    sms_per_context:
        ``sm`` — nominal SMs of each context (may be fractional, mirroring
        MPS percentage-based partitioning).
    allow_stream_borrowing:
        Whether idle streams of the other hardware class may be used
        (see :class:`repro.gpu.context.SimContext`).
    """

    num_contexts: int
    sms_per_context: float
    allow_stream_borrowing: bool = True

    def __post_init__(self) -> None:
        if self.num_contexts < 1:
            raise ValueError(f"num_contexts must be >= 1, got {self.num_contexts}")
        sms = self.sms_per_context
        if not (math.isfinite(sms) and sms > 0):
            raise ValueError(
                f"sms_per_context must be finite and positive, got {sms}"
            )

    @property
    def total_nominal_sms(self) -> float:
        """Summed nominal SMs of the pool."""
        return self.num_contexts * self.sms_per_context

    def oversubscription(self, spec: GpuDeviceSpec) -> float:
        """Pool over-subscription level relative to the physical device."""
        return self.total_nominal_sms / spec.total_sms

    @classmethod
    def from_oversubscription(
        cls,
        num_contexts: int,
        oversubscription: float,
        spec: GpuDeviceSpec,
        allow_stream_borrowing: bool = True,
    ) -> "ContextPoolConfig":
        """Build the paper's pool: ``sm = os * total_sms / np``.

        ``SGPRS_1.5`` with ``np=2`` on 68 SMs gives two 51-SM contexts.
        """
        if not (math.isfinite(oversubscription) and oversubscription > 0):
            raise ValueError(
                "oversubscription must be finite and positive, got "
                f"{oversubscription}"
            )
        return cls(
            num_contexts=num_contexts,
            sms_per_context=oversubscription * spec.total_sms / num_contexts,
            allow_stream_borrowing=allow_stream_borrowing,
        )


def build_contexts(
    config: ContextPoolConfig, spec: GpuDeviceSpec
) -> List[SimContext]:
    """Instantiate the pool's simulated contexts."""
    return [
        SimContext(
            context_id=index,
            nominal_sms=config.sms_per_context,
            high_streams=spec.high_priority_streams,
            low_streams=spec.low_priority_streams,
            allow_stream_borrowing=config.allow_stream_borrowing,
        )
        for index in range(config.num_contexts)
    ]
