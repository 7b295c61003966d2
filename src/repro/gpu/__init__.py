"""Simulated GPU: SM partitioning, CUDA contexts, prioritized streams.

This package is the substitute for the paper's RTX 2080 Ti testbed.  The
model is *rate-based*: every resident kernel owns an SM share computed by
:mod:`repro.gpu.allocator`, and progresses at the speedup its stage's
composite curve assigns to that share.  Shares are recomputed whenever the
resident set changes.

Key semantics (all load-bearing for the paper's results):

* context SM allocations are **hard caps** (MPS active-thread-percentage
  style): a context can never use more than its configured share, which is
  exactly why over-subscribed pools harvest more of the GPU;
* when the configured shares of busy contexts exceed the physical SM count,
  everyone is scaled down proportionally and a contention penalty applies;
* the device has an aggregate progress ceiling (DRAM bandwidth / L2
  saturation) independent of partitioning;
* partition *reconfiguration* costs wall time — the naive baseline pays it
  on every task switch, SGPRS' pre-created pool never does (the paper's
  "zero configuration partition switch").
"""

from repro.gpu.allocator import AllocationParams, AllocationResult, compute_allocation
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.gpu.mps import ReconfigurationPolicy, SpatialReconfig, ZeroConfigPool
from repro.gpu.spec import GpuDeviceSpec, RTX_2080_TI
from repro.gpu.stream import CudaStream, StreamClass

__all__ = [
    "GpuDeviceSpec",
    "RTX_2080_TI",
    "PriorityLevel",
    "StageKernel",
    "CudaStream",
    "StreamClass",
    "SimContext",
    "GpuDevice",
    "AllocationParams",
    "AllocationResult",
    "compute_allocation",
    "ReconfigurationPolicy",
    "ZeroConfigPool",
    "SpatialReconfig",
]
