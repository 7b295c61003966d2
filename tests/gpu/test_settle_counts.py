"""Exact settle-path work counts on a paper-shaped overloaded point.

One ``sgprs_2`` point with 8 contexts x 30 periodic tasks (the
``overloaded_8x30`` benchmark workload at a shorter horizon) runs every
change point of the settle path thousands of times.  The counts below
are deterministic, so any change to how much work a settle does shows up
here as an exact difference, before any wall-clock measurement:

* water-fills: ``intra_context_shares`` runs only for a context whose
  residents moved since its last fill (``SimContext.fill_rev``), 1,676
  times here, where a fill of every occupied context per pass would take
  12,094;
* ``GpuDevice.arms``: completion anchors written, one per kernel whose
  rate moved;
* ``alloc_passes``: allocation passes computed;
* ``engine.scheduled_count``: heap pushes, at most one per settle.

A change that moves any of these on purpose states the new count and why.
"""

import pytest

from repro.core import runner
from repro.exp import worker
from repro.exp.grid import GridPoint
from repro.gpu import allocator
from repro.gpu.device import GpuDevice


@pytest.fixture
def settle_counts(monkeypatch):
    """Run the point and return its device, with the water-fill count."""
    devices = []
    fills = []

    class CapturedDevice(GpuDevice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            devices.append(self)

    waterfill = allocator.intra_context_shares

    def counted(kernels, nominal_sms):
        fills.append(len(kernels))
        return waterfill(kernels, nominal_sms)

    monkeypatch.setattr(runner, "GpuDevice", CapturedDevice)
    monkeypatch.setattr(allocator, "intra_context_shares", counted)
    point = GridPoint(
        scenario="contexts8",
        num_contexts=8,
        variant="sgprs_2",
        num_tasks=30,
        seed=1,
        base_seed=1,
        duration=0.3,
        warmup=0.075,
    )
    result = worker.run_point(point)
    (device,) = devices
    return result, device, len(fills)


def test_overloaded_point_settle_counts(settle_counts):
    result, device, waterfills = settle_counts
    assert (result.released, result.completed) == (270, 211)
    assert waterfills == 1676
    assert device.alloc_passes == 1532
    assert device.alloc_skips == 0
    assert device.arms == 29642
    assert device.completions == 1304
    assert device.engine.scheduled_count == 1801
    assert device.engine.processed_count == 1574
