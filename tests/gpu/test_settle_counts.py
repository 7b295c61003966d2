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
* ``engine.scheduled_count``: heap pushes, at most one per settle;
* Python-level calls (``sys.setprofile`` ``call`` events) made inside
  ``SimulationEngine.run_until``: the interpreter work per simulated
  event.  Heap order, enum hashing, enum names and the residency views
  cost no Python call.  The bound is an upper one because the count falls
  when an earlier test already filled the process-wide composite-curve
  memo.

A change that moves any of these on purpose states the new count and why.
"""

import collections
import os
import sys

import pytest

from repro.core import runner
from repro.exp import worker
from repro.exp.grid import GridPoint
from repro.gpu import allocator
from repro.gpu.device import GpuDevice
from repro.sim.engine import SimulationEngine


@pytest.fixture
def settle_counts(monkeypatch):
    """Run the point and return its result and device, the water-fill
    count and the Python-level calls made inside ``run_until``, by file."""
    devices = []
    fills = []
    calls = collections.Counter()

    class CapturedDevice(GpuDevice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            devices.append(self)

    waterfill = allocator.intra_context_shares

    def counted(kernels, nominal_sms):
        fills.append(len(kernels))
        return waterfill(kernels, nominal_sms)

    run_until = SimulationEngine.run_until

    def profiled(engine, horizon, max_events=None):
        def count(frame, event, arg):
            if event == "call":
                calls[os.path.basename(frame.f_code.co_filename)] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return run_until(engine, horizon, max_events)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(runner, "GpuDevice", CapturedDevice)
    monkeypatch.setattr(allocator, "intra_context_shares", counted)
    monkeypatch.setattr(SimulationEngine, "run_until", profiled)
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
    return result, device, len(fills), calls


def test_overloaded_point_settle_counts(settle_counts):
    result, device, waterfills, _ = settle_counts
    assert (result.released, result.completed) == (270, 211)
    assert waterfills == 1676
    assert device.alloc_passes == 1532
    assert device.alloc_skips == 0
    assert device.arms == 29642
    assert device.completions == 1304
    assert device.engine.scheduled_count == 1801
    assert device.engine.processed_count == 1574


def test_overloaded_point_python_calls(settle_counts):
    """The 1,574 events take at most 280,000 Python-level calls (255,919
    on CPython 3.11, 249,727 on 3.12 and 3.13, run alone), none of them
    into the ``enum`` module.  When the heap compared ``Event`` objects
    and the contexts re-validated cached views at every query, they took
    342,335 (334,425), 8,993 of them in ``enum``: 6,351 ``Enum.__hash__``
    calls and 1,321 ``Enum.name`` reads through its descriptor."""
    _, device, _, calls = settle_counts
    assert device.engine.processed_count == 1574
    assert calls["enum.py"] == 0
    assert sum(calls.values()) <= 280_000
