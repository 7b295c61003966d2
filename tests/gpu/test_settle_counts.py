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
  event.  Heap order, enum hashing, enum names, the residency views, the
  engine's clock and SGPRS's queue and free-stream reads cost no Python
  call.  The bound is an upper one because the count falls when an
  earlier test already filled the process-wide composite-curve memo;
* the cyclic garbage a finished run leaves: only the jobs still in
  flight at the horizon, never a finished stage, the scheduler or its
  metrics.

A change that moves any of these on purpose states the new count and why.
"""

import collections
import gc
import os
import sys

import pytest

from repro.core import runner
from repro.core.scheduler import JobInstance, SchedulerBase, StageInstance
from repro.exp import worker
from repro.exp.grid import GridPoint
from repro.gpu import allocator
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import StageKernel
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import JobRecord, MetricsCollector, StageRecord

POINT = GridPoint(
    scenario="contexts8",
    num_contexts=8,
    variant="sgprs_2",
    num_tasks=30,
    seed=1,
    base_seed=1,
    duration=0.3,
    warmup=0.075,
)


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
    result = worker.run_point(POINT)
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
    """The 1,574 events take at most 190,000 Python-level calls (174,075
    on CPython 3.11, 169,204 on 3.12 and 3.13, run alone), none of them
    into the ``enum`` module.  While the engine's clock was a property,
    the device summed the residency revisions through a generator and
    SGPRS asked every context for its queue and free streams through
    methods, they took 255,919 (249,727).  When the heap compared
    ``Event`` objects and the contexts re-validated cached views at every
    query, they took 342,335 (334,425), 8,993 of them in ``enum``: 6,351
    ``Enum.__hash__`` calls and 1,321 ``Enum.name`` reads through its
    descriptor."""
    _, device, _, calls = settle_counts
    assert device.engine.processed_count == 1574
    assert calls["enum.py"] == 0
    assert sum(calls.values()) <= 190_000


def test_finished_run_leaves_only_inflight_jobs_to_the_collector():
    """Reference counting frees whatever the run finished with.

    A completed or shed stage is unlinked from its job and its kernel,
    and ``run_simulation`` drops the scheduler's callbacks when the run
    ends, so the scheduler and its metrics leave no cycle.  What the
    cycle collector still finds is the engine/device cycle and the jobs
    in flight at the horizon, at most one per task (17 here).  When
    every finished stage stayed cyclic, this point left 6,383 objects:
    1,321 of each stage type and all 270 ``JobRecord``s.
    """
    flags = gc.get_debug()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    saved = len(gc.garbage)
    try:
        worker.run_point(POINT)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = gc.garbage[saved:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()

    def found(cls):
        return sum(1 for obj in garbage if isinstance(obj, cls))

    assert found(JobRecord) == 0
    assert found(MetricsCollector) == 0
    assert found(SchedulerBase) == 0
    for cls in (JobInstance, StageInstance, StageKernel, StageRecord):
        assert found(cls) <= POINT.num_tasks, cls.__name__
