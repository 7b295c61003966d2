"""SGPRS reproduction: Seamless GPU Partitioning Real-Time Scheduler.

Full reproduction of Babaei & Chantem, DATE 2024 (arXiv:2406.09425) on a
calibrated discrete-event GPU simulator.  The command-line tour is the
:mod:`repro.cli` docstring (``python -m repro --help``); ROADMAP.md at the
repository root maps where each part lives.
"""

from repro.core import (
    ContextPoolConfig,
    NaiveScheduler,
    RunConfig,
    RunResult,
    SgprsScheduler,
    StageSpec,
    TaskSet,
    TaskSpec,
    prepare_task,
    run_simulation,
)
from repro.dnn import build_mlp, build_resnet18, build_resnet34, build_simple_cnn
from repro.gpu import RTX_2080_TI, GpuDeviceSpec
from repro.speedup import DEFAULT_CALIBRATION, DeviceCalibration
from repro.workloads import (
    SCENARIO_1,
    SCENARIO_2,
    identical_periodic_tasks,
    mixed_task_set,
    run_scenario_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TaskSpec",
    "StageSpec",
    "TaskSet",
    "prepare_task",
    "ContextPoolConfig",
    "SgprsScheduler",
    "NaiveScheduler",
    "RunConfig",
    "RunResult",
    "run_simulation",
    "build_resnet18",
    "build_resnet34",
    "build_simple_cnn",
    "build_mlp",
    "GpuDeviceSpec",
    "RTX_2080_TI",
    "DeviceCalibration",
    "DEFAULT_CALIBRATION",
    "identical_periodic_tasks",
    "mixed_task_set",
    "SCENARIO_1",
    "SCENARIO_2",
    "run_scenario_sweep",
]
