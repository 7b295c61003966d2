"""GPU speedup modelling (the paper's Section III).

The paper characterises an RTX 2080 Ti by measuring, per operation type, the
speedup gained as a function of the number of SMs assigned (Fig. 1):
convolution peaks at ~32x on 68 SMs, max pooling at ~14x, every other
ResNet18 operation stays below 7x, and the full network reaches ~23x.

This package encodes that characterization:

* :mod:`repro.speedup.model` — the one curve family: the serial-fraction
  law, calibrated (not fitted) to one Fig. 1 value per operation;
* :mod:`repro.speedup.calibration` — per-operation curve parameters and the
  single-SM baseline cost model, both calibrated to Fig. 1;
* :mod:`repro.speedup.composite` — composite curves for operator sequences
  (stages, whole networks), and the stage width demand the allocator uses;
* :mod:`repro.speedup.measure` — the isolation-measurement harness that
  regenerates Fig. 1 from the simulator.
"""

from repro.speedup.calibration import (
    DEFAULT_CALIBRATION,
    DeviceCalibration,
    operator_base_time,
    operator_curve,
    operator_width_limit,
)
from repro.speedup.composite import CompositeWorkload, composite_for_ops
from repro.speedup.measure import measure_network_speedup, measure_op_speedups
from repro.speedup.model import (
    SaturatingCurve,
    SpeedupCurve,
    WidthLimitedCurve,
    sigma_for_target,
)

__all__ = [
    "SpeedupCurve",
    "SaturatingCurve",
    "WidthLimitedCurve",
    "sigma_for_target",
    "DeviceCalibration",
    "DEFAULT_CALIBRATION",
    "operator_curve",
    "operator_base_time",
    "operator_width_limit",
    "CompositeWorkload",
    "composite_for_ops",
    "measure_op_speedups",
    "measure_network_speedup",
]
