"""Workload generation, the paper's scenarios, and taskset synthesis.

* :mod:`repro.workloads.generator` — the paper's homogeneous workloads;
* :mod:`repro.workloads.scenarios` — the paper's two evaluation scenarios
  plus the combined scenario listing;
* :mod:`repro.workloads.synth` — heterogeneous taskset synthesis (model
  zoo, UUniFast utilization partitioning, period/deadline classes).
"""

from repro.workloads.generator import (
    identical_periodic_tasks,
    mixed_task_set,
    clone_task,
    template_task,
)
from repro.workloads.scenarios import (
    SCENARIO_1,
    SCENARIO_2,
    OVERSUBSCRIPTION_LEVELS,
    PAPER_SCENARIOS,
    Scenario,
    SweepPoint,
    list_all_scenarios,
    run_scenario_sweep,
    scenario_grid,
)
from repro.workloads.synth import (
    SynthScenario,
    SynthSpec,
    get_synth_scenario,
    list_synth_scenarios,
    synthesize_taskset,
)

__all__ = [
    "identical_periodic_tasks",
    "mixed_task_set",
    "clone_task",
    "template_task",
    "Scenario",
    "SCENARIO_1",
    "SCENARIO_2",
    "PAPER_SCENARIOS",
    "OVERSUBSCRIPTION_LEVELS",
    "SweepPoint",
    "run_scenario_sweep",
    "scenario_grid",
    "list_all_scenarios",
    "SynthSpec",
    "SynthScenario",
    "synthesize_taskset",
    "get_synth_scenario",
    "list_synth_scenarios",
]
