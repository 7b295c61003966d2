"""The paper's two evaluation scenarios (Section V).

Scenario 1: a pool of **two** contexts; Scenario 2: a pool of **three**.
Each scenario runs the naive baseline plus SGPRS at over-subscription
levels 1.0x, 1.5x and 2.0x, sweeping the number of identical ResNet18
tasks and reporting total FPS (Figs. 3a/4a) and deadline miss rate
(Figs. 3b/4b).

Execution is delegated to the parallel sweep harness in
:mod:`repro.exp`: :func:`run_scenario_sweep` builds a
:class:`~repro.exp.grid.GridSpec` and runs it with optional worker
sharding, on-disk caching and seed replication; ``workers=0`` with a
single seed reproduces the historical serial behaviour bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exp.grid import GridSpec
from repro.exp.runner import run_grid
from repro.workloads.generator import DEFAULT_NUM_STAGES
from repro.workloads.synth.scenarios import list_synth_scenarios

#: The over-subscription levels the paper evaluates (SGPRS_os notation).
OVERSUBSCRIPTION_LEVELS: Tuple[float, ...] = (1.0, 1.5, 2.0)


@dataclass(frozen=True)
class Scenario:
    """One evaluation scenario: a context pool size."""

    name: str
    num_contexts: int


#: Scenario 1: two contexts (paper Fig. 3).
SCENARIO_1 = Scenario(name="scenario1", num_contexts=2)
#: Scenario 2: three contexts (paper Fig. 4).
SCENARIO_2 = Scenario(name="scenario2", num_contexts=3)

#: The paper's homogeneous scenarios by name (aliases included).
PAPER_SCENARIOS: Dict[str, Scenario] = {
    "scenario1": SCENARIO_1,
    "scenario2": SCENARIO_2,
    "1": SCENARIO_1,
    "2": SCENARIO_2,
}


def list_all_scenarios() -> List[Tuple[str, str]]:
    """Every runnable scenario name with a one-line description.

    Combines the paper's homogeneous scenarios with the registered
    heterogeneous synthesis scenarios (``mixed_fleet`` etc.); this is what
    ``python -m repro sweep --list-scenarios`` prints.
    """
    entries: List[Tuple[str, str]] = [
        (
            SCENARIO_1.name,
            "paper Fig. 3: identical ResNet18 tasks, 2 contexts",
        ),
        (
            SCENARIO_2.name,
            "paper Fig. 4: identical ResNet18 tasks, 3 contexts",
        ),
    ]
    entries.extend(
        (scenario.name, scenario.description)
        for scenario in list_synth_scenarios()
    )
    return entries


@dataclass
class SweepPoint:
    """One (scheduler variant, task count) measurement.

    ``target_utilization`` distinguishes the columns of a synthesized
    utilization-axis sweep (0.0 on the paper's identical-task sweeps,
    where the axis does not exist); ``utilization`` stays the *measured*
    device utilization.
    """

    variant: str
    num_tasks: int
    total_fps: float
    dmr: float
    utilization: float
    target_utilization: float = 0.0


def default_variants() -> List[str]:
    """Naive plus the three SGPRS over-subscription variants."""
    return ["naive"] + [f"sgprs_{os:g}" for os in OVERSUBSCRIPTION_LEVELS]


def scenario_grid(
    scenario: Scenario,
    task_counts: Sequence[int],
    variants: Optional[Sequence[str]] = None,
    duration: float = 6.0,
    warmup: float = 1.5,
    seeds: Sequence[int] = (0,),
    work_jitter_cv: float = 0.0,
    num_stages: int = DEFAULT_NUM_STAGES,
    arrivals: Sequence[str] = ("periodic",),
    admission: str = "",
) -> GridSpec:
    """The :class:`GridSpec` behind one scenario sweep."""
    return GridSpec.from_scenario(
        scenario,
        variants=tuple(variants) if variants is not None else tuple(default_variants()),
        task_counts=tuple(task_counts),
        seeds=tuple(seeds),
        duration=duration,
        warmup=warmup,
        work_jitter_cv=work_jitter_cv,
        num_stages=num_stages,
        arrivals=tuple(arrivals),
        admission=admission,
    )


def run_scenario_sweep(
    scenario: Scenario,
    task_counts: Sequence[int],
    variants: Optional[Sequence[str]] = None,
    duration: float = 6.0,
    warmup: float = 1.5,
    workers: int = 0,
    cache_dir: Optional[Union[str, Path]] = None,
    seeds: Sequence[int] = (0,),
    work_jitter_cv: float = 0.0,
) -> Dict[str, List[SweepPoint]]:
    """Full sweep of one scenario: variant -> points ordered by task count.

    Regenerates the data behind Figs. 3 and 4 (scenario 1 and 2) through
    the parallel harness.  ``workers`` shards points over processes,
    ``cache_dir`` enables the on-disk result cache, and ``seeds`` runs each
    cell once per replication seed (the returned points are seed means).
    Defaults reproduce the historical serial single-seed sweep exactly.
    """
    grid = scenario_grid(
        scenario,
        task_counts,
        variants,
        duration,
        warmup,
        seeds=seeds,
        work_jitter_cv=work_jitter_cv,
    )
    return run_grid(grid, workers=workers, cache_dir=cache_dir).sweep()
