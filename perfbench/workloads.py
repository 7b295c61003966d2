"""The benchmark's workloads: what one repeat computes, and how it is checked.

Every workload goes through the public entry points a user's command
uses (``run_grid`` / ``run_point``), serially and in-process.  Each module
function is looked up on its module at call time, so the span ledger's
patches (``perfbench/ledger.py``) see the calls in a traced repeat.

Horizons are shorter than the CLI's so that one run repeats a workload
several times; the grid shape, variants, contexts, task counts, arrival
and admission are the ones the workload names.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional


@dataclass
class Outcome:
    """What one repeat produced, with the failures its checks found."""

    results: list
    #: Extra deterministic outputs that join the digest (trace replay).
    extra: dict = field(default_factory=dict)
    #: Serialised trace, hashed into the digest outside the timed call.
    trace: bytes = b""
    #: One entry per failed check: ``(point label, reason)``.
    failures: List[tuple] = field(default_factory=list)

    @property
    def points(self) -> int:
        return len(self.results)

    def digest(self) -> str:
        """SHA-256 over every simulated output (host timings excluded)."""
        payload = []
        for result in self.results:
            record = result.to_dict()
            record.pop("elapsed")
            payload.append(record)
        blob = json.dumps(
            {
                "points": payload,
                "extra": self.extra,
                "trace_sha256": hashlib.sha256(self.trace).hexdigest(),
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()


def _check_conservation(outcome: Outcome) -> None:
    for result in outcome.results:
        if result.released < result.completed + result.rejected:
            outcome.failures.append(
                (
                    result.point.label,
                    f"released {result.released} < completed "
                    f"{result.completed} + rejected {result.rejected}",
                )
            )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def sim_metrics(results: list) -> Dict[str, float]:
    """The simulated end-to-end metrics of a repeat's point results.

    FPS and goodput add up over points (a grid's total throughput); the
    rates and the p99 are means over points.  DMR and the rejection rate
    are reported as their complements so that no metric reads 0 on a
    workload that never misses or never rejects.
    """
    p99s = [r.p99_response for r in results if r.p99_response is not None]
    return {
        "sim_fps": sum(r.total_fps for r in results),
        "sim_on_time_rate": 1.0 - _mean([r.dmr for r in results]),
        "sim_goodput": sum(r.goodput for r in results),
        "sim_p99_response_ms": _mean(p99s) * 1e3 if p99s else 0.0,
        "sim_admit_rate": 1.0 - _mean([r.rejection_rate for r in results]),
    }


class Workload:
    """One named workload at a fixed seed and horizon."""

    name = ""
    duration = 0.0
    warmup = 0.0

    def __init__(
        self,
        seed: int,
        duration: Optional[float] = None,
        warmup: Optional[float] = None,
    ) -> None:
        self.seed = seed
        if duration is not None:
            self.duration = duration
        if warmup is not None:
            self.warmup = warmup

    def run(self, workdir: Path) -> Callable[[], Outcome]:
        """Prepare one repeat; the returned call is what gets timed.

        Anything the call leaves behind in ``workdir`` is removed by
        :meth:`cleanup`.
        """
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what the last repeat left in its work directory."""

    def check(self, outcome: Outcome) -> None:
        """Record every failed output check on ``outcome``."""
        _check_conservation(outcome)


class Fig3Fast(Workload):
    """The grid ``python -m repro fig3 --fast`` computes, via ``run_grid``."""

    name = "fig3_fast"
    duration = 0.5
    warmup = 0.2

    def __init__(self, seed, duration=None, warmup=None) -> None:
        super().__init__(seed, duration, warmup)
        from repro.cli import FAST_TASK_COUNTS
        from repro.workloads.scenarios import SCENARIO_1, scenario_grid

        # The grid of the CLI's fig3 --fast (default variants, sorted task
        # counts), replicated under the benchmark seed.
        self.spec = scenario_grid(
            SCENARIO_1,
            sorted(FAST_TASK_COUNTS),
            duration=self.duration,
            warmup=self.warmup,
            seeds=(seed,),
        )
        self._cache_dir: Optional[str] = None

    def run(self, workdir: Path) -> Callable[[], Outcome]:
        from repro.exp import runner, worker

        self._cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        cache_dir = self._cache_dir

        def repeat() -> Outcome:
            grid = runner.run_grid(
                self.spec,
                workers=0,
                cache_dir=cache_dir,
                point_fn=worker.run_point,
            )
            return Outcome(results=grid.results)

        return repeat

    def cleanup(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


class Overloaded8x30(Workload):
    """One ``sgprs_2`` point, 8 contexts x 30 periodic tasks, skip-if-busy."""

    name = "overloaded_8x30"
    duration = 1.0
    warmup = 0.3

    def __init__(self, seed, duration=None, warmup=None) -> None:
        super().__init__(seed, duration, warmup)
        from repro.exp.grid import GridPoint

        self.point = GridPoint(
            scenario="contexts8",
            num_contexts=8,
            variant="sgprs_2",
            num_tasks=30,
            seed=seed,
            base_seed=seed,
            duration=self.duration,
            warmup=self.warmup,
        )

    def run(self, workdir: Path) -> Callable[[], Outcome]:
        from repro.exp import worker

        def repeat() -> Outcome:
            return Outcome(results=[worker.run_point(self.point)])

        return repeat


#: Outputs the trace replay must reproduce exactly.
_REPLAYED = (
    "total_fps",
    "dmr",
    "goodput",
    "rejection_rate",
    "released",
    "completed",
    "rejected",
    "p99_response",
    "p999_response",
    "mean_queue_depth",
    "max_queue_depth",
)


class OpenMmppTraced(Workload):
    """One MMPP + ``reject`` point, traced, serialised, decoded, replayed."""

    name = "open_mmpp_traced"
    duration = 9.0
    warmup = 1.0

    def __init__(self, seed, duration=None, warmup=None) -> None:
        super().__init__(seed, duration, warmup)
        from repro.exp.grid import GridPoint

        self.point = GridPoint(
            scenario="scenario1",
            num_contexts=2,
            variant="sgprs_1.5",
            num_tasks=24,
            seed=seed,
            base_seed=seed,
            duration=self.duration,
            warmup=self.warmup,
            arrival="mmpp:burst=6",
            admission="reject",
        )

    def run(self, workdir: Path) -> Callable[[], Outcome]:
        from repro.exp import dist, worker
        from repro.exp.backend import InMemoryBackend
        from repro.sim import metrics

        store = InMemoryBackend()
        point = self.point

        def repeat() -> Outcome:
            # run_point records a columnar trace and ships it through
            # trace_to_bytes into the store; load_point_trace decodes it.
            result = worker.run_point(point, trace_store=store)
            trace = dist.load_point_trace(store, point)
            replay = metrics.metrics_from_trace(
                trace, point.warmup, point.duration
            )
            return Outcome(
                results=[result],
                extra={"replay": replay},
                trace=store.read(dist.trace_key(point)).data,
            )

        return repeat

    def check(self, outcome: Outcome) -> None:
        super().check(outcome)
        (result,) = outcome.results
        replay = outcome.extra["replay"]
        for key in _REPLAYED:
            if replay[key] != getattr(result, key):
                outcome.failures.append(
                    (
                        result.point.label,
                        f"replayed {key}={replay[key]!r} != live "
                        f"{getattr(result, key)!r}",
                    )
                )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig3Fast, Overloaded8x30, OpenMmppTraced)
}
