"""Experiment-grid specification.

A sweep is a cartesian grid: scenario (context-pool size) x scheduler
variant x over-subscription (folded into the variant name) x task count x
replication seed.  :class:`GridSpec` describes the grid declaratively;
:meth:`GridSpec.points` enumerates concrete :class:`GridPoint` values, each
of which is frozen, hashable, picklable, and carries everything a worker
process needs to evaluate it.

Determinism contract
--------------------
Each point's simulation seed is *derived* from the replication seed and the
point's coordinates (:func:`derive_seed`), so

* the same grid always produces the same per-point seeds regardless of
  execution order or worker count (serial == parallel, bit for bit);
* two points of the same replication do not share a jitter stream.

The point's :meth:`GridPoint.config_hash` is the cache key: a SHA-256 over
the canonical JSON of every field plus a schema version, so any change to a
point's configuration lands in a fresh cache slot.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Tuple, Type

from repro.core.naive import NaiveScheduler
from repro.core.runner import validate_horizon
from repro.core.scheduler import SchedulerBase
from repro.core.sgprs import SgprsScheduler
from repro.workloads.generator import DEFAULT_NUM_STAGES, DEFAULT_PERIOD

#: Bumped whenever point evaluation semantics change, invalidating caches.
#: v2: workload-synthesis axes (workload / total_utilization / period_class
#: / zoo_mix / deadline_mode) joined the point identity.
#: v3: open-system axes (arrival / admission) joined the point identity.
SCHEMA_VERSION = 3

#: Payload schema versions :meth:`GridPoint.from_dict` accepts.  Older
#: versions simply lack the axes later ones added (the dataclass
#: defaults reconstruct them), so every prior version stays readable —
#: the S002 version-discipline rule of ``python -m repro lint`` checks
#: this set covers ``1..SCHEMA_VERSION``.
_READABLE_SCHEMA_VERSIONS = (1, 2, SCHEMA_VERSION)

#: A resolver maps a requested stage count to
#: (scheduler class, over-subscription level, stages per task).
VariantResolver = Callable[[int], Tuple[Type[SchedulerBase], float, int]]

_VARIANT_REGISTRY: Dict[str, VariantResolver] = {}


def registered_variants() -> Tuple[str, ...]:
    """Names registered via :func:`register_variant`, sorted."""
    return tuple(sorted(_VARIANT_REGISTRY))


def _validate_workload_axes(
    workload: str,
    total_utilization: float,
    period_class: str,
    zoo_mix: str,
    deadline_mode: str,
) -> None:
    """Shared validation of the synthesis axes on points and specs.

    The synth registries are imported lazily: :mod:`repro.workloads.synth`
    depends on :mod:`repro.workloads.generator` just like this module, and
    a module-level import here would tighten the package import cycle for
    no benefit (validation only happens at object construction time).
    """
    if not (math.isfinite(total_utilization) and total_utilization >= 0):
        raise ValueError(
            f"total_utilization must be finite and >= 0, got {total_utilization}"
        )
    if workload == "identical":
        if total_utilization or period_class or zoo_mix or deadline_mode:
            raise ValueError(
                "synthesis axes (total_utilization/period_class/zoo_mix/"
                "deadline_mode) require a synth workload, not 'identical'"
            )
        return
    from repro.workloads.synth.spec import DEADLINE_MODES, PERIOD_CLASSES
    from repro.workloads.synth.scenarios import get_synth_scenario
    from repro.workloads.synth.zoo import get_mix

    try:
        get_synth_scenario(workload)
        if zoo_mix:
            get_mix(zoo_mix)
    except KeyError as error:
        raise ValueError(str(error)) from None
    if period_class and period_class not in PERIOD_CLASSES:
        raise ValueError(
            f"period_class must be one of {PERIOD_CLASSES}, got {period_class!r}"
        )
    if deadline_mode and deadline_mode not in DEADLINE_MODES:
        raise ValueError(
            f"deadline_mode must be one of {DEADLINE_MODES}, got {deadline_mode!r}"
        )


def _validate_time_axes(duration: float, warmup: float, period: float) -> None:
    """``RunConfig``'s horizon rules plus a finite, positive period,
    checked when a point or spec is built rather than when it runs."""
    validate_horizon(duration, warmup)
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and positive, got {period}")


def _validate_open_system_axes(arrival: str, admission: str) -> None:
    """Fail fast on unknown arrival/admission specs.

    Both resolvers build a throwaway instance, which also validates the
    spec's parameters.  Lazy import for the same cycle reason as the
    synth axes.
    """
    if not arrival:
        raise ValueError("arrival must be non-empty (use 'periodic')")
    from repro.core.admission import resolve_admission
    from repro.workloads.arrivals import resolve_arrival

    resolve_arrival(arrival)
    resolve_admission(admission)


def register_variant(name: str, resolver: VariantResolver) -> None:
    """Register a custom scheduler variant under ``name``.

    Lets ablation studies sweep bespoke scheduler subclasses through the
    grid harness.  Registration is per-process state: worker processes
    inherit it on POSIX fork (the default on Linux), but a spawn-based
    pool would not see variants registered after interpreter start —
    register at module import time if that matters.
    """
    if name == "naive" or name.startswith("sgprs_"):
        raise ValueError(f"{name!r} would shadow a built-in variant")
    _VARIANT_REGISTRY[name] = resolver


def derive_seed(base_seed: int, *coords: object) -> int:
    """Deterministic per-point seed from a replication seed and coordinates.

    Stable across processes and Python versions (unlike ``hash()``), and
    well-mixed so neighbouring grid points get unrelated jitter streams.
    """
    blob = json.dumps([base_seed, *[str(c) for c in coords]]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def resolve_variant(
    variant: str, num_stages: int = DEFAULT_NUM_STAGES
) -> Tuple[Type[SchedulerBase], float, int]:
    """Map a variant name to (scheduler class, over-subscription, stages).

    ``variant`` is ``"naive"``, ``"sgprs_<os>"`` with ``<os>`` an
    over-subscription level (e.g. ``"sgprs_1.5"``), or a name registered
    via :func:`register_variant`.  The naive baseline always runs
    monolithic (single-stage) jobs at 1.0x.
    """
    if variant in _VARIANT_REGISTRY:
        return _VARIANT_REGISTRY[variant](num_stages)
    if variant == "naive":
        return NaiveScheduler, 1.0, 1
    if variant.startswith("sgprs_"):
        try:
            oversubscription = float(variant.split("_", 1)[1])
        except ValueError:
            raise ValueError(f"unknown variant {variant!r}") from None
        return SgprsScheduler, oversubscription, num_stages
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class GridPoint:
    """One fully-specified sweep measurement.

    ``seed`` is the simulation seed actually passed to the run (derived);
    ``base_seed`` records which replication the point belongs to.

    The synthesis axes (``workload`` et al.) describe *what taskset* the
    point runs: the default ``"identical"`` is the paper's homogeneous
    ResNet18 workload; any other value names a registered
    :class:`~repro.workloads.synth.scenarios.SynthScenario`, with
    ``total_utilization`` (0.0 = the scenario default) and the
    ``period_class`` / ``zoo_mix`` / ``deadline_mode`` overrides ("" = the
    scenario default) as sweepable coordinates.
    """

    scenario: str
    num_contexts: int
    variant: str
    num_tasks: int
    seed: int
    base_seed: int = 0
    duration: float = 6.0
    warmup: float = 1.5
    work_jitter_cv: float = 0.0
    num_stages: int = DEFAULT_NUM_STAGES
    period: float = DEFAULT_PERIOD
    allow_stream_borrowing: bool = True
    workload: str = "identical"
    total_utilization: float = 0.0
    period_class: str = ""
    zoo_mix: str = ""
    deadline_mode: str = ""
    arrival: str = "periodic"
    admission: str = ""

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.num_contexts < 1:
            raise ValueError(
                f"num_contexts must be >= 1, got {self.num_contexts}"
            )
        resolve_variant(self.variant)  # fail fast on unknown variants
        _validate_time_axes(self.duration, self.warmup, self.period)
        _validate_workload_axes(
            self.workload,
            self.total_utilization,
            self.period_class,
            self.zoo_mix,
            self.deadline_mode,
        )
        _validate_open_system_axes(self.arrival, self.admission)

    @property
    def label(self) -> str:
        """Short human-readable identity, e.g. ``scenario1/sgprs_1.5/n25/s0``
        (synth points insert the workload and utilization:
        ``util_ramp/u2.5/naive/n8/s0``; non-periodic arrivals append the
        arrival spec: ``.../s0/mmpp:burst=6``)."""
        if self.workload == "identical":
            label = (
                f"{self.scenario}/{self.variant}/n{self.num_tasks}"
                f"/s{self.base_seed}"
            )
        else:
            label = (
                f"{self.workload}/u{self.total_utilization:g}/{self.variant}"
                f"/n{self.num_tasks}/s{self.base_seed}"
            )
        if self.arrival != "periodic":
            label += f"/{self.arrival}"
        return label

    def config_dict(self) -> dict:
        """Canonical serialisable form (includes the schema version)."""
        payload = asdict(self)
        payload["schema_version"] = SCHEMA_VERSION
        return payload

    def config_hash(self) -> str:
        """SHA-256 cache key over the canonical JSON of all fields."""
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_dict(cls, payload: dict) -> "GridPoint":
        """Inverse of :meth:`config_dict`.

        Accepts every schema version in ``_READABLE_SCHEMA_VERSIONS``
        (older payloads lack the axes later versions added; the
        dataclass defaults fill them) and payloads with no version at
        all (pre-v1 history).  An unknown *newer* version raises: the
        payload may carry axes this build cannot represent, and
        guessing would silently mis-key caches.
        """
        version = payload.get("schema_version")
        if version is not None and version not in _READABLE_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported GridPoint schema version {version!r} "
                f"(readable: {_READABLE_SCHEMA_VERSIONS})"
            )
        fields = {k: v for k, v in payload.items() if k != "schema_version"}
        return cls(**fields)


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of a sweep grid.

    ``seeds`` are replication seeds; every (variant, task count) cell is
    evaluated once per seed and aggregated over them.  With the default
    single seed and zero jitter the grid reproduces the historical serial
    sweep exactly.

    For synthesized workloads (``workload`` naming a registered synth
    scenario), ``utilizations`` adds a target-total-utilization axis: the
    grid becomes variant x task count x utilization x seed.  An empty
    ``utilizations`` runs one column at the scenario's default target.

    ``arrivals`` is the open-system axis: one arrival-process spec per
    column (default strictly periodic, the closed-system baseline), with
    ``admission`` selecting the admission policy for the whole grid
    ("" = the legacy skip-if-in-flight behaviour).
    """

    scenario: str
    num_contexts: int
    variants: Tuple[str, ...]
    task_counts: Tuple[int, ...]
    seeds: Tuple[int, ...] = (0,)
    duration: float = 6.0
    warmup: float = 1.5
    work_jitter_cv: float = 0.0
    num_stages: int = DEFAULT_NUM_STAGES
    period: float = DEFAULT_PERIOD
    allow_stream_borrowing: bool = True
    workload: str = "identical"
    utilizations: Tuple[float, ...] = ()
    period_class: str = ""
    zoo_mix: str = ""
    deadline_mode: str = ""
    arrivals: Tuple[str, ...] = ("periodic",)
    admission: str = ""

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise ValueError("arrivals must be non-empty")
        for arrival in self.arrivals:
            _validate_open_system_axes(arrival, self.admission)
        if not self.variants:
            raise ValueError("variants must be non-empty")
        if not self.task_counts:
            raise ValueError("task_counts must be non-empty")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for variant in self.variants:
            resolve_variant(variant)
        if self.workload == "identical" and self.utilizations:
            raise ValueError(
                "a utilization axis requires a synth workload"
            )
        _validate_time_axes(self.duration, self.warmup, self.period)
        if not all(math.isfinite(u) and u > 0 for u in self.utilizations):
            raise ValueError(
                f"utilizations must be finite and positive, got "
                f"{self.utilizations}"
            )
        _validate_workload_axes(
            self.workload,
            0.0,
            self.period_class,
            self.zoo_mix,
            self.deadline_mode,
        )

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "GridSpec":
        """Build from a :class:`repro.workloads.scenarios.Scenario`."""
        return cls(
            scenario=scenario.name,
            num_contexts=scenario.num_contexts,
            **kwargs,
        )

    def _utilization_axis(self) -> Tuple[float, ...]:
        """The utilization column values (0.0 = scenario default)."""
        return self.utilizations or (0.0,)

    def __len__(self) -> int:
        return (
            len(self.variants)
            * len(self.task_counts)
            * len(self._utilization_axis())
            * len(self.arrivals)
            * len(self.seeds)
        )

    def shard(self, index: int, count: int) -> List[GridPoint]:
        """Deterministic round-robin slice ``index`` of ``count`` (1-based).

        Shard ``i`` of ``n`` holds every point whose position in the
        canonical :meth:`points` order is congruent to ``i - 1`` modulo
        ``n``.  The ``n`` shards of any grid are therefore a disjoint
        exact cover of it, each order-preserving, and — because point
        seeds derive from coordinates, never from execution order — a
        shard computes bit-identical results to the same points of a
        whole-grid run.  Round-robin (rather than contiguous blocks)
        spreads the expensive high-task-count columns evenly over shards.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 1 <= index <= count:
            raise ValueError(
                f"shard index must be in [1, {count}], got {index}"
            )
        return [
            point
            for position, point in enumerate(self.points())
            if position % count == index - 1
        ]

    def points(self) -> Iterator[GridPoint]:
        """Enumerate the grid in deterministic (variant, count, utilization,
        arrival, seed) order.

        With jitter enabled each point gets a derived simulation seed; with
        zero jitter the replication seed is passed through unchanged (the
        RNG is never consulted, and unchanged seeds keep historical cache
        keys and results stable).  For identical workloads the seed
        derivation coordinates are unchanged from schema v1, so jittered
        replications of the paper's grids keep their historical streams.
        """
        for variant in self.variants:
            for count in self.task_counts:
                for utilization in self._utilization_axis():
                    for arrival in self.arrivals:
                        for base_seed in self.seeds:
                            if self.work_jitter_cv > 0.0:
                                if self.workload == "identical":
                                    coords = (self.scenario, variant, count)
                                else:
                                    coords = (
                                        self.scenario,
                                        self.workload,
                                        variant,
                                        count,
                                        round(utilization, 9),
                                    )
                                seed = derive_seed(base_seed, *coords)
                            else:
                                seed = base_seed
                            yield GridPoint(
                                scenario=self.scenario,
                                num_contexts=self.num_contexts,
                                variant=variant,
                                num_tasks=count,
                                seed=seed,
                                base_seed=base_seed,
                                duration=self.duration,
                                warmup=self.warmup,
                                work_jitter_cv=self.work_jitter_cv,
                                num_stages=self.num_stages,
                                period=self.period,
                                allow_stream_borrowing=self.allow_stream_borrowing,
                                workload=self.workload,
                                total_utilization=utilization,
                                period_class=self.period_class,
                                zoo_mix=self.zoo_mix,
                                deadline_mode=self.deadline_mode,
                                arrival=arrival,
                                admission=self.admission,
                            )
