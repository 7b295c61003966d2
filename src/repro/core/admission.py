"""Pluggable admission control for open-system workloads.

The scheduler historically hardcoded one overload response: the paper's
*skip-if-previous-in-flight* rule (a periodic client issuing a blocking
inference call drops the next frame at the source while the previous one
is still running).  Open-system arrival processes
(:mod:`repro.workloads.arrivals`) make overload a first-class regime, and
production serving stacks answer it with an *admission controller* — so
the rule is factored into a policy object the scheduler consults on every
release.

Three admission outcomes exist, and they are deliberately distinct in the
trace and the metrics:

``ADMIT``
    The job enters the system and its first stage is released.
``SKIP``
    The release is dropped *at the source* (trace kind ``job_skip``).
    This models a blocking client that never handed the frame over; the
    job still counts as released-but-never-finished, i.e. a deadline
    miss.  This is the paper's default behaviour.
``REJECT``
    The *admission controller* turned the job away (trace kind
    ``job_reject``).  The client was told "no" immediately, so the job
    counts toward the **rejection rate** and is excluded from the
    deadline-miss rate — a deliberate load-shedding decision, not a
    missed frame.

Policies are addressable by spec string (``"queue:depth=4"``), exactly
like arrival processes and zoo mixes, so sweeps can put admission control
on a grid axis::

    python -m repro sweep --arrival mmpp:burst=6 --admission queue:depth=2

Policies must be stateless (all run state — the previous job, the
per-task in-flight count — is passed into :meth:`AdmissionPolicy.decide`)
and picklable, so one instance can serve any number of runs and travel to
``multiprocessing`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple, Union


class AdmissionDecision(Enum):
    """Outcome of one admission check (see module docstring)."""

    ADMIT = "admit"
    SKIP = "skip"
    REJECT = "reject"


class AdmissionPolicy:
    """Decides whether a released job enters the system.

    Subclasses implement :meth:`decide`; they must be stateless with
    respect to the run (the scheduler owns all lifecycle state) and
    picklable.
    """

    #: Registry / display name; concrete policies override it.
    name = "base"

    def decide(
        self, job, previous, inflight: int
    ) -> AdmissionDecision:
        """Admission decision for ``job``.

        Parameters
        ----------
        job:
            The freshly released :class:`~repro.core.scheduler.JobInstance`.
        previous:
            The task's most recently *admitted* job, or ``None``.
        inflight:
            Number of admitted-but-unfinished jobs of this task
            (including ``previous`` when it is still running).
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable summary (CLI listings)."""
        return self.name


class SkipIfBusy(AdmissionPolicy):
    """The paper's default: drop the frame at the source while busy.

    Equivalent to the scheduler's historical hardcoded rule — a release
    whose predecessor is still in flight is skipped (``job_skip``) and
    counts as a deadline miss.
    """

    name = "skip"

    def decide(self, job, previous, inflight: int) -> AdmissionDecision:
        if previous is None or previous.finished:
            return AdmissionDecision.ADMIT
        return AdmissionDecision.SKIP


class AdmitAll(AdmissionPolicy):
    """Admit every release (non-blocking clients, unbounded backlog).

    Queues snowball freely under overload.
    """

    name = "admit_all"

    def decide(self, job, previous, inflight: int) -> AdmissionDecision:
        return AdmissionDecision.ADMIT


class RejectIfBusy(AdmissionPolicy):
    """Turn releases away while the task's previous job is in flight.

    The same overload condition as :class:`SkipIfBusy`, but the refusal
    is an admission-controller decision: the job is recorded as
    *rejected* (``job_reject``, rejection rate) instead of silently
    dropped into the deadline-miss count.
    """

    name = "reject"

    def decide(self, job, previous, inflight: int) -> AdmissionDecision:
        if previous is None or previous.finished:
            return AdmissionDecision.ADMIT
        return AdmissionDecision.REJECT


@dataclass(frozen=True)
class BoundedQueue(AdmissionPolicy):
    """Admit up to ``depth`` in-flight jobs per task, then reject.

    ``depth`` counts admitted-but-unfinished jobs, including the one
    currently executing, so ``depth=1`` behaves like :class:`RejectIfBusy`
    and ``depth`` -> infinity behaves like :class:`AdmitAll`.  The
    backlog this admits is what the queue-depth metrics
    (:meth:`~repro.sim.metrics.MetricsCollector.mean_queue_depth` /
    ``max_queue_depth``) observe.
    """

    depth: int = 4

    name = "queue"

    def __post_init__(self) -> None:
        # bool is an int subclass; a float depth (2.5, inf, nan) would
        # silently admit by a different rule than the one asked for
        if type(self.depth) is not int or self.depth < 1:
            raise ValueError(
                f"depth must be an int >= 1, got {self.depth!r}"
            )

    def decide(self, job, previous, inflight: int) -> AdmissionDecision:
        if inflight < self.depth:
            return AdmissionDecision.ADMIT
        return AdmissionDecision.REJECT

    def describe(self) -> str:
        return f"{self.name}(depth={self.depth})"


# ----------------------------------------------------------------------
# Spec strings and the registry
# ----------------------------------------------------------------------
def parse_spec(spec: str) -> Tuple[str, Dict[str, Union[int, float, str]]]:
    """Split ``"name:key=val,key=val"`` into a name and coerced params.

    Values are coerced ``int`` -> ``float`` -> ``str`` (first parse that
    succeeds).  The same syntax addresses arrival processes
    (:func:`repro.workloads.arrivals.resolve_arrival`) and admission
    policies, so both sit naturally on grid axes and CLI flags.
    """
    name, _, raw = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"empty name in spec {spec!r}")
    params: Dict[str, Union[int, float, str]] = {}
    if raw:
        for part in raw.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"malformed parameter {part!r} in spec {spec!r} "
                    f"(expected key=value)"
                )
            value = value.strip()
            coerced: Union[int, float, str]
            try:
                coerced = int(value)
            except ValueError:
                try:
                    coerced = float(value)
                except ValueError:
                    coerced = value
            params[key] = coerced
    return name, params


@dataclass(frozen=True)
class _RegisteredPolicy:
    key: str
    factory: Callable[..., AdmissionPolicy]
    description: str


_ADMISSION_REGISTRY: Dict[str, _RegisteredPolicy] = {}


def register_admission(
    key: str, factory: Callable[..., AdmissionPolicy], description: str = ""
) -> None:
    """Register an admission-policy factory under ``key``.

    ``factory`` is called with the spec string's keyword parameters, so
    a plain policy class with keyword-only configuration registers
    directly (``register_admission("queue", BoundedQueue, ...)``).
    """
    if not key:
        raise ValueError("admission policy key must be non-empty")
    _ADMISSION_REGISTRY[key] = _RegisteredPolicy(key, factory, description)


def list_admission_policies() -> List[Tuple[str, str]]:
    """``(key, description)`` pairs in registration order."""
    return [(p.key, p.description) for p in _ADMISSION_REGISTRY.values()]


def resolve_admission(
    spec: Union[str, AdmissionPolicy, None]
) -> Optional[AdmissionPolicy]:
    """Build a policy from a spec string (``""``/``None`` -> ``None``).

    ``None`` means "the scheduler default" — the legacy
    :meth:`~repro.core.scheduler.SchedulerBase.admit_job` hook, whose
    stock behaviour matches :class:`SkipIfBusy`.  Policy instances pass
    through unchanged.
    """
    if spec is None or isinstance(spec, AdmissionPolicy):
        return spec
    if not spec:
        return None
    name, params = parse_spec(spec)
    try:
        registered = _ADMISSION_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; known: "
            f"{sorted(_ADMISSION_REGISTRY)}"
        ) from None
    try:
        return registered.factory(**params)
    except TypeError as error:
        raise ValueError(
            f"bad parameters for admission policy {name!r}: {error}"
        ) from None


register_admission(
    "skip",
    SkipIfBusy,
    "drop releases at the source while the previous job runs (default)",
)
register_admission(
    "admit_all", AdmitAll, "admit every release; backlogs grow unbounded"
)
register_admission(
    "reject",
    RejectIfBusy,
    "reject releases while the previous job runs (counts rejections)",
)
register_admission(
    "queue",
    BoundedQueue,
    "admit up to depth=N in-flight jobs per task, then reject",
)
