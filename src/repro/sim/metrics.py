"""Real-time metrics: FPS, miss rate, tail latency, goodput, rejections.

The paper evaluates schedulers with two metrics (Section V):

* **Total FPS** — completed inference frames per second summed over all
  tasks, measured over a steady-state window.
* **Deadline Miss Rate (DMR)** — the fraction of job instances that did not
  complete by their absolute deadline.

The open-system arrivals subsystem (:mod:`repro.workloads.arrivals` +
:mod:`repro.core.admission`) adds the serving-stack view of the same run:

* **Rejection rate** — the fraction of post-warmup releases the admission
  controller turned away (trace kind ``job_reject``).  Rejected jobs are
  *excluded* from DMR: the client was refused up front, which is a
  load-shedding decision, not a missed frame (``job_skip`` drops, by
  contrast, still count as misses).
* **Goodput** — completed-*and*-met-deadline frames per second: the
  throughput a deadline-sensitive consumer actually benefits from.
* **Tail latency** — nearest-rank response-time percentiles (p99/p999).
* **Queue depth** — time-weighted mean and max of the number of admitted
  jobs in flight, fed by the scheduler's admission accounting.

All are defined once, on :class:`MetricsCollector`, from its per-job
:class:`JobRecord` entries; :meth:`MetricsCollector.summary` is the
scalar record a run reports.  The collector is fed in one of two ways:
live, by the scheduler during a run, or after the fact by
:func:`metrics_from_trace`, which replays a trace's ``job_*`` records as
the same calls.  The replay reads those records' rows straight from the
five ``job_*`` kinds' columns of a
:class:`~repro.sim.trace_columnar.ColumnarTrace` (what every traced run
records and run stores ship) and materialises no record; any other
iterable of trace records is columnarised first.  A trace does not say
whether a release was admitted; the replay reads it from record
adjacency: the scheduler emits a release's ``job_skip``/``job_reject``
as the very next record, so a release followed by anything else was
admitted.
Stage-level records are kept as well so the scheduler's virtual-deadline
behaviour can be analysed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.trace_columnar import ColumnarTrace
from repro.sim.trace_kinds import (
    JOB_COMPLETE,
    JOB_REJECT,
    JOB_RELEASE,
    JOB_SHED,
    JOB_SKIP,
)

#: The kinds trace replay reads, and the fields it reads from them.
_JOB_KINDS = (JOB_RELEASE, JOB_SKIP, JOB_REJECT, JOB_COMPLETE, JOB_SHED)
_JOB_FIELDS = ("task", "job", "deadline")


@dataclass(slots=True)
class JobRecord:
    """Lifecycle of one released job instance.

    ``rejected`` marks jobs the admission controller refused; they are
    excluded from deadline accounting and counted by the rejection-rate
    metric instead.
    """

    task_name: str
    job_index: int
    release_time: float
    absolute_deadline: float
    finish_time: Optional[float] = None
    rejected: bool = False

    def missed(self, now: float) -> bool:
        """Whether the job's deadline is missed as of simulated time ``now``.

        A job misses when it finished after its deadline, or has not finished
        and its deadline already passed.
        """
        if self.finish_time is not None:
            return self.finish_time > self.absolute_deadline
        return now > self.absolute_deadline

    @property
    def response_time(self) -> Optional[float]:
        """Completion latency (finish - release), or ``None`` if unfinished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.release_time


@dataclass(slots=True)
class StageRecord:
    """Lifecycle of one stage instance within a job."""

    task_name: str
    job_index: int
    stage_index: int
    release_time: float
    virtual_deadline: float
    finish_time: Optional[float] = None
    context_id: Optional[int] = None
    priority: Optional[str] = None

    def missed(self, now: float) -> bool:
        """Whether the stage missed its virtual deadline as of ``now``."""
        if self.finish_time is not None:
            return self.finish_time > self.virtual_deadline
        return now > self.virtual_deadline


class MetricsCollector:
    """Collects job/stage records and derives the paper's two metrics.

    Parameters
    ----------
    warmup:
        Jobs *released* before ``warmup`` seconds are excluded from every
        steady-state metric, so transients from an empty system do not
        bias the numbers.

    **Warmup rule.**  One population underlies all per-job metrics: jobs
    with ``release_time >= warmup`` (release exactly at the boundary
    counts).  FPS, per-task FPS, goodput, DMR, response times and the
    rejection rate all draw from it, so their numerators and
    denominators agree on any one run.  (A previous version filtered
    FPS/goodput only on ``finish_time >= warmup``, which counted frames
    from jobs released *during* warmup — work DMR's population never
    saw, making the throughput and miss-rate views of one run
    disagree.)  Completion-window bounds still apply on top: FPS and
    goodput count only completions with ``finish_time <= now``.
    """

    def __init__(self, warmup: float = 0.0) -> None:
        self.warmup = warmup
        self.jobs: List[JobRecord] = []
        self.stages: List[StageRecord] = []
        self._job_index: Dict[Tuple[str, int], JobRecord] = {}
        #: Queue-depth step function: ``(time, depth)`` transitions in
        #: non-decreasing time order (admitted jobs in flight system-wide).
        self._depth_steps: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def job_released(
        self, task_name: str, job_index: int, release_time: float, deadline: float
    ) -> JobRecord:
        """Record a new job release and return its record."""
        key = (task_name, job_index)
        if key in self._job_index:
            raise ValueError(f"job {key} released twice")
        record = JobRecord(
            task_name=task_name,
            job_index=job_index,
            release_time=release_time,
            absolute_deadline=deadline,
        )
        self.jobs.append(record)
        self._job_index[key] = record
        return record

    def job_completed(self, task_name: str, job_index: int, finish_time: float) -> None:
        """Record the completion of a previously released job."""
        key = (task_name, job_index)
        record = self._job_index.get(key)
        if record is None:
            raise KeyError(f"completion for unknown job {key}")
        if record.finish_time is not None:
            raise ValueError(f"job {key} completed twice")
        if record.rejected:
            raise ValueError(f"job {key} completed after being rejected")
        if finish_time < record.release_time:
            raise ValueError(
                f"job {key} completed at {finish_time} before its release "
                f"at {record.release_time}"
            )
        record.finish_time = finish_time

    def job_rejected(self, task_name: str, job_index: int) -> None:
        """Mark a previously released job as refused by admission control.

        The job stays in :attr:`jobs` (it *was* released) but flips into
        the rejection accounting: it no longer counts as a decided job
        for DMR and instead feeds :meth:`rejection_rate`.
        """
        key = (task_name, job_index)
        record = self._job_index.get(key)
        if record is None:
            raise KeyError(f"rejection for unknown job {key}")
        if record.finish_time is not None:
            raise ValueError(f"job {key} rejected after completing")
        record.rejected = True

    def record_queue_depth(self, time: float, depth: int) -> None:
        """Record a transition of the system-wide admitted-jobs count.

        The scheduler calls this on every admission and departure;
        successive calls must carry non-decreasing times (simulated time
        never rewinds).
        """
        if depth < 0:
            raise ValueError(f"queue depth must be >= 0, got {depth}")
        if self._depth_steps and time < self._depth_steps[-1][0]:
            raise ValueError(
                f"queue-depth transition at {time} precedes previous at "
                f"{self._depth_steps[-1][0]}"
            )
        self._depth_steps.append((time, depth))

    def stage_released(
        self,
        task_name: str,
        job_index: int,
        stage_index: int,
        release_time: float,
        virtual_deadline: float,
    ) -> StageRecord:
        """Record a stage release and return its record."""
        record = StageRecord(
            task_name=task_name,
            job_index=job_index,
            stage_index=stage_index,
            release_time=release_time,
            virtual_deadline=virtual_deadline,
        )
        self.stages.append(record)
        return record

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _measured_jobs(self, now: float) -> List[JobRecord]:
        """Jobs that count toward DMR at time ``now``.

        A job counts when it was released after warmup and its deadline has
        passed (so its outcome is decided).  Rejected jobs never count:
        the admission controller refused them up front, so their outcome
        is a *rejection* (see :meth:`rejection_rate`), not a miss.
        """
        return [
            job
            for job in self.jobs
            if not job.rejected
            and job.release_time >= self.warmup
            and job.absolute_deadline <= now
        ]

    def total_fps(self, now: float) -> float:
        """Completed frames per second over the post-warmup window.

        Counts completions (by ``now``) of post-warmup-released jobs
        only — the same population DMR measures (see the class
        docstring's warmup rule).
        """
        window = now - self.warmup
        if window <= 0.0:
            return 0.0
        completed = sum(
            1
            for job in self.jobs
            if job.finish_time is not None
            and job.release_time >= self.warmup
            and job.finish_time <= now
        )
        return completed / window

    def deadline_miss_rate(self, now: float) -> float:
        """Fraction of decided post-warmup jobs that missed their deadline."""
        jobs = self._measured_jobs(now)
        if not jobs:
            return 0.0
        missed = sum(1 for job in jobs if job.missed(now))
        return missed / len(jobs)

    def per_task_fps(self, now: float) -> Dict[str, float]:
        """Completed frames per second broken down by task (same
        post-warmup-released population as :meth:`total_fps`)."""
        window = now - self.warmup
        out: Dict[str, float] = {}
        if window <= 0.0:
            return out
        for job in self.jobs:
            if (
                job.finish_time is not None
                and job.release_time >= self.warmup
                and job.finish_time <= now
            ):
                out[job.task_name] = out.get(job.task_name, 0.0) + 1.0
        return {name: count / window for name, count in out.items()}

    def per_task_dmr(self, now: float) -> Dict[str, float]:
        """Deadline miss rate broken down by task."""
        counts: Dict[str, List[int]] = {}
        for job in self._measured_jobs(now):
            total_missed = counts.setdefault(job.task_name, [0, 0])
            total_missed[0] += 1
            if job.missed(now):
                total_missed[1] += 1
        return {
            name: missed / total for name, (total, missed) in counts.items()
        }

    def stage_miss_rate(self, now: float) -> float:
        """Fraction of decided stage instances that missed virtual deadlines."""
        decided = [
            s
            for s in self.stages
            if s.release_time >= self.warmup and s.virtual_deadline <= now
        ]
        if not decided:
            return 0.0
        return sum(1 for s in decided if s.missed(now)) / len(decided)

    def response_times(self) -> List[float]:
        """Response times of all completed post-warmup jobs, sorted."""
        values = [
            job.response_time
            for job in self.jobs
            if job.response_time is not None and job.release_time >= self.warmup
        ]
        return sorted(values)

    def response_time_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile (0..1) of response times, or ``None``.

        Uses the explicit ceil-based nearest-rank definition: the value
        at rank ``ceil(fraction * n)`` (1-based; fraction 0 maps to the
        minimum).  A previous implementation used ``int(round(...))``,
        whose round-half-even tie-breaking made half-way fractions flap
        between adjacent ranks as the sample count changed; the ceil
        definition is monotone in ``fraction`` and stable.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        values = self.response_times()
        if not values:
            return None
        return values[max(1, math.ceil(fraction * len(values))) - 1]

    def rejection_rate(self, now: float) -> float:
        """Fraction of post-warmup releases refused by admission control.

        The population is every job with ``release_time >= warmup`` — the
        same release-based boundary DMR/FPS/goodput use (a release at
        exactly ``warmup`` is post-warmup).  Rejections are decided at
        release time, so nothing waits for a deadline to pass; ``now`` is
        accepted for signature parity with the other rate metrics but does
        not bound the population (jobs are only recorded once released, so
        a release after ``now`` cannot be present anyway — an earlier
        version filtered ``release_time <= now``, silently excluding a
        release at exactly ``now`` from the denominator).
        """
        released = [
            job for job in self.jobs if job.release_time >= self.warmup
        ]
        if not released:
            return 0.0
        return sum(1 for job in released if job.rejected) / len(released)

    def rejected_count(self) -> int:
        """Total jobs rejected by admission control (warmup included)."""
        return sum(1 for job in self.jobs if job.rejected)

    def goodput(self, now: float) -> float:
        """Completed-and-met-deadline frames per second after warmup.

        The deadline-sensitive counterpart of :meth:`total_fps`: a frame
        that finishes late still counts toward FPS (work was done) but
        not toward goodput (the consumer could no longer use it).  Same
        post-warmup-released population as FPS and DMR.
        """
        window = now - self.warmup
        if window <= 0.0:
            return 0.0
        good = sum(
            1
            for job in self.jobs
            if job.finish_time is not None
            and job.release_time >= self.warmup
            and job.finish_time <= now
            and job.finish_time <= job.absolute_deadline
        )
        return good / window

    def mean_queue_depth(self, now: float) -> float:
        """Time-weighted mean admitted-jobs-in-flight over ``[warmup, now]``.

        Derived from the step function recorded by
        :meth:`record_queue_depth`; 0.0 when nothing was ever recorded or
        the window is empty.
        """
        window = now - self.warmup
        if window <= 0.0 or not self._depth_steps:
            return 0.0
        weighted = 0.0
        # Depth in effect at the window start: the last transition at or
        # before warmup (0 jobs before the first transition).
        depth = 0
        start = self.warmup
        for time, next_depth in self._depth_steps:
            if time <= self.warmup:
                depth = next_depth
                continue
            if time >= now:
                break
            weighted += depth * (time - start)
            start = time
            depth = next_depth
        weighted += depth * (now - start)
        return weighted / window

    def max_queue_depth(self, now: float) -> int:
        """Peak admitted-jobs-in-flight over ``[warmup, now]``.

        Includes the depth carried into the window by the last transition
        at or before warmup.
        """
        peak = 0
        carried = 0
        for time, depth in self._depth_steps:
            if time <= self.warmup:
                carried = depth
            elif time <= now:
                peak = max(peak, depth)
            else:
                break
        return max(peak, carried)

    def released_count(self) -> int:
        """Total jobs released (including during warmup)."""
        return len(self.jobs)

    def completed_count(self) -> int:
        """Total jobs completed (including during warmup)."""
        return sum(1 for job in self.jobs if job.finish_time is not None)

    def summary(self, now: float) -> Dict[str, object]:
        """The run-level scalar metrics at ``now``, by result field name.

        :func:`~repro.core.runner.run_simulation` builds its
        :class:`~repro.core.runner.RunResult` from this record and
        :func:`metrics_from_trace` returns it, so the list exists once.
        """
        return {
            "total_fps": self.total_fps(now),
            "dmr": self.deadline_miss_rate(now),
            "goodput": self.goodput(now),
            "rejection_rate": self.rejection_rate(now),
            "released": self.released_count(),
            "completed": self.completed_count(),
            "rejected": self.rejected_count(),
            "p99_response": self.response_time_percentile(0.99),
            "p999_response": self.response_time_percentile(0.999),
            "mean_queue_depth": self.mean_queue_depth(now),
            "max_queue_depth": self.max_queue_depth(now),
        }


def metrics_from_trace(
    records: Iterable, warmup: float, now: float
) -> Dict[str, object]:
    """Replay a trace's ``job_*`` records into a fresh collector.

    Takes a :class:`~repro.sim.trace_columnar.ColumnarTrace` (a run's own
    trace, or one decoded off a :mod:`repro.sim.trace_io` file) or any
    iterable of trace records in time order, which is columnarised first
    (so it must keep one layout per kind); other kinds are not read (see
    the module docstring's adjacency rule).  Each record becomes the
    collector call the scheduler made live, so the result is
    :meth:`MetricsCollector.summary` of the original run.  A ``job_skip``
    makes no call: the job stays released and unfinished, a miss once its
    deadline passes.  Malformed histories fail loudly: a ``job_release``
    without its ``deadline`` field, a skip or rejection that is not the
    very next record after its release, and whatever the collector itself
    refuses (unknown or twice-released jobs, time running backwards).
    """
    if not isinstance(records, ColumnarTrace):
        records = ColumnarTrace.from_records(records)
    metrics = MetricsCollector(warmup=warmup)
    depth = 0
    #: ``(index, task, job, release time)`` of the release awaiting its
    #: outcome.
    pending: Optional[Tuple[int, str, int, float]] = None
    for index, kind, time, task, job, deadline in records.rows(
        _JOB_KINDS, _JOB_FIELDS
    ):
        if kind == JOB_SKIP or kind == JOB_REJECT:
            if pending is None or pending[:3] != (index - 1, task, job):
                raise ValueError(
                    f"{kind} for job {(task, job)} does not follow its release"
                )
            if kind == JOB_REJECT:
                metrics.job_rejected(task, job)
            pending = None
            continue
        if pending is not None:
            depth += 1
            metrics.record_queue_depth(pending[3], depth)
            pending = None
        if kind == JOB_RELEASE:
            if deadline is None:
                raise ValueError(
                    "job_release record lacks the 'deadline' field; "
                    "trace predates the trace-replay format"
                )
            metrics.job_released(task, job, time, deadline)
            pending = (index, task, job, time)
        else:
            if kind == JOB_COMPLETE:
                metrics.job_completed(task, job, time)
            depth -= 1
            metrics.record_queue_depth(time, depth)
    if pending is not None:
        metrics.record_queue_depth(pending[3], depth + 1)
    return metrics.summary(now)
