"""The trace-kind registry: the single source of trace event names.

Every event category a :class:`~repro.sim.trace.TraceRecorder` ever sees
is named here, once.  Emit sites (:mod:`repro.core.scheduler`,
:mod:`repro.gpu.device`) and consume sites
(:func:`~repro.sim.metrics.metrics_from_trace`,
:mod:`repro.analysis.timeline`) import these constants instead of
spelling the strings out; the ``S001`` rule of ``python -m repro lint``
(:mod:`repro.devtools.lint`) flags any bare kind literal inside
``sim/``, ``core/`` or ``gpu/``, so a typo'd kind can no longer silently
split one event stream into two.

This module is a leaf — it imports nothing from the package — so any
layer can use it without cycles.  Adding a kind means adding a constant
here; :data:`TRACE_KINDS` is derived automatically and the linter picks
the new name up from this file's AST (the registry is *parsed*, not
imported, so the linter sees the tree it is checking).

The columnar recorder (:mod:`repro.sim.trace_columnar`) deliberately
does **not** pre-seed its intern table from this registry: kind ids are
assigned in first-emission order so on-disk traces stay byte-identical
with pre-registry runs.
"""

from __future__ import annotations

#: A task released a new job (fields: task, job, deadline).
JOB_RELEASE = "job_release"
#: A release dropped at the source — the paper's blocking-client model;
#: counts as a deadline miss (fields: task, job).
JOB_SKIP = "job_skip"
#: A release refused by the admission controller — load shedding, feeds
#: the rejection rate and is excluded from DMR (fields: task, job).
JOB_REJECT = "job_reject"
#: A job's last stage finished (fields: task, job).
JOB_COMPLETE = "job_complete"
#: A job aborted mid-flight via ``SchedulerBase.abort_job`` (fields:
#: task, job).
JOB_SHED = "job_shed"
#: A stage entered its context's queue (fields: stage, context,
#: priority, deadline).
STAGE_RELEASE = "stage_release"
#: A stage kernel started executing on a stream (fields: kernel,
#: context, priority).
KERNEL_START = "kernel_start"
#: A stage kernel ran to completion (fields: kernel, context).
KERNEL_DONE = "kernel_done"
#: The device recomputed its rate allocation (fields: pressure,
#: aggregate_rate, resident).
ALLOCATION = "allocation"

#: Every registered kind.  Derived from the module's constants so the
#: set can never drift from the names above.
TRACE_KINDS = frozenset(
    value
    for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, str)
)
