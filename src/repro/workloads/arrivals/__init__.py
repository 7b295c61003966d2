"""Open-system arrival processes: stochastic releases and trace replay.

This package turns the reproduction's closed periodic tasksets into open
systems: an :class:`ArrivalProcess` feeds the scheduler release times, so
workloads can be strictly periodic (the default, bit-identical to the
legacy release loop), Poisson, bursty (two-state MMPP), diurnal, or a
replay of a recorded JSON-lines arrival log.  Pair with the admission
policies in :mod:`repro.core.admission` and the tail-latency /
goodput / rejection metrics in :mod:`repro.sim.metrics` for
production-SRE-style questions: *what is p99 response time and goodput
under a diurnal burst, and how much does a bounded admission queue
shed?*

Every process is seed-deterministic, stateless and picklable, and is
addressable by spec string through the registry (mirroring the model
zoo), which makes arrivals a first-class sweep axis::

    python -m repro sweep --arrival mmpp:burst=6 --admission queue:depth=2
    python -m repro sweep --list-arrivals
"""

from repro.workloads.arrivals.base import (
    ArrivalProcess,
    arrival_names,
    derive_arrival_seed,
    list_arrivals,
    register_arrival,
    resolve_arrival,
)
from repro.workloads.arrivals.processes import (
    DiurnalArrivals,
    MmppArrivals,
    PeriodicArrivals,
    PoissonArrivals,
)
from repro.workloads.arrivals.replay import (
    ReplayArrivals,
    read_arrival_log,
    record_arrivals,
    write_arrival_log,
)

__all__ = [
    "ArrivalProcess",
    "DiurnalArrivals",
    "MmppArrivals",
    "PeriodicArrivals",
    "PoissonArrivals",
    "ReplayArrivals",
    "arrival_names",
    "derive_arrival_seed",
    "list_arrivals",
    "read_arrival_log",
    "record_arrivals",
    "register_arrival",
    "resolve_arrival",
    "write_arrival_log",
]


def _replay_factory(path: str = "") -> ReplayArrivals:
    """Spec-string factory: ``replay:path=arrivals.jsonl`` (lazy read).

    ``path`` is required: a replay of no log would release nothing and
    report a perfect run.
    """
    if not path:
        raise ValueError("replay needs path=<arrival log>; path is empty")
    return ReplayArrivals(path=path)


register_arrival(
    "periodic",
    PeriodicArrivals,
    "strictly periodic releases (closed system; the default)",
)
register_arrival(
    "poisson",
    PoissonArrivals,
    "memoryless arrivals; rate_scale=K scales the nominal rate",
)
register_arrival(
    "mmpp",
    MmppArrivals,
    "two-state bursty MMPP (burst=, calm=, sojourn_periods=)",
)
register_arrival(
    "diurnal",
    DiurnalArrivals,
    "piecewise diurnal rate curve (day=, trough=, peak=)",
)
register_arrival(
    "replay",
    _replay_factory,
    "replay a JSON-lines arrival log (path=arrivals.jsonl)",
)
