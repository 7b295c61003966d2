"""Pivot-point detection.

The paper defines the **pivot point** as "the largest number of tasks that
the scheduler can handle without deadline misses" (Section V).  Because a
long but finite simulation may record a handful of boundary misses right at
capacity, the detector accepts a small tolerance (default: strictly zero,
matching the paper's definition).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.numeric import sum_in_order
from repro.workloads.scenarios import SweepPoint


def find_pivot(
    points: Sequence[SweepPoint], dmr_tolerance: float = 0.0
) -> Optional[int]:
    """Largest task count whose DMR does not exceed ``dmr_tolerance``.

    ``points`` must belong to a single variant.  Returns ``None`` when even
    the smallest measured task count misses deadlines.

    The scan walks task counts in increasing order and stops at the first
    point that misses; isolated zero-DMR points beyond an overloaded region
    (which can appear as simulation noise) do not extend the pivot.
    """
    if dmr_tolerance < 0:
        raise ValueError(f"dmr_tolerance must be >= 0, got {dmr_tolerance}")
    ordered = sorted(points, key=lambda p: p.num_tasks)
    pivot: Optional[int] = None
    for point in ordered:
        if point.dmr <= dmr_tolerance:
            pivot = point.num_tasks
        else:
            break
    return pivot


def pivot_table(
    sweep: Dict[str, List[SweepPoint]], dmr_tolerance: float = 0.0
) -> Dict[str, Optional[int]]:
    """Pivot point per variant for a full scenario sweep."""
    return {
        variant: find_pivot(points, dmr_tolerance)
        for variant, points in sweep.items()
    }


def find_utilization_pivot(
    pairs: Sequence[Tuple[float, float]], dmr_tolerance: float = 0.0
) -> Optional[float]:
    """Largest target utilization whose DMR stays within tolerance.

    The utilization-axis analogue of :func:`find_pivot` for synthesized
    workloads: ``pairs`` are ``(target utilization, dmr)`` samples of one
    variant.  The scan walks utilizations in increasing order and stops at
    the first miss, so a spurious zero-DMR point beyond an overloaded
    region does not extend the pivot.  Returns ``None`` when even the
    lowest measured utilization misses deadlines.
    """
    if dmr_tolerance < 0:
        raise ValueError(f"dmr_tolerance must be >= 0, got {dmr_tolerance}")
    pivot: Optional[float] = None
    for utilization, dmr in sorted(pairs):
        if dmr <= dmr_tolerance:
            pivot = utilization
        else:
            break
    return pivot


#: Coordinates that may legitimately vary within one variant's pivot scan:
#: the utilization axis itself plus the seed-replication fields.
_PIVOT_AXIS_FIELDS = frozenset(
    {"variant", "total_utilization", "seed", "base_seed", "schema_version"}
)


def _off_axis_identity(point) -> Optional[Tuple]:
    """The point's coordinates other than (variant, utilization, seed).

    ``None`` for bare duck-typed points without ``config_dict`` — those
    carry no extra axes to check.
    """
    config_dict = getattr(point, "config_dict", None)
    if config_dict is None:
        return None
    return tuple(
        sorted(
            (name, value)
            for name, value in config_dict().items()
            if name not in _PIVOT_AXIS_FIELDS
        )
    )


def utilization_pivot_table(
    results, dmr_tolerance: float = 0.0
) -> Dict[str, Optional[float]]:
    """Pivot utilization per variant over a synthesized-workload sweep.

    ``results`` is a sequence of :class:`repro.exp.worker.PointResult`
    (duck-typed: ``.point.variant``, ``.point.total_utilization``,
    ``.dmr``), e.g. ``GridResult.results`` from a utilization-axis grid.
    Replicated seeds of one cell are averaged before pivot detection.

    Within one variant, *only* the utilization axis and the seed may vary:
    a grid that additionally sweeps ``zoo_mix`` / ``period_class`` /
    ``deadline_mode`` (or any other coordinate) would otherwise have
    points from different workloads averaged into one DMR column, and the
    "pivot" would describe no workload at all.  Such mixtures raise
    ``ValueError``; run the pivot analysis per axis slice instead.
    """
    samples: Dict[Tuple[str, float], List[float]] = {}
    order: List[str] = []
    identities: Dict[str, Tuple] = {}
    for result in results:
        variant = result.point.variant
        if variant not in order:
            order.append(variant)
        identity = _off_axis_identity(result.point)
        if identity is not None:
            known = identities.setdefault(variant, identity)
            if known != identity:
                drift = [
                    f"{name}={old!r} vs {new!r}"
                    for (name, old), (_, new) in zip(known, identity)
                    if old != new
                ]
                raise ValueError(
                    f"variant {variant!r} mixes utilization columns from "
                    f"different cells ({'; '.join(drift)}); pivot analysis "
                    f"needs one axis slice at a time"
                )
        key = (variant, result.point.total_utilization)
        samples.setdefault(key, []).append(result.dmr)
    return {
        variant: find_utilization_pivot(
            [
                (utilization, sum_in_order(dmrs) / len(dmrs))
                for (v, utilization), dmrs in samples.items()
                if v == variant
            ],
            dmr_tolerance,
        )
        for variant in order
    }
