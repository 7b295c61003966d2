"""SM allocation across contexts and resident kernels.

Called whenever the resident set changes; produces each kernel's SM share
and progress rate.  The model (DESIGN.md section 4):

1. **Intra-context**: a context's nominal SMs are split among its resident
   kernels proportionally to priority weights, water-filling against each
   kernel's ``width_demand`` (shares a kernel cannot use flow to its
   neighbours).  A context never hands out more than its nominal cap.
2. **Device pressure**: if the summed intra-context grants exceed the
   physical SM count, every share is scaled down proportionally and a
   contention efficiency ``1/(1 + alpha * (pressure - 1))`` applies —
   over-subscribed pools pay for the time-multiplexing they cause.
3. **Co-location interference**: kernels sharing a context lose
   ``1/(1 + beta * (n - 1))`` efficiency to cache/bandwidth interference.
4. **Aggregate ceiling**: summed progress rates are capped at the device's
   ``aggregate_speedup_cap`` (DRAM/L2 saturation) by uniform rescaling.

Rates are in *single-SM work-seconds per wall second*, i.e. the composite
speedup of the stage at its effective share, degraded by the efficiency
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.gpu.context import SimContext
from repro.gpu.kernel import StageKernel


@dataclass(frozen=True)
class AllocationParams:
    """Tunable constants of the allocation model.

    Attributes
    ----------
    alpha:
        Device-level contention penalty per unit of over-subscription
        pressure.  Drives the paper's Scenario-2 observation that 2.0x
        over-subscription loses to 1.5x.
    beta:
        Intra-context co-location interference per extra resident kernel.
    width_fraction:
        Fraction of a stage's peak speedup that defines its width demand
        (used when building kernels; recorded here for provenance).
    """

    alpha: float = 0.03
    beta: float = 0.01
    width_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if not 0.0 < self.width_fraction <= 1.0:
            raise ValueError("width_fraction must be in (0, 1]")


@dataclass
class AllocationResult:
    """Outcome of one allocation pass.

    Attributes
    ----------
    shares:
        Kernel id -> effective SM share (after device scaling).
    rates:
        Kernel id -> progress rate (single-SM seconds per second).
    pressure:
        Summed intra-context grants divided by physical SMs (>1 means the
        device was over-subscribed at this instant).
    device_scale:
        Uniform scale applied to shares (1.0 when pressure <= 1).
    aggregate_rate:
        Summed progress rate after the ceiling was applied.
    """

    shares: Dict[int, float] = field(default_factory=dict)
    rates: Dict[int, float] = field(default_factory=dict)
    pressure: float = 0.0
    device_scale: float = 1.0
    aggregate_rate: float = 0.0


def intra_context_shares(
    kernels: Sequence[StageKernel], nominal_sms: float
) -> Dict[int, float]:
    """Water-filled, weight-proportional split of one context's SMs.

    Kernels whose width demand is below their proportional share release
    the surplus to the others.  The split is *work-conserving*: if every
    kernel's demand is satisfied and budget remains, the leftover is still
    handed out weight-proportionally — **to every kernel, width-capped
    ones included, so a final share may exceed the kernel's recorded
    ``width_demand``**.  This is deliberate, not an oversight: the
    saturating curves make the surplus nearly (but not exactly) worthless,
    matching hardware, where a lone kernel occupies the whole partition
    regardless of how little the tail of it helps; ``width_demand`` is the
    knee of the curve (the 90%-of-peak point), not a hard architectural
    limit, so over-granting wastes SMs rather than violating a constraint.
    The behaviour is pinned by a regression test
    (``tests/gpu/test_allocator.py::TestLeftoverSpread``).

    The result never exceeds ``nominal_sms`` in total.
    """
    if not kernels:
        return {}
    remaining = {k.kernel_id: k for k in kernels}
    shares: Dict[int, float] = {}
    budget = nominal_sms
    # Water-filling terminates in <= len(kernels) rounds because each round
    # either caps at least one kernel or distributes the whole budget.
    while remaining and budget > 1e-12:
        total_weight = sum(k.weight for k in remaining.values())
        capped: List[int] = []
        for kernel_id, kernel in remaining.items():
            proportional = budget * kernel.weight / total_weight
            if kernel.width_demand <= proportional:
                shares[kernel_id] = kernel.width_demand
                capped.append(kernel_id)
        if not capped:
            for kernel_id, kernel in remaining.items():
                shares[kernel_id] = budget * kernel.weight / total_weight
            return shares
        for kernel_id in capped:
            budget -= shares[kernel_id]
            del remaining[kernel_id]
    for kernel_id in remaining:
        shares.setdefault(kernel_id, 0.0)
    if budget > 1e-12:
        # Everyone is width-satisfied: spread the leftover anyway.
        total_weight = sum(k.weight for k in kernels)
        for kernel in kernels:
            shares[kernel.kernel_id] += budget * kernel.weight / total_weight
    return shares


class WaterfillCache:
    """Bit-transparent memoisation of :func:`intra_context_shares`.

    The water-fill's output — values *and* dict insertion order (which
    capping round each kernel left in) — is a pure function of the budget
    and the ordered ``(weight, width_demand)`` sequence of the resident
    kernels; the kernel identities only name the dict keys.  Backlogged
    runs re-solve the same handful of shapes thousands of times (every
    residency change re-fills that context, and pipelines reuse a few
    stage profiles), so the cache keys on that shape tuple and stores the
    solution as ``(input position, share)`` pairs **in the original
    insertion order**.  Replay rebuilds the dict in that same order with
    the same floats, so downstream order-sensitive consumers — notably
    ``sum(shares.values())`` in :func:`compute_allocation` — see bit-identical
    results; the cache is invisible in every trace.

    Keys are value tuples (no ``id()``), so object lifetime cannot alias
    entries.  The table is cleared wholesale past :attr:`MAX_ENTRIES` — a
    crude but sufficient bound, since real runs see few distinct shapes.
    """

    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._entries: Dict[
            Tuple[float, Tuple[Tuple[float, float], ...]],
            Tuple[Tuple[int, float], ...],
        ] = {}
        self.hits = 0
        self.misses = 0

    def shares(
        self, kernels: Sequence[StageKernel], nominal_sms: float
    ) -> Dict[int, float]:
        """Cached :func:`intra_context_shares` — same dict, same bits."""
        if not kernels:
            return {}
        key = (
            nominal_sms,
            tuple((k.weight, k.width_demand) for k in kernels),
        )
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return {
                kernels[position].kernel_id: share
                for position, share in cached
            }
        self.misses += 1
        shares = intra_context_shares(kernels, nominal_sms)
        position_of = {k.kernel_id: i for i, k in enumerate(kernels)}
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = tuple(
            (position_of[kernel_id], share)
            for kernel_id, share in shares.items()
        )
        return shares


def compute_allocation(
    contexts: Sequence[SimContext],
    total_sms: float,
    aggregate_cap: float,
    params: AllocationParams = AllocationParams(),
    cache: "WaterfillCache | None" = None,
) -> AllocationResult:
    """Allocate SM shares and progress rates for all resident kernels.

    ``cache`` optionally memoises the per-context water-fills (see
    :class:`WaterfillCache`); results are bit-identical either way.  A
    kernel's speedup curve is evaluated only when its effective share
    differs from the one it was last evaluated at (the pair is kept on the
    kernel as ``curve_share``/``curve_speedup``): a curve is a pure
    function of the share, so the memo is bit-transparent, and a settle
    pays curve evaluations only for the kernels whose share it moved.
    """
    result = AllocationResult()
    per_context: List[Tuple[SimContext, Dict[int, float]]] = []
    granted_total = 0.0
    for context in contexts:
        kernels = context.resident_kernels()
        if not kernels:
            continue
        if cache is not None:
            shares = cache.shares(kernels, context.nominal_sms)
        else:
            shares = intra_context_shares(kernels, context.nominal_sms)
        per_context.append((context, shares))
        granted_total += sum(shares.values())

    if granted_total <= 0.0:
        return result

    result.pressure = granted_total / total_sms
    result.device_scale = min(1.0, total_sms / granted_total)
    contention = 1.0
    if result.pressure > 1.0:
        contention = 1.0 / (1.0 + params.alpha * (result.pressure - 1.0))

    aggregate = 0.0
    kernel_index: Dict[int, StageKernel] = {}
    for context, shares in per_context:
        kernels = context.resident_kernels()
        colocation = 1.0 / (1.0 + params.beta * (len(kernels) - 1))
        for kernel in kernels:
            share = shares.get(kernel.kernel_id, 0.0) * result.device_scale
            if share != kernel.curve_share:
                kernel.curve_share = share
                kernel.curve_speedup = kernel.curve.speedup(share)
            rate = kernel.curve_speedup * colocation
            result.shares[kernel.kernel_id] = share
            result.rates[kernel.kernel_id] = rate
            kernel_index[kernel.kernel_id] = kernel
            aggregate += rate

    # The DRAM/L2 ceiling binds first; the over-subscription contention
    # penalty then degrades whatever the ceiling allows.  Ordering matters:
    # a heavily over-subscribed pool cannot hide its time-multiplexing
    # overhead behind the bandwidth ceiling (this is what makes 2.0x lose
    # to 1.5x once three contexts already fill the device — the paper's
    # Scenario 2 observation).
    ceiling_scale = min(1.0, aggregate_cap / aggregate) if aggregate > 0 else 1.0
    overall = ceiling_scale * contention
    if overall < 1.0:
        for kernel_id in result.rates:
            result.rates[kernel_id] *= overall
        aggregate *= overall
    result.aggregate_rate = aggregate

    # Publish onto the kernels for the device's progress accounting.  The
    # rate revision moves only when the published rate differs from the
    # kernel's current one: unchanged inputs reproduce bit-identical floats,
    # so an equality check is exact, and the device uses the revision to
    # skip re-arming completion events whose time is still exact.
    for kernel_id, kernel in kernel_index.items():
        kernel.share = result.shares[kernel_id]
        rate = result.rates[kernel_id]
        if rate != kernel.rate:
            kernel.rate = rate
            kernel.rate_rev += 1
    return result
