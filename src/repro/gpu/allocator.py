"""SM allocation across contexts and resident kernels.

Called whenever the resident set changes; produces each kernel's SM share
and progress rate.  The model:

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

A pass redoes only what moved since the last one, computing every float
in the same order as a pass from scratch: a context is water-filled again
only when its residents changed (the fill is kept on the context with the
``residency_rev`` it was computed at), a kernel's curve is queried again
only when its share moved, and the shares and rates are published onto
the kernels, with the kernels whose rate moved listed in resident order
(``AllocationResult.changed``) so that the device re-anchors only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from repro.gpu.context import SimContext
from repro.gpu.kernel import StageKernel
from repro.numeric import sum_in_order

#: A kernel's share weight, read in C: the water-fill's weight sums map
#: it over the kernels instead of running a generator.
_weight = attrgetter("weight")


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
    """

    alpha: float = 0.03
    beta: float = 0.01

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")


@dataclass
class AllocationResult:
    """Outcome of one allocation pass.

    Each kernel's share and rate are published onto the kernel itself
    (``share``, ``rate``, ``rate_rev``); the result carries the pass-wide
    figures and which kernels moved.

    Attributes
    ----------
    pressure:
        Summed intra-context grants divided by physical SMs (>1 means the
        device was over-subscribed at this instant).
    device_scale:
        Uniform scale applied to shares (1.0 when pressure <= 1).
    aggregate_rate:
        Summed progress rate after the ceiling was applied.
    resident:
        Number of resident kernels the pass allocated.
    changed:
        The kernels whose ``rate_rev`` the pass bumped (their rate moved,
        or this was their first pass), in resident order: context order,
        then stream-index order.
    """

    pressure: float = 0.0
    device_scale: float = 1.0
    aggregate_rate: float = 0.0
    resident: int = 0
    changed: List[StageKernel] = field(default_factory=list)


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
        total_weight = sum_in_order(map(_weight, remaining.values()))
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
        total_weight = sum_in_order(map(_weight, kernels))
        for kernel in kernels:
            shares[kernel.kernel_id] += budget * kernel.weight / total_weight
    return shares


def compute_allocation(
    contexts: Sequence[SimContext],
    total_sms: float,
    aggregate_cap: float,
    params: AllocationParams = AllocationParams(),
) -> AllocationResult:
    """Allocate SM shares and progress rates for all resident kernels.

    Publishes ``share`` and ``rate`` onto every resident kernel and bumps
    ``rate_rev`` on each whose rate moved (or that is allocated for the
    first time); those kernels come back as ``AllocationResult.changed``.

    Two memos keep a pass from redoing work whose inputs did not move;
    both are bit-transparent:

    * A context's water-fill depends only on its residents, so it is
      recomputed only when the context's ``residency_rev`` moved since
      its last fill (``SimContext.fill_rev``).  Most change points attach
      or detach kernels in one context; the others reuse their fill.
    * A kernel's curve is queried only when its effective share differs
      from the one it was last queried at (``curve_share``/
      ``curve_speedup``): a curve is a pure function of the share.
    """
    result = AllocationResult()
    occupied: List[Tuple[SimContext, List[StageKernel]]] = []
    granted_total = 0.0
    for context in contexts:
        kernels = context.residents
        if not kernels:
            continue
        if context.fill_rev != context.residency_rev:
            shares = intra_context_shares(kernels, context.nominal_sms)
            context.fill_shares = [shares[kernel.kernel_id] for kernel in kernels]
            context.fill_granted = sum_in_order(shares.values())
            context.fill_rev = context.residency_rev
        occupied.append((context, kernels))
        granted_total += context.fill_granted

    if granted_total <= 0.0:
        return result

    result.pressure = granted_total / total_sms
    result.device_scale = device_scale = min(1.0, total_sms / granted_total)
    contention = 1.0
    if result.pressure > 1.0:
        contention = 1.0 / (1.0 + params.alpha * (result.pressure - 1.0))

    aggregate = 0.0
    resident: List[StageKernel] = []
    rates: List[float] = []
    for context, kernels in occupied:
        colocation = 1.0 / (1.0 + params.beta * (len(kernels) - 1))
        for kernel, fill in zip(kernels, context.fill_shares):
            share = fill * device_scale
            if share != kernel.curve_share:
                kernel.curve_share = share
                kernel.curve_speedup = kernel.curve.speedup(share)
            kernel.share = share
            rate = kernel.curve_speedup * colocation
            rates.append(rate)
            aggregate += rate
        resident.extend(kernels)

    # The DRAM/L2 ceiling binds first; the over-subscription contention
    # penalty then degrades whatever the ceiling allows.  Ordering matters:
    # a heavily over-subscribed pool cannot hide its time-multiplexing
    # overhead behind the bandwidth ceiling (this is what makes 2.0x lose
    # to 1.5x once three contexts already fill the device — the paper's
    # Scenario 2 observation).
    ceiling_scale = min(1.0, aggregate_cap / aggregate) if aggregate > 0 else 1.0
    overall = ceiling_scale * contention
    if overall < 1.0:
        rates = [rate * overall for rate in rates]
        aggregate *= overall
    result.aggregate_rate = aggregate
    result.resident = len(resident)

    # The rate revision moves only when the published rate differs from
    # the kernel's current one (or on a kernel's first pass, which has no
    # completion anchor yet): unchanged inputs reproduce bit-identical
    # floats, so an equality check is exact, and the device re-anchors
    # exactly the kernels listed in ``changed``.
    changed = result.changed
    for kernel, rate in zip(resident, rates):
        if rate != kernel.rate or not kernel.rate_rev:
            kernel.rate = rate
            kernel.rate_rev += 1
            changed.append(kernel)
    return result
