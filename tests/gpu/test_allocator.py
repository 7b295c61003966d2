"""Unit tests for the SM allocation model."""

import pytest

from repro.gpu import allocator as allocator_mod
from repro.gpu.allocator import (
    AllocationParams,
    compute_allocation,
    intra_context_shares,
)
from repro.gpu.context import SimContext
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.speedup.model import SaturatingCurve


def make_kernel(label="k", priority=PriorityLevel.LOW, width=64.0):
    return StageKernel(
        label=label,
        curve=SaturatingCurve(0.05),
        work=1.0,
        width_demand=width,
        deadline=1.0,
        priority=priority,
    )


def resident_context(context_id, sms, kernels):
    context = SimContext(context_id, sms)
    for kernel in kernels:
        context.enqueue(kernel)
    context.dispatch_ready()
    return context


class TestIntraContextShares:
    def test_single_kernel_gets_everything_up_to_width(self):
        kernel = make_kernel(width=64.0)
        shares = intra_context_shares([kernel], 34.0)
        assert shares[kernel.kernel_id] == pytest.approx(34.0)

    def test_lone_kernel_work_conserving_beyond_width(self):
        # width demand caps the *competitive* share, but a lone kernel
        # still absorbs the whole partition (its curve saturates anyway)
        kernel = make_kernel(width=10.0)
        shares = intra_context_shares([kernel], 34.0)
        assert shares[kernel.kernel_id] == pytest.approx(34.0)

    def test_width_demand_caps_competitive_share(self):
        narrow = make_kernel("n", width=4.0)
        rivals = [make_kernel(f"r{i}", width=64.0) for i in range(3)]
        shares = intra_context_shares([narrow] + rivals, 32.0)
        # narrow's demand-capped share is 4; the leftover goes to rivals
        # (equal weights would have given everyone 8)
        assert shares[narrow.kernel_id] < shares[rivals[0].kernel_id]

    def test_equal_weights_split_equally(self):
        kernels = [make_kernel(f"k{i}") for i in range(4)]
        shares = intra_context_shares(kernels, 32.0)
        for kernel in kernels:
            assert shares[kernel.kernel_id] == pytest.approx(8.0)

    def test_priority_weighting(self):
        high = make_kernel("h", priority=PriorityLevel.HIGH)
        low = make_kernel("l", priority=PriorityLevel.LOW)
        shares = intra_context_shares([high, low], 30.0)
        assert shares[high.kernel_id] == pytest.approx(20.0)
        assert shares[low.kernel_id] == pytest.approx(10.0)

    def test_capped_surplus_flows_to_others(self):
        narrow = make_kernel("n", width=2.0)
        wide = make_kernel("w", width=64.0)
        shares = intra_context_shares([narrow, wide], 34.0)
        assert shares[narrow.kernel_id] == pytest.approx(2.0)
        assert shares[wide.kernel_id] == pytest.approx(32.0)

    def test_leftover_spread_when_all_satisfied(self):
        kernels = [make_kernel(f"k{i}", width=5.0) for i in range(2)]
        shares = intra_context_shares(kernels, 34.0)
        # demands (5 + 5) < budget: the remaining 24 SMs are still handed
        # out, split equally between equal weights
        for kernel in kernels:
            assert shares[kernel.kernel_id] == pytest.approx(17.0)

    def test_never_exceeds_budget(self):
        kernels = [make_kernel(f"k{i}", width=5.0) for i in range(3)]
        shares = intra_context_shares(kernels, 34.0)
        assert sum(shares.values()) == pytest.approx(34.0)

    def test_empty_is_empty(self):
        assert intra_context_shares([], 34.0) == {}


class TestLeftoverSpread:
    """Regression pin for the work-conserving leftover spread.

    When every kernel's width demand is satisfied and budget remains, the
    spread hands the surplus to **every** kernel — width-capped ones
    included — so final shares deliberately exceed ``width_demand``.  The
    exact split is part of the trace contract (every allocation pass takes
    its shares from :func:`intra_context_shares`); see the function's
    docstring for the rationale.  Changing the spread invalidates every
    pinned trace at once, so these tests pin the precise values.
    """

    def test_shares_exceed_width_demand(self):
        narrow = make_kernel("n", width=3.0)
        wide = make_kernel("w", width=6.0)
        shares = intra_context_shares([narrow, wide], 34.0)
        # Demands total 9; the remaining 25 SMs split equally (equal
        # weights), pushing both past their recorded width demand.
        assert shares[narrow.kernel_id] == 3.0 + 25.0 / 2.0
        assert shares[wide.kernel_id] == 6.0 + 25.0 / 2.0
        assert shares[narrow.kernel_id] > narrow.width_demand
        assert shares[wide.kernel_id] > wide.width_demand

    def test_leftover_split_is_weight_proportional(self):
        high = make_kernel("h", priority=PriorityLevel.HIGH, width=2.0)
        low = make_kernel("l", priority=PriorityLevel.LOW, width=2.0)
        shares = intra_context_shares([high, low], 32.0)
        # 28 leftover SMs split 2:1 by priority weight on top of the
        # 2-SM demands, exceeding both width demands.
        leftover = 32.0 - 4.0
        assert shares[high.kernel_id] == 2.0 + leftover * 2.0 / 3.0
        assert shares[low.kernel_id] == 2.0 + leftover * 1.0 / 3.0

    def test_spread_remains_work_conserving(self):
        kernels = [make_kernel(f"k{i}", width=1.0) for i in range(5)]
        shares = intra_context_shares(kernels, 34.0)
        assert sum(shares.values()) == pytest.approx(34.0)
        assert all(s > 1.0 for s in shares.values())


class TestComputeAllocation:
    def test_no_kernels(self):
        context = SimContext(0, 34.0)
        result = compute_allocation([context], 68.0, 53.5)
        assert result.pressure == 0.0
        assert result.aggregate_rate == 0.0
        assert result.resident == 0
        assert result.changed == []

    def test_single_kernel_rate_matches_curve(self):
        kernel = make_kernel()
        context = resident_context(0, 34.0, [kernel])
        result = compute_allocation([context], 68.0, 1e9,
                                    AllocationParams(alpha=0.0, beta=0.0))
        assert kernel.rate == pytest.approx(SaturatingCurve(0.05).speedup(34.0))
        assert result.aggregate_rate == kernel.rate
        assert result.changed == [kernel]

    def test_undersubscribed_no_scaling(self):
        kernel = make_kernel()
        context = resident_context(0, 34.0, [kernel])
        result = compute_allocation([context], 68.0, 1e9)
        assert result.device_scale == 1.0
        assert result.pressure == pytest.approx(0.5)

    def test_oversubscribed_scales_down(self):
        kernels = [make_kernel(f"k{i}", width=68.0) for i in range(2)]
        contexts = [
            resident_context(i, 68.0, [kernel])
            for i, kernel in enumerate(kernels)
        ]
        result = compute_allocation(contexts, 68.0, 1e9)
        assert result.pressure == pytest.approx(2.0)
        assert result.device_scale == pytest.approx(0.5)
        assert result.resident == 2
        for kernel in kernels:
            assert kernel.share == pytest.approx(34.0)

    def test_contention_penalty_reduces_rates(self):
        def run(alpha):
            contexts = [
                resident_context(i, 68.0, [make_kernel(f"k{i}")])
                for i in range(2)
            ]
            return compute_allocation(
                contexts, 68.0, 1e9, AllocationParams(alpha=alpha, beta=0.0)
            ).aggregate_rate
        assert run(0.1) < run(0.0)

    def test_colocation_penalty(self):
        def run(beta, count):
            kernels = [make_kernel(f"k{i}") for i in range(count)]
            context = resident_context(0, 32.0, kernels)
            return compute_allocation(
                [context], 68.0, 1e9, AllocationParams(alpha=0.0, beta=beta)
            ).aggregate_rate
        # with four co-located kernels a positive beta cuts the rate
        assert run(0.1, 4) < run(0.0, 4)
        # a lone kernel pays nothing
        assert run(0.1, 1) == pytest.approx(run(0.0, 1))

    def test_aggregate_ceiling_binds(self):
        kernels = [make_kernel(f"k{i}") for i in range(4)]
        context = resident_context(0, 68.0, kernels)
        result = compute_allocation(
            [context], 68.0, 5.0, AllocationParams(alpha=0.0, beta=0.0)
        )
        assert result.aggregate_rate == pytest.approx(5.0)

    def test_ceiling_scales_uniformly(self):
        kernels = [make_kernel(f"k{i}") for i in range(2)]
        context = resident_context(0, 68.0, kernels)
        unbounded = compute_allocation(
            [context], 68.0, 1e9, AllocationParams(alpha=0.0, beta=0.0)
        )
        bounded_cap = unbounded.aggregate_rate / 2
        # fresh context because allocation mutates kernel state
        kernels2 = [make_kernel(f"j{i}") for i in range(2)]
        context2 = resident_context(1, 68.0, kernels2)
        compute_allocation(
            [context2], 68.0, bounded_cap, AllocationParams(alpha=0.0, beta=0.0)
        )
        rates = [kernel.rate for kernel in kernels2]
        assert rates[0] == pytest.approx(rates[1])
        assert sum(rates) == pytest.approx(bounded_cap)

    def test_hard_context_caps_not_work_conserving(self):
        """A context cannot exceed its nominal SMs even when the device has
        idle capacity — the core MPS semantics over-subscription exploits."""
        kernel = make_kernel(width=68.0)
        context = resident_context(0, 34.0, [kernel])
        compute_allocation([context], 68.0, 1e9)
        assert kernel.share == pytest.approx(34.0)

    def test_rate_rev_moves_only_with_the_rate(self):
        kernel = make_kernel()
        context = resident_context(0, 34.0, [kernel])
        compute_allocation([context], 68.0, 1e9)
        assert kernel.rate_rev == 1
        assert compute_allocation([context], 68.0, 1e9).changed == []
        assert kernel.rate_rev == 1
        # a tighter ceiling moves the rate, and with it the revision
        assert compute_allocation([context], 68.0, 1.0).changed == [kernel]
        assert kernel.rate_rev == 2

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AllocationParams(alpha=-1.0)


class TestSettleOnlyWhatMoved:
    """A pass water-fills only contexts whose residents moved, and reports
    exactly the kernels whose rate moved."""

    @pytest.fixture
    def fills(self, monkeypatch):
        filled = []
        waterfill = allocator_mod.intra_context_shares

        def counted(kernels, nominal_sms):
            filled.append([kernel.label for kernel in kernels])
            return waterfill(kernels, nominal_sms)

        monkeypatch.setattr(allocator_mod, "intra_context_shares", counted)
        return filled

    def test_unchanged_contexts_are_not_refilled(self, fills):
        contexts = [
            resident_context(i, 34.0, [make_kernel(f"c{i}k{j}") for j in range(2)])
            for i in range(2)
        ]
        first = compute_allocation(contexts, 68.0, 1e9)
        assert len(fills) == 2
        assert len(first.changed) == 4
        second = compute_allocation(contexts, 68.0, 1e9)
        assert len(fills) == 2
        assert second.changed == []
        assert second.resident == 4
        assert second.aggregate_rate == first.aggregate_rate

    def test_attach_refills_only_its_context(self, fills):
        contexts = [
            resident_context(i, 34.0, [make_kernel(f"c{i}k0")]) for i in range(2)
        ]
        compute_allocation(contexts, 68.0, 1e9)
        fills.clear()
        contexts[1].enqueue(make_kernel("c1k1"))
        contexts[1].dispatch_ready()
        compute_allocation(contexts, 68.0, 1e9)
        assert fills == [["c1k0", "c1k1"]]

    def test_refill_matches_a_fresh_allocation(self):
        # The memoised fill of an unchanged context must give the floats a
        # from-scratch pass over identical kernels gives.
        def build(tag):
            kernels = [
                make_kernel(f"{tag}{i}", priority=priority, width=width)
                for i, (priority, width) in enumerate(
                    [
                        (PriorityLevel.HIGH, 8.0),
                        (PriorityLevel.LOW, 64.0),
                        (PriorityLevel.MEDIUM, 20.0),
                    ]
                )
            ]
            contexts = [
                resident_context(0, 34.0, kernels[:2]),
                resident_context(1, 40.0, kernels[2:]),
            ]
            return kernels, contexts

        kernels, contexts = build("a")
        compute_allocation(contexts, 68.0, 30.0)
        extra = make_kernel("a-extra", priority=PriorityLevel.HIGH, width=30.0)
        contexts[1].enqueue(extra)
        contexts[1].dispatch_ready()
        memoised = compute_allocation(contexts, 68.0, 30.0)

        fresh_kernels, fresh_contexts = build("b")
        fresh_extra = make_kernel("b-extra", priority=PriorityLevel.HIGH, width=30.0)
        fresh_contexts[1].enqueue(fresh_extra)
        fresh_contexts[1].dispatch_ready()
        fresh = compute_allocation(fresh_contexts, 68.0, 30.0)

        assert memoised.pressure == fresh.pressure
        assert memoised.aggregate_rate == fresh.aggregate_rate
        for kernel, twin in zip(kernels + [extra], fresh_kernels + [fresh_extra]):
            assert (kernel.share, kernel.rate) == (twin.share, twin.rate)

    def test_changed_is_in_resident_order(self):
        contexts = [
            resident_context(
                i,
                34.0,
                [
                    make_kernel(f"c{i}k{j}", priority=priority)
                    for j, priority in enumerate(
                        [PriorityLevel.LOW, PriorityLevel.HIGH, PriorityLevel.MEDIUM]
                    )
                ],
            )
            for i in range(3)
        ]
        resident = [k for c in contexts for k in c.resident_kernels()]
        assert [k.label for k in resident[:3]] == ["c0k1", "c0k2", "c0k0"]
        assert compute_allocation(contexts, 68.0, 1e9).changed == resident
        # Detaching one kernel in each outer context moves only their
        # context-mates' rates (each context still grants all its SMs, so
        # the device pressure holds); the middle context is untouched.
        contexts[0].remove(resident[0])
        contexts[2].remove(resident[8])
        moved = contexts[0].resident_kernels() + contexts[2].resident_kernels()
        assert len(moved) == 4
        assert compute_allocation(contexts, 68.0, 1e9).changed == moved
        # A binding ceiling rescales every survivor, in resident order.
        survivors = [k for c in contexts for k in c.resident_kernels()]
        assert compute_allocation(contexts, 68.0, 5.0).changed == survivors
