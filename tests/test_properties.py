"""Property-based tests (hypothesis) on core invariants.

Each property pins down an invariant the rest of the system silently relies
on: engine time monotonicity, allocation conservation, speedup curve shape,
deadline decomposition, and partitioner correctness.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadlines import assign_virtual_deadlines
from repro.dnn.graph import LayerGraph
from repro.dnn.ops import Operator, OpType
from repro.dnn.stages import partition_into_stages
from repro.gpu.allocator import AllocationParams, compute_allocation, intra_context_shares
from repro.gpu.context import SimContext
from repro.gpu.kernel import PriorityLevel, StageKernel
from repro.sim.engine import SimulationEngine
from repro.speedup.model import SaturatingCurve, sigma_for_target

# ---------------------------------------------------------------------------
# Engine properties
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
@settings(max_examples=100)
def test_engine_fires_in_nondecreasing_time_order(delays):
    engine = SimulationEngine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert len(fired) == len(delays)
    assert all(b >= a for a, b in zip(fired, fired[1:]))


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
    st.data(),
)
@settings(max_examples=50)
def test_engine_cancellation_only_removes_cancelled(delays, data):
    engine = SimulationEngine()
    events = [engine.schedule(d, lambda: None) for d in delays]
    cancel_indices = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1))
    )
    for index in cancel_indices:
        engine.cancel(events[index])
    fired = engine.run()
    assert fired == len(delays) - len(cancel_indices)


# ---------------------------------------------------------------------------
# Speedup curve properties
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=128.0),
    st.floats(min_value=0.1, max_value=128.0),
)
@settings(max_examples=200)
def test_saturating_curve_monotone(sigma, a, b):
    curve = SaturatingCurve(sigma)
    low, high = sorted((a, b))
    assert curve.speedup(low) <= curve.speedup(high) + 1e-12


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100)
def test_saturating_curve_identity_at_one(sigma):
    assert math.isclose(SaturatingCurve(sigma).speedup(1.0), 1.0)


@given(
    st.floats(min_value=1.0, max_value=68.0),
    st.floats(min_value=2.0, max_value=68.0),
)
@settings(max_examples=200)
def test_sigma_for_target_round_trips(target, at_sms):
    if target > at_sms:
        target = at_sms
    sigma = sigma_for_target(target, at_sms)
    assert 0.0 <= sigma <= 1.0
    assert math.isclose(
        SaturatingCurve(sigma).speedup(at_sms), target, rel_tol=1e-9
    )


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=68.0),
)
@settings(max_examples=100)
def test_curve_never_exceeds_sms(sigma, sms):
    # speedup on s SMs can never exceed s (no super-linear speedup)
    assert SaturatingCurve(sigma).speedup(sms) <= sms + 1e-9


# ---------------------------------------------------------------------------
# Deadline decomposition properties
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=12
    ),
    st.floats(min_value=1e-6, max_value=10.0),
)
@settings(max_examples=200)
def test_virtual_deadlines_sum_exactly_and_stay_positive(wcets, deadline):
    slices = assign_virtual_deadlines(wcets, deadline)
    assert len(slices) == len(wcets)
    # the final slice absorbs rounding residue; float re-summation may still
    # differ by one ulp, hence the tight relative tolerance
    assert math.isclose(sum(slices), deadline, rel_tol=1e-12)
    assert all(s > 0 or math.isclose(s, 0.0, abs_tol=1e-12) for s in slices)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=12
    )
)
@settings(max_examples=100)
def test_virtual_deadlines_ordered_like_wcets(wcets):
    slices = assign_virtual_deadlines(wcets, 1.0)
    for (wa, sa), (wb, sb) in zip(
        zip(wcets, slices), list(zip(wcets, slices))[1:]
    ):
        if wa < wb:
            assert sa <= sb + 1e-9


# ---------------------------------------------------------------------------
# Allocation properties
# ---------------------------------------------------------------------------


def _kernels(widths_and_priorities):
    kernels = []
    for index, (width, priority) in enumerate(widths_and_priorities):
        kernels.append(
            StageKernel(
                label=f"k{index}",
                curve=SaturatingCurve(0.05),
                work=1.0,
                width_demand=width,
                deadline=1.0,
                priority=priority,
            )
        )
    return kernels


kernel_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=68.0),
        st.sampled_from(list(PriorityLevel)),
    ),
    min_size=1,
    max_size=4,
)


@given(kernel_strategy, st.floats(min_value=1.0, max_value=136.0))
@settings(max_examples=200)
def test_intra_context_shares_conserve_budget(spec, nominal):
    kernels = _kernels(spec)
    shares = intra_context_shares(kernels, nominal)
    assert sum(shares.values()) <= nominal + 1e-6
    assert all(share >= 0 for share in shares.values())


@given(
    st.lists(kernel_strategy, min_size=1, max_size=3),
    st.floats(min_value=10.0, max_value=136.0),
)
@settings(max_examples=100)
def test_device_allocation_bounded_by_physical_sms(context_specs, nominal):
    contexts = []
    kernels = []
    for index, spec in enumerate(context_specs):
        context = SimContext(index, nominal)
        for kernel in _kernels(spec):
            context.enqueue(kernel)
            kernels.append(kernel)
        context.dispatch_ready()
        contexts.append(context)
    result = compute_allocation(
        contexts, 68.0, 53.5, AllocationParams()
    )
    # every kernel fits on a stream, so every one was allocated
    assert result.resident == len(kernels)
    assert sum(kernel.share for kernel in kernels) <= 68.0 + 1e-6
    assert result.aggregate_rate <= 53.5 + 1e-6
    assert all(kernel.rate >= 0 for kernel in kernels)


# ---------------------------------------------------------------------------
# Partitioner properties
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=40
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100)
def test_partition_covers_chain_exactly(costs, parts):
    if parts > len(costs):
        parts = len(costs)
    graph = LayerGraph("chain")
    previous = None
    for index, cost in enumerate(costs):
        name = f"n{index}"
        graph.add_node(
            Operator(
                name=name,
                op_type=OpType.RELU,
                input_shape=(4,),
                output_shape=(4,),
                flops=cost,
                bytes_moved=cost,
            )
        )
        if previous:
            graph.add_edge(previous, name)
        previous = name
    plan = partition_into_stages(graph, parts, cost_fn=lambda op: op.flops)
    plan.validate()
    assert plan.num_stages == parts
    # min-max objective: the best stage can never exceed total, and the
    # max stage is at least total/parts
    total = sum(costs)
    assert max(plan.costs) >= total / parts - 1e-9
    assert max(plan.costs) <= total + 1e-9


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=30)
)
@settings(max_examples=50)
def test_partition_into_n_never_worse_than_fewer_parts(costs):
    """More stages can only reduce (or keep) the max stage cost."""
    graph = LayerGraph("chain")
    previous = None
    for index, cost in enumerate(costs):
        name = f"n{index}"
        graph.add_node(
            Operator(
                name=name,
                op_type=OpType.RELU,
                input_shape=(4,),
                output_shape=(4,),
                flops=cost,
                bytes_moved=0.0,
            )
        )
        if previous:
            graph.add_edge(previous, name)
        previous = name
    plan2 = partition_into_stages(graph, 2, cost_fn=lambda op: op.flops)
    plan4 = partition_into_stages(graph, 4, cost_fn=lambda op: op.flops)
    assert max(plan4.costs) <= max(plan2.costs) + 1e-9


# ---------------------------------------------------------------------------
# Kernel progress properties
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
@settings(max_examples=100)
def test_kernel_progress_is_conserved(work, setup, steps):
    kernel = StageKernel(
        label="k",
        curve=SaturatingCurve(0.0),
        work=work,
        width_demand=1.0,
        deadline=1.0,
        setup_time=setup,
    )
    kernel.rate = 1.0
    consumed = 0.0
    for step in steps:
        before = kernel.setup_remaining + kernel.work_remaining
        kernel.advance(step)
        after = kernel.setup_remaining + kernel.work_remaining
        assert after <= before + 1e-12
        consumed += before - after
    assert consumed <= setup + work + 1e-6
