"""Partitioning a network into stages (sub-tasks).

SGPRS "proposes dividing a network (task) into multiple stages (sub-tasks)
to improve flexibility" (Section IV).  The evaluation divides ResNet18 into
six stages.  This module implements that division as a *balanced contiguous
partition* of the network's topological order: stage boundaries are chosen
by dynamic programming to minimise the most expensive stage, which is the
natural choice when per-stage virtual deadlines are proportional to WCET
(a perfectly balanced split maximises the slack of every stage).

Contiguity is sufficient for correctness: stages of one job execute
sequentially (stage j+1 is released when stage j finishes), so any edge that
crosses a boundary of a contiguous topological interval is automatically
satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.dnn.graph import LayerGraph
from repro.dnn.ops import Operator
from repro.numeric import sum_in_order

CostFn = Callable[[Operator], float]


def default_operator_cost(op: Operator) -> float:
    """Structural cost proxy used before WCETs exist: FLOPs + scaled bytes.

    The 25 FLOPs-per-byte weight approximates the compute/bandwidth ratio of
    the modelled device, so memory-bound operators are not treated as free.
    The offline profiling phase later replaces this proxy with measured
    WCETs; tests confirm both orderings give similar stage boundaries for
    ResNet18.
    """
    return op.flops + 25.0 * op.bytes_moved


@dataclass
class StagePlan:
    """A partition of one network into sequential stages.

    Attributes
    ----------
    graph:
        The partitioned network.
    stages:
        Stage -> list of operators, in execution order.
    costs:
        Stage cost under the cost function used for partitioning.
    """

    graph: LayerGraph
    stages: List[List[Operator]]
    costs: List[float] = field(default_factory=list)

    @property
    def num_stages(self) -> int:
        """Number of stages in the plan."""
        return len(self.stages)

    def imbalance(self) -> float:
        """max(stage cost) / mean(stage cost); 1.0 is perfectly balanced."""
        total = sum_in_order(self.costs)
        if not self.costs or total == 0.0:
            return 1.0
        mean = total / len(self.costs)
        return max(self.costs) / mean

    def validate(self) -> None:
        """Check the plan covers every operator exactly once, in order.

        Raises
        ------
        ValueError
            If operators are missing, duplicated, or out of topological
            order across stage boundaries.
        """
        flattened = [op.name for stage in self.stages for op in stage]
        expected = [op.name for op in self.graph.topological_order()]
        if sorted(flattened) != sorted(expected):
            raise ValueError("stage plan does not cover the graph exactly once")
        if any(not stage for stage in self.stages):
            raise ValueError("stage plan contains an empty stage")
        order_index = {name: i for i, name in enumerate(flattened)}
        for src, dst in self.graph.edges():
            if order_index[src] >= order_index[dst]:
                raise ValueError(
                    f"stage plan violates dependency {src!r} -> {dst!r}"
                )


def partition_into_stages(
    graph: LayerGraph,
    num_stages: int,
    cost_fn: Optional[CostFn] = None,
) -> StagePlan:
    """Split ``graph`` into ``num_stages`` balanced sequential stages.

    Uses the classic linear-partition dynamic program on the graph's
    topological order, minimising the maximum stage cost.  Zero-cost marker
    operators (e.g. the synthetic ``input`` node) are merged into their
    following stage.

    Parameters
    ----------
    graph:
        Network to partition; must validate as a single-source DAG.
    num_stages:
        Number of stages; must be between 1 and the number of operators.
    cost_fn:
        Per-operator cost used for balancing.  Defaults to
        :func:`default_operator_cost`.

    Raises
    ------
    ValueError
        If ``num_stages`` is out of range.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    order = graph.topological_order()
    if num_stages > len(order):
        raise ValueError(
            f"cannot split {len(order)} operators into {num_stages} stages"
        )
    cost_fn = cost_fn or default_operator_cost
    costs = [cost_fn(op) for op in order]
    boundaries = _linear_partition(costs, num_stages)
    stages: List[List[Operator]] = []
    start = 0
    for end in boundaries:
        stages.append(order[start:end])
        start = end
    plan = StagePlan(
        graph=graph,
        stages=stages,
        costs=[sum_in_order(cost_fn(op) for op in stage) for stage in stages],
    )
    plan.validate()
    return plan


def _linear_partition(costs: Sequence[float], parts: int) -> List[int]:
    """Return end indices (exclusive) of a min-max contiguous partition.

    Standard O(n^2 * k) dynamic program; n is ~70 for ResNet18 so this is
    instantaneous.  Ties are broken toward earlier boundaries, which keeps
    results deterministic.
    """
    n = len(costs)
    prefix = [0.0]
    for cost in costs:
        prefix.append(prefix[-1] + cost)

    def interval(a: int, b: int) -> float:
        """Cost of items a..b-1."""
        return prefix[b] - prefix[a]

    infinity = float("inf")
    # best[k][i] = minimal max-stage-cost splitting items 0..i-1 into k parts
    best = [[infinity] * (n + 1) for _ in range(parts + 1)]
    choice = [[0] * (n + 1) for _ in range(parts + 1)]
    best[0][0] = 0.0
    for k in range(1, parts + 1):
        for i in range(k, n + 1):
            # Last part is items j..i-1; earlier parts cover 0..j-1.
            for j in range(k - 1, i):
                candidate = max(best[k - 1][j], interval(j, i))
                if candidate < best[k][i] - 1e-12:
                    best[k][i] = candidate
                    choice[k][i] = j
    boundaries: List[int] = []
    i = n
    for k in range(parts, 0, -1):
        boundaries.append(i)
        i = choice[k][i]
    boundaries.reverse()
    return boundaries
