"""A small deterministic DAG container for network graphs.

Deliberately minimal: insertion-ordered nodes, Kahn topological sort with
insertion-order tie-breaking (so every traversal is reproducible), and the
structural validation the stage partitioner relies on.  ``networkx`` is
available in this environment but a bespoke container keeps the dependency
surface small and the iteration order contractually deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.dnn.ops import Operator
from repro.numeric import sum_in_order


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class LayerGraph:
    """Directed acyclic graph of :class:`~repro.dnn.ops.Operator` nodes.

    Nodes are keyed by operator name.  Edges represent data dependencies:
    ``add_edge(a, b)`` means operator ``b`` consumes ``a``'s output.

    The graph also remembers its construction order, which for all builders
    in :mod:`repro.dnn.resnet` is a valid topological order with residual
    skip edges pointing forward; the stage partitioner cuts this order into
    contiguous intervals.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Operator] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, op: Operator) -> Operator:
        """Add an operator node; names must be unique."""
        if op.name in self._nodes:
            raise GraphError(f"duplicate operator name {op.name!r}")
        self._nodes[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        return op

    def add_edge(self, src: str, dst: str) -> None:
        """Add a data dependency ``src -> dst``."""
        if src not in self._nodes:
            raise GraphError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise GraphError(f"unknown destination node {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[Operator]:
        """Iterate operators in insertion order."""
        return iter(self._nodes.values())

    def node(self, name: str) -> Operator:
        """Look up an operator by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def edges(self) -> List[Tuple[str, str]]:
        """All edges in deterministic order."""
        return [(src, dst) for src in self._nodes for dst in self._succ[src]]

    def successors(self, name: str) -> List[str]:
        """Names of nodes consuming ``name``'s output."""
        self.node(name)
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        """Names of nodes ``name`` consumes from."""
        self.node(name)
        return list(self._pred[name])

    def sources(self) -> List[str]:
        """Nodes with no predecessors, in insertion order."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Nodes with no successors, in insertion order."""
        return [n for n in self._nodes if not self._succ[n]]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        """Sum of FLOPs over all operators."""
        return sum_in_order(op.flops for op in self._nodes.values())

    def total_bytes(self) -> float:
        """Sum of modelled DRAM traffic over all operators."""
        return sum_in_order(op.bytes_moved for op in self._nodes.values())

    def total_params(self) -> int:
        """Sum of parameter counts over all operators."""
        return sum(op.params for op in self._nodes.values())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Operator]:
        """Kahn topological sort with insertion-order tie-breaking.

        Raises
        ------
        GraphError
            If the graph contains a cycle.
        """
        in_degree = {name: len(self._pred[name]) for name in self._nodes}
        ready = [name for name in self._nodes if in_degree[name] == 0]
        order: List[Operator] = []
        # `ready` is kept sorted by insertion index for determinism.
        insertion_index = {name: i for i, name in enumerate(self._nodes)}
        while ready:
            ready.sort(key=insertion_index.__getitem__)
            current = ready.pop(0)
            order.append(self._nodes[current])
            for succ in self._succ[current]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check the graph is a connected DAG with one source and one sink.

        Network graphs built by this package are inference pipelines: a
        single input image flows to a single classification output.

        Raises
        ------
        GraphError
            On cycles, multiple sources/sinks, or disconnected nodes.
        """
        if not self._nodes:
            raise GraphError(f"graph {self.name!r} is empty")
        self.topological_order()  # raises on cycles
        sources = self.sources()
        sinks = self.sinks()
        if len(sources) != 1:
            raise GraphError(f"graph {self.name!r} has {len(sources)} sources")
        if len(sinks) != 1:
            raise GraphError(f"graph {self.name!r} has {len(sinks)} sinks")
        reachable = self._reachable_from(sources[0])
        if len(reachable) != len(self._nodes):
            missing = sorted(set(self._nodes) - reachable)
            raise GraphError(
                f"graph {self.name!r} has unreachable nodes: {missing[:5]}"
            )

    def insertion_order_is_topological(self) -> bool:
        """Whether every edge points forward in insertion order."""
        index = {name: i for i, name in enumerate(self._nodes)}
        return all(index[src] < index[dst] for src, dst in self.edges())

    def _reachable_from(self, start: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._succ[current])
        return seen
