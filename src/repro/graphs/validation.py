"""Validation helpers shared by the certification schemes and experiments."""

from __future__ import annotations

from repro.exceptions import NotConnectedError
from repro.graphs.graph import Graph, Node
from repro.graphs.planarity import is_planar

__all__ = ["require_connected", "is_outerplanar", "is_path_graph"]


def require_connected(graph: Graph, context: str = "operation") -> None:
    """Raise :class:`NotConnectedError` unless ``graph`` is connected and non-empty.

    The distributed model of the paper (Section 2) assumes a connected
    network; certification of a disconnected graph would have to run
    independently per component.
    """
    if graph.number_of_nodes() == 0:
        raise NotConnectedError(f"{context} requires a non-empty graph")
    if not graph.is_connected():
        raise NotConnectedError(f"{context} requires a connected graph")


def is_outerplanar(graph: Graph) -> bool:
    """Return whether ``graph`` is outerplanar.

    A graph is outerplanar iff adding a universal apex vertex keeps it
    planar: the apex can sit inside the outer face and reach every vertex
    exactly when all vertices lie on that face.
    """
    if graph.number_of_nodes() <= 3:
        return True
    apex = object()  # guaranteed fresh node
    augmented = graph.copy()
    for node in graph.nodes():
        augmented.add_edge(apex, node)
    return is_planar(augmented)


def is_path_graph(graph: Graph) -> bool:
    """Return whether ``graph`` is a simple path (connected, max degree 2, no cycle)."""
    indexed = graph.indexed()
    n = indexed.n
    if n == 0:
        return False
    if n == 1:
        return True
    if not indexed.is_connected():
        return False
    degrees = sorted(indexed.degrees)
    return degrees[0] == 1 and degrees[1] == 1 and all(d <= 2 for d in degrees) \
        and indexed.m == n - 1


def hamiltonian_order_is_valid(graph: Graph, order: list[Node]) -> bool:
    """Return whether ``order`` lists every node once and consecutive nodes are adjacent."""
    if len(order) != graph.number_of_nodes() or len(set(order)) != len(order):
        return False
    if any(not graph.has_node(node) for node in order):
        return False
    return all(graph.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1))


__all__.append("hamiltonian_order_is_valid")
