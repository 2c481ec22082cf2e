"""Degeneracy orderings.

The planarity scheme of Theorem 1 distributes one *edge certificate* per edge
of the graph, and keeps node certificates small by exploiting the fact that
every planar graph is 5-degenerate: there is an elimination ordering in which
every node has at most five neighbors that come later.  Assigning each edge's
certificate to its earlier endpoint therefore charges at most five edge
certificates to any node (Section 3.3).
"""

from __future__ import annotations

from repro.graphs.graph import Graph, Node, edge_key

__all__ = ["degeneracy_ordering", "assign_edges_by_degeneracy"]


def degeneracy_ordering(graph: Graph) -> tuple[list[Node], int]:
    """Return ``(ordering, degeneracy)`` using the classic min-degree peeling.

    The ordering lists nodes in elimination order: each node has at most
    ``degeneracy`` neighbors that appear *later* in the ordering.
    """
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    # bucket queue keyed by current degree
    max_degree = max(degrees.values(), default=0)
    buckets: list[set[Node]] = [set() for _ in range(max_degree + 1)]
    for node, degree in degrees.items():
        buckets[degree].add(node)

    removed: set[Node] = set()
    ordering: list[Node] = []
    degeneracy_value = 0
    pointer = 0
    n = graph.number_of_nodes()
    while len(ordering) < n:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        node = buckets[pointer].pop()
        degeneracy_value = max(degeneracy_value, pointer)
        ordering.append(node)
        removed.add(node)
        for neighbor in graph.neighbors(node):
            if neighbor in removed:
                continue
            old = degrees[neighbor]
            buckets[old].discard(neighbor)
            degrees[neighbor] = old - 1
            buckets[old - 1].add(neighbor)
        pointer = max(pointer - 1, 0)
    return ordering, degeneracy_value


def assign_edges_by_degeneracy(graph: Graph) -> dict[Node, list[tuple[Node, Node]]]:
    """Assign every edge to the endpoint that is eliminated first.

    Returns a mapping ``node -> list of incident edges charged to that node``.
    For a planar graph every list has length at most 5; in general the bound
    is the degeneracy of the graph.
    """
    ordering, _ = degeneracy_ordering(graph)
    position = {node: index for index, node in enumerate(ordering)}
    assignment: dict[Node, list[tuple[Node, Node]]] = {node: [] for node in graph.nodes()}
    for u, v in graph.edges():
        owner = u if position[u] < position[v] else v
        assignment[owner].append(edge_key(u, v))
    return assignment
