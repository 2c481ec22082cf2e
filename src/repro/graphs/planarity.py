"""Planarity testing and planar-embedding computation.

The honest prover of Theorem 1 needs a combinatorial planar embedding
(rotation system) of the input graph, and the Kuratowski minimiser of the
non-planarity prover needs many yes/no tests on edge subsets.  This module
is the one place that knows how planarity is tested:

* fast necessary conditions (edge-count bounds) reject dense graphs
  without running a full test;
* the full test runs networkx's left-right planarity algorithm.  A yes/no
  question (:func:`is_planar`, :func:`edge_list_is_planar`) reads only its
  answer; when an embedding is asked for (:func:`compute_planar_embedding`)
  it is converted into our own
  :class:`~repro.graphs.embedding.RotationSystem` and re-validated against
  Euler's formula (an independent check implemented in this package) before
  being handed to callers, so a faulty embedding can never silently reach
  the prover.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import EmbeddingError, NotPlanarError
from repro.graphs.embedding import RotationSystem
from repro.graphs.graph import Edge, Graph

__all__ = [
    "planarity_upper_edge_bound",
    "passes_edge_count_bound",
    "is_planar",
    "edge_list_is_planar",
    "compute_planar_embedding",
]


def planarity_upper_edge_bound(n: int) -> int:
    """Return the maximum number of edges of a simple planar graph on ``n`` nodes.

    ``3n - 6`` for ``n >= 3``; smaller graphs are trivially planar.
    """
    if n < 3:
        return n * (n - 1) // 2
    return 3 * n - 6


def passes_edge_count_bound(graph: Graph) -> bool:
    """Return ``False`` when the graph has too many edges to be planar."""
    return graph.number_of_edges() <= planarity_upper_edge_bound(graph.number_of_nodes())


def is_planar(graph: Graph) -> bool:
    """Return whether ``graph`` is planar."""
    if graph.number_of_nodes() <= 4:
        return True
    if not passes_edge_count_bound(graph):
        return False
    # isolated nodes cannot change planarity, so the edge list decides
    return edge_list_is_planar(graph.edges())


def edge_list_is_planar(edges: Iterable[Edge]) -> bool:
    """Return whether the graph formed by ``edges`` alone is planar.

    The Kuratowski minimiser runs this on many edge subsets of one host, so
    the test graph is built straight from the list: no :class:`Graph`, no
    embedding conversion.
    """
    import networkx as nx

    view = nx.Graph()
    view.add_edges_from(edges)
    return nx.check_planarity(view)[0]


def compute_planar_embedding(graph: Graph) -> RotationSystem:
    """Return a planar rotation system of ``graph``.

    Raises
    ------
    NotPlanarError
        If the graph is not planar.
    EmbeddingError
        If the computed embedding fails the Euler-formula validation (this
        would indicate a bug in the planarity test and is always checked).
    """
    if not passes_edge_count_bound(graph):
        raise NotPlanarError(
            f"graph with n={graph.number_of_nodes()} and m={graph.number_of_edges()} "
            "violates the planar edge bound 3n - 6")
    import networkx as nx

    planar, embedding = nx.check_planarity(graph.to_networkx(), counterexample=False)
    if not planar:
        raise NotPlanarError("graph is not planar")
    rotation = RotationSystem.from_networkx_embedding(embedding)
    # networkx omits isolated nodes from some embedding views; re-add them.
    embedded = set(rotation.nodes())
    missing = [node for node in graph.nodes() if node not in embedded]
    if missing:
        rotations = {v: rotation.rotation(v) for v in rotation.nodes()}
        rotations.update({node: [] for node in missing})
        rotation = RotationSystem(rotations)
    if graph.number_of_nodes() > 0 and graph.is_connected():
        if not rotation.is_planar_embedding():
            raise EmbeddingError(
                "the planarity test returned a rotation system that fails Euler's formula")
    return rotation
