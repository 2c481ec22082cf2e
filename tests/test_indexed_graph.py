"""Tests for the CSR :class:`IndexedGraph` backend and its routing."""

from __future__ import annotations

from collections import deque

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.graphs.traversal import bfs_parents, dfs_parents


def heterogeneous_graph() -> Graph:
    """A connected graph whose node labels mix ints, strings, and tuples."""
    graph = Graph()
    graph.add_edge(1, "a")
    graph.add_edge("a", (2, "b"))
    graph.add_edge((2, "b"), 7)
    graph.add_edge(7, 1)
    graph.add_edge("a", "z")
    graph.add_node("isolated-free")
    graph.add_edge("isolated-free", "z")
    return graph


# ----------------------------------------------------------------------
# legacy reference implementations (pre-IndexedGraph semantics)
# ----------------------------------------------------------------------
def legacy_bfs_order(graph: Graph, start):
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in sorted(graph.neighbors(node), key=repr):
            if neighbor not in seen:
                seen.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    return order


def legacy_dfs_order(graph: Graph, start):
    order, seen, stack = [], set(), [start]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        for neighbor in sorted(graph.neighbors(node), key=repr, reverse=True):
            if neighbor not in seen:
                stack.append(neighbor)
    return order


# ----------------------------------------------------------------------
# round-trip and structure
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_heterogeneous_labels_round_trip(self):
        graph = heterogeneous_graph()
        indexed = IndexedGraph.from_graph(graph)
        assert indexed.to_graph() == graph

    def test_round_trip_preserves_counts(self, planar_case):
        _, graph = planar_case
        indexed = graph.indexed()
        assert indexed.n == graph.number_of_nodes()
        assert indexed.m == graph.number_of_edges()
        assert indexed.to_graph() == graph

    def test_labels_keep_insertion_order(self):
        graph = heterogeneous_graph()
        assert graph.indexed().labels == list(graph.nodes())

    def test_degrees_match(self):
        graph = heterogeneous_graph()
        indexed = graph.indexed()
        for i, label in enumerate(indexed.labels):
            assert indexed.degree_of(i) == graph.degree(label)

    def test_adjacency_blocks_repr_sorted(self):
        graph = heterogeneous_graph()
        indexed = graph.indexed()
        for i in range(indexed.n):
            block = [indexed.labels[j] for j in indexed.neighbors_of(i)]
            assert block == sorted(block, key=repr)

    def test_index_unknown_label_raises(self):
        indexed = heterogeneous_graph().indexed()
        with pytest.raises(GraphError):
            indexed.index("nope")


# ----------------------------------------------------------------------
# caching on Graph
# ----------------------------------------------------------------------
class TestIndexedCache:
    def test_cache_is_reused_until_mutation(self):
        graph = heterogeneous_graph()
        first = graph.indexed()
        assert graph.indexed() is first
        graph.add_edge(1, "z")
        second = graph.indexed()
        assert second is not first
        assert second.m == first.m + 1

    def test_cache_invalidated_by_removals(self):
        graph = heterogeneous_graph()
        first = graph.indexed()
        graph.remove_edge(1, "a")
        assert graph.indexed() is not first
        graph.add_edge(1, "a")
        assert graph.indexed().to_graph() == graph

    def test_copy_does_not_share_cache(self):
        graph = heterogeneous_graph()
        original = graph.indexed()
        clone = graph.copy()
        assert clone.indexed() is not original
        assert clone.indexed().to_graph() == graph


# ----------------------------------------------------------------------
# traversal routing keeps the historical deterministic orders
# ----------------------------------------------------------------------
def bfs_order(graph: Graph, start):
    """The CSR BFS order from ``start``, as labels."""
    indexed = graph.indexed()
    return [indexed.labels[i] for i in indexed.bfs_order_from(indexed.index_of[start])]


class TestTraversalEquivalence:
    """The CSR traversals visit in the legacy order; the parent maps are in
    discovery order, so their keys are the visiting order too."""

    def test_bfs_order_matches_legacy(self, planar_case):
        _, graph = planar_case
        start = next(iter(graph.nodes()))
        assert bfs_order(graph, start) == legacy_bfs_order(graph, start)
        assert list(bfs_parents(graph, start)) == legacy_bfs_order(graph, start)

    def test_dfs_order_matches_legacy(self, planar_case):
        _, graph = planar_case
        start = next(iter(graph.nodes()))
        assert list(dfs_parents(graph, start)) == legacy_dfs_order(graph, start)

    def test_heterogeneous_traversals(self):
        graph = heterogeneous_graph()
        start = 1
        assert bfs_order(graph, start) == legacy_bfs_order(graph, start)
        assert list(bfs_parents(graph, start)) == legacy_bfs_order(graph, start)
        assert list(dfs_parents(graph, start)) == legacy_dfs_order(graph, start)

    def test_parents_are_consistent_with_orders(self):
        graph = heterogeneous_graph()
        parents = bfs_parents(graph, 1)
        assert parents[1] is None
        for node, parent in parents.items():
            if parent is not None:
                assert graph.has_edge(node, parent)
        dparents = dfs_parents(graph, 1)
        assert set(dparents) == set(parents)

    def test_shortest_path_lengths(self):
        """BFS parent pointers give hop distances on mixed labels."""
        graph = heterogeneous_graph()
        parents = bfs_parents(graph, 1)
        dist = {}
        for node, parent in parents.items():  # discovery order: parents first
            dist[node] = 0 if parent is None else dist[parent] + 1
        assert dist[1] == 0
        assert dist["a"] == 1
        assert dist["z"] == 2
        assert dist["isolated-free"] == 3

    def test_missing_start_raises(self):
        graph = heterogeneous_graph()
        with pytest.raises(GraphError):
            bfs_parents(graph, "missing")
        with pytest.raises(GraphError):
            dfs_parents(graph, "missing")

    def test_is_connected_uses_compiled_view(self):
        graph = heterogeneous_graph()
        graph.indexed()
        assert graph.is_connected()
        graph.add_node("floating")
        assert not graph.is_connected()
