"""Tests for traversals, spanning trees, degeneracy, embeddings, and validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import EmbeddingError, GraphError, NotConnectedError
from repro.graphs.degeneracy import assign_edges_by_degeneracy, degeneracy_ordering
from repro.graphs.embedding import RotationSystem
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_apollonian_network,
    random_tree,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning_tree import (
    RootedTree,
    bfs_spanning_tree,
    cotree_edges,
    dfs_spanning_tree,
)
from repro.graphs.traversal import bfs_parents, dfs_parents
from repro.graphs.validation import (
    hamiltonian_order_is_valid,
    is_outerplanar,
    is_path_graph,
    require_connected,
)


class TestTraversal:
    def test_bfs_parents_visit_everything(self):
        graph = grid_graph(4, 4)
        order = list(bfs_parents(graph, 0))
        assert len(order) == 16 and len(set(order)) == 16
        assert order[0] == 0

    def test_bfs_parents_give_shortest_paths(self):
        import networkx as nx
        from networkx_oracle import to_networkx

        graph = cycle_graph(8)
        parents = bfs_parents(graph, 0)
        distances = nx.single_source_shortest_path_length(to_networkx(graph), 0)
        for node, parent in parents.items():
            if parent is not None:
                assert distances[node] == distances[parent] + 1

    def test_dfs_parents(self):
        graph = random_tree(20, seed=1)
        parents = dfs_parents(graph, 0)
        assert len(parents) == 20
        assert parents[0] is None
        assert all(graph.has_edge(child, parent)
                   for child, parent in parents.items() if parent is not None)

    def test_unknown_start_raises(self):
        graph = path_graph(3)
        with pytest.raises(GraphError):
            bfs_parents(graph, 99)
        with pytest.raises(GraphError):
            dfs_parents(graph, 99)


class TestRootedTree:
    def test_bfs_and_dfs_spanning_trees(self):
        graph = grid_graph(4, 5)
        for builder in (bfs_spanning_tree, dfs_spanning_tree):
            tree = builder(graph, 0)
            assert tree.spans(graph)
            assert tree.number_of_nodes() == 20
            assert tree.parent(0) is None
            assert sum(len(tree.children(v)) for v in tree.nodes()) == 19

    def test_disconnected_graph_rejected(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(NotConnectedError):
            bfs_spanning_tree(graph, 0)

    def test_subtree_sizes(self):
        graph = path_graph(6)
        tree = bfs_spanning_tree(graph, 0)
        sizes = tree.subtree_sizes()
        assert sizes[0] == 6
        assert sizes[5] == 1
        assert sizes[3] == 3

    def test_depth_and_edges(self):
        graph = complete_bipartite_graph(1, 5)
        tree = bfs_spanning_tree(graph, 0)
        assert all(tree.depth(leaf) == 1 for leaf in range(1, 6))
        assert len(tree.edges()) == 5
        assert tree.has_edge(0, 3) and not tree.has_edge(1, 2)

    def test_invalid_parent_pointers_rejected(self):
        with pytest.raises(GraphError):
            RootedTree(0, {1: 2, 2: 1, 0: None})
        with pytest.raises(GraphError):
            RootedTree(0, {1: 3, 2: 1, 3: 2})

    def test_cotree_edges(self):
        graph = cycle_graph(5)
        tree = bfs_spanning_tree(graph, 0)
        extra = cotree_edges(graph, tree)
        assert len(extra) == 1


class TestDegeneracy:
    def test_planar_graphs_are_5_degenerate(self):
        for seed in range(3):
            graph = random_apollonian_network(40, seed=seed)
            assert degeneracy_ordering(graph)[1] <= 5

    def test_complete_graph_degeneracy(self):
        assert degeneracy_ordering(complete_graph(6))[1] == 5

    def test_ordering_property(self):
        graph = random_apollonian_network(30, seed=7)
        ordering, value = degeneracy_ordering(graph)
        position = {node: index for index, node in enumerate(ordering)}
        for node in graph.nodes():
            later = [nb for nb in graph.neighbors(node) if position[nb] > position[node]]
            assert len(later) <= value

    def test_edge_assignment_covers_all_edges_once(self):
        graph = random_apollonian_network(25, seed=2)
        assignment = assign_edges_by_degeneracy(graph)
        assigned = [edge for edges in assignment.values() for edge in edges]
        assert len(assigned) == graph.number_of_edges()
        assert len(set(assigned)) == graph.number_of_edges()
        assert max(len(edges) for edges in assignment.values()) <= 5

    def test_empty_graph(self):
        assert degeneracy_ordering(Graph()) == ([], 0)


class TestRotationSystem:
    def test_euler_formula_face_count(self):
        # every rotation system of a cycle embeds it with exactly 2 faces
        rotation = RotationSystem.trivial(cycle_graph(6))
        assert rotation.number_of_faces() == 2

    def test_nonplanar_rotation_fails_euler(self):
        graph = complete_graph(5)
        rotation = RotationSystem.trivial(graph)
        assert not rotation.is_planar_embedding()

    def test_rotation_queries(self):
        graph = complete_bipartite_graph(1, 3)
        rotation = RotationSystem.trivial(graph)
        order = rotation.rotation(0)
        assert set(order) == {1, 2, 3}
        assert rotation.rotation_from(0, order[1]) == order[1:] + order[:1]
        assert rotation.rotation_from(0, order[2])[0] == order[2]
        assert rotation.degree(0) == 3

    def test_inconsistent_rotation_rejected(self):
        with pytest.raises(EmbeddingError):
            RotationSystem({1: [2], 2: []})
        with pytest.raises(EmbeddingError):
            RotationSystem({1: [2, 2], 2: [1]})

    def test_to_graph_round_trip(self):
        graph = cycle_graph(5)
        rotation = RotationSystem.trivial(graph)
        assert rotation.to_graph() == graph


class TestValidation:
    def test_require_connected(self):
        require_connected(path_graph(4))
        with pytest.raises(NotConnectedError):
            require_connected(Graph(edges=[(0, 1), (2, 3)]))
        with pytest.raises(NotConnectedError):
            require_connected(Graph())

    def test_is_path_graph(self):
        assert is_path_graph(path_graph(5))
        assert is_path_graph(path_graph(1))
        assert not is_path_graph(cycle_graph(5))
        assert not is_path_graph(complete_bipartite_graph(1, 3))

    def test_is_outerplanar(self):
        assert is_outerplanar(cycle_graph(8))
        assert is_outerplanar(path_graph(6))
        assert not is_outerplanar(complete_graph(4))
        assert not is_outerplanar(grid_graph(3, 3))

    def test_hamiltonian_order(self):
        graph = path_graph(4)
        assert hamiltonian_order_is_valid(graph, [0, 1, 2, 3])
        assert not hamiltonian_order_is_valid(graph, [0, 2, 1, 3])
        assert not hamiltonian_order_is_valid(graph, [0, 1, 2])
        assert not hamiltonian_order_is_valid(graph, [0, 1, 2, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 60), st.integers(0, 10 ** 6))
def test_random_tree_is_a_tree(n, seed):
    """Property: the Pruefer generator always returns a connected acyclic graph."""
    tree = random_tree(n, seed=seed)
    assert tree.number_of_nodes() == n
    assert tree.number_of_edges() == n - 1
    assert tree.is_connected()


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10 ** 6))
def test_degeneracy_order_property_random(n, seed):
    """Property: every node has at most `degeneracy` neighbors later in the ordering."""
    graph = random_apollonian_network(n, seed=seed)
    ordering, value = degeneracy_ordering(graph)
    position = {node: index for index, node in enumerate(ordering)}
    assert value <= 5
    for node in graph.nodes():
        later = sum(1 for nb in graph.neighbors(node) if position[nb] > position[node])
        assert later <= value
