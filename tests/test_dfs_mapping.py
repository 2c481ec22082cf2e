"""Tests for the tree-cut transformation of Section 3.2 (Lemmas 3 and 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dfs_mapping import cut_open
from repro.core.path_outerplanar import is_path_outerplanar_witness
from repro.exceptions import EmbeddingError, GraphError, NotConnectedError
from repro.graphs.embedding import RotationSystem
from repro.graphs.generators import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    path_graph,
    random_apollonian_network,
    random_planar_graph,
    random_tree,
    wheel_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning_tree import RootedTree, bfs_spanning_tree, dfs_spanning_tree


def _check_decomposition(graph, **kwargs):
    decomposition = cut_open(graph, **kwargs)
    n = graph.number_of_nodes()
    assert decomposition.path_length == 2 * n - 1
    induced = decomposition.induced_graph()
    witness = list(range(1, decomposition.path_length + 1))
    assert is_path_outerplanar_witness(induced, witness)
    assert decomposition.contract_copies() == graph
    return decomposition


class TestLemma3:
    def test_planar_instances_become_path_outerplanar(self, planar_case):
        name, graph = planar_case
        _check_decomposition(graph)

    def test_number_of_copies_equals_tree_degree(self):
        graph = random_apollonian_network(25, seed=1)
        decomposition = _check_decomposition(graph)
        tree = decomposition.tree
        for node in graph.nodes():
            copies = decomposition.mapping.copies[node]
            # tree degree, plus one at the root: one copy per child, plus one
            assert len(copies) == len(tree.children(node)) + 1
            assert decomposition.mapping.f[copies[0]] == node

    def test_every_index_owned_exactly_once(self):
        graph = delaunay_planar_graph(30, seed=2)
        decomposition = _check_decomposition(graph)
        owned = sorted(index for indices in decomposition.mapping.copies.values()
                       for index in indices)
        assert owned == list(range(1, decomposition.path_length + 1))

    def test_tree_edges_map_to_two_path_edges(self):
        graph = grid_graph(4, 4)
        decomposition = _check_decomposition(graph)
        f = decomposition.mapping.f
        for image in decomposition.tree_edge_images.values():
            down, up = image.descend_index, image.return_index
            assert f[down] == image.parent and f[down + 1] == image.child
            assert f[up] == image.child and f[up + 1] == image.parent

    def test_cotree_edges_map_to_matching_copies(self):
        graph = random_planar_graph(35, seed=3)
        decomposition = _check_decomposition(graph)
        f = decomposition.mapping.f
        for (u, v), (copy_u, copy_v) in decomposition.cotree_edge_images.items():
            assert {f[copy_u], f[copy_v]} == {u, v}
        assert len(decomposition.cotree_edge_images) == \
            graph.number_of_edges() - (graph.number_of_nodes() - 1)

    def test_works_for_every_root_and_tree_kind(self):
        graph = wheel_graph(9)
        for root in graph.nodes():
            for builder in (bfs_spanning_tree, dfs_spanning_tree):
                _check_decomposition(graph, tree=builder(graph, root))

    def test_single_node_and_edge(self):
        single = path_graph(1)
        decomposition = cut_open(single)
        assert decomposition.path_length == 1
        edge = path_graph(2)
        decomposition = cut_open(edge)
        assert decomposition.path_length == 3
        assert decomposition.contract_copies() == edge

    def test_explicit_rotation_system(self):
        graph = cycle_graph(5)
        # every rotation system of a cycle is planar
        rotation = RotationSystem.trivial(graph)
        decomposition = _check_decomposition(graph, rotation=rotation)
        assert decomposition.rotation is rotation


class TestErrors:
    def test_disconnected_graph_rejected(self):
        with pytest.raises(NotConnectedError):
            cut_open(Graph(edges=[(0, 1), (2, 3)]))

    def test_non_spanning_tree_rejected(self):
        graph = cycle_graph(5)
        partial = RootedTree(0, {1: 0, 2: 1})
        with pytest.raises(GraphError):
            cut_open(graph, tree=partial)

    def test_rotation_covering_wrong_nodes_rejected(self):
        graph = path_graph(4)
        other = path_graph(3)
        rotation = RotationSystem.trivial(other)
        with pytest.raises(EmbeddingError):
            cut_open(graph, rotation=rotation)


class TestLemma4Direction:
    def test_contraction_recovers_original_exactly(self):
        for seed in range(4):
            graph = random_planar_graph(25, seed=seed)
            decomposition = cut_open(graph)
            assert decomposition.contract_copies() == graph

    def test_chord_intervals_are_laminar(self):
        from repro.core.path_outerplanar import find_crossing_pair

        graph = random_apollonian_network(40, seed=9)
        decomposition = cut_open(graph)
        assert find_crossing_pair(decomposition.chord_intervals()) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 45), st.integers(0, 10 ** 6), st.booleans())
def test_cut_open_property(n, seed, use_dfs_tree):
    """Property (Lemma 3 + Lemma 4): for random planar graphs, random spanning
    trees and roots, the induced graph is path-outerplanar and contracts back."""
    graph = random_planar_graph(n, seed=seed) if seed % 2 else \
        random_apollonian_network(n, seed=seed)
    root = sorted(graph.nodes())[seed % n]
    tree = (dfs_spanning_tree if use_dfs_tree else bfs_spanning_tree)(graph, root)
    decomposition = cut_open(graph, tree=tree)
    witness = list(range(1, decomposition.path_length + 1))
    assert is_path_outerplanar_witness(decomposition.induced_graph(), witness)
    assert decomposition.contract_copies() == graph


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10 ** 6))
def test_cut_open_trees_give_pure_paths(n, seed):
    """For trees (no cotree edges) the induced graph is exactly the path on 2n-1 nodes."""
    graph = random_tree(n, seed=seed)
    decomposition = cut_open(graph)
    assert decomposition.cotree_edge_images == {}
    induced = decomposition.induced_graph()
    assert induced.number_of_edges() == decomposition.path_length - 1
