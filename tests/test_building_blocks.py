"""Tests for the Section 2 building blocks (spanning-tree / Hamiltonian-path labels)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.building_blocks import (
    HamiltonianPathLabel,
    PathGraphScheme,
    SpanningTreeLabel,
    TreeScheme,
    check_hamiltonian_path_label,
    check_spanning_tree_label,
    hamiltonian_path_labels,
    spanning_tree_labels,
)
from repro.distributed.network import Network
from repro.distributed.verifier import certify_and_verify, run_verification
from repro.exceptions import NotInClassError
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.spanning_tree import bfs_spanning_tree


def _ham_views(network, labels):
    """Run the Hamiltonian-path check at every node and return the decisions."""
    decisions = {}
    for node in network.nodes():
        neighbor_labels = {network.id_of(nb): labels.get(nb)
                           for nb in network.graph.neighbors(node)}
        decisions[node] = check_hamiltonian_path_label(
            network.id_of(node), labels.get(node), neighbor_labels)
    return decisions


def _st_views(network, labels):
    decisions = {}
    for node in network.nodes():
        neighbor_labels = {network.id_of(nb): labels.get(nb)
                           for nb in network.graph.neighbors(node)}
        decisions[node] = check_spanning_tree_label(
            network.id_of(node), labels.get(node), neighbor_labels)
    return decisions


class TestHamiltonianPathLabels:
    def test_completeness_on_path(self):
        graph = path_graph(8)
        network = Network(graph, seed=1)
        labels = hamiltonian_path_labels(network, list(range(8)))
        assert all(_ham_views(network, labels).values())

    def test_completeness_on_path_with_chords(self):
        graph = path_graph(8)
        graph.add_edge(0, 5)
        graph.add_edge(2, 7)
        network = Network(graph, seed=2)
        labels = hamiltonian_path_labels(network, list(range(8)))
        assert all(_ham_views(network, labels).values())

    def test_missing_label_rejected(self):
        network = Network(path_graph(4), seed=3)
        labels = hamiltonian_path_labels(network, list(range(4)))
        del labels[2]
        assert not all(_ham_views(network, labels).values())

    def test_duplicate_rank_rejected_on_cycle(self):
        """The cycle folding attack of Section 2: ranks going up then down must fail."""
        graph = cycle_graph(6)
        network = Network(graph, seed=4)
        root_id = network.id_of(0)
        # claim n=4 and fold the cycle: ranks 1,2,3,4,3,2
        ranks = {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2}
        parents = {0: None, 1: 0, 2: 1, 3: 2, 4: 5, 5: 0}
        labels = {node: HamiltonianPathLabel(
            total=4, rank=ranks[node], root_id=root_id,
            parent_id=None if parents[node] is None else network.id_of(parents[node]))
            for node in graph.nodes()}
        assert not all(_ham_views(network, labels).values())

    def test_wrong_total_rejected(self):
        network = Network(path_graph(5), seed=5)
        labels = hamiltonian_path_labels(network, list(range(5)))
        labels[3] = dataclasses.replace(labels[3], total=6)
        assert not all(_ham_views(network, labels).values())

    def test_rank_corruption_rejected(self):
        network = Network(path_graph(6), seed=6)
        for corrupted_rank in (0, 2, 7):
            labels = hamiltonian_path_labels(network, list(range(6)))
            labels[4] = dataclasses.replace(labels[4], rank=corrupted_rank)
            assert not all(_ham_views(network, labels).values()), corrupted_rank

    def test_label_encoding_is_logarithmic(self):
        label = HamiltonianPathLabel(total=1000, rank=500, root_id=123456, parent_id=654321)
        assert label.size_bits() < 120


class TestSpanningTreeLabels:
    def test_completeness(self):
        graph = grid_graph(4, 4)
        network = Network(graph, seed=1)
        tree = bfs_spanning_tree(graph, 0)
        labels = spanning_tree_labels(network, tree)
        assert all(_st_views(network, labels).values())

    def test_wrong_count_rejected(self):
        graph = grid_graph(3, 3)
        network = Network(graph, seed=2)
        tree = bfs_spanning_tree(graph, 0)
        labels = spanning_tree_labels(network, tree)
        labels = {node: dataclasses.replace(label, total=label.total + 1)
                  for node, label in labels.items()}
        assert not all(_st_views(network, labels).values())

    def test_subtree_size_corruption_rejected(self):
        graph = random_tree(12, seed=3)
        network = Network(graph, seed=3)
        tree = bfs_spanning_tree(graph, 0)
        labels = spanning_tree_labels(network, tree)
        labels[0] = dataclasses.replace(labels[0], subtree_size=labels[0].subtree_size - 1)
        assert not all(_st_views(network, labels).values())

    def test_distance_corruption_rejected(self):
        graph = path_graph(7)
        network = Network(graph, seed=4)
        tree = bfs_spanning_tree(graph, 0)
        labels = spanning_tree_labels(network, tree)
        labels[5] = dataclasses.replace(labels[5], distance=1)
        assert not all(_st_views(network, labels).values())

    def test_two_roots_rejected(self):
        graph = path_graph(4)
        network = Network(graph, seed=5)
        tree = bfs_spanning_tree(graph, 0)
        labels = spanning_tree_labels(network, tree)
        # node 3 claims to also be a root (of a different identifier)
        labels[3] = SpanningTreeLabel(total=4, root_id=network.id_of(3), parent_id=None,
                                      distance=0, subtree_size=4)
        assert not all(_st_views(network, labels).values())

    def test_label_encoding_is_logarithmic(self):
        label = SpanningTreeLabel(total=10 ** 6, root_id=999999, parent_id=888888,
                                  distance=1000, subtree_size=10 ** 6)
        assert label.size_bits() < 220


class TestPathGraphScheme:
    def test_completeness(self):
        for n in (1, 2, 5, 12):
            result = certify_and_verify(PathGraphScheme(), path_graph(n), seed=n)
            assert result.accepted
            assert result.max_certificate_bits < 32 * 5

    def test_prover_rejects_non_paths(self):
        with pytest.raises(NotInClassError):
            certify_and_verify(PathGraphScheme(), cycle_graph(5), seed=1)
        with pytest.raises(NotInClassError):
            certify_and_verify(PathGraphScheme(), complete_bipartite_graph(1, 3), seed=1)

    def test_soundness_on_cycle(self):
        """Transplanting path certificates onto a cycle must fail somewhere."""
        scheme = PathGraphScheme()
        path = path_graph(6)
        path_network = Network(path, seed=7)
        donor = scheme.prove(path_network)
        cycle = cycle_graph(6)
        cycle_network = Network(cycle, ids={node: path_network.id_of(node)
                                            for node in cycle.nodes()})
        result = run_verification(scheme, cycle_network, donor)
        assert not result.accepted

    def test_soundness_on_star(self):
        scheme = PathGraphScheme()
        star = complete_bipartite_graph(1, 3)
        network = Network(star, seed=8)
        labels = hamiltonian_path_labels(network, [1, 0, 2, 3])  # not a real path order
        result = run_verification(scheme, network, labels)
        assert not result.accepted

    def test_is_member(self):
        scheme = PathGraphScheme()
        assert scheme.is_member(path_graph(4))
        assert not scheme.is_member(cycle_graph(4))


class TestTreeScheme:
    def test_completeness(self):
        for seed in range(3):
            result = certify_and_verify(TreeScheme(), random_tree(15, seed=seed), seed=seed)
            assert result.accepted

    def test_prover_rejects_graphs_with_cycles(self):
        with pytest.raises(NotInClassError):
            certify_and_verify(TreeScheme(), cycle_graph(4), seed=1)

    def test_soundness_on_cycle(self):
        """A spanning-tree labelling of a cycle leaves one non-tree edge: rejected."""
        scheme = TreeScheme()
        cycle = cycle_graph(7)
        network = Network(cycle, seed=2)
        tree = bfs_spanning_tree(cycle, 0)
        labels = spanning_tree_labels(network, tree)
        result = run_verification(scheme, network, labels)
        assert not result.accepted
        assert len(result.rejecting_nodes) >= 1
