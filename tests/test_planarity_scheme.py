"""Tests for the Theorem 1 proof-labeling scheme for planarity (Algorithm 2)."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dfs_mapping import cut_open
from repro.core.planarity_scheme import (
    CotreeEdgeCertificate,
    PlanarityCertificate,
    PlanarityScheme,
    TreeEdgeCertificate,
    reconstruct_local_structure,
)
from repro.distributed.network import Network
from repro.distributed.verifier import certify_and_verify, run_verification
from repro.exceptions import NotInClassError
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    planar_plus_random_edges,
    random_apollonian_network,
    random_planar_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.planarity import is_planar
from repro.graphs.spanning_tree import dfs_spanning_tree


# ----------------------------------------------------------------------
# completeness (Theorem 1, first half)
# ----------------------------------------------------------------------
class TestCompleteness:
    def test_all_planar_instances_accepted(self, planar_case):
        name, graph = planar_case
        result = certify_and_verify(PlanarityScheme(), graph, seed=11)
        assert result.accepted, name

    def test_prover_refuses_nonplanar_inputs(self, nonplanar_case):
        name, graph = nonplanar_case
        with pytest.raises(NotInClassError):
            certify_and_verify(PlanarityScheme(), graph, seed=1)

    def test_is_member_matches_planarity(self):
        scheme = PlanarityScheme()
        assert scheme.is_member(grid_graph(4, 4))
        assert not scheme.is_member(petersen_graph())

    def test_different_spanning_trees_and_roots(self):
        graph = random_apollonian_network(30, seed=5)
        scheme = PlanarityScheme()
        for root in list(graph.nodes())[:5]:
            # cut_open roots its default BFS tree at the graph's first node
            rerooted = Graph(nodes=[root, *graph.nodes()], edges=graph.edges())
            network = Network(rerooted, seed=root)
            certificates = scheme.prove(network)
            assert {cert.spanning_tree.root_id for cert in certificates.values()} \
                == {network.id_of(root)}
            assert run_verification(scheme, network, certificates).accepted
            # a DFS tree through the prover's own assembly step
            decomposition = cut_open(graph, tree=dfs_spanning_tree(graph, root))
            network = Network(graph, seed=root)
            certificates = scheme._certificates_from_decomposition(network, decomposition)
            assert run_verification(scheme, network, certificates).accepted

    def test_id_assignment_independence(self):
        """Completeness holds for several identifier assignments of the same graph."""
        graph = random_apollonian_network(20, seed=7)
        for seed in range(4):
            assert certify_and_verify(PlanarityScheme(), graph, seed=seed).accepted


# ----------------------------------------------------------------------
# certificate size (the O(log n) claim)
# ----------------------------------------------------------------------
class TestCertificateSize:
    def test_at_most_five_edge_certificates_per_node(self):
        graph = random_apollonian_network(60, seed=8)
        network = Network(graph, seed=8)
        certificates = PlanarityScheme().prove(network)
        assert max(len(cert.edge_certificates) for cert in certificates.values()) <= 5

    def test_size_grows_logarithmically(self):
        """Doubling n repeatedly must add only O(1) bits per doubling per log-factor."""
        sizes = {}
        for n in (32, 128, 512):
            graph = random_apollonian_network(n, seed=n)
            result = certify_and_verify(PlanarityScheme(), graph, seed=n)
            assert result.accepted
            sizes[n] = result.max_certificate_bits
        ratio_32 = sizes[32] / math.log2(32)
        ratio_512 = sizes[512] / math.log2(512)
        # the bits-per-log(n) constant must not blow up (allow generous slack)
        assert ratio_512 < 2.0 * ratio_32
        # and it must be dramatically below the universal O(n log n) baseline
        # (the universal map certificate needs ~2 m log(id-range) > 50k bits here)
        assert sizes[512] < 0.25 * 512 * math.log2(512)

    def test_certificates_encode(self):
        graph = grid_graph(5, 5)
        network = Network(graph, seed=9)
        certificates = PlanarityScheme().prove(network)
        for certificate in certificates.values():
            assert isinstance(certificate, PlanarityCertificate)
            assert certificate.size_bits() > 0


# ----------------------------------------------------------------------
# soundness (Theorem 1, second half) — adversarial provers
# ----------------------------------------------------------------------
def _transplant(scheme, graph, seed):
    """Honest certificates of a maximal planar subgraph, replayed on ``graph``."""
    twin = graph.copy()
    rng = random.Random(seed)
    edges = list(twin.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if is_planar(twin):
            break
        twin.remove_edge(u, v)
        if not twin.is_connected():
            twin.add_edge(u, v)
    network = Network(graph, seed=seed)
    donor_network = Network(twin, ids={node: network.id_of(node) for node in twin.nodes()})
    donor_certificates = scheme.prove(donor_network)
    return network, donor_certificates


class TestSoundness:
    def test_transplanted_certificates_rejected(self, nonplanar_case):
        name, graph = nonplanar_case
        scheme = PlanarityScheme()
        network, donor = _transplant(scheme, graph, seed=13)
        result = run_verification(scheme, network, donor)
        assert not result.accepted, name
        assert len(result.rejecting_nodes) >= 1

    def test_shuffled_certificates_rejected(self):
        scheme = PlanarityScheme()
        graph = planar_plus_random_edges(20, extra_edges=2, seed=3)
        network, donor = _transplant(scheme, graph, seed=3)
        rng = random.Random(0)
        nodes = list(network.nodes())
        fooled = False
        for _ in range(30):
            shuffled_nodes = nodes[:]
            rng.shuffle(shuffled_nodes)
            assignment = {node: donor[other] for node, other in zip(nodes, shuffled_nodes)}
            if run_verification(scheme, network, assignment).accepted:
                fooled = True
                break
        assert not fooled

    def test_missing_certificate_rejected(self):
        scheme = PlanarityScheme()
        graph = random_planar_graph(20, seed=4)
        network = Network(graph, seed=4)
        certificates = scheme.prove(network)
        victim = next(iter(certificates))
        certificates[victim] = None
        assert not run_verification(scheme, network, certificates).accepted

    def test_k5_and_k33_never_accepted_with_any_tested_assignment(self):
        """Dense obstruction graphs: even exhaustive-ish random assignments fail."""
        scheme = PlanarityScheme()
        for graph in (complete_graph(5), complete_bipartite_graph(3, 3)):
            network, donor = _transplant(scheme, graph, seed=17)
            donor_values = list(donor.values())
            rng = random.Random(1)
            fooled = False
            for _ in range(100):
                assignment = {node: rng.choice(donor_values) for node in network.nodes()}
                if run_verification(scheme, network, assignment).accepted:
                    fooled = True
                    break
            assert not fooled


# ----------------------------------------------------------------------
# targeted certificate corruption: every field matters
# ----------------------------------------------------------------------
def _corrupt_and_check(graph, seed, corruption):
    scheme = PlanarityScheme()
    network = Network(graph, seed=seed)
    certificates = scheme.prove(network)
    corrupted = corruption(dict(certificates), network)
    return run_verification(scheme, network, corrupted)


class TestTargetedCorruption:
    GRAPH_SEED = 21

    def _graph(self):
        return random_apollonian_network(18, seed=5)

    def test_interval_corruption_detected(self):
        def corrupt(certs, network):
            for node, cert in certs.items():
                for edge_cert in cert.edge_certificates:
                    if isinstance(edge_cert, CotreeEdgeCertificate) and edge_cert.intervals:
                        entries = list(edge_cert.intervals)
                        index, low, high = entries[0]
                        entries[0] = (index, low, high + 2)
                        new_edge = dataclasses.replace(edge_cert, intervals=tuple(entries))
                        new_list = tuple(new_edge if e is edge_cert else e
                                         for e in cert.edge_certificates)
                        certs[node] = dataclasses.replace(cert, edge_certificates=new_list)
                        return certs
            return certs

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted

    def test_chord_copy_corruption_detected(self):
        def corrupt(certs, network):
            for node, cert in certs.items():
                for edge_cert in cert.edge_certificates:
                    if isinstance(edge_cert, CotreeEdgeCertificate):
                        new_edge = dataclasses.replace(edge_cert, copy_a=edge_cert.copy_a + 1)
                        new_list = tuple(new_edge if e is edge_cert else e
                                         for e in cert.edge_certificates)
                        certs[node] = dataclasses.replace(cert, edge_certificates=new_list)
                        return certs
            return certs

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted

    def test_dropping_an_edge_certificate_detected(self):
        def corrupt(certs, network):
            for node, cert in certs.items():
                if cert.edge_certificates:
                    certs[node] = dataclasses.replace(
                        cert, edge_certificates=cert.edge_certificates[1:])
                    return certs
            return certs

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted

    def test_tree_flag_lie_detected(self):
        def corrupt(certs, network):
            for node, cert in certs.items():
                for edge_cert in cert.edge_certificates:
                    if isinstance(edge_cert, TreeEdgeCertificate):
                        fake = CotreeEdgeCertificate(
                            a_id=edge_cert.parent_id, b_id=edge_cert.child_id,
                            copy_a=edge_cert.descend_index, copy_b=edge_cert.descend_index + 1,
                            intervals=edge_cert.intervals)
                        new_list = tuple(fake if e is edge_cert else e
                                         for e in cert.edge_certificates)
                        certs[node] = dataclasses.replace(cert, edge_certificates=new_list)
                        return certs
            return certs

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted

    def test_spanning_tree_total_lie_detected(self):
        def corrupt(certs, network):
            return {node: dataclasses.replace(
                cert, spanning_tree=dataclasses.replace(cert.spanning_tree,
                                                        total=cert.spanning_tree.total + 1))
                for node, cert in certs.items()}

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted

    def test_descend_index_corruption_detected(self):
        def corrupt(certs, network):
            for node, cert in certs.items():
                for edge_cert in cert.edge_certificates:
                    if isinstance(edge_cert, TreeEdgeCertificate):
                        new_edge = dataclasses.replace(
                            edge_cert, descend_index=edge_cert.descend_index + 1)
                        new_list = tuple(new_edge if e is edge_cert else e
                                         for e in cert.edge_certificates)
                        certs[node] = dataclasses.replace(cert, edge_certificates=new_list)
                        return certs
            return certs

        assert not _corrupt_and_check(self._graph(), self.GRAPH_SEED, corrupt).accepted


# ----------------------------------------------------------------------
# the reconstruct helper exposed for the dMAM baseline
# ----------------------------------------------------------------------
class TestReconstruction:
    def test_structure_matches_prover_decomposition(self):
        from repro.core.dfs_mapping import cut_open

        graph = random_planar_graph(25, seed=30)
        network = Network(graph, seed=30)
        scheme = PlanarityScheme()
        certificates = scheme.prove(network)
        decomposition = cut_open(graph)
        for node in network.nodes():
            view = network.local_view(node, certificates)
            structure = reconstruct_local_structure(view)
            assert structure is not None
            assert structure.path_length == 2 * graph.number_of_nodes() - 1

    def test_single_node_structure(self):
        network = Network(path_graph(1), seed=1)
        certificates = PlanarityScheme().prove(network)
        view = network.local_view(next(iter(network.nodes())), certificates)
        structure = reconstruct_local_structure(view)
        assert structure is not None and structure.is_single_node

    def test_garbage_certificates_yield_none(self):
        network = Network(path_graph(3), seed=2)
        view = network.local_view(1, {node: "junk" for node in network.nodes()})
        assert reconstruct_local_structure(view) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10 ** 6))
def test_completeness_property(n, seed):
    """Property (Theorem 1 completeness): every random planar graph is accepted."""
    graph = random_planar_graph(n, seed=seed)
    result = certify_and_verify(PlanarityScheme(), graph, seed=seed)
    assert result.accepted


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 25), st.integers(0, 10 ** 6))
def test_soundness_property_against_transplants(n, seed):
    """Property (Theorem 1 soundness): planar-twin transplants never convince everyone."""
    graph = planar_plus_random_edges(n, extra_edges=1, seed=seed)
    scheme = PlanarityScheme()
    network, donor = _transplant(scheme, graph, seed=seed)
    assert not run_verification(scheme, network, donor).accepted
