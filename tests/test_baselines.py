"""Tests for the universal-map baseline and the dMAM interactive-proof baseline."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.comparison import compare_schemes_on
from repro.baselines.dmam import (
    FIELD_PRIME,
    DMAMSecondMessage,
    PlanarityDMAMProtocol,
    chord_scan_heights,
)
from repro.baselines.universal import GraphMapCertificate, UniversalPlanarityScheme
from repro.core.path_outerplanar import find_crossing_pair
from repro.core.planarity_scheme import PlanarityScheme
from repro.distributed.interactive import run_interactive_protocol
from repro.distributed.network import Network
from repro.distributed.verifier import certify_and_verify, run_verification
from repro.exceptions import NotInClassError
from repro.graphs.generators import (
    complete_graph,
    delaunay_planar_graph,
    grid_graph,
    petersen_graph,
    planar_plus_random_edges,
    random_apollonian_network,
    random_planar_graph,
    random_tree,
)


# ----------------------------------------------------------------------
# universal scheme
# ----------------------------------------------------------------------
class TestUniversalScheme:
    def test_completeness(self, planar_case):
        name, graph = planar_case
        assert certify_and_verify(UniversalPlanarityScheme(), graph, seed=2).accepted, name

    def test_prover_refuses_nonplanar(self):
        with pytest.raises(NotInClassError):
            certify_and_verify(UniversalPlanarityScheme(), petersen_graph(), seed=1)

    def test_certificates_are_linear_size(self):
        graph = random_apollonian_network(80, seed=3)
        planarity = certify_and_verify(PlanarityScheme(), graph, seed=3)
        universal = certify_and_verify(UniversalPlanarityScheme(), graph, seed=3)
        # the whole-map certificate is at least an order of magnitude larger
        assert universal.max_certificate_bits > 10 * planarity.max_certificate_bits

    def test_soundness_wrong_map_rejected(self):
        """Describing a planar map that disagrees with the real neighborhood fails."""
        scheme = UniversalPlanarityScheme()
        graph = planar_plus_random_edges(12, extra_edges=1, seed=4)
        network = Network(graph, seed=4)
        # hand every node the map of a planar spanning tree of the same nodes
        tree = random_tree(12, seed=4)
        ids = {node: network.id_of(node) for node in graph.nodes()}
        tree_map = GraphMapCertificate(
            node_ids=tuple(sorted(ids.values())),
            edges=tuple(sorted((min(ids[u], ids[v]), max(ids[u], ids[v]))
                               for u, v in tree.edges())))
        certificates = {node: tree_map for node in network.nodes()}
        assert not run_verification(scheme, network, certificates).accepted

    def test_soundness_true_nonplanar_map_rejected(self):
        """Describing the true (non-planar) graph also fails: the map check itself rejects."""
        scheme = UniversalPlanarityScheme()
        graph = complete_graph(5)
        network = Network(graph, seed=5)
        id_graph = network.id_graph()
        truthful = GraphMapCertificate(
            node_ids=tuple(sorted(id_graph.nodes())),
            edges=tuple(sorted((min(u, v), max(u, v)) for u, v in id_graph.edges())))
        certificates = {node: truthful for node in network.nodes()}
        assert not run_verification(scheme, network, certificates).accepted

    def test_inconsistent_maps_rejected(self):
        scheme = UniversalPlanarityScheme()
        graph = grid_graph(3, 3)
        network = Network(graph, seed=6)
        certificates = scheme.prove(network)
        victim = next(iter(certificates))
        certificates[victim] = GraphMapCertificate(node_ids=(1, 2), edges=((1, 2),))
        assert not run_verification(scheme, network, certificates).accepted


# ----------------------------------------------------------------------
# the chord-scan fingerprint underlying the dMAM protocol
# ----------------------------------------------------------------------
class TestChordScan:
    def test_laminar_families_balance(self):
        push, pop = chord_scan_heights([(1, 6), (2, 5), (3, 4), (7, 9)], 10)
        assert push == pop

    def test_crossing_families_unbalance(self):
        push, pop = chord_scan_heights([(1, 5), (3, 8)], 10)
        assert push != pop

    def test_shared_endpoints_do_not_false_alarm(self):
        push, pop = chord_scan_heights([(1, 5), (5, 9), (1, 3), (3, 5)], 10)
        assert push == pop

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=8))
    def test_balance_iff_laminar_property(self, raw):
        """Property: push/pop heights balance exactly on non-crossing chord families."""
        chords = list({(min(a, b), max(a, b)) for a, b in raw if abs(a - b) >= 1})
        push, pop = chord_scan_heights(chords, 13)
        laminar = find_crossing_pair(chords) is None
        assert (push == pop) == laminar


# ----------------------------------------------------------------------
# the dMAM protocol
# ----------------------------------------------------------------------
class TestDMAMProtocol:
    def test_completeness(self, planar_case):
        name, graph = planar_case
        network = Network(graph, seed=7)
        transcript = run_interactive_protocol(PlanarityDMAMProtocol(), network, seed=7)
        assert transcript.accepted, name

    def test_protocol_characteristics(self):
        protocol = PlanarityDMAMProtocol()
        assert protocol.interactions == 3
        assert protocol.randomized
        assert protocol.is_member(grid_graph(3, 3))
        assert not protocol.is_member(petersen_graph())

    def test_merlin_refuses_nonplanar(self):
        protocol = PlanarityDMAMProtocol()
        network = Network(petersen_graph(), seed=8)
        with pytest.raises(NotInClassError):
            protocol.first_turn(network)

    def test_message_sizes_logarithmic_on_bounded_degree_graphs(self):
        """Per-node Merlin messages are O((1 + deg_T) log n); on bounded-degree
        graphs (here a grid) that is O(log n), far below the universal baseline."""
        graph = grid_graph(10, 10)
        network = Network(graph, seed=9)
        transcript = run_interactive_protocol(PlanarityDMAMProtocol(), network, seed=9)
        assert transcript.accepted
        assert transcript.max_certificate_bits < 900
        universal = certify_and_verify(UniversalPlanarityScheme(), graph, seed=9)
        assert transcript.max_certificate_bits < universal.max_certificate_bits / 5

    def test_dishonest_global_coin_rejected(self):
        """Merlin relaying a wrong random point is caught by the root."""
        protocol = PlanarityDMAMProtocol()
        graph = random_planar_graph(20, seed=10)
        network = Network(graph, seed=10)
        turn = protocol.first_turn(network)
        first = turn.messages
        rng = random.Random(10)
        challenges = protocol.draw_challenges(network, rng)
        second = protocol.second_turn(network, turn, challenges)
        forged = {node: DMAMSecondMessage(
            global_point=(message.global_point + 1) % FIELD_PRIME,
            push_product_subtree=message.push_product_subtree,
            pop_product_subtree=message.pop_product_subtree)
            for node, message in second.items()}
        transcript = run_interactive_protocol(protocol, network, seed=10,
                                              dishonest_first=first,
                                              dishonest_second=forged)
        assert not transcript.accepted

    def test_dishonest_products_rejected(self):
        protocol = PlanarityDMAMProtocol()
        graph = random_apollonian_network(18, seed=11)
        network = Network(graph, seed=11)
        turn = protocol.first_turn(network)
        first = turn.messages
        challenges = protocol.draw_challenges(network, random.Random(11))
        second = protocol.second_turn(network, turn, challenges)
        victim = next(iter(second))
        second[victim] = dataclasses.replace(
            second[victim],
            push_product_subtree=(second[victim].push_product_subtree + 1) % FIELD_PRIME)
        transcript = run_interactive_protocol(protocol, network, seed=11,
                                              dishonest_first=first,
                                              dishonest_second=second)
        assert not transcript.accepted

    def test_first_message_without_second_refused(self):
        """A fixed first message with no second one is a ValueError in both
        runners and in the soundness estimator, whether the protocol is fresh
        or last served another network: the honest second turn answers only
        the honest first turn, never a caller's first message."""
        from repro.distributed.engine import SimulationEngine

        network = Network(delaunay_planar_graph(30, seed=1), seed=1)
        other = Network(delaunay_planar_graph(40, seed=2), seed=2)
        first = PlanarityDMAMProtocol().first_turn(network).messages
        served_other = PlanarityDMAMProtocol()
        served_other.first_turn(other)
        for protocol in (PlanarityDMAMProtocol(), served_other):
            with pytest.raises(ValueError, match="second"):
                run_interactive_protocol(protocol, network, seed=12,
                                         dishonest_first=first)
            with pytest.raises(ValueError, match="second"):
                SimulationEngine().run_interactive(protocol, network, seed=12,
                                                   dishonest_first=first)
            with pytest.raises(ValueError, match="second"):
                SimulationEngine().estimate_soundness_error(
                    protocol, network, 2, seed=12, first=first)

    def test_comparison_table(self):
        rows = compare_schemes_on(random_apollonian_network(24, seed=13),
                                  planar_plus_random_edges(12, seed=13), seed=13)
        by_name = {row.scheme: row for row in rows}
        assert by_name["planarity-pls"].interactions == 1
        assert not by_name["planarity-pls"].randomized
        assert by_name["planarity-dmam"].interactions == 3
        assert by_name["planarity-dmam"].randomized
        assert by_name["universal-map-pls"].max_certificate_bits > \
            by_name["planarity-pls"].max_certificate_bits
        assert all(row.accepted for row in rows)


    def test_garbage_stack_heights_rejected_not_crash(self):
        """A first message with a garbage-typed stack_heights field is a
        rejection at the affected nodes, never an exception — through both
        the reference runner and the engine runtime."""
        from repro.distributed.engine import SimulationEngine

        protocol = PlanarityDMAMProtocol()
        graph = random_planar_graph(16, seed=14)
        network = Network(graph, seed=14)
        turn = protocol.first_turn(network)
        challenges = protocol.draw_challenges(network, random.Random(14))
        second = protocol.second_turn(network, turn, challenges)
        for garbage in (None, 7, ((1,),), (("a", "b"),)):
            tampered = dict(turn.messages)
            victim = next(iter(tampered))
            tampered[victim] = dataclasses.replace(tampered[victim],
                                                   stack_heights=garbage)
            reference = run_interactive_protocol(
                protocol, network, seed=14,
                dishonest_first=tampered, dishonest_second=second)
            assert not reference.accepted
            batched = SimulationEngine().run_interactive(
                protocol, network, seed=14,
                dishonest_first=tampered, dishonest_second=second)
            assert reference.decisions == batched.decisions
