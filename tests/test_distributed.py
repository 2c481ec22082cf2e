"""Tests for the distributed-verification substrate (certificates, networks, runners)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.attacks import (
    exhaustive_attack,
    random_certificate_attack,
    transplant_attack,
)
from repro.distributed.certificates import (
    BitReader,
    BitWriter,
    encoded_size_bits,
)
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.distributed.verifier import certify_and_verify, run_verification
from repro.exceptions import CertificateError, GraphError, NotInClassError
from repro.graphs.generators import complete_bipartite_graph, cycle_graph, grid_graph, path_graph
from repro.graphs.graph import Graph


# ----------------------------------------------------------------------
# bit-level certificate encoding
# ----------------------------------------------------------------------
class TestBitEncoding:
    def test_fixed_width_round_trip(self):
        writer = BitWriter()
        writer.write_fixed_uint(13, 6)
        reader = BitReader(writer.bits)
        assert reader.read_fixed_uint(6) == 13

    def test_fixed_width_overflow(self):
        writer = BitWriter()
        with pytest.raises(CertificateError):
            writer.write_fixed_uint(8, 3)

    def test_gamma_code_round_trip(self):
        writer = BitWriter()
        for value in (0, 1, 2, 7, 127, 12345):
            writer.write_uint(value)
        reader = BitReader(writer.bits)
        assert [reader.read_uint() for _ in range(6)] == [0, 1, 2, 7, 127, 12345]

    def test_signed_and_bool_and_optional(self):
        writer = BitWriter()
        writer.write_int(-42)
        writer.write_bool(True)
        writer.write_optional_uint(None)
        writer.write_optional_uint(9)
        reader = BitReader(writer.bits)
        assert reader.read_int() == -42
        assert reader.read_bool() is True
        assert reader.read_optional_uint() is None
        assert reader.read_optional_uint() == 9

    def test_negative_uint_rejected(self):
        writer = BitWriter()
        with pytest.raises(CertificateError):
            writer.write_uint(-1)

    def test_read_past_end_raises(self):
        reader = BitReader([1])
        reader.read_bit()
        with pytest.raises(CertificateError):
            reader.read_bit()

    def test_bit_length_counts_written_bits(self):
        writer = BitWriter()
        writer.write_fixed_uint(0b10101, 5)
        assert writer.bit_length() == 5

    def test_encoded_size_bits(self):
        assert encoded_size_bits(None) == 1
        assert encoded_size_bits(True) == 1
        assert encoded_size_bits(0) > 0
        with pytest.raises(CertificateError):
            encoded_size_bits(object())

    def test_gamma_code_size_is_logarithmic(self):
        """The self-delimiting code costs Theta(log v) bits."""
        small = encoded_size_bits(10)
        large = encoded_size_bits(10 ** 6)
        assert large <= 3 * (10 ** 6).bit_length()
        assert small < large

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 2 ** 40), max_size=20))
    def test_round_trip_property(self, values):
        """Property: any sequence of unsigned integers round-trips exactly."""
        writer = BitWriter()
        for value in values:
            writer.write_uint(value)
        reader = BitReader(writer.bits)
        assert [reader.read_uint() for _ in values] == values


# ----------------------------------------------------------------------
# networks and local views
# ----------------------------------------------------------------------
class TestNetwork:
    def test_ids_are_distinct_and_polynomial(self):
        graph = grid_graph(4, 4)
        network = Network(graph, seed=1)
        ids = network.ids()
        assert len(set(ids)) == 16
        assert all(0 <= identifier < 16 * 16 for identifier in ids)

    def test_explicit_ids_validated(self):
        graph = path_graph(3)
        Network(graph, ids={0: 5, 1: 6, 2: 7})
        with pytest.raises(GraphError):
            Network(graph, ids={0: 5, 1: 5, 2: 7})
        with pytest.raises(GraphError):
            Network(graph, ids={0: 5, 1: 6})
        with pytest.raises(GraphError):
            Network(graph, ids={0: -1, 1: 6, 2: 7})

    def test_disconnected_graph_rejected(self):
        with pytest.raises(Exception):
            Network(Graph(edges=[(0, 1), (2, 3)]))

    def test_id_node_round_trip(self):
        network = Network(path_graph(5), seed=3)
        for node in network.nodes():
            assert network.node_of(network.id_of(node)) == node

    def test_radius_one_view(self):
        network = Network(complete_bipartite_graph(1, 4), seed=2)
        certificates = {node: f"cert-{node}" for node in network.nodes()}
        view = network.local_view(0, certificates)
        assert view.degree == 4
        assert view.certificate == "cert-0"
        assert set(view.certificates) == {view.center_id, *view.neighbor_ids}
        assert view.neighbor_ids == sorted(network.id_of(v) for v in range(1, 5))

    def test_id_graph_isomorphic_shape(self):
        graph = cycle_graph(6)
        network = Network(graph, seed=9)
        relabeled = network.id_graph()
        assert relabeled.number_of_edges() == 6
        assert sorted(relabeled.degree(v) for v in relabeled.nodes()) == [2] * 6


# ----------------------------------------------------------------------
# a tiny scheme used to exercise the runner and the adversaries
# ----------------------------------------------------------------------
class EvenDegreeScheme(ProofLabelingScheme):
    """Toy scheme: certificate must equal the node's degree parity."""

    name = "toy-even-degree"

    def is_member(self, graph):
        return all(graph.degree(node) % 2 == 0 for node in graph.nodes())

    def prove(self, network):
        graph = network.graph
        if not self.is_member(graph):
            raise NotInClassError("some node has odd degree")
        return {node: graph.degree(node) % 2 for node in graph.nodes()}

    def verify(self, view: LocalView) -> bool:
        # accept only when the degree is even and the certificate confirms it;
        # a node of odd degree therefore rejects no matter what the prover says
        return view.certificate == 0 and len(view.neighbor_ids) % 2 == 0


class TestVerificationRunner:
    def test_completeness_and_stats(self):
        result = certify_and_verify(EvenDegreeScheme(), cycle_graph(6), seed=1)
        assert result.accepted
        assert result.max_certificate_bits >= 1
        assert result.mean_certificate_bits > 0
        assert result.rejecting_nodes == []
        assert result.summary()["accepted"] is True

    def test_prover_contract_on_no_instance(self):
        with pytest.raises(NotInClassError):
            certify_and_verify(EvenDegreeScheme(), path_graph(4), seed=1)

    def test_run_verification_with_bad_certificates(self):
        network = Network(cycle_graph(5), seed=2)
        certificates = {node: 1 for node in network.nodes()}   # all wrong parity
        result = run_verification(EvenDegreeScheme(), network, certificates)
        assert not result.accepted
        assert len(result.rejecting_nodes) == 5

    def test_message_accounting(self):
        result = certify_and_verify(EvenDegreeScheme(), cycle_graph(4), seed=3)
        assert result.message_bits_per_edge == result.max_certificate_bits


class TestAdversaries:
    def test_random_attack_cannot_fool_sound_check(self):
        network = Network(path_graph(5), seed=1)    # odd-degree endpoints: no-instance
        attack = random_certificate_attack(
            EvenDegreeScheme(), network,
            lambda rng, net, node: rng.randint(0, 1), trials=64, seed=5)
        assert not attack.fooled
        assert attack.best_accepting_nodes < network.size

    def test_exhaustive_attack_is_exact(self):
        network = Network(path_graph(4), seed=2)
        attack = exhaustive_attack(EvenDegreeScheme(), network, certificate_universe=[0, 1])
        assert not attack.fooled
        assert attack.trials == 2 ** 4

    def test_exhaustive_attack_budget(self):
        network = Network(cycle_graph(6), seed=2)
        with pytest.raises(ValueError):
            exhaustive_attack(EvenDegreeScheme(), network,
                              certificate_universe=list(range(50)), max_assignments=1000)

    def test_transplant_attack_reports_summary(self):
        network = Network(path_graph(4), seed=3)
        donor = {node: 0 for node in network.nodes()}
        attack = transplant_attack(EvenDegreeScheme(), network, donor,
                                   mutate=lambda rng, cert: rng.randint(0, 1),
                                   trials=10, seed=4)
        summary = attack.summary()
        assert summary["attack"] == "transplant"
        assert summary["total_nodes"] == 4

    def test_attack_can_succeed_on_yes_instance(self):
        """Sanity: on a *yes* instance the honest certificates do fool (accept)."""
        network = Network(cycle_graph(4), seed=6)
        donor = EvenDegreeScheme().prove(network)
        attack = transplant_attack(EvenDegreeScheme(), network, donor)
        assert attack.fooled
