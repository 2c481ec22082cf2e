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
    Encodable,
    encoded_size_bits,
    uint_bit_length,
)
from repro.distributed.congest import SynchronousSimulator
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.distributed.verifier import (
    certify_and_verify,
    completeness_holds,
    run_verification,
)
from repro.exceptions import CertificateError, GraphError, NotInClassError, ProtocolError
from repro.graphs.generators import cycle_graph, grid_graph, path_graph, star_graph
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

    def test_to_bytes_length(self):
        writer = BitWriter()
        writer.write_fixed_uint(0b10101, 5)
        assert len(writer.to_bytes()) == 1
        assert writer.bit_length() == 5

    def test_uint_bit_length(self):
        assert uint_bit_length(0) == 1
        assert uint_bit_length(1) == 1
        assert uint_bit_length(255) == 8
        with pytest.raises(CertificateError):
            uint_bit_length(-1)

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
        assert large <= 3 * uint_bit_length(10 ** 6)
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
        network = Network(star_graph(4), seed=2)
        certificates = {node: f"cert-{node}" for node in network.nodes()}
        view = network.local_view(0, certificates)
        assert view.degree == 4
        assert view.certificate == "cert-0"
        assert set(view.certificates) == {view.center_id, *view.neighbor_ids}
        assert all(view.ball.has_edge(view.center_id, nid) for nid in view.neighbor_ids)

    def test_radius_two_view_contains_ball(self):
        network = Network(path_graph(6), seed=4)
        view = network.local_view(2, {}, radius=2)
        expected_nodes = {network.id_of(i) for i in (0, 1, 2, 3, 4)}
        assert set(view.ball.nodes()) == expected_nodes

    def test_invalid_radius(self):
        network = Network(path_graph(3), seed=1)
        with pytest.raises(GraphError):
            network.local_view(0, {}, radius=0)

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
        assert not completeness_holds(EvenDegreeScheme(), path_graph(4))

    def test_run_verification_with_bad_certificates(self):
        network = Network(cycle_graph(5), seed=2)
        certificates = {node: 1 for node in network.nodes()}   # all wrong parity
        result = run_verification(EvenDegreeScheme(), network, certificates)
        assert not result.accepted
        assert len(result.rejecting_nodes) == 5

    def test_message_accounting(self):
        result = certify_and_verify(EvenDegreeScheme(), cycle_graph(4), seed=3)
        assert result.message_bits_per_edge == result.max_certificate_bits
        assert result.total_certificate_bits == sum(result.certificate_bits.values())


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


# ----------------------------------------------------------------------
# synchronous CONGEST simulator
# ----------------------------------------------------------------------
class TestSynchronousSimulator:
    def test_flooding_reaches_everyone(self):
        network = Network(grid_graph(3, 3), seed=1)
        source_id = min(network.ids())

        def flooding(process, inbox):
            state = process.state
            if not state.get("informed") and (process.identifier == source_id or inbox):
                state["informed"] = True
                return {nid: 1 for nid in process.neighbor_ids}
            if state.get("informed"):
                process.halt(output=True)
            return {}

        simulator = SynchronousSimulator(network)
        simulator.run(flooding, max_rounds=20)
        assert all(simulator.outputs().values())
        assert simulator.max_message_bits >= 1
        assert simulator.rounds_used <= 10

    def test_messages_to_non_neighbors_rejected(self):
        network = Network(path_graph(3), seed=2)

        def bad(process, inbox):
            return {99999: "boom"}

        simulator = SynchronousSimulator(network)
        with pytest.raises(ProtocolError):
            simulator.run(bad, max_rounds=3)

    def test_non_terminating_detected(self):
        network = Network(path_graph(3), seed=3)
        simulator = SynchronousSimulator(network)
        with pytest.raises(ProtocolError):
            simulator.run(lambda process, inbox: {}, max_rounds=5)

    def test_round_statistics(self):
        network = Network(cycle_graph(4), seed=4)

        def one_shot(process, inbox):
            if process.state.get("done"):
                process.halt()
                return {}
            process.state["done"] = True
            return {nid: 7 for nid in process.neighbor_ids}

        simulator = SynchronousSimulator(network)
        results = simulator.run(one_shot, max_rounds=5)
        assert results[0].messages_sent == 8
        assert results[0].max_message_bits == encoded_size_bits(7)

    def test_messages_to_halted_nodes_are_delivered_and_counted(self):
        """A halted node stays addressable: traffic to it is legal and counted,
        it just never reads it."""
        network = Network(path_graph(3), seed=7)
        # the degree-2 node of the path
        middle_node = next(node for node in network.nodes()
                           if len(network.neighbor_ids(node)) == 2)
        middle_id = network.id_of(middle_node)

        def algorithm(process, inbox):
            round_number = process.state.setdefault("round", 0)
            process.state["round"] = round_number + 1
            process.state.setdefault("seen", []).append(dict(inbox))
            if process.identifier == middle_id:
                if round_number == 0:
                    process.halt(output="halted-early")
                return {}
            if round_number == 0:
                return {middle_id: 5}   # arrives while the middle node halts
            if round_number == 1:
                # the middle node is halted *now*; messaging it is still legal
                return {middle_id: 9}
            process.halt(output="done")
            return {}

        simulator = SynchronousSimulator(network)
        results = simulator.run(algorithm, max_rounds=10)
        # both endpoints messaged the middle node in rounds 0 and 1
        assert results[0].messages_sent == 2
        assert results[1].messages_sent == 2
        assert simulator.processes[middle_node].output == "halted-early"
        # the halted node ran exactly once, so it read only the (empty)
        # round-0 inbox; the round-0 and round-1 messages were delivered to
        # its slot but never read
        assert simulator.processes[middle_node].state["seen"] == [{}]

    def test_round_accounting_after_partial_halts(self):
        """Halted nodes stop sending; round statistics reflect only live senders."""
        network = Network(star_graph(4), seed=8)   # center + 4 leaves
        center = next(node for node in network.nodes()
                      if len(network.neighbor_ids(node)) == 4)
        center_id = network.id_of(center)

        def algorithm(process, inbox):
            round_number = process.state.setdefault("round", 0)
            process.state["round"] = round_number + 1
            if process.identifier == center_id:
                if round_number < 2:
                    return {nid: 1 for nid in process.neighbor_ids}
                process.halt()
                return {}
            # leaves message the center once, then halt
            if round_number == 0:
                return {center_id: 1}
            process.halt()
            return {}

        simulator = SynchronousSimulator(network)
        results = simulator.run(algorithm, max_rounds=10)
        assert results[0].messages_sent == 8    # center->4 leaves, 4 leaves->center
        assert results[1].messages_sent == 4    # only the center is still sending
        assert results[2].messages_sent == 0    # center's halting round
        assert simulator.rounds_used == 3
        assert all(process.halted for process in simulator.processes.values())

    def test_outputs_and_process_keys_cover_every_node(self):
        network = Network(grid_graph(2, 3), seed=9)
        simulator = SynchronousSimulator(network)
        assert set(simulator.processes) == set(network.nodes())
        for node, process in simulator.processes.items():
            assert process.identifier == network.id_of(node)
            assert process.neighbor_ids == network.neighbor_ids(node)
        simulator.run(lambda process, inbox: process.halt() or {}, max_rounds=2)
        assert set(simulator.outputs()) == set(network.nodes())


# ----------------------------------------------------------------------
# message-size accounting of the CONGEST simulator
# ----------------------------------------------------------------------
class TestMessageBits:
    def test_encoder_priced_payloads(self):
        from repro.distributed.congest import _message_bits

        assert _message_bits(None) == encoded_size_bits(None)
        assert _message_bits(True) == encoded_size_bits(True)
        assert _message_bits(12345) == encoded_size_bits(12345)

    def test_container_fallbacks(self):
        from repro.distributed.congest import _message_bits

        assert _message_bits((1, 2)) == encoded_size_bits(1) + encoded_size_bits(2)
        assert _message_bits([None, 3]) == encoded_size_bits(None) + encoded_size_bits(3)
        assert _message_bits({1: 2}) == encoded_size_bits(1) + encoded_size_bits(2)
        # nested containers recurse
        assert _message_bits(((1,), [2])) == encoded_size_bits(1) + encoded_size_bits(2)

    def test_string_fallback_counts_utf8_bits(self):
        from repro.distributed.congest import _message_bits

        assert _message_bits("ok") == 16
        assert _message_bits("é") == 8 * len("é".encode("utf-8"))

    def test_unaccountable_payload_still_raises(self):
        from repro.distributed.congest import _message_bits

        with pytest.raises(CertificateError):
            _message_bits(object())
        with pytest.raises(CertificateError):
            _message_bits((1, object()))

    def test_encoder_bugs_are_not_swallowed(self):
        """Only the encoder's CertificateError selects the fallback; a genuine
        bug inside an Encodable.encode implementation propagates."""
        from repro.distributed.congest import _message_bits

        class BrokenMessage(Encodable):
            def encode(self, writer):
                raise TypeError("bug inside encode()")

        with pytest.raises(TypeError, match="bug inside encode"):
            _message_bits(BrokenMessage())
        with pytest.raises(TypeError, match="bug inside encode"):
            _message_bits([BrokenMessage()])

    def test_simulator_size_memo_distinguishes_bool_and_int(self):
        """True == 1 as dict keys, but the memoised sizes must not conflate
        them (they encode to different widths)."""
        network = Network(path_graph(2), seed=10)

        def algorithm(process, inbox):
            round_number = process.state.setdefault("round", 0)
            process.state["round"] = round_number + 1
            if round_number == 0:
                return {nid: 1 for nid in process.neighbor_ids}
            if round_number == 1:
                return {nid: True for nid in process.neighbor_ids}
            process.halt()
            return {}

        simulator = SynchronousSimulator(network)
        results = simulator.run(algorithm, max_rounds=5)
        assert results[0].max_message_bits == encoded_size_bits(1)
        assert results[1].max_message_bits == encoded_size_bits(True)
        assert results[0].max_message_bits != results[1].max_message_bits

    def test_size_accounting_not_conflated_for_equal_containers(self):
        """(1,) == (True,) as dict keys but they encode to different widths;
        the per-simulator memo must not serve one the other's size."""
        from repro.distributed.congest import _message_bits

        network = Network(path_graph(2), seed=11)

        def algorithm(process, inbox):
            round_number = process.state.setdefault("round", 0)
            process.state["round"] = round_number + 1
            if round_number == 0:
                return {nid: (1,) for nid in process.neighbor_ids}
            if round_number == 1:
                return {nid: (True,) for nid in process.neighbor_ids}
            process.halt()
            return {}

        simulator = SynchronousSimulator(network)
        results = simulator.run(algorithm, max_rounds=5)
        assert results[0].max_message_bits == _message_bits((1,))
        assert results[1].max_message_bits == _message_bits((True,))
        assert results[0].max_message_bits != results[1].max_message_bits
