"""Engine-vs-naive equivalence and cache behaviour of :class:`SimulationEngine`."""

from __future__ import annotations

import random

import pytest

from repro.adversary.attacks import random_certificate_attack, transplant_attack
from repro.core.path_outerplanar import random_path_outerplanar_graph
from repro.distributed import engine as engine_module
from repro.distributed.engine import SimulationEngine, derive_seed
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.distributed.verifier import run_verification
from repro.distributed.views import assemble_view, structure_at
from repro.exceptions import NotInClassError
from repro.graphs.generators import (
    delaunay_planar_graph,
    k5_subdivision,
    path_graph,
    planar_plus_random_edges,
    random_tree,
)


def scheme_instances():
    """(scheme factory kwargs, yes-instance) pairs for every registered PLS."""
    po_graph, po_witness = random_path_outerplanar_graph(20, seed=4)
    return {
        "planarity-pls": ({}, delaunay_planar_graph(30, seed=1)),
        "non-planarity-pls": ({}, k5_subdivision(2, seed=2)),
        "path-outerplanarity-pls": ({"witness": po_witness}, po_graph),
        "path-graph-pls": ({}, path_graph(10)),
        "tree-pls": ({}, random_tree(15, seed=3)),
        "universal-map-pls": ({}, delaunay_planar_graph(30, seed=5)),
    }


PLANAR_GRAPH = delaunay_planar_graph(24, seed=11)
NONPLANAR_GRAPH = planar_plus_random_edges(18, extra_edges=2, seed=11)


def assert_same_result(naive, batched):
    assert naive.scheme_name == batched.scheme_name
    assert naive.decisions == batched.decisions
    assert naive.certificate_bits == batched.certificate_bits
    assert naive.accepted == batched.accepted


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(scheme_instances()))
    def test_honest_assignment_matches_naive(self, name):
        kwargs, graph = scheme_instances()[name]
        scheme = default_registry().create(name, **kwargs)
        engine = SimulationEngine(seed=0)
        network = Network(graph, seed=0)
        certificates = scheme.prove(network)
        assert_same_result(run_verification(scheme, network, certificates),
                           engine.verify(scheme, network, certificates))

    @pytest.mark.parametrize("name", sorted(scheme_instances()))
    @pytest.mark.parametrize("case", ["planar", "nonplanar"])
    def test_decisions_match_on_planar_and_nonplanar_instances(self, name, case):
        """Same accept/reject decisions on both instance kinds, honest or forged."""
        kwargs, yes_graph = scheme_instances()[name]
        scheme = default_registry().create(name, **kwargs)
        engine = SimulationEngine(seed=0)
        graph = PLANAR_GRAPH if case == "planar" else NONPLANAR_GRAPH
        network = Network(graph, seed=0)
        try:
            certificates = scheme.prove(network)
        except NotInClassError:
            # forge an assignment by recycling honest certificates from the
            # scheme's yes-instance (arbitrary but deterministic)
            donor_network = Network(yes_graph, seed=0)
            donor = list(scheme.prove(donor_network).values())
            certificates = {node: donor[index % len(donor)]
                            for index, node in enumerate(network.nodes())}
            naive = run_verification(scheme, network, certificates)
            assert not naive.accepted  # soundness sanity on the forged side
        assert_same_result(run_verification(scheme, network, certificates),
                           engine.verify(scheme, network, certificates))

    def test_count_accepting_matches_decision_sum(self):
        scheme = default_registry().create("planarity-pls")
        engine = SimulationEngine()
        network = Network(PLANAR_GRAPH, seed=3)
        certificates = scheme.prove(network)
        naive = run_verification(scheme, network, certificates)
        assert engine.count_accepting(scheme, network, certificates) == \
            sum(naive.decisions.values())

    def test_views_match_network_local_views(self):
        engine = SimulationEngine()
        network = Network(PLANAR_GRAPH, seed=3)
        certificates = {node: index for index, node in enumerate(network.nodes())}
        structures = engine.structures(network)
        assert [s.node for s in structures] == network.nodes()
        for structure in structures:
            assert assemble_view(structure, certificates) == \
                network.local_view(structure.node, certificates)


class TestOneRoundViews:
    """The view layer builds exactly :meth:`Network.local_view`'s one-round view."""

    @pytest.mark.parametrize("graph", [
        delaunay_planar_graph(40, seed=4), random_tree(30, seed=4),
        k5_subdivision(3, seed=4)], ids=["mesh", "tree", "k5-subdivision"])
    def test_every_view_equals_the_reference(self, graph):
        engine = SimulationEngine()
        network = Network(graph, seed=4)
        certificates = {node: ("cert", index)
                        for index, node in enumerate(network.nodes())}
        cached = engine.structures(network)
        for index, node in enumerate(network.nodes()):
            reference = network.local_view(node, certificates)
            assert set(reference.certificates) == {
                network.id_of(node), *(network.id_of(v) for v in graph.neighbors(node))}
            on_demand = assemble_view(structure_at(network, node, 1), certificates, 1)
            assert on_demand == reference
            assert cached[index].node == node
            assert assemble_view(cached[index], certificates) == reference

    def test_radius_two_is_refused(self):
        network = Network(path_graph(6), seed=4)
        with pytest.raises(ValueError):
            structure_at(network, 2, 2)
        structure = structure_at(network, 2, 1)
        with pytest.raises(ValueError):
            assemble_view(structure, {}, 2)


class TestAttacksThroughEngine:
    def setup_method(self):
        self.scheme = default_registry().create("planarity-pls")
        self.engine = SimulationEngine(seed=1)
        twin = delaunay_planar_graph(20, seed=6)
        self.network = Network(planar_plus_random_edges(20, extra_edges=2, seed=6),
                               seed=6)
        donor_ids = {node: self.network.id_of(node) for node in twin.nodes()} \
            if set(twin.nodes()) == set(self.network.nodes()) else None
        donor_network = Network(twin, ids=donor_ids, seed=6)
        self.donor = self.scheme.prove(donor_network)

    def test_transplant_attack_same_outcome(self):
        plain = transplant_attack(self.scheme, self.network, self.donor, seed=2)
        batched = transplant_attack(self.scheme, self.network, self.donor,
                                    seed=2, engine=self.engine)
        assert plain == batched

    def test_random_attack_same_outcome(self):
        def factory(rng, net, node):
            return self.donor[rng.choice(list(self.donor))]

        plain = random_certificate_attack(self.scheme, self.network, factory,
                                          trials=5, seed=2)
        batched = random_certificate_attack(self.scheme, self.network, factory,
                                            trials=5, seed=2, engine=self.engine)
        assert plain == batched

    def test_explicit_rng_matches_seed(self):
        def factory(rng, net, node):
            return self.donor[rng.choice(list(self.donor))]

        by_seed = random_certificate_attack(self.scheme, self.network, factory,
                                            trials=4, seed=7)
        by_rng = random_certificate_attack(self.scheme, self.network, factory,
                                           trials=4, rng=random.Random(7))
        assert by_seed == by_rng


class TestEngineCaches:
    def test_certify_caches_per_scheme_instance(self):
        calls = []

        class CountingScheme(type(default_registry().create("tree-pls"))):
            def prove(self, network):
                calls.append(1)
                return super().prove(network)

        scheme = CountingScheme()
        engine = SimulationEngine()
        network = Network(random_tree(12, seed=1), seed=1)
        first = engine.certify(scheme, network)
        second = engine.certify(scheme, network)
        assert first is second
        assert len(calls) == 1
        assert engine.certify(scheme, network, cache=False) is not first
        assert len(calls) == 2

    def test_network_for_caches_by_graph_and_seed(self):
        engine = SimulationEngine()
        graph = random_tree(10, seed=2)
        assert engine.network_for(graph, seed=1) is engine.network_for(graph, seed=1)
        assert engine.network_for(graph, seed=1) is not engine.network_for(graph, seed=2)

    def test_network_for_rebuilds_after_graph_mutation(self):
        engine = SimulationEngine()
        graph = random_tree(10, seed=6)
        anchor = next(iter(graph.nodes()))
        first = engine.network_for(graph, seed=1)
        graph.add_edge(anchor, "brand-new-node")
        second = engine.network_for(graph, seed=1)
        assert second is not first
        assert "brand-new-node" in second.nodes()

    def test_network_for_seed_none_is_never_cached(self):
        engine = SimulationEngine()
        graph = random_tree(10, seed=7)
        assert engine.network_for(graph) is not engine.network_for(graph)

    def test_network_cache_is_bounded(self, monkeypatch):
        import gc
        import weakref

        monkeypatch.setattr(engine_module, "_NETWORK_CACHE_SIZE", 2)
        engine = SimulationEngine()
        graphs = [random_tree(8, seed=s) for s in range(4)]
        refs = [weakref.ref(g) for g in graphs]
        for graph in graphs:
            network = engine.network_for(graph, seed=0)
            engine.structures(network)  # populate dependent caches too
        assert len(engine._networks) == 2
        del graphs, network
        gc.collect()
        # evicted graphs are no longer pinned by the engine
        assert sum(ref() is not None for ref in refs) == 2
        # exactly the two live networks keep a cache record, and the
        # structures populated above are still in them
        assert len(engine._states) == 2
        assert all(state.structures for state in engine._states.values())

    def test_structures_cached_per_network(self):
        engine = SimulationEngine()
        network = Network(random_tree(10, seed=3), seed=3)
        assert engine.structures(network) is engine.structures(network)
        twin = Network(random_tree(10, seed=3), seed=3)
        assert engine.structures(twin) is not engine.structures(network)

    def test_graph_mutation_invalidates_network_caches(self):
        scheme = default_registry().create("tree-pls")
        engine = SimulationEngine()
        graph = random_tree(10, seed=5)
        network = Network(graph, seed=5)
        certificates = engine.certify(scheme, network)
        before = engine.verify(scheme, network, certificates)
        assert before.accepted
        leaf, inner = None, None
        for node in graph.nodes():
            if graph.degree(node) == 1:
                leaf = node
            elif graph.degree(node) > 1 and not graph.has_edge(node, leaf or node):
                inner = node
        graph.add_edge(leaf, inner)  # no longer a tree; old certs now invalid
        stale_free = engine.verify(scheme, network, certificates)
        assert stale_free.decisions == run_verification(scheme, network,
                                                        certificates).decisions
        # the stale prover artifact was dropped: re-certifying actually
        # re-runs the prover, which now rejects the mutated (non-tree) graph
        with pytest.raises(NotInClassError):
            engine.certify(scheme, network)

    def test_engine_views_are_safe_to_mutate(self):
        scheme = default_registry().create("planarity-pls")
        engine = SimulationEngine()
        network = Network(PLANAR_GRAPH, seed=2)
        certificates = engine.certify(scheme, network)
        for structure in engine.structures(network):
            view = assemble_view(structure, certificates)
            view.neighbor_ids.sort(reverse=True)  # scratch work on the view
            view.certificates.clear()
        after = engine.verify(scheme, network, certificates)
        assert after.decisions == run_verification(scheme, network,
                                                   certificates).decisions

    def test_clear_caches(self):
        engine = SimulationEngine()
        network = Network(random_tree(10, seed=3), seed=3)
        first = engine.structures(network)
        engine.clear_caches()
        assert engine.structures(network) is not first

    def test_certificate_stats_cached_only_for_honest_assignments(self):
        scheme = default_registry().create("tree-pls")
        engine = SimulationEngine()
        network = Network(random_tree(12, seed=4), seed=4)
        honest = engine.certify(scheme, network)
        first = engine.verify(scheme, network, honest)
        second = engine.verify(scheme, network, honest)
        assert first.certificate_bits is second.certificate_bits
        forged = dict(honest)
        third = engine.verify(scheme, network, forged)
        assert third.certificate_bits is not first.certificate_bits
        assert third.certificate_bits == first.certificate_bits


def _traced(operation):
    """Run ``operation`` under a fresh tracer: (result, span names, tracer)."""
    from repro.observability import start_tracing, stop_tracing

    tracer = start_tracing()
    try:
        result = operation()
    finally:
        stop_tracing()
    return result, [span.name for span in tracer.spans], tracer


class TestStreamingRule:
    """From ``_STREAM_NODE_THRESHOLD`` nodes on, every per-node pass streams:
    no whole-network structure list is built (no ``view_materialize`` span),
    and the decisions equal the caching engine's."""

    def _planarity(self, n=20, seed=12):
        scheme = default_registry().create("planarity-pls")
        network = Network(delaunay_planar_graph(n, seed=seed), seed=seed)
        return scheme, network, scheme.prove(network)

    def _dmam_round(self, network, seed=3):
        protocol = default_registry().create("planarity-dmam")
        turn = protocol.first_turn(network)
        challenges = protocol.draw_challenges(network, random.Random(seed))
        second = protocol.second_turn(network, turn, challenges)
        return protocol, dict(turn.messages), second, challenges

    def test_count_paths_stream_above_threshold(self, monkeypatch):
        scheme, network, certificates = self._planarity()
        protocol, first, second, challenges = self._dmam_round(network)
        cached = SimulationEngine()
        expected = (cached.count_accepting(scheme, network, certificates),
                    cached.count_accepting_interactive(
                        protocol, network, first, second, challenges))
        monkeypatch.setattr(engine_module, "_STREAM_NODE_THRESHOLD", 1)
        streaming = SimulationEngine()
        counts, names, tracer = _traced(lambda: (
            streaming.count_accepting(scheme, network, certificates),
            streaming.count_accepting_interactive(
                protocol, network, first, second, challenges)))
        assert counts == expected == (network.size, network.size)
        assert "view_materialize" not in names
        # the interactive reference pass is a counted reference_loop too
        loops = [span for span in tracer.spans if span.name == "reference_loop"]
        assert [span.attributes["scheme"] for span in loops] == \
            [scheme.name, protocol.name]
        assert all(span.attributes["streamed"] for span in loops)
        assert streaming.backend_counters["reference_calls"] == 2
        assert streaming.backend_counters["reference_nodes"] == 2 * network.size

    def test_prepared_interactive_round_streams(self, monkeypatch):
        _, network, _ = self._planarity()
        protocol, first, second, challenges = self._dmam_round(network)
        cached = SimulationEngine()
        expected = cached.count_accepting_interactive(
            protocol, network, first, second, challenges,
            prepared=cached.interactive_prepared(protocol, network, first))
        monkeypatch.setattr(engine_module, "_STREAM_NODE_THRESHOLD", 1)
        streaming = SimulationEngine()
        count, names, _ = _traced(lambda: streaming.count_accepting_interactive(
            protocol, network, first, second, challenges,
            prepared=streaming.interactive_prepared(protocol, network, first)))
        assert count == expected == network.size
        assert "view_materialize" not in names

    def test_batched_flagged_node_redecide_streams(self, monkeypatch):
        items = []
        for seed in (12, 13):
            scheme, network, honest = self._planarity(seed=seed)
            corrupted = dict(honest)
            corrupted[sorted(corrupted, key=repr)[0]] = object()  # unrepresentable
            items.append((network, corrupted))
        monkeypatch.setattr(engine_module, "_STREAM_NODE_THRESHOLD", 1)
        engine = SimulationEngine(backend="vectorized")
        results, names, _ = _traced(lambda: engine.verify_batch(scheme, items))
        assert "view_materialize" not in names
        for (network, certificates), result in zip(items, results):
            assert result.decisions == \
                run_verification(scheme, network, certificates).decisions
        counters = engine.backend_counters
        assert counters["kernel_calls"] == 1  # both items in one chunk
        assert counters["fallback_nodes"] > 0
        assert counters["reference_calls"] == 0

    def test_round_kernel_flagged_node_redecide_streams(self, monkeypatch):
        _, network, _ = self._planarity()
        protocol, first, second, challenges = self._dmam_round(network)
        second[sorted(second, key=repr)[0]] = "garbage"  # unrepresentable
        reference = SimulationEngine().count_accepting_interactive(
            protocol, network, first, second, challenges)
        monkeypatch.setattr(engine_module, "_STREAM_NODE_THRESHOLD", 1)
        engine = SimulationEngine(backend="vectorized")
        count, names, _ = _traced(lambda: engine.count_accepting_interactive(
            protocol, network, first, second, challenges,
            prepared=engine.interactive_prepared(protocol, network, first)))
        assert count == reference
        assert "view_materialize" not in names
        assert engine.backend_counters["fallback_nodes"] > 0
        assert engine.backend_counters["reference_calls"] == 0


def _square(value: int) -> int:
    return value * value


def _boom(value: int) -> int:
    if value == 2:
        raise ValueError(f"worker rejected spec {value}")
    return value


def _worker_pid(_spec) -> int:
    import os

    return os.getpid()


class TestTrialFanOut:
    def test_run_trials_serial(self):
        engine = SimulationEngine(workers=1)
        assert engine.run_trials(_square, [1, 2, 3]) == [1, 4, 9]

    def test_run_trials_process_pool(self):
        engine = SimulationEngine(workers=2)
        assert engine.run_trials(_square, [3, 4, 5]) == [9, 16, 25]

    def test_pool_uses_spawned_processes(self):
        # the spawn pin means workers are fresh interpreters, never the
        # parent (fork would hand back the parent's numpy/BLAS thread state)
        import os

        pids = SimulationEngine(workers=2).run_trials(_worker_pid, [0, 1, 2])
        assert os.getpid() not in pids

    def test_worker_exception_propagates(self):
        # a failing spec must surface as the worker's exception in the
        # parent, not hang the pool or silently drop the trial
        engine = SimulationEngine(workers=2)
        with pytest.raises(ValueError, match="worker rejected spec 2"):
            engine.run_trials(_boom, [1, 2, 3])

    def test_more_workers_than_specs(self):
        engine = SimulationEngine(workers=8)
        assert engine.run_trials(_square, [2, 3]) == [4, 9]

    def test_single_spec_short_circuits_the_pool(self):
        # len(specs) <= 1 runs in-process even with workers > 1: the result
        # must come from this very interpreter, not a spawned one
        import os

        engine = SimulationEngine(workers=4)
        assert engine.run_trials(_worker_pid, [0]) == [os.getpid()]
        assert engine.run_trials(_square, []) == []

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(workers=0)

    def test_trial_seeds_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(None, 3) is None
        draws = [random.Random(derive_seed(9, 2)).random() for _ in range(2)]
        assert draws[0] == draws[1]


class TestNetworkRngPlumbing:
    def test_explicit_rng_matches_seed(self):
        graph = random_tree(14, seed=8)
        by_seed = Network(graph, seed=8)
        by_rng = Network(graph, rng=random.Random(8))
        assert by_seed.ids() == by_rng.ids()

    def test_single_generator_drives_sequential_networks(self):
        graph = random_tree(14, seed=8)
        rng = random.Random(8)
        first = Network(graph, rng=rng)
        second = Network(graph, rng=rng)
        assert first.ids() != second.ids()  # the stream advanced


# ----------------------------------------------------------------------
# the interactive (dMAM) runtime on the engine
# ----------------------------------------------------------------------
def _transcripts_equal(reference, engine_made):
    """Field-for-field transcript equality (the acceptance contract)."""
    assert reference.protocol_name == engine_made.protocol_name
    assert reference.interactions == engine_made.interactions
    assert reference.first_certificates == engine_made.first_certificates
    assert reference.challenges == engine_made.challenges
    assert reference.second_certificates == engine_made.second_certificates
    assert reference.decisions == engine_made.decisions
    assert reference.accepted == engine_made.accepted


def _forged_seconds(second):
    """Corrupt every second message's relayed coin (caught deterministically)."""
    import dataclasses

    from repro.baselines.dmam import FIELD_PRIME

    return {node: dataclasses.replace(
        message, global_point=(message.global_point + 1) % FIELD_PRIME)
        for node, message in second.items()}


class TestInteractiveRuntime:
    def _protocol(self):
        return default_registry().create("planarity-dmam")

    def test_honest_transcript_matches_reference_on_planar(self):
        from repro.distributed.interactive import run_interactive_protocol

        for maker_seed, graph in [(1, delaunay_planar_graph(40, seed=21)),
                                  (2, random_tree(25, seed=22))]:
            network = Network(graph, seed=maker_seed)
            engine = SimulationEngine()
            protocol = self._protocol()
            reference = run_interactive_protocol(protocol, network, seed=31)
            batched = engine.run_interactive(protocol, network, seed=31)
            _transcripts_equal(reference, batched)
            assert batched.accepted
            # replay from the warm first-turn cache: still identical
            _transcripts_equal(reference,
                               engine.run_interactive(protocol, network, seed=31))

    def test_dishonest_transcript_matches_reference_on_planar(self):
        import random as random_module

        from repro.distributed.interactive import run_interactive_protocol

        graph = delaunay_planar_graph(30, seed=23)
        network = Network(graph, seed=23)
        protocol = self._protocol()
        turn = protocol.first_turn(network)
        challenges = protocol.draw_challenges(network, random_module.Random(33))
        forged = _forged_seconds(protocol.second_turn(network, turn, challenges))
        reference = run_interactive_protocol(
            protocol, network, seed=33,
            dishonest_first=turn.messages, dishonest_second=forged)
        batched = SimulationEngine().run_interactive(
            protocol, network, seed=33,
            dishonest_first=turn.messages, dishonest_second=forged)
        _transcripts_equal(reference, batched)
        assert not batched.accepted

    def test_dishonest_transcript_matches_reference_on_nonplanar(self):
        """Transplanted first messages on a non-planar sibling: every path
        rejects, and the engine transcript still mirrors the reference."""
        from repro.baselines.dmam import DMAMSecondMessage
        from repro.distributed.interactive import run_interactive_protocol

        planar = delaunay_planar_graph(20, seed=24)
        nonplanar = planar_plus_random_edges(20, extra_edges=3, seed=24)
        protocol = self._protocol()
        network = Network(nonplanar, seed=24)
        donor = Network(planar, ids={node: network.id_of(node)
                                     for node in planar.nodes()})
        first = protocol.first_turn(donor).messages
        second = {node: DMAMSecondMessage(global_point=5,
                                          push_product_subtree=1,
                                          pop_product_subtree=1)
                  for node in network.nodes()}
        reference = run_interactive_protocol(
            protocol, network, seed=34,
            dishonest_first=first, dishonest_second=second)
        batched = SimulationEngine().run_interactive(
            protocol, network, seed=34,
            dishonest_first=first, dishonest_second=second)
        _transcripts_equal(reference, batched)
        assert not batched.accepted

    def test_transcript_sizes_a_forged_message_by_its_repr(self):
        """A first message with no encoding is charged ``8·len(repr)`` bits,
        the size rule of ``certificate_statistics``, instead of raising."""
        from repro.distributed.verifier import certificate_statistics

        network = Network(delaunay_planar_graph(20, seed=0), seed=0)
        protocol = self._protocol()
        honest = SimulationEngine(seed=0).run_interactive(protocol, network, seed=0)
        first = dict(honest.first_certificates)
        first[next(iter(network.nodes()))] = "forged"
        transcript = SimulationEngine(seed=0).run_interactive(
            protocol, network, seed=0, dishonest_first=first,
            dishonest_second=honest.second_certificates)
        assert transcript.max_certificate_bits == 361
        assert transcript.max_certificate_bits == max(
            *certificate_statistics(first).values(),
            *certificate_statistics(honest.second_certificates).values())

    def test_estimate_matches_per_draw_reference(self):
        from repro.distributed.interactive import run_interactive_protocol

        graph = delaunay_planar_graph(25, seed=25)
        network = Network(graph, seed=25)
        engine = SimulationEngine()
        protocol = self._protocol()
        estimate = engine.estimate_soundness_error(protocol, network, 5, seed=44)
        assert estimate.trials == 5
        assert estimate.total_nodes == network.size
        for index in range(5):
            reference = run_interactive_protocol(
                protocol, network, seed=derive_seed(44, index))
            assert sum(reference.decisions.values()) == estimate.accepting_counts[index]
        assert estimate.error_rate == 1.0
        assert estimate.all_accept_count == 5
        assert estimate.max_accepting == network.size
        assert sum(estimate.accepting_counts) == 5 * network.size

    def test_estimate_with_second_strategy_matches_reference(self):
        import random as random_module

        from repro.distributed.interactive import run_interactive_protocol

        graph = delaunay_planar_graph(25, seed=26)
        network = Network(graph, seed=26)
        engine = SimulationEngine()
        protocol = self._protocol()
        turn = engine.first_turn(protocol, network)

        def strategy(net, first, challenges):
            return _forged_seconds(protocol.second_turn(net, turn, challenges))

        estimate = engine.estimate_soundness_error(
            protocol, network, 4, seed=55,
            first=turn.messages, second_strategy=strategy)
        assert estimate.error_rate == 0.0
        for index in range(4):
            rng = random_module.Random(derive_seed(55, index))
            challenges = protocol.draw_challenges(network, rng)
            second = strategy(network, turn.messages, challenges)
            reference = run_interactive_protocol(
                protocol, network, seed=derive_seed(55, index),
                dishonest_first=turn.messages, dishonest_second=second)
            assert sum(reference.decisions.values()) == estimate.accepting_counts[index]

    def test_first_turn_cached_per_network_and_protocol(self):
        from repro.baselines.dmam import PlanarityDMAMProtocol

        calls = []

        class CountingProtocol(PlanarityDMAMProtocol):
            def first_turn(self, network):
                calls.append(id(network))
                return super().first_turn(network)

        graph = delaunay_planar_graph(20, seed=27)
        other_graph = random_tree(15, seed=27)
        network = Network(graph, seed=27)
        other = Network(other_graph, seed=27)
        engine = SimulationEngine()
        protocol = CountingProtocol()
        engine.run_interactive(protocol, network, seed=1)
        engine.run_interactive(protocol, network, seed=2)
        assert calls == [id(network)]
        # interleaving another network computes one more first turn, and the
        # explicit FirstTurn state keeps the original network's replays
        # correct afterwards (no cross-network decomposition leakage)
        engine.run_interactive(protocol, other, seed=3)
        replay = engine.run_interactive(protocol, network, seed=4)
        assert calls == [id(network), id(other)]
        assert replay.accepted
        # cache=False bypasses
        engine.first_turn(protocol, network, cache=False)
        assert len(calls) == 3

    def test_decision_only_mode_matches_transcript(self):
        import random as random_module

        graph = delaunay_planar_graph(20, seed=28)
        network = Network(graph, seed=28)
        engine = SimulationEngine()
        protocol = self._protocol()
        turn = engine.first_turn(protocol, network)
        challenges = protocol.draw_challenges(network, random_module.Random(66))
        second = protocol.second_turn(network, turn, challenges)
        transcript = engine.run_interactive(protocol, network, seed=66)
        prepared = engine.interactive_prepared(protocol, network, turn.messages)
        count = engine.count_accepting_interactive(
            protocol, network, turn.messages, second, challenges, prepared=prepared)
        assert count == sum(transcript.decisions.values())

    def test_estimate_pool_matches_serial(self):
        from repro.baselines.dmam import PlanarityDMAMProtocol

        graph = delaunay_planar_graph(20, seed=29)
        network = Network(graph, seed=29)
        serial = SimulationEngine(seed=77).estimate_soundness_error(
            PlanarityDMAMProtocol(), network, 4, seed=77)
        pooled = SimulationEngine(seed=77, workers=2).estimate_soundness_error(
            PlanarityDMAMProtocol(), network, 4, seed=77)
        assert serial.accepting_counts == pooled.accepting_counts

    def test_transcript_mutation_does_not_corrupt_first_turn_cache(self):
        """Transcripts belong to the caller: editing first_certificates on a
        returned transcript (to build a dishonest variant) must not tamper
        with the engine's cached first turn."""
        graph = delaunay_planar_graph(20, seed=30)
        network = Network(graph, seed=30)
        engine = SimulationEngine()
        protocol = self._protocol()
        transcript = engine.run_interactive(protocol, network, seed=88)
        victim = next(iter(transcript.first_certificates))
        transcript.first_certificates[victim] = None
        replay = engine.run_interactive(protocol, network, seed=88)
        assert replay.accepted
        assert replay.first_certificates[victim] is not None
