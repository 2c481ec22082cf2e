"""Differential tests for the dynamic-network delta path.

Every layer of the incremental pipeline claims byte-identity with its
from-scratch counterpart; these tests check the claims differentially —
random mutate/verify interleavings where the patched artifact is compared,
value for value, against a full rebuild of the mutated world:

* the :class:`Graph` mutation journal and the patched CSR layout,
* :class:`DynamicAuditor` decisions against full reference verification,
  including forced repair-cascade fallbacks, journal truncation, and the
  miswired-link alarm,
* :class:`SimulationEngine` delta invalidation against a cold engine.
"""
from __future__ import annotations

import random

import pytest

from repro.core.building_blocks import TreeScheme
from repro.core.planarity_scheme import CotreeEdgeCertificate, PlanarityScheme
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.dynamic import DynamicAuditor
from repro.dynamic.repair import PlanarityRepairer, SpanningTreeRepairer, repairer_for
from repro.graphs.generators import delaunay_planar_graph, random_tree
from repro.graphs.graph import (Graph, JOURNAL_LIMIT, PATCH_DELTA_LIMIT)
from repro.graphs.indexed import IndexedGraph
from repro.graphs.planarity import is_planar
from repro.observability.tracer import start_tracing, stop_tracing


def cotree_pairs(auditor: DynamicAuditor) -> list[tuple[int, int]]:
    return chord_ids(auditor.certificates)


def chord_ids(certificates: dict) -> list[tuple[int, int]]:
    """Identifier pairs of the cotree edges a planarity assignment certifies."""
    chords = set()
    for certificate in certificates.values():
        for ec in certificate.edge_certificates:
            if isinstance(ec, CotreeEdgeCertificate):
                chords.add(tuple(sorted((ec.a_id, ec.b_id))))
    return sorted(chords)


def reference_decisions(auditor: DynamicAuditor) -> dict:
    """Full from-scratch verification of the auditor's current state."""
    return auditor._decide(auditor.network.nodes())


# ----------------------------------------------------------------------
# the mutation journal
# ----------------------------------------------------------------------
class TestMutationJournal:
    def test_deltas_recorded_by_version(self):
        graph = Graph([(0, 1), (1, 2)])
        version = graph._version
        graph.add_edge(0, 2)
        graph.remove_edge(0, 1)
        deltas = graph.deltas_since(version)
        assert [(d.op, d.u, d.v) for d in deltas] == [
            ("add_edge", 0, 2), ("remove_edge", 0, 1)]
        assert all(d.is_edge_op for d in deltas)
        assert graph.deltas_since(graph._version) == ()

    def test_node_ops_are_journaled_but_not_edge_ops(self):
        graph = Graph([(0, 1)])
        version = graph._version
        graph.add_node(7)
        (delta,) = graph.deltas_since(version)
        assert delta.op == "add_node" and not delta.is_edge_op

    def test_truncation_past_limit_returns_none(self):
        graph = Graph([(0, 1)])
        version = graph._version
        for i in range(JOURNAL_LIMIT + 1):
            graph.add_edge(0, 2 + i)
        assert graph.deltas_since(version) is None
        # recent versions are still answerable
        recent = graph._version
        graph.add_edge(1, 2)
        assert len(graph.deltas_since(recent)) == 1

    def test_future_version_returns_none(self):
        graph = Graph([(0, 1)])
        assert graph.deltas_since(graph._version + 1) is None


class TestPatchedCSR:
    def assert_identical(self, graph: Graph):
        patched = graph.indexed()
        fresh = IndexedGraph.from_graph(graph)
        assert patched.labels == fresh.labels
        assert list(patched.indptr) == list(fresh.indptr)
        assert list(patched.indices) == list(fresh.indices)

    def test_fuzz_patched_layout_matches_rebuild(self):
        rng = random.Random(11)
        graph = delaunay_planar_graph(40, seed=2)
        graph.indexed()  # seed the cache so mutations take the patch path
        nodes = sorted(graph.nodes())
        for _ in range(120):
            u, v = rng.sample(nodes, 2)
            if graph.has_edge(u, v):
                if graph.degree(u) > 1 and graph.degree(v) > 1:
                    graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            self.assert_identical(graph)

    def test_patch_shares_label_identity(self):
        graph = delaunay_planar_graph(30, seed=4)
        before = graph.indexed()
        graph.add_edge(0, 17) if not graph.has_edge(0, 17) else None
        after = graph.indexed()
        if after is not before:  # patched, not rebuilt
            assert after.labels is before.labels

    def test_large_delta_batch_rebuilds(self):
        graph = delaunay_planar_graph(40, seed=5)
        graph.indexed()
        nodes = sorted(graph.nodes())
        rng = random.Random(3)
        for _ in range(PATCH_DELTA_LIMIT + 5):
            u, v = rng.sample(nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        self.assert_identical(graph)


# ----------------------------------------------------------------------
# the dynamic auditor
# ----------------------------------------------------------------------
class TestDynamicAuditorPlanarity:
    def test_churn_decisions_match_reference(self):
        network = Network(delaunay_planar_graph(60, seed=3), seed=3)
        auditor = DynamicAuditor(network, PlanarityScheme())
        auditor.baseline()
        rng = random.Random(7)
        chords = cotree_pairs(auditor)
        for _ in range(25):
            a, b = rng.choice(chords)
            u, v = network.node_of(a), network.node_of(b)
            auditor.apply_event("remove_edge", u, v)
            report = auditor.apply_event("add_edge", u, v)
            assert report.member
            reference = reference_decisions(auditor)
            assert auditor.decisions == reference
            assert report.accept_all == all(auditor.decisions.values()) == all(reference.values())
            if report.fallback:
                chords = cotree_pairs(auditor)
        assert all(auditor.decisions.values())

    def test_tree_edge_removal_falls_back_counted(self):
        network = Network(delaunay_planar_graph(40, seed=2), seed=2)
        auditor = DynamicAuditor(network, PlanarityScheme())
        auditor.baseline()
        chords = set(cotree_pairs(auditor))
        trunk = next(e for e in
                     (tuple(sorted((network.id_of(u), network.id_of(v))))
                      for u, v in network.graph.edges())
                     if e not in chords)
        u, v = network.node_of(trunk[0]), network.node_of(trunk[1])
        report = auditor.apply_event("remove_edge", u, v)
        assert report.fallback and report.reason == "tree_edge_removed"
        assert auditor.fallbacks == 1
        assert auditor.decisions == reference_decisions(auditor)
        assert all(auditor.decisions.values())

    def test_miswired_link_alarms_immediately_and_recovers(self):
        network = Network(delaunay_planar_graph(60, seed=3), seed=3)
        auditor = DynamicAuditor(network, PlanarityScheme())
        auditor.baseline()
        ids = sorted(network.ids())
        graph = network.graph
        rng = random.Random(5)
        while True:  # a link whose extra edge makes the mesh non-planar
            a, b = rng.sample(ids, 2)
            u, v = network.node_of(a), network.node_of(b)
            if graph.has_edge(u, v):
                continue
            probe = graph.copy()
            probe.add_edge(u, v)
            if not is_planar(probe):
                break
        landed = auditor.apply_event("add_edge", u, v)
        assert not landed.member
        assert landed.alarms  # the audit flags the link the epoch it lands
        reference = reference_decisions(auditor)
        assert auditor.decisions == reference
        # the running count of rejecting nodes agrees with a full scan
        assert landed.accept_all == all(auditor.decisions.values()) == all(reference.values())
        report = auditor.apply_event("remove_edge", u, v)
        assert report.accept_all and not report.alarms
        reference = reference_decisions(auditor)
        assert auditor.decisions == reference
        assert report.accept_all == all(auditor.decisions.values()) == all(reference.values())

    def test_journal_truncation_re_decides_everything(self):
        network = Network(delaunay_planar_graph(40, seed=6), seed=6)
        auditor = DynamicAuditor(network, PlanarityScheme())
        auditor.baseline()
        graph = network.graph
        chords = cotree_pairs(auditor)
        a, b = chords[0]
        u, v = network.node_of(a), network.node_of(b)
        # age the journal far past the limit without a net change
        for _ in range(JOURNAL_LIMIT):
            graph.remove_edge(u, v)
            graph.add_edge(u, v)
        report = auditor.apply_event("remove_edge", u, v)
        assert report.fallback and report.reason == "journal_truncated"
        assert report.redecided == network.size
        assert auditor.decisions == reference_decisions(auditor)


class TestRepairerStateIdentity:
    """The repairer's cached tour state belongs to the dict it committed:
    once that dict is freed, CPython may allocate the next dict at the same
    address, and a state keyed by ``id()`` would then describe the wrong
    assignment."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repairs_after_a_dropped_result_equal_a_fresh_repairers(self, seed):
        network = Network(delaunay_planar_graph(120, seed=seed), seed=seed)
        graph = network.graph
        scheme = PlanarityScheme()
        honest = scheme.prove(network)
        chords = [(network.node_of(a), network.node_of(b))
                  for a, b in chord_ids(honest)]
        repairer = PlanarityRepairer(scheme)
        rng = random.Random(seed)

        def remove(edge):
            version = graph._version
            graph.remove_edge(*edge)
            return graph.deltas_since(version)

        def outcome(result):
            return (result.certificates, result.changed, result.fallback,
                    result.member, result.reason)

        for _ in range(60):
            first = rng.choice(chords)
            # a chord near the first, so a stale state's intervals differ
            near = set(first).union(*(graph.neighbors(node) for node in first))
            second = rng.choice([chord for chord in chords
                                 if chord != first and near.intersection(chord)])
            committed = repairer.repair(network, honest, remove(first))
            assert not committed.fallback
            graph.add_edge(*first)
            deltas = remove(second)
            del committed  # frees the committed dict's address
            got = repairer.repair(network, dict(honest), deltas)
            want = PlanarityRepairer(scheme).repair(network, dict(honest), deltas)
            assert outcome(got) == outcome(want)
            graph.add_edge(*second)


class TestDynamicAuditorTree:
    def test_batched_swaps_match_reference(self):
        network = Network(random_tree(80, seed=5), seed=5)
        auditor = DynamicAuditor(network, TreeScheme())
        auditor.baseline()
        graph = network.graph
        adj = graph._adj
        rng = random.Random(9)
        swaps = fallbacks = 0
        while swaps < 20:
            leaf = rng.choice([n for n in adj if len(adj[n]) == 1
                               and auditor.certificates[n].subtree_size == 1])
            parent = next(iter(adj[leaf]))
            anchors = [w for w in adj[parent] if w != leaf]
            if not anchors:
                continue
            report = auditor.apply_events([
                ("remove_edge", leaf, parent),
                ("add_edge", leaf, rng.choice(anchors))])
            assert report.member and report.accept_all
            fallbacks += report.fallback
            assert auditor.decisions == reference_decisions(auditor)
            swaps += 1
        assert fallbacks == 0  # leaf swaps never cascade

    def test_deep_swap_cascades_to_counted_fallback(self):
        # swapping the root's heavy child re-roots more than half the tree:
        # the repairer must detect the cascade and fall back, counted
        network = Network(random_tree(80, seed=5), seed=5)
        auditor = DynamicAuditor(network, TreeScheme())
        auditor.baseline()
        certificates = auditor.certificates
        root = next(n for n in certificates
                    if certificates[n].parent_id is None)
        adj = network.graph._adj
        heavy = max(adj[root], key=lambda n: certificates[n].subtree_size)
        anchor = next(w for w in adj[heavy] if w != root)
        report = auditor.apply_events([("remove_edge", heavy, root),
                                       ("add_edge", root, anchor)])
        assert report.member
        assert report.fallback and report.reason == "cascade"
        assert auditor.fallbacks == 1
        assert auditor.decisions == reference_decisions(auditor)

    def test_split_swap_leaves_class_then_alarm_clears(self):
        # the same swap split across two calls passes through a non-tree
        # state: the first half must alarm, the second must recover
        network = Network(random_tree(30, seed=1), seed=1)
        auditor = DynamicAuditor(network, TreeScheme())
        auditor.baseline()
        adj = network.graph._adj
        leaf = next(n for n in adj if len(adj[n]) == 1
                    and auditor.certificates[n].subtree_size == 1)
        parent = next(iter(adj[leaf]))
        half = auditor.apply_event("remove_edge", leaf, parent)
        assert not half.member
        assert auditor.decisions == reference_decisions(auditor)
        restore = auditor.apply_event("add_edge", leaf, parent)
        assert restore.member
        assert auditor.decisions == reference_decisions(auditor)
        assert all(auditor.decisions.values())

    def test_repairer_registry(self):
        class ForeignScheme:
            name = "foreign-scheme"

        assert isinstance(repairer_for(TreeScheme()), SpanningTreeRepairer)
        assert repairer_for(ForeignScheme()) is None
        with pytest.raises(ValueError):
            DynamicAuditor(Network(random_tree(10, seed=0), seed=0),
                           ForeignScheme())


# ----------------------------------------------------------------------
# engine delta invalidation
# ----------------------------------------------------------------------
class TestEngineDeltaInvalidation:
    def test_warm_engine_matches_cold_under_churn(self):
        network = Network(delaunay_planar_graph(60, seed=3), seed=3)
        scheme = PlanarityScheme()
        auditor = DynamicAuditor(network, scheme)
        auditor.baseline()
        warm = SimulationEngine(backend="vectorized")
        warm.verify(scheme, network, auditor.certificates)
        rng = random.Random(2)
        chords = cotree_pairs(auditor)
        tracer = start_tracing()
        try:
            for _ in range(8):
                a, b = rng.choice(chords)
                u, v = network.node_of(a), network.node_of(b)
                auditor.apply_event("remove_edge", u, v)
                auditor.apply_event("add_edge", u, v)
                warm_decisions = warm.verify(
                    scheme, network, auditor.certificates).decisions
                cold = SimulationEngine(backend="vectorized")
                cold_decisions = cold.verify(
                    scheme, network, auditor.certificates).decisions
                assert warm_decisions == cold_decisions
        finally:
            stop_tracing()
        compiles = [s for s in tracer.spans if s.name == "delta_compile"]
        assert compiles, "warm engine never took the delta-invalidate path"
        counters = tracer.metrics.counters
        assert counters.get("delta_edges", 0) > 0
        assert counters.get("delta_nodes", 0) > 0

    def test_oversized_delta_batch_drops_caches(self):
        network = Network(delaunay_planar_graph(60, seed=4), seed=4)
        scheme = PlanarityScheme()
        certificates = PlanarityScheme().prove(network)
        engine = SimulationEngine(backend="vectorized")
        baseline = engine.verify(scheme, network, certificates).decisions
        graph = network.graph
        nodes = sorted(graph.nodes())
        rng = random.Random(6)
        added = []
        while len(added) <= PATCH_DELTA_LIMIT:
            u, v = rng.sample(nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                added.append((u, v))
        for u, v in added:  # restore: decisions must be reproducible
            graph.remove_edge(u, v)
        assert engine.verify(scheme, network, certificates).decisions \
            == baseline
