"""Tests for planarity testing, Kuratowski extraction, minors, and the generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.path_outerplanar import is_path_outerplanar_witness
from repro.distributed.network import Network
from repro.exceptions import GraphError, NotInClassError, NotPlanarError
from repro.graphs.generators import (
    NONPLANAR_FAMILIES,
    PLANAR_FAMILIES,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    k5_subdivision,
    k33_subdivision,
    nonplanar_family,
    path_graph,
    petersen_graph,
    planar_family,
    planar_plus_random_edges,
    random_apollonian_network,
    random_maximal_outerplanar_graph,
    random_nonplanar_graph,
    random_outerplanar_graph,
    random_planar_graph,
    random_tree,
    subdivide_edges,
    wheel_graph,
)
from repro.graphs.kuratowski import find_kuratowski_subdivision
from repro.graphs.minors import (
    is_k4_minor_free,
    verify_bipartite_minor_model,
    verify_clique_minor_model,
)
from repro.graphs.planarity import (
    compute_planar_embedding,
    is_planar,
    passes_edge_count_bound,
    planarity_upper_edge_bound,
)
from repro.graphs.validation import is_outerplanar


class TestPlanarityTest:
    def test_planar_instances_accepted(self, planar_case):
        name, graph = planar_case
        assert is_planar(graph), name

    def test_nonplanar_instances_rejected(self, nonplanar_case):
        name, graph = nonplanar_case
        assert not is_planar(graph), name

    def test_cross_check_with_networkx(self):
        import networkx as nx
        from networkx_oracle import to_networkx

        for seed in range(5):
            graph = random_nonplanar_graph(15, seed=seed) if seed % 2 else \
                random_planar_graph(20, seed=seed)
            expected, _ = nx.check_planarity(to_networkx(graph))
            assert is_planar(graph) == expected

    def test_edge_bound(self):
        assert planarity_upper_edge_bound(10) == 24
        assert planarity_upper_edge_bound(2) == 1
        assert passes_edge_count_bound(grid_graph(4, 4))
        assert not passes_edge_count_bound(complete_graph(8))

    def test_embedding_validates_euler(self, planar_case):
        name, graph = planar_case
        rotation = compute_planar_embedding(graph)
        if graph.is_connected() and graph.number_of_nodes() > 1:
            assert rotation.is_planar_embedding(), name

    def test_embedding_of_nonplanar_raises(self):
        with pytest.raises(NotPlanarError):
            compute_planar_embedding(petersen_graph())
        with pytest.raises(NotPlanarError):
            compute_planar_embedding(complete_graph(7))

    def test_yes_no_answer_builds_no_embedding(self, monkeypatch):
        """``is_planar`` stops after the testing phase: it runs the left-right
        test without its sign and embedding phases."""
        runs = _count_planarity_tests(monkeypatch)
        graph = delaunay_planar_graph(60, seed=2)
        graph.add_node("isolated")
        assert is_planar(graph)
        assert not is_planar(k5_subdivision(3, seed=1))
        assert not is_planar(petersen_graph())
        assert [embed for _, embed in runs] == [False, False, False]


def _count_planarity_tests(monkeypatch) -> list[tuple[int, bool]]:
    """Patch the left-right test to record each run; return the record.

    One ``(m, embed)`` entry per run: the number of edges tested and
    whether the sign and embedding phases were asked for.
    """
    from repro.graphs import planarity

    runs: list[tuple[int, bool]] = []
    left_right = planarity._left_right

    def counted(adjacency, m, embed):
        runs.append((m, embed))
        return left_right(adjacency, m, embed)

    monkeypatch.setattr(planarity, "_left_right", counted)
    return runs


class TestOnePlanarityTestPerProof:
    """Each prover answers membership and builds its proof from at most one
    whole-graph planarity test."""

    def test_nonplanarity_prove(self, monkeypatch):
        """A Kuratowski subdivision is certified by structural validation
        alone: no planarity test runs."""
        from repro.core.nonplanarity_scheme import NonPlanarityScheme

        network = Network(k5_subdivision(3, seed=1), seed=1)
        runs = _count_planarity_tests(monkeypatch)
        NonPlanarityScheme().prove(network)
        assert runs == []

    @pytest.mark.parametrize("graph", [
        petersen_graph(),
        random_nonplanar_graph(60, seed=1),
    ], ids=["petersen", "random-nonplanar-60"])
    def test_nonplanarity_prove_tests_the_whole_graph_once(self, monkeypatch, graph):
        """On an input the edge bound does not decide and that is no
        subdivision itself, membership and extraction share one test; the
        minimiser's other tests each see a strict subset of the edges."""
        from repro.core.nonplanarity_scheme import NonPlanarityScheme

        assert passes_edge_count_bound(graph)
        m = graph.number_of_edges()
        network = Network(graph, seed=1)
        runs = _count_planarity_tests(monkeypatch)
        NonPlanarityScheme().prove(network)
        assert [edges for edges, _ in runs if edges == m] == [m]
        assert all(edges <= m and not embed for edges, embed in runs)

    def test_nonplanarity_prove_keeps_a_failed_core_a_bug(self, monkeypatch):
        """A core the structural validator rejects raises ``GraphError``,
        not the prover's ``NotInClassError`` for a planar input."""
        from repro.core.nonplanarity_scheme import NonPlanarityScheme
        from repro.graphs import kuratowski

        monkeypatch.setattr(kuratowski, "_as_subdivision", lambda core: None)
        with pytest.raises(GraphError, match="failed Kuratowski validation"):
            NonPlanarityScheme().prove(Network(petersen_graph(), seed=1))

    def test_planarity_prove(self, monkeypatch):
        from repro.core.planarity_scheme import PlanarityScheme

        graph = delaunay_planar_graph(50, seed=3)
        network = Network(graph, seed=3)
        runs = _count_planarity_tests(monkeypatch)
        PlanarityScheme().prove(network)
        assert runs == [(graph.number_of_edges(), True)]

    def test_nonplanarity_prove_refuses_a_planar_graph(self):
        from repro.core.nonplanarity_scheme import NonPlanarityScheme

        with pytest.raises(NotInClassError):
            NonPlanarityScheme().prove(Network(grid_graph(4, 4), seed=1))

    def test_dmam_first_turn(self, monkeypatch):
        from repro.baselines.dmam import PlanarityDMAMProtocol

        graph = delaunay_planar_graph(50, seed=3)
        network = Network(graph, seed=3)
        runs = _count_planarity_tests(monkeypatch)
        PlanarityDMAMProtocol().first_turn(network)
        assert runs == [(graph.number_of_edges(), True)]

    def test_dmam_first_turn_refuses_a_nonplanar_graph(self):
        from repro.baselines.dmam import PlanarityDMAMProtocol

        with pytest.raises(NotInClassError):
            PlanarityDMAMProtocol().first_turn(Network(petersen_graph(), seed=1))


class TestKuratowski:
    @pytest.mark.parametrize("graph,expected_kind", [
        (complete_graph(5), "K5"),
        (complete_bipartite_graph(3, 3), "K3,3"),
        (k5_subdivision(2), "K5"),
        (k33_subdivision(2), "K3,3"),
    ])
    def test_kinds(self, graph, expected_kind):
        subdivision = find_kuratowski_subdivision(graph)
        assert subdivision.kind == expected_kind

    def test_subdivision_is_a_subgraph(self, nonplanar_case):
        name, graph = nonplanar_case
        subdivision = find_kuratowski_subdivision(graph)
        for u, v in subdivision.subgraph.edges():
            assert graph.has_edge(u, v), name
        assert not is_planar(subdivision.subgraph)

    def test_branch_vertex_count(self, nonplanar_case):
        _, graph = nonplanar_case
        subdivision = find_kuratowski_subdivision(graph)
        expected = 5 if subdivision.kind == "K5" else 6
        assert len(subdivision.branch_vertices) == expected

    def test_paths_connect_branch_vertices(self):
        subdivision = find_kuratowski_subdivision(petersen_graph())
        branch = set(subdivision.branch_vertices)
        paths = subdivision.paths()
        expected_paths = 10 if subdivision.kind == "K5" else 9
        assert len(paths) == expected_paths
        for path in paths:
            assert path[0] in branch and path[-1] in branch
            assert all(node not in branch for node in path[1:-1])

    def test_planar_input_rejected(self):
        with pytest.raises(GraphError):
            find_kuratowski_subdivision(grid_graph(4, 4))

    def test_core_failing_validation_raises(self, monkeypatch):
        """A minimal core the structural validator rejects is a bug, never an
        answer: extraction raises instead of returning it unvalidated."""
        from repro.graphs import kuratowski

        monkeypatch.setattr(kuratowski, "_as_subdivision", lambda core: None)
        with pytest.raises(GraphError, match="failed Kuratowski validation"):
            find_kuratowski_subdivision(petersen_graph())

    def test_low_degree_vertices_never_survive_extraction(self):
        """Stray low-degree vertices (here: an isolated node and a pendant
        path next to a K6) must be stripped from the returned subdivision."""
        graph = complete_graph(6)
        graph.add_node("isolated")
        graph.add_edge(0, "pendant")
        subdivision = find_kuratowski_subdivision(graph)
        assert all(subdivision.subgraph.degree(node) >= 2
                   for node in subdivision.subgraph.nodes())
        assert not subdivision.subgraph.has_node("isolated")
        assert not subdivision.subgraph.has_node("pendant")

    def test_divide_and_conquer_minimises_general_inputs(self):
        """Non-witness-shaped inputs (a planar graph plus a few crossing
        edges) go through the divide-and-conquer minimiser; the result must
        still be a genuine, edge-minimal subdivision of the host graph."""
        from repro.graphs.generators import planar_plus_random_edges
        from repro.graphs.kuratowski import _as_subdivision

        for seed in (0, 1, 2):
            graph = planar_plus_random_edges(150, extra_edges=3, seed=seed)
            subdivision = find_kuratowski_subdivision(graph)
            # the structural validator accepts the witness as-is
            assert _as_subdivision(subdivision.subgraph.copy()) is not None
            for u, v in subdivision.subgraph.edges():
                assert graph.has_edge(u, v)
            # edge-minimal: removing any single edge restores planarity
            for u, v in list(subdivision.subgraph.edges()):
                probe = subdivision.subgraph.copy()
                probe.remove_edge(u, v)
                assert is_planar(probe)

    @pytest.mark.parametrize("generator,kind", [
        (k5_subdivision, "K5"),
        (k33_subdivision, "K3,3"),
    ])
    def test_large_witness_extraction_is_linear(self, generator, kind):
        """n >= 1000 witness graphs must resolve through the structural early
        exit (the previous greedy-only extraction was quadratic and would
        effectively hang here)."""
        graph = generator(220, seed=3)
        assert graph.number_of_nodes() >= 1000
        subdivision = find_kuratowski_subdivision(graph)
        assert subdivision.kind == kind
        # the witness is already edge-minimal: nothing may be discarded
        assert subdivision.subgraph == graph


class TestMinors:
    def test_verify_clique_minor_model(self):
        graph = complete_graph(5)
        assert verify_clique_minor_model(graph, [{i} for i in range(5)])
        assert not verify_clique_minor_model(cycle_graph(5), [{i} for i in range(5)])

    def test_multi_node_branch_sets(self):
        graph = cycle_graph(6)
        assert verify_clique_minor_model(graph, [{0, 1}, {2, 3}, {4, 5}])
        assert not verify_clique_minor_model(graph, [{0}, {1}, {3}])

    def test_branch_set_validation(self):
        graph = path_graph(4)
        with pytest.raises(GraphError):
            verify_clique_minor_model(graph, [{0}, {0, 1}])
        with pytest.raises(GraphError):
            verify_clique_minor_model(graph, [{0, 2}, {1}])
        with pytest.raises(GraphError):
            verify_clique_minor_model(graph, [set(), {1}])

    def test_has_clique_minor_small(self):
        assert not is_k4_minor_free(complete_graph(4))
        assert not is_k4_minor_free(wheel_graph(4))
        assert is_k4_minor_free(cycle_graph(6))
        assert is_k4_minor_free(grid_graph(2, 3))
        # contracting the Petersen graph's spokes leaves K5
        assert verify_clique_minor_model(petersen_graph(), [{i, 5 + i} for i in range(5)])

    def test_bipartite_minor_model(self):
        graph = complete_bipartite_graph(2, 3)
        assert verify_bipartite_minor_model(graph, [{0}, {1}], [{2}, {3}, {4}])

    def test_k4_minor_free(self):
        assert is_k4_minor_free(cycle_graph(8))
        assert is_k4_minor_free(random_tree(15, seed=1))
        assert is_k4_minor_free(random_outerplanar_graph(15, seed=2))
        assert not is_k4_minor_free(complete_graph(4))
        assert not is_k4_minor_free(wheel_graph(5))


class TestGenerators:
    def test_basic_families_shapes(self):
        assert path_graph(7).number_of_edges() == 6
        assert cycle_graph(7).number_of_edges() == 7
        assert grid_graph(3, 5).number_of_nodes() == 15
        assert complete_graph(6).number_of_edges() == 15
        assert complete_bipartite_graph(3, 4).number_of_edges() == 12
        assert wheel_graph(6).number_of_edges() == 12
        assert petersen_graph().number_of_edges() == 15

    def test_apollonian_is_maximal_planar(self):
        graph = random_apollonian_network(30, seed=3)
        assert graph.number_of_edges() == 3 * 30 - 6
        assert is_planar(graph)

    def test_delaunay_is_planar_connected(self):
        graph = delaunay_planar_graph(60, seed=4)
        assert is_planar(graph) and graph.is_connected()

    def test_random_planar_graph(self):
        graph = random_planar_graph(50, seed=5)
        assert is_planar(graph) and graph.is_connected()

    def test_outerplanar_generators(self):
        maximal = random_maximal_outerplanar_graph(20, seed=6)
        partial = random_outerplanar_graph(20, seed=6)
        assert is_outerplanar(maximal)
        assert is_outerplanar(partial)
        assert partial.is_connected()

    def test_outerplanar_generator_keeps_its_boundary_path(self):
        """Only chords are dropped, so the outer order stays a witness."""
        for seed in range(5):
            graph = random_outerplanar_graph(20, seed=seed)
            assert is_path_outerplanar_witness(graph, list(range(20)))

    def test_subdivisions_are_nonplanar(self):
        assert not is_planar(k5_subdivision(3))
        assert not is_planar(k33_subdivision(3))
        bigger = subdivide_edges(complete_graph(5), 2)
        assert bigger.number_of_nodes() > 5

    def test_planar_plus_random_edges_nonplanar(self):
        graph = planar_plus_random_edges(12, extra_edges=2, seed=7)
        assert not is_planar(graph)
        with pytest.raises(GraphError):
            planar_plus_random_edges(5)

    def test_random_nonplanar_contains_k5(self):
        graph = random_nonplanar_graph(20, seed=8)
        assert not is_planar(graph)

    def test_determinism_with_seed(self):
        first = random_planar_graph(25, seed=99)
        second = random_planar_graph(25, seed=99)
        assert first == second

    def test_family_registries(self):
        for name in PLANAR_FAMILIES:
            graph = planar_family(name, 20, seed=1)
            assert is_planar(graph), name
            assert graph.is_connected(), name
        for name in NONPLANAR_FAMILIES:
            graph = nonplanar_family(name, 20, seed=1)
            assert not is_planar(graph), name
            assert graph.is_connected(), name
        with pytest.raises(GraphError):
            planar_family("no-such-family", 10)
        with pytest.raises(GraphError):
            nonplanar_family("no-such-family", 10)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 50), st.integers(0, 10 ** 6))
def test_apollonian_always_planar_and_connected(n, seed):
    """Property: the triangulation generator always yields maximal planar graphs."""
    graph = random_apollonian_network(n, seed=seed)
    assert graph.number_of_nodes() == n
    assert graph.number_of_edges() == 3 * n - 6
    assert graph.is_connected()
    assert is_planar(graph)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10 ** 6))
def test_outerplanar_generator_property(n, seed):
    """Property: the outerplanar generator yields connected outerplanar graphs."""
    graph = random_outerplanar_graph(n, seed=seed)
    assert graph.is_connected()
    assert is_outerplanar(graph)
