"""Tests of the core Graph data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, edge_key


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.number_of_nodes() == 0
        assert graph.number_of_edges() == 0
        assert list(graph.edges()) == []

    def test_add_nodes_and_edges(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_node(10)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 2
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)
        assert not graph.has_edge(1, 3)

    def test_from_edges_and_nodes(self):
        graph = Graph(edges=[(0, 1), (1, 2)], nodes=[5])
        assert graph.has_node(5)
        assert graph.degree(1) == 2

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_parallel_edges_collapse(self):
        graph = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert graph.number_of_edges() == 1

    def test_add_node_idempotent(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("a")
        assert graph.number_of_nodes() == 1


class TestConstructionIsNotAMutation:
    """``Graph(nodes=, edges=)`` fills the adjacency without journaling."""

    def test_constructed_graph_starts_at_version_zero(self):
        graph = Graph(nodes=[5], edges=[(0, 1), (1, 2), (2, 1)])
        assert graph._version == 0
        assert graph.deltas_since(0) == ()
        graph.add_edge(2, 3)  # a mutation after construction journals
        assert [delta.op for delta in graph.deltas_since(0)] == ["add_node", "add_edge"]

    def test_constructor_rejects_self_loops(self):
        with pytest.raises(GraphError, match="self-loops"):
            Graph(edges=[(1, 2), (3, 3)])

    @given(st.lists(st.integers(0, 12), max_size=8),
           st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))
                    .filter(lambda edge: edge[0] != edge[1]), max_size=40))
    def test_same_adjacency_order_as_add_edge(self, nodes, edges):
        built = Graph()
        for node in nodes:
            built.add_node(node)
        for u, v in edges:
            built.add_edge(u, v)
        constructed = Graph(nodes=nodes, edges=edges)
        assert ([(u, list(vs)) for u, vs in constructed._adj.items()]
                == [(u, list(vs)) for u, vs in built._adj.items()])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delaunay_adjacency_order_matches_add_edge_build(self, seed):
        import random

        import numpy as np
        from scipy.spatial import Delaunay

        from repro.graphs.generators import delaunay_planar_graph

        n = 80
        graph = delaunay_planar_graph(n, seed=seed)
        assert graph._version == 0 and graph.deltas_since(0) == ()
        rng = random.Random(seed)
        points = np.array([[rng.random(), rng.random()] for _ in range(n)])
        built = Graph(nodes=range(n))
        for simplex in Delaunay(points).simplices:
            a, b, c = (int(x) for x in simplex)
            built.add_edge(a, b)
            built.add_edge(b, c)
            built.add_edge(a, c)
        assert ([(u, list(vs)) for u, vs in graph._adj.items()]
                == [(u, list(vs)) for u, vs in built._adj.items()])


def _add_edge_build(nodes, edges):
    graph = Graph(nodes=nodes)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _prufer_edges(n, seed):
    import heapq
    import random

    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for node in prufer:
        degree[node] += 1
    leaves = [node for node in range(n) if degree[node] == 1]
    heapq.heapify(leaves)
    for node in prufer:
        leaf = heapq.heappop(leaves)
        yield leaf, node
        degree[leaf] = 0
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    last = [node for node in range(n) if degree[node] == 1]
    yield last[0], last[1]


def _apollonian_edges(n, seed):
    import random

    rng = random.Random(seed)
    yield from [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for new in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        yield from [(new, a), (new, b), (new, c)]
        faces.extend([(a, b, new), (b, c, new), (a, c, new)])


def _subdivided_edges(graph, subdivisions, seed):
    import random

    rng = random.Random(seed)
    next_node = max(graph.nodes()) + 1
    for u, v in graph.edges():
        previous = u
        for _ in range(rng.randint(1, subdivisions)):
            yield previous, next_node
            previous = next_node
            next_node += 1
        yield previous, v


def _generator_cases():
    """(name, generator output, the same graph built by ``add_edge`` in the
    order the generator visits its edges)."""
    from repro.graphs import generators as gen

    k5 = gen.complete_graph(5)
    host = gen.random_apollonian_network(40, seed=4)
    keep = [node for node in host.nodes() if node % 3]
    names = {node: f"v{node}" for node in host.nodes() if node % 2}
    return [
        ("path", gen.path_graph(7),
         _add_edge_build(range(7), [(i, i + 1) for i in range(6)])),
        ("cycle", gen.cycle_graph(7),
         _add_edge_build(range(7), [(i, i + 1) for i in range(6)] + [(6, 0)])),
        ("complete", gen.complete_graph(6),
         _add_edge_build(range(6), [(i, j) for i in range(6) for j in range(i + 1, 6)])),
        ("complete-bipartite", gen.complete_bipartite_graph(3, 4),
         _add_edge_build(range(7), [(i, 3 + j) for i in range(3) for j in range(4)])),
        ("wheel", gen.wheel_graph(6),
         _add_edge_build(range(7), [e for i in range(1, 7)
                                    for e in ((0, i), (i, 1 + i % 6))])),
        ("ladder", gen.ladder_graph(5),
         _add_edge_build(range(10), [e for i in range(4) for e in ((i, i + 1), (5 + i, 6 + i))]
                         + [(i, 5 + i) for i in range(5)])),
        ("grid", gen.grid_graph(4, 5),
         _add_edge_build(range(20), [e for r in range(4) for c in range(5)
                                     for e, ok in (((5 * r + c, 5 * r + c + 1), c < 4),
                                                   ((5 * r + c, 5 * r + c + 5), r < 3))
                                     if ok])),
        ("petersen", gen.petersen_graph(),
         _add_edge_build(range(10), [e for i in range(5)
                                     for e in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5),
                                               (i, 5 + i))])),
        ("random-tree", gen.random_tree(30, seed=7),
         _add_edge_build(range(30), _prufer_edges(30, 7))),
        ("apollonian", gen.random_apollonian_network(60, seed=8),
         _add_edge_build([], _apollonian_edges(60, 8))),
        ("subdivide", gen.subdivide_edges(k5, 3, seed=2),
         _add_edge_build(k5.nodes(), _subdivided_edges(k5, 3, 2))),
        ("subgraph", host.subgraph(keep),
         _add_edge_build(set(keep), [(u, v) for u in set(keep) for v in host._adj[u]
                                     if v in set(keep)])),
        ("relabeled", host.relabeled(names),
         _add_edge_build([names.get(u, u) for u in host.nodes()],
                         [(names.get(u, u), names.get(v, v)) for u, v in host.edges()])),
    ]


class TestGeneratorsBuildWithoutJournaling:
    """Generators and ``subgraph``/``relabeled`` hand their edges to the
    constructor, in the order they used to add them one by one."""

    @pytest.mark.parametrize("name,graph,built", _generator_cases(),
                             ids=[case[0] for case in _generator_cases()])
    def test_unjournaled_with_add_edge_adjacency_order(self, name, graph, built):
        assert graph._version == 0 and graph.deltas_since(0) == ()
        assert built._version > 0
        assert ([(u, list(vs)) for u, vs in graph._adj.items()]
                == [(u, list(vs)) for u, vs in built._adj.items()])

    def test_kuratowski_core_is_unjournaled(self):
        from repro.graphs.generators import planar_plus_random_edges
        from repro.graphs.kuratowski import find_kuratowski_subdivision

        graph = planar_plus_random_edges(60, extra_edges=3, seed=1)
        core = find_kuratowski_subdivision(graph).subgraph
        assert core.number_of_edges() < graph.number_of_edges()
        assert core._version == 0 and core.deltas_since(0) == ()


class TestQueries:
    def test_degree_and_neighbors(self):
        graph = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert graph.degree(1) == 3
        assert graph.neighbors(1) == {2, 3, 4}
        assert graph.neighbors(2) == {1}

    def test_unknown_node_raises(self):
        graph = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            graph.neighbors(42)
        with pytest.raises(GraphError):
            graph.degree(42)

    def test_len_contains_iter(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert len(graph) == 3
        assert 1 in graph and 9 not in graph
        assert set(iter(graph)) == {1, 2, 3}

    def test_edges_reported_once(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 1)])
        assert len(list(graph.edges())) == 3

    def test_equality(self):
        first = Graph(edges=[(1, 2), (2, 3)])
        second = Graph(edges=[(2, 3), (1, 2)])
        assert first == second
        second.add_edge(1, 3)
        assert first != second


class TestMutation:
    def test_remove_edge(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.has_node(1)

    def test_remove_missing_edge_raises(self):
        graph = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            graph.remove_edge(1, 3)

    def test_remove_node(self):
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        graph.remove_node(2)
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 1
        with pytest.raises(GraphError):
            graph.remove_node(2)

    def test_copy_is_independent(self):
        graph = Graph(edges=[(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert not graph.has_node(3)
        assert clone.has_edge(2, 3)


class TestStructure:
    def test_subgraph(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
        sub = graph.subgraph({1, 2, 3})
        assert sub.number_of_nodes() == 3
        assert sub.has_edge(1, 2) and sub.has_edge(2, 3)
        assert not sub.has_edge(1, 4)

    def test_connectivity(self):
        graph = Graph(edges=[(1, 2), (3, 4)])
        assert not graph.is_connected()
        assert graph.connected_component(1) == {1, 2}
        assert len(graph.connected_components()) == 2
        graph.add_edge(2, 3)
        assert graph.is_connected()

    def test_empty_graph_not_connected(self):
        assert not Graph().is_connected()

    def test_relabeled(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        renamed = graph.relabeled({1: "a", 2: "b", 3: "c"})
        assert renamed.has_edge("a", "b")
        assert renamed.number_of_edges() == 2

    def test_relabeled_rejects_collisions(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        with pytest.raises(GraphError):
            graph.relabeled({1: "x", 2: "x"})

    def test_networkx_round_trip(self):
        from networkx_oracle import to_networkx

        graph = Graph(edges=[(1, 2), (2, 3), (3, 1)])
        converted = to_networkx(graph)
        assert Graph(nodes=converted.nodes(), edges=converted.edges()) == graph

    def test_edge_key_is_order_independent(self):
        assert edge_key(3, 1) == edge_key(1, 3)
        assert edge_key("b", "a") == edge_key("a", "b")


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80))
def test_edge_count_matches_adjacency(pairs):
    """Property: |E| equals the number of distinct unordered pairs inserted."""
    graph = Graph()
    expected = set()
    for u, v in pairs:
        if u == v:
            continue
        graph.add_edge(u, v)
        expected.add(edge_key(u, v))
    assert graph.number_of_edges() == len(expected)
    assert set(graph.edges()) == expected


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60))
def test_relabel_preserves_degree_sequence(pairs):
    """Property: shifting all labels preserves the degree multiset."""
    graph = Graph()
    for u, v in pairs:
        if u != v:
            graph.add_edge(u, v)
    mapping = {node: node + 100 for node in graph.nodes()}
    renamed = graph.relabeled(mapping)
    original = sorted(graph.degree(node) for node in graph.nodes())
    shifted = sorted(renamed.degree(node) for node in renamed.nodes())
    assert original == shifted
