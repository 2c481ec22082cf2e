"""The left-right planarity test against networkx's, its oracle.

:mod:`repro.graphs.planarity` ports networkx's ``LRPlanarity`` and visits
neighbours in the order networkx does, so on every input the verdicts must
agree and, on a planar one, the rotation at every node must equal
``list(embedding.neighbors_cw_order(v))`` — starting neighbour included.
Three sets of inputs: every graph of networkx's atlas (all graphs on at
most 7 nodes, connected or not), hypothesis graphs with shuffled node and
edge orders, mixed int/str labels and isolated nodes, and every generator
family.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx_oracle import rotation_from_networkx, to_networkx

from repro.exceptions import NotPlanarError
from repro.graphs.generators import (
    NONPLANAR_FAMILIES,
    PLANAR_FAMILIES,
    cycle_graph,
    nonplanar_family,
    path_graph,
    planar_family,
)
from repro.graphs.graph import Graph
from repro.graphs.planarity import compute_planar_embedding, edge_list_is_planar, is_planar


def assert_matches_networkx(graph: Graph) -> bool:
    """Check every entry point on ``graph`` against networkx; return the verdict."""
    planar, embedding = nx.check_planarity(to_networkx(graph))
    assert is_planar(graph) == planar
    edges = list(graph.edges())
    random.Random(len(edges)).shuffle(edges)
    assert edge_list_is_planar(edges) == planar
    if not planar:
        with pytest.raises(NotPlanarError):
            compute_planar_embedding(graph)
        return planar
    rotation = compute_planar_embedding(graph)
    expected = rotation_from_networkx(embedding)
    assert list(rotation.nodes()) == list(graph.nodes())
    for node in graph.nodes():
        assert rotation.rotation(node) == expected.rotation(node), node
    return planar


def test_every_atlas_graph():
    verdicts = [assert_matches_networkx(Graph(nodes=atlas.nodes(), edges=atlas.edges()))
                for atlas in nx.graph_atlas_g()]
    assert len(verdicts) == 1253
    assert verdicts.count(False) == 237  # the non-planar atlas graphs


_LABELS = st.one_of(st.integers(-5, 40), st.text("abcxyz", min_size=1, max_size=2))


@st.composite
def shuffled_graphs(draw) -> Graph:
    """A graph with mixed int/str labels, shuffled node and edge orders, and
    often isolated nodes; dense enough that many are not planar."""
    labels = draw(st.lists(_LABELS, unique=True, max_size=13))
    density = draw(st.floats(0.05, 0.75))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for i, u in enumerate(labels) for v in labels[i + 1:]
             if rng.random() < density]
    rng.shuffle(labels)
    rng.shuffle(edges)
    return Graph(nodes=labels, edges=edges)


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs())
def test_shuffled_mixed_label_graphs(graph):
    assert_matches_networkx(graph)


@pytest.mark.parametrize("name", sorted(PLANAR_FAMILIES))
def test_planar_families(name):
    for n in (12, 60, 240):
        for seed in range(3):
            assert assert_matches_networkx(planar_family(name, n, seed=seed))


@pytest.mark.parametrize("name", sorted(NONPLANAR_FAMILIES))
def test_nonplanar_families(name):
    for n in (12, 60, 240):
        for seed in range(3):
            assert not assert_matches_networkx(nonplanar_family(name, n, seed=seed))


@pytest.mark.parametrize("graph", [path_graph(5000), cycle_graph(5000)],
                         ids=["path", "cycle"])
def test_depth_beyond_the_recursion_limit(graph):
    """Every phase runs on an explicit stack: a DFS 5000 deep embeds."""
    rotation = compute_planar_embedding(graph)
    assert rotation.number_of_edges() == graph.number_of_edges()
