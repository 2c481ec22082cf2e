"""networkx as the tests' oracle: conversions between it and the library.

The library never imports networkx.  Tests hold its planarity test, its
embeddings and its traversals against the library's own, so the two
conversions live here.
"""

from __future__ import annotations

import networkx as nx

from repro.graphs.embedding import RotationSystem
from repro.graphs.graph import Graph


def to_networkx(graph: Graph) -> nx.Graph:
    """Return an equivalent :class:`networkx.Graph`, nodes in ``graph``'s order."""
    converted = nx.Graph()
    converted.add_nodes_from(graph.nodes())
    converted.add_edges_from(graph.edges())
    return converted


def rotation_from_networkx(embedding: nx.PlanarEmbedding) -> RotationSystem:
    """Return the rotation system networkx's ``embedding`` describes."""
    return RotationSystem({node: list(embedding.neighbors_cw_order(node))
                           for node in embedding.nodes()})
