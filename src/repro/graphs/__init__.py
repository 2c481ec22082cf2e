"""Graph substrate: data structures, generators, planarity, embeddings, minors."""

from repro.graphs.graph import Graph, edge_key
from repro.graphs.indexed import IndexedGraph
from repro.graphs.embedding import RotationSystem
from repro.graphs.spanning_tree import (
    RootedTree,
    bfs_spanning_tree,
    cotree_edges,
    dfs_spanning_tree,
)
from repro.graphs.planarity import compute_planar_embedding, is_planar
from repro.graphs.degeneracy import assign_edges_by_degeneracy, degeneracy_ordering
from repro.graphs.kuratowski import KuratowskiSubdivision, find_kuratowski_subdivision
from repro.graphs.validation import is_outerplanar, is_path_graph, require_connected

__all__ = [
    "Graph",
    "IndexedGraph",
    "edge_key",
    "RotationSystem",
    "RootedTree",
    "bfs_spanning_tree",
    "dfs_spanning_tree",
    "cotree_edges",
    "compute_planar_embedding",
    "is_planar",
    "degeneracy_ordering",
    "assign_edges_by_degeneracy",
    "KuratowskiSubdivision",
    "find_kuratowski_subdivision",
    "is_outerplanar",
    "is_path_graph",
    "require_connected",
]
