"""BFS and DFS parent maps, the substrate of spanning-tree construction.

All traversals run over the graph's compiled
:class:`~repro.graphs.indexed.IndexedGraph` view: adjacency blocks are
pre-sorted by ``repr`` of the neighbor label exactly once per graph, so the
visiting orders are byte-identical to the historical
``sorted(neighbors, key=repr)``-per-visit implementation while the loops
themselves run over contiguous integer indices.
"""

from __future__ import annotations

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.indexed import IndexedGraph

__all__ = ["bfs_parents", "dfs_parents"]


def _indexed_start(graph: Graph, start: Node) -> tuple[IndexedGraph, int]:
    indexed = graph.indexed()
    if start not in indexed.index_of:
        raise GraphError(f"start node {start!r} is not in the graph")
    return indexed, indexed.index_of[start]


def bfs_parents(graph: Graph, start: Node) -> dict[Node, Node | None]:
    """Return the BFS parent of every reachable node (``None`` for ``start``).

    The returned dict is in BFS *discovery* order — spanning-tree
    construction derives children orderings from it, so the loop records
    parents inline rather than post-processing a parent array in index
    order.
    """
    indexed, root = _indexed_start(graph, start)
    labels, indptr, indices = indexed.labels, indexed.indptr, indexed.indices
    result: dict[Node, Node | None] = {labels[root]: None}
    seen = bytearray(indexed.n)
    seen[root] = 1
    queue = [root]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for j in indices[indptr[i]:indptr[i + 1]]:
            if not seen[j]:
                seen[j] = 1
                result[labels[j]] = labels[i]
                queue.append(j)
    return result


def dfs_parents(graph: Graph, start: Node) -> dict[Node, Node | None]:
    """Return the DFS parent of every reachable node (``None`` for ``start``)."""
    indexed, root = _indexed_start(graph, start)
    labels, indptr, indices = indexed.labels, indexed.indptr, indexed.indices
    parents: dict[Node, Node | None] = {labels[root]: None}
    stack: list[tuple[int, int]] = [(root, -1)]
    seen = bytearray(indexed.n)
    while stack:
        i, parent = stack.pop()
        if seen[i]:
            continue
        seen[i] = 1
        parents[labels[i]] = None if parent < 0 else labels[parent]
        block = indices[indptr[i]:indptr[i + 1]]
        for j in reversed(block):
            if not seen[j]:
                stack.append((j, i))
    return parents
