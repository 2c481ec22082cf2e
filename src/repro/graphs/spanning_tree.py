"""Rooted spanning trees.

A :class:`RootedTree` stores the parent/children structure of a spanning tree
of a host graph.  The planarity scheme of the paper certifies a spanning tree
``T`` together with a DFS-mapping of ``T`` (Section 3.3), and the standard
spanning-tree proof-labeling scheme (root identifier, parent pointer,
distance, subtree size) is one of the building blocks reimplemented in
:mod:`repro.core.building_blocks`.
"""

from __future__ import annotations

from repro.exceptions import GraphError, NotConnectedError
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_parents, dfs_parents

__all__ = ["RootedTree", "bfs_spanning_tree", "dfs_spanning_tree"]


class RootedTree:
    """A rooted tree given by parent pointers.

    Parameters
    ----------
    root:
        The root node.
    parents:
        Mapping from every non-root node to its parent.  The root must not
        appear as a key (or may map to ``None``).
    """

    def __init__(self, root: Node, parents: dict[Node, Node | None]) -> None:
        self.root = root
        self._parent: dict[Node, Node] = {}
        for node, parent in parents.items():
            if node == root or parent is None:
                continue
            self._parent[node] = parent
        self._children: dict[Node, list[Node]] = {root: []}
        for node in self._parent:
            self._children.setdefault(node, [])
        for node, parent in self._parent.items():
            self._children.setdefault(parent, []).append(node)
        self._validate()

    def _validate(self) -> None:
        # Every parent chain must terminate at the root without cycles.
        for start in self._parent:
            seen = {start}
            node = start
            while node != self.root:
                node = self._parent.get(node)
                if node is None:
                    raise GraphError(
                        f"node {start!r} has a parent chain that does not reach the root")
                if node in seen:
                    raise GraphError("parent pointers contain a cycle")
                seen.add(node)

    # ------------------------------------------------------------------
    def nodes(self) -> list[Node]:
        """Return all nodes of the tree (root included)."""
        return [self.root, *self._parent.keys()]

    def number_of_nodes(self) -> int:
        """Return the number of nodes in the tree."""
        return 1 + len(self._parent)

    def parent(self, node: Node) -> Node | None:
        """Return the parent of ``node`` (``None`` for the root)."""
        if node == self.root:
            return None
        if node not in self._parent:
            raise GraphError(f"node {node!r} is not in the tree")
        return self._parent[node]

    def children(self, node: Node) -> list[Node]:
        """Return the children of ``node`` (insertion order)."""
        if node not in self._children:
            raise GraphError(f"node {node!r} is not in the tree")
        return list(self._children[node])

    def depth(self, node: Node) -> int:
        """Return the hop distance from ``node`` to the root."""
        depth = 0
        while node != self.root:
            node = self.parent(node)
            depth += 1
        return depth

    def edges(self) -> list[tuple[Node, Node]]:
        """Return the (child, parent) tree edges."""
        return list(self._parent.items())

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether ``{u, v}`` is a tree edge."""
        return self._parent.get(u) == v or self._parent.get(v) == u

    def subtree_sizes(self) -> dict[Node, int]:
        """Return the number of nodes in the subtree rooted at each node."""
        sizes = {node: 1 for node in self.nodes()}
        for node in self._postorder():
            parent = self.parent(node)
            if parent is not None:
                sizes[parent] += sizes[node]
        return sizes

    def _postorder(self) -> list[Node]:
        order: list[Node] = []
        stack: list[tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            for child in self._children.get(node, []):
                stack.append((child, False))
        return order

    def to_graph(self) -> Graph:
        """Return the tree as an undirected :class:`Graph`."""
        graph = Graph(nodes=self.nodes())
        for child, parent in self._parent.items():
            graph.add_edge(child, parent)
        return graph

    def spans(self, graph: Graph) -> bool:
        """Return whether this tree is a spanning tree of ``graph``."""
        if set(self.nodes()) != set(graph.nodes()):
            return False
        return all(graph.has_edge(child, parent) for child, parent in self._parent.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RootedTree(root={self.root!r}, n={self.number_of_nodes()})"


def bfs_spanning_tree(graph: Graph, root: Node) -> RootedTree:
    """Return a BFS spanning tree of a connected graph rooted at ``root``."""
    parents = bfs_parents(graph, root)
    if len(parents) != graph.number_of_nodes():
        raise NotConnectedError("graph is not connected; no spanning tree exists")
    return RootedTree(root, parents)


def dfs_spanning_tree(graph: Graph, root: Node) -> RootedTree:
    """Return a DFS spanning tree of a connected graph rooted at ``root``."""
    parents = dfs_parents(graph, root)
    if len(parents) != graph.number_of_nodes():
        raise NotConnectedError("graph is not connected; no spanning tree exists")
    return RootedTree(root, parents)


def cotree_edges(graph: Graph, tree: RootedTree) -> list[tuple[Node, Node]]:
    """Return the edges of ``graph`` that are not in ``tree`` (the *cotree* of Section 1.1).

    Enumerates edges through the compiled
    :class:`~repro.graphs.indexed.IndexedGraph` view, which emits each
    undirected edge exactly once without the per-edge set bookkeeping of
    :meth:`Graph.edges`.  The returned tuples are the same canonical
    ``edge_key`` pairs (the enumeration order differs from ``Graph.edges``,
    which no caller relies on).
    """
    from repro.graphs.graph import edge_key

    indexed = graph.indexed()
    labels = indexed.labels
    result: list[tuple[Node, Node]] = []
    for i, j in indexed.edges_indexed():
        u, v = labels[i], labels[j]
        if not tree.has_edge(u, v):
            result.append(edge_key(u, v))
    return result


__all__.append("cotree_edges")
