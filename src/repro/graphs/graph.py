"""A small, explicit undirected-graph data structure.

The distributed-certification algorithms in this library only need simple
connected graphs with distinct node identifiers, so instead of pulling a
heavyweight dependency into the core data path we implement a compact
adjacency-set structure here.  Nothing in the library converts to or from
networkx: the planarity test (:mod:`repro.graphs.planarity`) runs on flat
integer lists built straight from this adjacency.

Nodes can be arbitrary hashable objects; in the distributed model each node
additionally carries an integer *identifier* (see
:class:`repro.distributed.network.Network`), but the plain graph layer does
not require it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.exceptions import GraphError

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["Graph", "GraphDelta", "Node", "Edge", "edge_key",
           "JOURNAL_LIMIT", "PATCH_DELTA_LIMIT"]

#: mutation-journal capacity: one entry per version bump, oldest entries
#: truncated past this bound.  Consumers that find their base version
#: truncated (``deltas_since`` returns ``None``) must rebuild from scratch,
#: so the bound caps journal memory without ever making a delta consumer
#: incorrect — only slower.
JOURNAL_LIMIT = 128

#: largest journal suffix :meth:`Graph.indexed` patches through
#: :meth:`IndexedGraph.patched <repro.graphs.indexed.IndexedGraph.patched>`
#: instead of recompiling; past this many deltas the splice bookkeeping
#: approaches the cost of a clean rebuild.
PATCH_DELTA_LIMIT = 32


@dataclass(frozen=True)
class GraphDelta:
    """One journalled :class:`Graph` mutation, keyed by the version it produced.

    ``op`` is one of ``"add_node"``, ``"remove_node"``, ``"add_edge"``,
    ``"remove_edge"``; ``v`` is ``None`` for the node operations.  A
    ``remove_node`` entry stands for the node *and* every incident edge
    (they vanish under the same version bump), which is why delta consumers
    that only patch edge-local state treat node operations as a full-rebuild
    signal rather than decoding them.
    """

    version: int
    op: str
    u: Node
    v: Node | None = None

    @property
    def is_edge_op(self) -> bool:
        """Whether this delta touches adjacency only (node set unchanged)."""
        return self.v is not None


def edge_key(u: Node, v: Node) -> tuple[Node, Node]:
    """Return a canonical, order-independent key for the edge ``{u, v}``.

    The two endpoints are sorted by ``repr`` so that heterogeneous node types
    still produce a deterministic key.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """A simple undirected graph backed by adjacency sets.

    The structure intentionally rejects self-loops and parallel edges: the
    paper's model (Section 2) works with simple graphs, noting that loops and
    multi-edges do not affect planarity.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 3)
    >>> sorted(g.nodes())
    [1, 2, 3]
    >>> g.degree(2)
    2
    """

    def __init__(self, edges: Iterable[Edge] | None = None,
                 nodes: Iterable[Node] | None = None) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._version = 0
        self._indexed_cache: tuple[int, Any] | None = None
        # Mutation journal: ``_journal[i]`` is the delta that produced
        # version ``_journal_base + i + 1``; every version bump appends
        # exactly one entry, so ``deltas_since`` is a pure slice.
        self._journal: list[GraphDelta] = []
        self._journal_base = 0
        # Construction is not a mutation: ``_adj`` is filled in the order
        # ``add_node``/``add_edge`` would fill it, but no reader can hold a
        # version of a graph still being built, so the new graph starts at
        # version 0 with an empty journal.
        adj = self._adj
        if nodes is not None:
            for node in nodes:
                if node not in adj:
                    adj[node] = set()
        if edges is not None:
            for u, v in edges:
                if u == v:
                    raise GraphError(f"self-loops are not allowed (node {u!r})")
                if u not in adj:
                    adj[u] = set()
                if v not in adj:
                    adj[v] = set()
                adj[u].add(v)
                adj[v].add(u)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _journal_append(self, op: str, u: Node, v: Node | None = None) -> None:
        """Record the delta for the version bump that just happened."""
        self._journal.append(GraphDelta(self._version, op, u, v))
        if len(self._journal) > JOURNAL_LIMIT:
            dropped = self._journal.pop(0)
            self._journal_base = dropped.version

    def deltas_since(self, version: int) -> tuple[GraphDelta, ...] | None:
        """Return the journalled deltas after ``version``, oldest first.

        Returns an empty tuple when ``version`` is current, and ``None``
        when the journal has been truncated past ``version`` (or ``version``
        is unknown) — the signal that a delta consumer must fall back to a
        full rebuild.
        """
        if version > self._version or version < self._journal_base:
            return None
        return tuple(self._journal[version - self._journal_base:])

    def add_node(self, node: Node) -> None:
        """Insert ``node`` (a no-op when already present)."""
        if node not in self._adj:
            self._adj[node] = set()
            self._version += 1
            self._journal_append("add_node", node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert the undirected edge ``{u, v}``, adding endpoints as needed."""
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            return  # no-op re-add: keep the compiled-view cache valid
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._version += 1
        self._journal_append("add_edge", u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raise :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._version += 1
        self._journal_append("remove_edge", u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} is not in the graph")
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
        del self._adj[node]
        self._version += 1
        self._journal_append("remove_node", node)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: set[tuple[Node, Node]] = set()
        for u, neighbors in self._adj.items():
            for v in neighbors:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def neighbors(self, node: Node) -> set[Node]:
        """Return the neighbor set of ``node`` (a copy)."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} is not in the graph")
        return set(self._adj[node])

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} is not in the graph")
        return len(self._adj[node])

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the edge ``{u, v}`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        return sum(len(neighbors) for neighbors in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Graph(n={self.number_of_nodes()}, "
                f"m={self.number_of_edges()})")

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep structural copy of the graph."""
        clone = Graph()
        for node, neighbors in self._adj.items():
            clone._adj[node] = set(neighbors)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        present = keep & set(self._adj)
        return Graph(nodes=present,
                     edges=((u, v) for u in present for v in self._adj[u] if v in keep))

    def indexed(self) -> Any:
        """Return the compiled :class:`~repro.graphs.indexed.IndexedGraph` view.

        The compiled form is cached against a mutation counter, so repeated
        traversals over an unmodified graph compile at most once.  The view
        is a snapshot: callers must not hold it across mutations.
        """
        from repro.graphs.indexed import IndexedGraph

        cache = self._indexed_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        compiled = None
        if cache is not None:
            deltas = self.deltas_since(cache[0])
            if (deltas is not None and 0 < len(deltas) <= PATCH_DELTA_LIMIT
                    and all(d.is_edge_op for d in deltas)):
                compiled = IndexedGraph.patched(cache[1], self, deltas)
        if compiled is None:
            compiled = IndexedGraph.from_graph(self)
        self._indexed_cache = (self._version, compiled)
        return compiled

    def is_connected(self) -> bool:
        """Return whether the graph is connected (the empty graph is not).

        Uses the cached :meth:`indexed` view when it is already compiled
        (connectivity is then a pure integer BFS); falls back to a direct
        BFS over the adjacency sets otherwise — compiling the CSR view just
        for a single one-shot check would cost more than it saves.
        """
        if not self._adj:
            return False
        cache = self._indexed_cache
        if cache is not None and cache[0] == self._version:
            return cache[1].is_connected()
        return len(self.connected_component(next(iter(self._adj)))) == len(self._adj)

    def connected_component(self, start: Node) -> set[Node]:
        """Return the set of nodes reachable from ``start``."""
        if start not in self._adj:
            raise GraphError(f"node {start!r} is not in the graph")
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in self._adj[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    def connected_components(self) -> list[set[Node]]:
        """Return all connected components as a list of node sets."""
        remaining = set(self._adj)
        components = []
        while remaining:
            component = self.connected_component(next(iter(remaining)))
            components.append(component)
            remaining -= component
        return components

    def relabeled(self, mapping: dict[Node, Node]) -> "Graph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their name.  The mapping must be
        injective on the node set, otherwise edges would silently merge.
        """
        new_names = [mapping.get(node, node) for node in self._adj]
        if len(set(new_names)) != len(new_names):
            raise GraphError("relabeling mapping is not injective on the node set")
        return Graph(nodes=new_names,
                     edges=((mapping.get(u, u), mapping.get(v, v)) for u, v in self.edges()))
