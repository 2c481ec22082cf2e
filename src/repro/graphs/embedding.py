"""Combinatorial (rotation-system) planar embeddings.

A *rotation system* assigns to every node the cyclic order of its incident
edges.  A rotation system describes an embedding of the graph on an oriented
surface; it describes a *planar* embedding exactly when the number of faces
it induces satisfies Euler's formula ``n - m + f = 2`` (for a connected
graph).  The planarity prover of the paper (Section 3.2) only needs this
combinatorial data — no coordinates — which is why the whole pipeline is
phrased in terms of :class:`RotationSystem`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import EmbeddingError
from repro.graphs.graph import Graph, Node

__all__ = ["RotationSystem"]


class RotationSystem:
    """Cyclic orderings of neighbors around every node of a graph.

    Parameters
    ----------
    rotations:
        Mapping ``node -> sequence of neighbors`` in cyclic order.  The
        orientation convention (clockwise vs counterclockwise) is irrelevant
        as long as it is globally consistent; a mirrored rotation system is
        still a planar embedding of the same graph.
    """

    def __init__(self, rotations: dict[Node, Sequence[Node]]) -> None:
        self._rotation: dict[Node, list[Node]] = {
            node: list(neighbors) for node, neighbors in rotations.items()
        }
        self._index: dict[Node, dict[Node, int]] = {}
        for node, neighbors in self._rotation.items():
            if len(set(neighbors)) != len(neighbors):
                raise EmbeddingError(f"rotation around {node!r} repeats a neighbor")
            self._index[node] = {nb: i for i, nb in enumerate(neighbors)}
        self._validate_symmetry()

    def _validate_symmetry(self) -> None:
        for node, neighbors in self._rotation.items():
            for neighbor in neighbors:
                if neighbor not in self._rotation:
                    raise EmbeddingError(
                        f"{neighbor!r} appears in the rotation of {node!r} but has no rotation")
                if node not in self._index[neighbor]:
                    raise EmbeddingError(
                        f"edge ({node!r}, {neighbor!r}) is not symmetric in the rotation system")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def nodes(self) -> Iterable[Node]:
        """Iterate over the nodes of the embedding."""
        return iter(self._rotation)

    def rotation(self, node: Node) -> list[Node]:
        """Return the cyclic neighbor order around ``node`` (a copy)."""
        if node not in self._rotation:
            raise EmbeddingError(f"node {node!r} has no rotation")
        return list(self._rotation[node])

    def degree(self, node: Node) -> int:
        """Return the number of edges incident to ``node``."""
        return len(self._rotation[node])

    def rotation_from(self, node: Node, start: Node) -> list[Node]:
        """Return the rotation around ``node`` starting at ``start``."""
        order = self._rotation[node]
        position = self._index[node].get(start)
        if position is None:
            raise EmbeddingError(f"{start!r} is not adjacent to {node!r}")
        return order[position:] + order[:position]

    def number_of_edges(self) -> int:
        """Return the number of undirected edges of the embedded graph."""
        return sum(len(order) for order in self._rotation.values()) // 2

    def to_graph(self) -> Graph:
        """Return the underlying (unembedded) graph."""
        graph = Graph(nodes=self._rotation.keys())
        for node, neighbors in self._rotation.items():
            for neighbor in neighbors:
                graph.add_edge(node, neighbor)
        return graph

    # ------------------------------------------------------------------
    # faces and planarity
    # ------------------------------------------------------------------
    def number_of_faces(self) -> int:
        """Return the number of faces induced by the rotation system.

        The face-tracing rule is the standard one: after entering ``v``
        through the directed edge ``(u, v)``, leave through ``(v, w)`` where
        ``w`` is the neighbor *preceding* ``u`` in the rotation around ``v``.
        Faces are only counted, never materialised as boundary lists — the
        Euler validation runs on every embedding the planarity test
        produces, so this is a hot path at large ``n``.
        """
        rotation = self._rotation
        index = self._index
        seen: set[tuple[Node, Node]] = set()
        count = 0
        for start_u, neighbors in rotation.items():
            for start_v in neighbors:
                if (start_u, start_v) in seen:
                    continue
                count += 1
                u, v = start_u, start_v
                while True:
                    seen.add((u, v))
                    order = rotation[v]
                    w = order[index[v][u] - 1]
                    u, v = v, w
                    if (u, v) == (start_u, start_v):
                        break
        return count

    def is_planar_embedding(self) -> bool:
        """Check Euler's formula ``n - m + f = 2`` for the embedded (connected) graph."""
        rotation = self._rotation
        n = len(rotation)
        if n == 0:
            return True
        m = self.number_of_edges()
        # Connectivity over the rotation adjacency itself; building a Graph
        # copy here would double the memory footprint of the validation.
        start = next(iter(rotation))
        reached = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in rotation[node]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        if len(reached) != n:
            raise EmbeddingError("Euler-formula check requires a connected graph")
        if m == 0:
            return True
        return n - m + self.number_of_faces() == 2

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, graph: Graph) -> "RotationSystem":
        """Build an arbitrary (not necessarily planar) rotation system for ``graph``."""
        return cls({node: sorted(graph.neighbors(node), key=repr) for node in graph.nodes()})
