"""The distributed network model.

Section 2 of the paper: the network is a simple connected graph whose nodes
carry distinct identifiers drawn from a range polynomial in ``n`` (so every
identifier fits in ``O(log n)`` bits).  A :class:`Network` couples a
:class:`~repro.graphs.graph.Graph` with such an identifier assignment and
provides the *local views* that verifiers are allowed to see.

A verifier running at a node never receives the global graph: it receives a
:class:`LocalView`, which contains only the node's identifier, its
certificate, and the identifiers/certificates of the nodes at distance at
most ``radius`` (``radius = 1`` for proof-labeling schemes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.validation import require_connected

__all__ = ["Network", "LocalView"]


@dataclass
class LocalView:
    """Everything a node is allowed to inspect during local verification.

    Attributes
    ----------
    center_id:
        Identifier of the node running the verifier.
    certificate:
        Certificate assigned to the center node (``None`` if the prover gave
        nothing).
    neighbor_ids:
        Identifiers of the adjacent nodes.
    certificates:
        Certificates of every node in the view (center included), keyed by
        identifier.
    ball:
        The subgraph induced by the nodes at distance <= ``radius`` from the
        center, with nodes renamed to their identifiers.  For ``radius = 1``
        this is the star around the center plus any edges among its
        neighbors that both endpoints can see... in the 1-round model a node
        only learns its incident edges, so the radius-1 ball contains exactly
        the center's incident edges.
    radius:
        The verification radius used to build the view.

    Verifiers must treat a view as **read-only**: the batched
    :class:`~repro.distributed.engine.SimulationEngine` shares the ball
    graph between the views it builds for a node across trials, so scratch
    mutations that are harmless under the per-call reference loop would
    corrupt every later evaluation there.
    """

    center_id: int
    certificate: Any
    neighbor_ids: list[int]
    certificates: dict[int, Any]
    ball: Graph
    radius: int = 1

    def neighbor_certificate(self, neighbor_id: int) -> Any:
        """Return the certificate of the neighbor with the given identifier."""
        return self.certificates.get(neighbor_id)

    @property
    def degree(self) -> int:
        """Return the degree of the center node."""
        return len(self.neighbor_ids)


class Network:
    """A connected graph with a distinct-identifier assignment.

    Parameters
    ----------
    graph:
        The underlying connected simple graph.
    ids:
        Optional explicit mapping ``node -> identifier``.  When omitted,
        identifiers are ``n`` distinct values drawn at random from
        ``range(max(2n, n^2))``, mimicking the "polynomial range" assumption
        of the model.
    seed:
        Seed for the random identifier assignment.
    rng:
        Explicit random generator for the identifier assignment; takes
        precedence over ``seed``.  Passing the same generator that drives
        the rest of an experiment makes the whole run reproducible from a
        single seed.
    """

    def __init__(self, graph: Graph, ids: dict[Node, int] | None = None,
                 seed: int | None = None, rng: random.Random | None = None) -> None:
        require_connected(graph, context="building a Network")
        self.graph = graph
        n = graph.number_of_nodes()
        if ids is None:
            if rng is None:
                rng = random.Random(seed)
            chosen = rng.sample(range(max(2 * n, n * n)), n)
            ids = {node: chosen[index] for index, node in enumerate(graph.nodes())}
        self._id_of: dict[Node, int] = dict(ids)
        self._validate_ids()
        self._node_of: dict[int, Node] = {identifier: node
                                          for node, identifier in self._id_of.items()}

    def _validate_ids(self) -> None:
        if set(self._id_of) != set(self.graph.nodes()):
            raise GraphError("identifier assignment must cover exactly the graph's nodes")
        values = list(self._id_of.values())
        if len(set(values)) != len(values):
            raise GraphError("identifiers must be distinct")
        if any(not isinstance(value, int) or value < 0 for value in values):
            raise GraphError("identifiers must be non-negative integers")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Return the number of nodes ``n``."""
        return self.graph.number_of_nodes()

    def nodes(self) -> list[Node]:
        """Return the graph nodes."""
        return list(self.graph.nodes())

    def ids(self) -> list[int]:
        """Return all identifiers."""
        return list(self._id_of.values())

    def id_of(self, node: Node) -> int:
        """Return the identifier of ``node``."""
        return self._id_of[node]

    def node_of(self, identifier: int) -> Node:
        """Return the node carrying ``identifier``."""
        return self._node_of[identifier]

    def neighbor_ids(self, node: Node) -> list[int]:
        """Return the identifiers of the neighbors of ``node`` (sorted)."""
        return sorted(self._id_of[neighbor] for neighbor in self.graph.neighbors(node))

    def id_graph(self) -> Graph:
        """Return a copy of the graph with nodes renamed to their identifiers."""
        return self.graph.relabeled(self._id_of)

    # ------------------------------------------------------------------
    def ball_nodes(self, node: Node, radius: int) -> set[Node]:
        """Return the set of nodes at distance <= ``radius`` from ``node``."""
        frontier = {node}
        ball = {node}
        for _ in range(radius):
            next_frontier: set[Node] = set()
            for current in frontier:
                for neighbor in self.graph.neighbors(current):
                    if neighbor not in ball:
                        ball.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
        return ball

    def local_view(self, node: Node, certificates: dict[Node, Any],
                   radius: int = 1) -> LocalView:
        """Build the :class:`LocalView` of ``node`` under a certificate assignment.

        For ``radius = 1`` (the proof-labeling-scheme setting) the view
        contains the center's incident edges and the certificates of the
        center and its neighbors.  For larger radii the view contains the
        full ball of that radius (the locally-checkable-proof setting with a
        ``t``-round verifier).
        """
        if radius < 1:
            raise GraphError("verification radius must be at least 1")
        center_id = self._id_of[node]
        neighbor_ids = self.neighbor_ids(node)
        if radius == 1:
            ball = Graph(nodes=[center_id, *neighbor_ids])
            for neighbor_id in neighbor_ids:
                ball.add_edge(center_id, neighbor_id)
            visible_nodes = [node, *[self._node_of[i] for i in neighbor_ids]]
        else:
            nodes_in_ball = self.ball_nodes(node, radius)
            # The t-round view contains every edge with at least one endpoint
            # at distance <= radius - 1 (edges whose messages had time to
            # reach the center), which for our purposes we approximate by the
            # induced subgraph on the ball: this only ever gives the verifier
            # *more* information, which is safe for upper bounds and standard
            # for LCP lower bounds.
            induced = self.graph.subgraph(nodes_in_ball)
            ball = induced.relabeled({v: self._id_of[v] for v in nodes_in_ball})
            visible_nodes = list(nodes_in_ball)
        certs = {self._id_of[v]: certificates.get(v) for v in visible_nodes}
        return LocalView(
            center_id=center_id,
            certificate=certificates.get(node),
            neighbor_ids=neighbor_ids,
            certificates=certs,
            ball=ball,
            radius=radius,
        )
