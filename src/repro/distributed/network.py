"""The distributed network model.

Section 2 of the paper: the network is a simple connected graph whose nodes
carry distinct identifiers drawn from a range polynomial in ``n`` (so every
identifier fits in ``O(log n)`` bits).  A :class:`Network` couples a
:class:`~repro.graphs.graph.Graph` with such an identifier assignment and
provides the *local views* that verifiers are allowed to see.

A verifier running at a node never receives the global graph: it receives a
:class:`LocalView`, which contains only what one verification round
delivers — the node's identifier and certificate, and its neighbors'
identifiers and certificates.
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

    One round of communication: the node sees its own identifier and
    certificate and the identifiers and certificates of its neighbors.

    Attributes
    ----------
    center_id:
        Identifier of the node running the verifier.
    certificate:
        Certificate assigned to the center node (``None`` if the prover gave
        nothing).
    neighbor_ids:
        Identifiers of the adjacent nodes, sorted.
    certificates:
        Certificates of the center and its neighbors, keyed by identifier.
    """

    center_id: int
    certificate: Any
    neighbor_ids: list[int]
    certificates: dict[int, Any]

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
    def local_view(self, node: Node, certificates: dict[Node, Any]) -> LocalView:
        """Build the one-round :class:`LocalView` of ``node`` under ``certificates``.

        The reference the batched view layer
        (:mod:`repro.distributed.views`) is tested against.
        """
        center_id = self._id_of[node]
        neighbor_ids = self.neighbor_ids(node)
        visible = {center_id: certificates.get(node)}
        for neighbor_id in neighbor_ids:
            visible[neighbor_id] = certificates.get(self._node_of[neighbor_id])
        return LocalView(
            center_id=center_id,
            certificate=certificates.get(node),
            neighbor_ids=neighbor_ids,
            certificates=visible,
        )
