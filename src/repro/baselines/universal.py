"""The universal ``O(n log n)``-bit proof-labeling scheme (folklore baseline).

Every graph class admits a proof-labeling scheme in which the prover simply
hands every node a full description of the graph (the "map"); each node
checks that the map is internally consistent with its own neighborhood, that
its neighbors were given the same map, and that the map has the property
being certified ([29], [34]).  For planarity this costs ``Theta(n log n)``
bits per certificate — the baseline against which the ``O(log n)`` bits of
Theorem 1 are compared in experiment E1/E5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.certificates import BitWriter, Encodable
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.exceptions import NotInClassError
from repro.graphs.graph import Graph, Node
from repro.graphs.planarity import is_planar

__all__ = ["GraphMapCertificate", "UniversalPlanarityScheme"]


@dataclass(frozen=True)
class GraphMapCertificate(Encodable):
    """A full description of the network: all identifiers and all edges."""

    node_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def encode(self, writer: BitWriter) -> None:
        writer.write_uint(len(self.node_ids))
        for identifier in self.node_ids:
            writer.write_uint(identifier)
        writer.write_uint(len(self.edges))
        for u, v in self.edges:
            writer.write_uint(u)
            writer.write_uint(v)

    def to_graph(self) -> Graph:
        """Materialise the map as a graph on the identifiers."""
        return Graph(nodes=self.node_ids, edges=self.edges)

    def neighbors_of(self, identifier: int) -> set[int]:
        """Return the neighbor identifiers of ``identifier`` according to the map."""
        neighbors: set[int] = set()
        for u, v in self.edges:
            if u == identifier:
                neighbors.add(v)
            elif v == identifier:
                neighbors.add(u)
        return neighbors


class UniversalPlanarityScheme(ProofLabelingScheme):
    """Certify planarity by shipping the whole graph to every node."""

    name = "universal-map-pls"

    def is_member(self, graph: Graph) -> bool:
        return is_planar(graph)

    def prove(self, network: Network) -> dict[Node, GraphMapCertificate]:
        if not self.is_member(network.graph):
            raise NotInClassError("the network is not planar")
        id_graph = network.id_graph()
        certificate = GraphMapCertificate(
            node_ids=tuple(sorted(id_graph.nodes())),
            edges=tuple(sorted((min(u, v), max(u, v)) for u, v in id_graph.edges())),
        )
        return {node: certificate for node in network.nodes()}

    def verify(self, view: LocalView) -> bool:
        own = view.certificate
        if not isinstance(own, GraphMapCertificate):
            return False
        # all neighbors carry the same map
        for neighbor_id in view.neighbor_ids:
            if view.neighbor_certificate(neighbor_id) != own:
                return False
        # the map agrees with my actual neighborhood
        if view.center_id not in own.node_ids:
            return False
        if own.neighbors_of(view.center_id) != set(view.neighbor_ids):
            return False
        # the map describes a planar graph
        return is_planar(own.to_graph())
