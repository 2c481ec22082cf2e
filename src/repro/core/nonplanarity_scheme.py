"""The folklore proof-labeling scheme for *non*-planarity (Section 2).

By Kuratowski's theorem a graph is non-planar iff it contains a subdivision
of ``K5`` or ``K3,3``.  The folklore scheme (whose existence the paper
recalls in Section 2) certifies non-planarity by exhibiting such a
subdivision:

* every certificate carries the identifiers of the 5 (resp. 6) *branch
  vertices* of the subdivision and a spanning tree rooted at branch vertex
  number 0 (anchoring its existence);
* nodes on the subdivision additionally carry their role: either "branch
  vertex number ``k``" or "``p``-th internal vertex of the subdivided edge
  between branch vertices ``k`` and ``l``", together with the identifiers of
  their predecessor and successor along that subdivided edge.

All fields are identifiers, positions, or constants, so certificates take
``O(log n)`` bits.  The scheme is used as a companion baseline in the
comparison experiment (E5/E9): together with Theorem 1 it shows that *both*
planarity and non-planarity admit compact distributed certification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.building_blocks import (
    SpanningTreeLabel,
    check_spanning_tree_label,
    spanning_tree_labels,
)
from repro.distributed.certificates import BitWriter, Encodable, encode_nested
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.exceptions import NotInClassError, PlanarGraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.kuratowski import find_kuratowski_subdivision
from repro.graphs.planarity import is_planar
from repro.graphs.spanning_tree import bfs_spanning_tree

__all__ = [
    "KIND_K5",
    "KIND_K33",
    "MAX_BRANCH_VERTICES",
    "SubdivisionRole",
    "NonPlanarityCertificate",
    "NonPlanarityScheme",
]

KIND_K5 = 0
KIND_K33 = 1

#: every valid kind has at most this many branch vertices (5 for ``K5``, 6
#: for ``K3,3``); the vectorized kernel flattens ``branch_ids`` into this
#: many fixed-width columns, so longer tuples take the reference fallback
MAX_BRANCH_VERTICES = 6

#: required partner branch indices for each branch vertex, per kind
_PARTNERS = {
    KIND_K5: {k: tuple(l for l in range(5) if l != k) for k in range(5)},
    KIND_K33: {**{k: (3, 4, 5) for k in range(3)}, **{k: (0, 1, 2) for k in range(3, 6)}},
}


@dataclass(frozen=True)
class SubdivisionRole(Encodable):
    """Role of a node inside the certified Kuratowski subdivision.

    Either a branch vertex (``branch_index`` set, path fields ``None``) or an
    internal vertex of the subdivided edge between branch vertices
    ``path_low < path_high`` at distance ``position`` from ``path_low``
    (``prev_id`` / ``next_id`` are the neighbors toward ``path_low`` /
    ``path_high``).
    """

    branch_index: int | None
    path_low: int | None
    path_high: int | None
    position: int | None
    prev_id: int | None
    next_id: int | None

    @property
    def is_branch(self) -> bool:
        return self.branch_index is not None

    def encode(self, writer: BitWriter) -> None:
        writer.write_optional_uint(self.branch_index)
        writer.write_optional_uint(self.path_low)
        writer.write_optional_uint(self.path_high)
        writer.write_optional_uint(self.position)
        writer.write_optional_uint(self.prev_id)
        writer.write_optional_uint(self.next_id)

    @classmethod
    def branch(cls, index: int) -> "SubdivisionRole":
        """Role of the ``index``-th branch vertex."""
        return cls(branch_index=index, path_low=None, path_high=None,
                   position=None, prev_id=None, next_id=None)

    @classmethod
    def internal(cls, path_low: int, path_high: int, position: int,
                 prev_id: int, next_id: int) -> "SubdivisionRole":
        """Role of the ``position``-th internal vertex of a subdivided edge."""
        return cls(branch_index=None, path_low=path_low, path_high=path_high,
                   position=position, prev_id=prev_id, next_id=next_id)


@dataclass(frozen=True)
class NonPlanarityCertificate(Encodable):
    """Per-node certificate of the non-planarity scheme."""

    kind: int
    branch_ids: tuple[int, ...]
    spanning_tree: SpanningTreeLabel
    role: SubdivisionRole | None

    def encode(self, writer: BitWriter) -> None:
        writer.write_uint(self.kind)
        writer.write_uint(len(self.branch_ids))
        for identifier in self.branch_ids:
            writer.write_uint(identifier)
        encode_nested(writer, self.spanning_tree)
        if self.role is None:
            writer.write_bool(False)
        else:
            writer.write_bool(True)
            encode_nested(writer, self.role)


class NonPlanarityScheme(ProofLabelingScheme):
    """Folklore 1-round PLS for the class of non-planar graphs, ``O(log n)`` bits."""

    name = "non-planarity-pls"

    # ------------------------------------------------------------------
    def is_member(self, graph: Graph) -> bool:
        return not is_planar(graph)

    def prove(self, network: Network) -> dict[Node, NonPlanarityCertificate]:
        graph = network.graph
        # The extraction decides membership itself, with at most one
        # whole-graph planarity test: a subdivision input needs none.
        try:
            subdivision = find_kuratowski_subdivision(graph)
        except PlanarGraphError as error:
            raise NotInClassError(
                "the network is planar; non-planarity cannot be certified") from error
        kind = KIND_K5 if subdivision.kind == "K5" else KIND_K33
        branch_vertices = list(subdivision.branch_vertices)
        if kind == KIND_K33:
            branch_vertices = _bipartition_order(branch_vertices, subdivision.paths())
        branch_ids = tuple(network.id_of(v) for v in branch_vertices)
        branch_index_of = {v: k for k, v in enumerate(branch_vertices)}

        roles: dict[Node, SubdivisionRole] = {
            v: SubdivisionRole.branch(k) for v, k in branch_index_of.items()
        }
        for path in subdivision.paths():
            start, end = path[0], path[-1]
            low_index = branch_index_of[start]
            high_index = branch_index_of[end]
            if low_index > high_index:
                path = list(reversed(path))
                low_index, high_index = high_index, low_index
            for position, node in enumerate(path[1:-1], start=1):
                roles[node] = SubdivisionRole.internal(
                    path_low=low_index, path_high=high_index, position=position,
                    prev_id=network.id_of(path[position - 1]),
                    next_id=network.id_of(path[position + 1]),
                )

        tree = bfs_spanning_tree(graph, branch_vertices[0])
        st_labels = spanning_tree_labels(network, tree)
        return {
            node: NonPlanarityCertificate(
                kind=kind,
                branch_ids=branch_ids,
                spanning_tree=st_labels[node],
                role=roles.get(node),
            )
            for node in graph.nodes()
        }

    # ------------------------------------------------------------------
    def verify(self, view: LocalView) -> bool:
        own = view.certificate
        if not isinstance(own, NonPlanarityCertificate):
            return False
        neighbors: dict[int, NonPlanarityCertificate] = {}
        for neighbor_id in view.neighbor_ids:
            certificate = view.neighbor_certificate(neighbor_id)
            if not isinstance(certificate, NonPlanarityCertificate):
                return False
            neighbors[neighbor_id] = certificate

        # global consistency of the claimed subdivision
        expected_branch_count = 5 if own.kind == KIND_K5 else 6
        if own.kind not in (KIND_K5, KIND_K33):
            return False
        if len(own.branch_ids) != expected_branch_count:
            return False
        if len(set(own.branch_ids)) != expected_branch_count:
            return False
        for certificate in neighbors.values():
            if certificate.kind != own.kind or certificate.branch_ids != own.branch_ids:
                return False

        # the spanning tree anchors the existence of branch vertex 0
        st_neighbors = {nid: cert.spanning_tree for nid, cert in neighbors.items()}
        if not check_spanning_tree_label(view.center_id, own.spanning_tree, st_neighbors):
            return False
        if own.spanning_tree.root_id != own.branch_ids[0]:
            return False
        if view.center_id == own.spanning_tree.root_id:
            if own.role is None or own.role.branch_index != 0:
                return False

        role = own.role
        if role is None:
            return True
        if role.is_branch:
            return self._verify_branch(view, own, neighbors)
        return self._verify_internal(view, own, neighbors)

    # ------------------------------------------------------------------
    def _verify_branch(self, view: LocalView, own: NonPlanarityCertificate,
                       neighbors: dict[int, NonPlanarityCertificate]) -> bool:
        role = own.role
        assert role is not None and role.branch_index is not None
        k = role.branch_index
        if not 0 <= k < len(own.branch_ids):
            return False
        if view.center_id != own.branch_ids[k]:
            return False
        total = own.spanning_tree.total
        for partner in _PARTNERS[own.kind][k]:
            low, high = min(k, partner), max(k, partner)
            found = False
            for neighbor_id, certificate in neighbors.items():
                other_role = certificate.role
                if other_role is None:
                    continue
                if other_role.is_branch:
                    if (other_role.branch_index == partner
                            and neighbor_id == own.branch_ids[partner]):
                        found = True
                        break
                    continue
                if (other_role.path_low, other_role.path_high) != (low, high):
                    continue
                if other_role.position is None or not 1 <= other_role.position <= total:
                    continue
                if k == low and other_role.position == 1 \
                        and other_role.prev_id == view.center_id:
                    found = True
                    break
                if k == high and other_role.next_id == view.center_id:
                    found = True
                    break
            if not found:
                return False
        return True

    def _verify_internal(self, view: LocalView, own: NonPlanarityCertificate,
                         neighbors: dict[int, NonPlanarityCertificate]) -> bool:
        role = own.role
        assert role is not None
        low, high, position = role.path_low, role.path_high, role.position
        if low is None or high is None or position is None:
            return False
        count = len(own.branch_ids)
        if not (0 <= low < high < count):
            return False
        if (low, high) not in _valid_pairs(own.kind):
            return False
        total = own.spanning_tree.total
        if not 1 <= position <= total:
            return False
        if role.prev_id is None or role.next_id is None:
            return False
        if role.prev_id not in neighbors or role.next_id not in neighbors:
            return False
        # predecessor: previous internal vertex, or the low branch vertex at position 1
        prev_cert = neighbors[role.prev_id].role
        if position == 1:
            if prev_cert is None or not prev_cert.is_branch or prev_cert.branch_index != low:
                return False
            if role.prev_id != own.branch_ids[low]:
                return False
        else:
            if prev_cert is None or prev_cert.is_branch:
                return False
            if (prev_cert.path_low, prev_cert.path_high, prev_cert.position) != \
                    (low, high, position - 1):
                return False
        # successor: next internal vertex, or the high branch vertex
        next_cert = neighbors[role.next_id].role
        if next_cert is None:
            return False
        if next_cert.is_branch:
            if next_cert.branch_index != high or role.next_id != own.branch_ids[high]:
                return False
        else:
            if (next_cert.path_low, next_cert.path_high, next_cert.position) != \
                    (low, high, position + 1):
                return False
        return True


def _bipartition_order(branch_vertices: list, paths: list[list]) -> list:
    """Reorder the six branch vertices of a ``K3,3`` subdivision by bipartition side.

    The scheme's partner table assumes that branch indices ``0, 1, 2`` form
    one side and ``3, 4, 5`` the other, so the prover 2-colours the "branch
    adjacency" induced by the subdivision paths and lists one colour class
    first.
    """
    adjacency: dict = {v: set() for v in branch_vertices}
    for path in paths:
        adjacency[path[0]].add(path[-1])
        adjacency[path[-1]].add(path[0])
    start = branch_vertices[0]
    side_a = {start}
    side_b = set(adjacency[start])
    for vertex in branch_vertices:
        if vertex in side_a or vertex in side_b:
            continue
        if adjacency[vertex] & side_a:
            side_b.add(vertex)
        else:
            side_a.add(vertex)
    ordered = sorted(side_a, key=repr) + sorted(side_b, key=repr)
    if len(side_a) != 3 or len(side_b) != 3:
        raise NotInClassError("extracted subdivision does not have a K3,3 bipartition")
    return ordered


def _valid_pairs(kind: int) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    for k, partners in _PARTNERS[kind].items():
        for partner in partners:
            pairs.add((min(k, partner), max(k, partner)))
    return pairs
