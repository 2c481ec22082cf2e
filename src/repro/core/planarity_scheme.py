"""The proof-labeling scheme for planarity (Theorem 1, Algorithm 2).

The honest prover, given a planar graph ``G``:

1. computes a planar rotation system, a spanning tree ``T`` and the
   DFS-mapping ``f`` / induced path-outerplanar graph ``G_{T,f}``
   (:mod:`repro.core.dfs_mapping`);
2. computes the Lemma 2 intervals ``I(i)`` of every vertex ``i`` of
   ``G_{T,f}``;
3. packs, for every edge of ``G``, an *edge certificate* describing the image
   of that edge in ``G_{T,f}`` together with the intervals of the mentioned
   vertices, and assigns each edge certificate to one endpoint using a
   degeneracy ordering (at most five per node, because planar graphs are
   5-degenerate);
4. adds the standard spanning-tree fields for ``T``.

The verifier (Algorithm 2) re-assembles, from its own certificate and its
neighbors' certificates, the copies ``f^{-1}(x)`` of the node, their
neighborhoods in ``G_{T,f}``, checks that ``T`` is a spanning tree and ``f``
a DFS-mapping of ``T``, and finally simulates Algorithm 1 (the
path-outerplanarity verifier) at every copy.  Soundness follows from Lemma 4:
if every node accepts then ``G_{T,f}`` is path-outerplanar for a genuine
spanning tree and DFS-mapping, hence ``G`` is planar.

Every certificate is ``O(log n)`` bits: a constant number of identifier and
index fields per edge certificate, and at most five edge certificates plus
one spanning-tree label per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.building_blocks import (
    SpanningTreeLabel,
    check_spanning_tree_label,
    spanning_tree_labels,
)
from repro.core.dfs_mapping import (
    PlanarCutDecomposition,
    cut_open,
    euler_tour_locally_consistent,
)
from repro.core.path_outerplanar import compute_covering_intervals
from repro.core.po_scheme import algorithm1_check
from repro.distributed.certificates import BitWriter, Encodable, encode_nested
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.exceptions import NotInClassError, NotPlanarError
from repro.graphs.degeneracy import assign_edges_by_degeneracy
from repro.graphs.graph import Graph, Node, edge_key
from repro.graphs.planarity import compute_planar_embedding, is_planar
from repro.observability.tracer import current as current_tracer

__all__ = [
    "MAX_EDGE_CERTIFICATES_PER_NODE",
    "MAX_INTERVAL_ENTRIES_PER_CERTIFICATE",
    "TreeEdgeCertificate",
    "CotreeEdgeCertificate",
    "PlanarityCertificate",
    "PlanarityScheme",
    "LocalStructure",
    "reconstruct_local_structure",
    "consistent_interval_map",
    "simulate_algorithm1",
]

Interval = tuple[int, int]
IntervalEntries = tuple[tuple[int, int, int], ...]   # (index, low, high)

#: planar graphs are 5-degenerate, so the honest prover never charges more
#: than five edge certificates to a single node; the verifier enforces it.
MAX_EDGE_CERTIFICATES_PER_NODE = 5

#: an honest edge certificate mentions at most four ``G_{T,f}`` indices
#: (tree edges: descend/return plus successors; cotree edges: two copies),
#: so its interval list has at most four entries; the vectorized kernel
#: routes certificates with longer lists to the reference fallback,
#: with headroom so only truly foreign shapes leave the fast path
MAX_INTERVAL_ENTRIES_PER_CERTIFICATE = 8


def _encode_interval_entries(writer: BitWriter, entries: IntervalEntries) -> None:
    writer.write_uint(len(entries))
    for index, low, high in entries:
        writer.write_uint(index)
        writer.write_uint(low)
        writer.write_uint(high)


@dataclass(frozen=True)
class TreeEdgeCertificate(Encodable):
    """Certificate of one tree edge of ``G``: its two path edges in ``G_{T,f}``.

    ``descend_index`` is the index ``i`` with ``f(i) = parent`` and
    ``f(i+1) = child``; ``return_index`` is the index ``j`` with
    ``f(j) = child`` and ``f(j+1) = parent``.  ``intervals`` carries the
    Lemma 2 interval of every index mentioned by this certificate.
    """

    parent_id: int
    child_id: int
    descend_index: int
    return_index: int
    intervals: IntervalEntries

    @property
    def is_tree_edge(self) -> bool:
        return True

    def endpoint_ids(self) -> frozenset[int]:
        """Return the identifiers of the two endpoints of the edge.

        Memoised per instance: a certificate is inspected once per node that
        can see it and attacks re-evaluate the same immutable certificate
        objects across many trials, so the frozenset is built exactly once
        (``object.__setattr__`` bypasses the frozen-dataclass guard; the
        cache lives in ``__dict__`` and does not participate in equality).
        """
        cached = self.__dict__.get("_endpoints")
        if cached is None:
            cached = frozenset((self.parent_id, self.child_id))
            object.__setattr__(self, "_endpoints", cached)
        return cached

    def mentioned_indices(self) -> tuple[int, ...]:
        """Return the ``G_{T,f}`` indices this certificate refers to."""
        return (self.descend_index, self.descend_index + 1,
                self.return_index, self.return_index + 1)

    def encode(self, writer: BitWriter) -> None:
        writer.write_bool(True)
        writer.write_uint(self.parent_id)
        writer.write_uint(self.child_id)
        writer.write_uint(self.descend_index)
        writer.write_uint(self.return_index)
        _encode_interval_entries(writer, self.intervals)


@dataclass(frozen=True)
class CotreeEdgeCertificate(Encodable):
    """Certificate of one cotree edge of ``G``: its single chord in ``G_{T,f}``."""

    a_id: int
    b_id: int
    copy_a: int
    copy_b: int
    intervals: IntervalEntries

    @property
    def is_tree_edge(self) -> bool:
        return False

    def endpoint_ids(self) -> frozenset[int]:
        """Return the identifiers of the two endpoints of the edge (memoised)."""
        cached = self.__dict__.get("_endpoints")
        if cached is None:
            cached = frozenset((self.a_id, self.b_id))
            object.__setattr__(self, "_endpoints", cached)
        return cached

    def mentioned_indices(self) -> tuple[int, ...]:
        """Return the ``G_{T,f}`` indices this certificate refers to."""
        return (self.copy_a, self.copy_b)

    def copy_of(self, node_id: int) -> int:
        """Return the copy index at which the chord attaches to ``node_id``."""
        return self.copy_a if node_id == self.a_id else self.copy_b

    def encode(self, writer: BitWriter) -> None:
        writer.write_bool(False)
        writer.write_uint(self.a_id)
        writer.write_uint(self.b_id)
        writer.write_uint(self.copy_a)
        writer.write_uint(self.copy_b)
        _encode_interval_entries(writer, self.intervals)


EdgeCertificate = TreeEdgeCertificate | CotreeEdgeCertificate


@dataclass(frozen=True)
class PlanarityCertificate(Encodable):
    """Per-node certificate of the Theorem 1 scheme."""

    spanning_tree: SpanningTreeLabel
    edge_certificates: tuple[EdgeCertificate, ...]

    def encode(self, writer: BitWriter) -> None:
        encode_nested(writer, self.spanning_tree)
        writer.write_uint(len(self.edge_certificates))
        for certificate in self.edge_certificates:
            encode_nested(writer, certificate)


# ----------------------------------------------------------------------
# honest prover
# ----------------------------------------------------------------------
class PlanarityScheme(ProofLabelingScheme):
    """Theorem 1: a 1-round PLS for planarity with ``O(log n)``-bit certificates.

    The honest prover cuts the graph open along a BFS tree rooted at the
    graph's first node and charges each edge certificate to one endpoint
    through a degeneracy ordering; the verifier enforces the resulting cap
    of five edge certificates per node.
    """

    name = "planarity-pls"

    # ------------------------------------------------------------------
    def is_member(self, graph: Graph) -> bool:
        return is_planar(graph)

    def prove(self, network: Network) -> dict[Node, PlanarityCertificate]:
        graph = network.graph
        tracer = current_tracer()
        with tracer.span("prove") as sp:
            if sp:
                sp.set(scheme=self.name, nodes=network.size)
            # Compute the embedding once: it both answers membership and
            # feeds cut_open, so the prover runs a single planarity test per
            # network instead of two (the full test dominates proving time
            # at large n).
            with tracer.span("prove/embedding"):
                try:
                    rotation = compute_planar_embedding(graph)
                except NotPlanarError:
                    raise NotInClassError("the network is not planar") from None
            with tracer.span("prove/cut_open"):
                decomposition = cut_open(graph, rotation=rotation)
            with tracer.span("prove/assembly"):
                return self._certificates_from_decomposition(network, decomposition)

    def _certificates_from_decomposition(
            self, network: Network,
            decomposition: PlanarCutDecomposition) -> dict[Node, PlanarityCertificate]:
        graph = network.graph
        n_path = decomposition.path_length
        intervals = compute_covering_intervals(
            n_path, decomposition.chord_intervals(), assume_laminar=True)

        def entries(indices: tuple[int, ...]) -> IntervalEntries:
            unique = sorted(set(indices))
            return tuple((index, intervals[index][0], intervals[index][1]) for index in unique)

        edge_certificates: dict[tuple[Node, Node], EdgeCertificate] = {}
        for key, image in decomposition.tree_edge_images.items():
            certificate = TreeEdgeCertificate(
                parent_id=network.id_of(image.parent),
                child_id=network.id_of(image.child),
                descend_index=image.descend_index,
                return_index=image.return_index,
                intervals=entries((image.descend_index, image.descend_index + 1,
                                   image.return_index, image.return_index + 1)),
            )
            edge_certificates[key] = certificate
        for key, (copy_a, copy_b) in decomposition.cotree_edge_images.items():
            a, b = key
            certificate = CotreeEdgeCertificate(
                a_id=network.id_of(a),
                b_id=network.id_of(b),
                copy_a=copy_a,
                copy_b=copy_b,
                intervals=entries((copy_a, copy_b)),
            )
            edge_certificates[key] = certificate

        # distribute the edge certificates
        per_node: dict[Node, list[EdgeCertificate]] = {node: [] for node in graph.nodes()}
        for node, edges in assign_edges_by_degeneracy(graph).items():
            for edge in edges:
                per_node[node].append(edge_certificates[edge_key(*edge)])

        st_labels = spanning_tree_labels(network, decomposition.tree)
        return {
            node: PlanarityCertificate(
                spanning_tree=st_labels[node],
                edge_certificates=tuple(per_node[node]),
            )
            for node in graph.nodes()
        }

    # ------------------------------------------------------------------
    # verifier (Algorithm 2)
    # ------------------------------------------------------------------
    def verify(self, view: LocalView) -> bool:
        structure = reconstruct_local_structure(view)
        if structure is None:
            return False
        if structure.is_single_node:
            return True
        return simulate_algorithm1(structure)


def simulate_algorithm1(structure: "LocalStructure") -> bool:
    """Phase 3 of Algorithm 2: run the Algorithm 1 verifier at every copy.

    Standalone (it consumes only the reconstructed :class:`LocalStructure`)
    so the vectorized planarity kernel can mirror it conjunct for conjunct
    over the flattened copy/chord arrays — the same sharing contract as
    :func:`~repro.core.building_blocks.check_spanning_tree_label` /
    :func:`~repro.vectorized.kernels.spanning_tree_accept`.
    """
    interval_of = structure.interval_of
    n_path = structure.path_length
    for index in structure.copies:
        if index not in interval_of:
            return False
        neighbor_intervals: dict[int, Interval | None] = {}
        for path_neighbor in (index - 1, index + 1):
            if 1 <= path_neighbor <= n_path:
                if path_neighbor not in interval_of:
                    return False
                neighbor_intervals[path_neighbor] = interval_of[path_neighbor]
        for chord_neighbor in structure.chord_neighbors[index]:
            if chord_neighbor not in interval_of:
                return False
            if chord_neighbor in neighbor_intervals:
                # two distinct G_{T,f} edges cannot join the same pair of copies
                return False
            neighbor_intervals[chord_neighbor] = interval_of[chord_neighbor]
        if not algorithm1_check(index, n_path, interval_of[index], neighbor_intervals):
            return False
    return True


def consistent_interval_map(certificates, n_path: int) -> dict[int, Interval] | None:
    """Merge the interval entries of the visible edge certificates, or ``None``.

    The interval-map consistency phase of Algorithm 2: every mentioned index
    must lie in ``1 .. n_path`` and every certificate mentioning the same
    index must claim the same ``(low, high)`` interval.  Shared with the
    vectorized kernel, which runs the same two conditions as a per-node
    segmented sort over the flattened ``(index, low, high)`` triples.
    """
    interval_of: dict[int, Interval] = {}
    for certificate in certificates:
        for index, low, high in certificate.intervals:
            if not 1 <= index <= n_path:
                return None
            value = (low, high)
            if interval_of.setdefault(index, value) != value:
                return None
    return interval_of


@dataclass(frozen=True)
class LocalStructure:
    """Local picture of ``G_{T,f}`` reconstructed by Algorithm 2 at one node.

    Produced by :func:`reconstruct_local_structure` after all structural
    checks (spanning tree, DFS-mapping, edge-certificate consistency)
    succeeded.  ``copies`` are the indices ``f^{-1}(x)`` of the node,
    ``chord_neighbors`` maps each copy to the chord endpoints attached to
    it, and ``interval_of`` collects every Lemma 2 interval mentioned by the
    certificates visible at the node.
    """

    node_id: int
    total_nodes: int
    path_length: int
    is_root: bool
    is_single_node: bool
    copies: tuple[int, ...]
    chord_neighbors: dict[int, tuple[int, ...]]
    interval_of: dict[int, Interval]


def reconstruct_local_structure(view: LocalView) -> LocalStructure | None:
    """Phases 1 and 2 of Algorithm 2: structural verification at one node.

    Returns the reconstructed :class:`LocalStructure` when every structural
    check passes, and ``None`` otherwise.  The path-outerplanarity phase
    (Phase 3) is layered on top by :class:`PlanarityScheme`; the dMAM
    baseline reuses this function and replaces Phase 3 by its randomized
    fingerprint checks.
    """
    own = view.certificate
    if not isinstance(own, PlanarityCertificate):
        return None
    if len(own.edge_certificates) > MAX_EDGE_CERTIFICATES_PER_NODE:
        return None
    neighbor_certs: dict[int, PlanarityCertificate] = {}
    for neighbor_id in view.neighbor_ids:
        certificate = view.neighbor_certificate(neighbor_id)
        if not isinstance(certificate, PlanarityCertificate):
            return None
        neighbor_certs[neighbor_id] = certificate

    my_id = view.center_id
    st_own = own.spanning_tree
    st_neighbors = {nid: cert.spanning_tree for nid, cert in neighbor_certs.items()}

    # ---- Phase 2a: T is a spanning tree of G (and st_own.total == n) ----
    if not check_spanning_tree_label(my_id, st_own, st_neighbors):
        return None
    n_claimed = st_own.total
    n_path = 2 * n_claimed - 1

    # special case: single-node network
    if not view.neighbor_ids:
        if n_claimed != 1:
            return None
        return LocalStructure(node_id=my_id, total_nodes=1, path_length=1,
                              is_root=True, is_single_node=True,
                              copies=(1,), chord_neighbors={1: ()}, interval_of={})

    # ---- Phase 1: collect the edge certificates visible at this node ----
    # Certificates about my incident edges are keyed by the *other* endpoint
    # identifier (for a certificate whose two endpoint fields both equal my
    # own identifier the "other" endpoint is my_id itself, which can never
    # match a neighbor identifier, so such a certificate still fails the
    # coverage check below exactly as the original frozenset keying did).
    collected: dict[int, EdgeCertificate] = {}
    for source in (own, *neighbor_certs.values()):
        for certificate in source.edge_certificates:
            if not isinstance(certificate, (TreeEdgeCertificate, CotreeEdgeCertificate)):
                return None
            endpoints = certificate.endpoint_ids()
            if my_id not in endpoints:
                continue  # not about one of my incident edges
            other = my_id
            for endpoint in endpoints:
                if endpoint != my_id:
                    other = endpoint
            existing = collected.get(other)
            if existing is None:
                collected[other] = certificate
            elif existing != certificate:
                return None  # conflicting certificates for the same edge

    # every incident edge must be covered by exactly one certificate
    if len(collected) != len(view.neighbor_ids) or \
            any(neighbor_id not in collected for neighbor_id in view.neighbor_ids):
        return None

    # consistent interval map over all mentioned indices
    interval_of = consistent_interval_map(collected.values(), n_path)
    if interval_of is None:
        return None

    # ---- Phase 1b: recover my copies and the local structure of G_{T,f} ----
    parent_id = st_own.parent_id
    child_ids = [nid for nid, st in st_neighbors.items() if st.parent_id == my_id]
    tree_neighbor_ids = set(child_ids) | ({parent_id} if parent_id is not None else set())

    my_copies: set[int] = set()
    child_span: dict[int, tuple[int, int]] = {}  # child id -> (f_min, f_max)
    parent_edge: TreeEdgeCertificate | None = None
    for neighbor_id in view.neighbor_ids:
        certificate = collected[neighbor_id]
        if certificate.is_tree_edge:
            # tree-edge certificates must exist exactly for tree neighbors,
            # with the parent/child orientation matching the spanning-tree labels
            if neighbor_id not in tree_neighbor_ids:
                return None
            assert isinstance(certificate, TreeEdgeCertificate)
            if neighbor_id == parent_id:
                if certificate.parent_id != parent_id or certificate.child_id != my_id:
                    return None
                parent_edge = certificate
                my_copies.add(certificate.descend_index + 1)
                my_copies.add(certificate.return_index)
            else:
                if certificate.parent_id != my_id or certificate.child_id != neighbor_id:
                    return None
                my_copies.add(certificate.descend_index)
                my_copies.add(certificate.return_index + 1)
                child_span[neighbor_id] = (certificate.descend_index + 1,
                                           certificate.return_index)
        else:
            if neighbor_id in tree_neighbor_ids:
                return None  # a tree edge disguised as a cotree edge
    if parent_id is not None and parent_edge is None:
        return None
    if set(child_span) != set(child_ids):
        return None
    if any(not 1 <= index <= n_path for index in my_copies):
        return None

    # ---- Phase 2b: f is a DFS-mapping of T ----
    # (an adversarial certificate set can leave a node with no copies at
    # all — a root claiming total == 1 whose incident edges are all covered
    # by cotree certificates — which no genuine Euler tour produces, so the
    # chain predicate rejects it outright)
    if not euler_tour_locally_consistent(my_copies, list(child_span.values())):
        return None
    copies_sorted = sorted(my_copies)
    f_min, f_max = copies_sorted[0], copies_sorted[-1]
    if parent_id is None:
        # the root owns the first and last index of the Euler tour
        if f_min != 1 or f_max != n_path:
            return None
    else:
        assert parent_edge is not None
        if f_min != parent_edge.descend_index + 1 or f_max != parent_edge.return_index:
            return None

    # ---- Phase 1c: neighborhoods of my copies in G_{T,f} ----
    chord_neighbors: dict[int, list[int]] = {index: [] for index in my_copies}
    for neighbor_id in view.neighbor_ids:
        certificate = collected[neighbor_id]
        if certificate.is_tree_edge:
            continue
        assert isinstance(certificate, CotreeEdgeCertificate)
        a_id, b_id = certificate.a_id, certificate.b_id
        if not ((a_id == my_id and b_id == neighbor_id)
                or (a_id == neighbor_id and b_id == my_id)):
            return None
        my_copy = certificate.copy_of(my_id)
        other_copy = certificate.copy_of(neighbor_id)
        if my_copy not in my_copies:
            return None
        if not 1 <= other_copy <= n_path:
            return None
        chord_neighbors[my_copy].append(other_copy)

    return LocalStructure(
        node_id=my_id,
        total_nodes=n_claimed,
        path_length=n_path,
        is_root=parent_id is None,
        is_single_node=False,
        copies=tuple(copies_sorted),
        chord_neighbors={index: tuple(neighbors)
                         for index, neighbors in chord_neighbors.items()},
        interval_of=interval_of,
    )
