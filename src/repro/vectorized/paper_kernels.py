"""Array kernels for the paper's headline schemes.

PR 2 shipped kernels for the two radius-1 *building-block* schemes.  This
module extends the vectorized backend to the schemes the paper is actually
about:

* :class:`NonPlanarityKernel` — a **full** kernel for the folklore Kuratowski
  scheme (``non-planarity-pls``).  The certificate's nested and
  variable-width pieces (the ``spanning_tree`` label, the 5/6-slot
  ``branch_ids`` tuple, the optional ``role``) are flattened into bounded-
  width int64 columns through :class:`~repro.vectorized.compiler.FieldSpec`
  getters; the spanning-tree phase reuses the shared
  :func:`~repro.vectorized.kernels.spanning_tree_accept` sub-check as a
  prefilter, and the Kuratowski-membership checks (branch-vertex partner
  coverage, subdivided-path chaining) run as CSR gathers + segment
  reductions.  Every reference conjunct appears as one boolean array, so
  decisions are bit-identical wherever the certificates are representable;
  nodes that can see an unrepresentable certificate take the per-node
  reference fallback.

* :class:`PlanarityKernel` — a **full** kernel for the Theorem 1 scheme
  (``planarity-pls``).  Every phase of Algorithm 2 runs as segmented array
  passes: the spanning-tree phase on the nested label columns, the
  collection/coverage/conflict phase as a (viewer, visible edge certificate)
  join over the flattened offsets+values
  :class:`~repro.vectorized.compiler.EdgeListTable`, interval-map
  consistency and the DFS-mapping/Euler-tour chain as per-node segmented
  sorts (single ``np.argsort`` passes over ``node * 2**32 + index``
  composite keys — the bounded-key specialisation of
  :func:`~repro.vectorized.kernels.segment_sort` — aligned with
  :func:`~repro.vectorized.kernels.segment_rank`), and the Algorithm 1
  simulation over the reconstructed copy and chord domains with binary
  lookups into a per-viewer sorted interval map.  Accepting and rejecting
  decisions are both final; ``view_fallback`` is reserved for the documented
  unrepresentable-value cases (malformed or oversized interval tuples,
  non-int fields, foreign types) and for the join-budget degradation, where
  the kernel falls back to its PR-3 prefilter contract.

The decision logic below is a literal transcription of
:meth:`repro.core.nonplanarity_scheme.NonPlanarityScheme.verify` and of
:func:`repro.core.planarity_scheme.reconstruct_local_structure` plus
:func:`repro.core.planarity_scheme.simulate_algorithm1`;
guards replace short-circuits (a conjunct the reference never reaches is
AND-ed together with the guard that made it unreachable), which is sound
because the reference verifiers never raise on representable certificates.
``tests/test_vectorized.py`` fuzzes the equivalence on random planar and
non-planar graphs under random corruptions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.nonplanarity_scheme import (
    KIND_K33,
    KIND_K5,
    MAX_BRANCH_VERTICES,
    NonPlanarityCertificate,
    NonPlanarityScheme,
    SubdivisionRole,
)
from repro.core.planarity_scheme import (
    MAX_EDGE_CERTIFICATES_PER_NODE,
    MAX_INTERVAL_ENTRIES_PER_CERTIFICATE,
    CotreeEdgeCertificate,
    PlanarityCertificate,
    PlanarityScheme,
    TreeEdgeCertificate,
)
from repro.core.building_blocks import SpanningTreeLabel
from repro.observability.tracer import current as current_tracer
from repro.vectorized.compiler import (
    ID_LIMIT,
    UNREPRESENTABLE,
    FieldSpec,
    VectorContext,
    compile_certificates,
    compile_edge_lists,
)
from repro.vectorized.kernels import (
    scatter_any,
    segment_all,
    segment_any,
    segment_rank,
    spanning_tree_accept,
    view_fallback,
)

__all__ = [
    "NESTED_SPANNING_TREE_FIELDS",
    "NONPLANARITY_FIELDS",
    "PLANARITY_FIELDS",
    "EDGE_CERTIFICATE_FIELDS",
    "INTERVAL_ENTRY_FIELDS",
    "NonPlanarityKernel",
    "PlanarityKernel",
]


# ----------------------------------------------------------------------
# derived-field getters
# ----------------------------------------------------------------------
def _st_field(name: str):
    """Getter for a field of the nested ``spanning_tree`` label.

    Anything that is not *exactly* a :class:`SpanningTreeLabel` (``None``
    included: the reference decides ``False`` on it, but through a code path
    the columns cannot mirror) is unrepresentable.
    """
    def get(certificate: Any) -> Any:
        label = certificate.spanning_tree
        if type(label) is not SpanningTreeLabel:
            return UNREPRESENTABLE
        return getattr(label, name)
    return get


def _branch_count(certificate: Any) -> Any:
    ids = certificate.branch_ids
    if type(ids) is not tuple or len(ids) > MAX_BRANCH_VERTICES:
        return UNREPRESENTABLE
    return len(ids)


def _branch_slot(slot: int):
    """Getter for one fixed-width slot of the ``branch_ids`` tuple.

    The tuple is at most :data:`MAX_BRANCH_VERTICES` long for every valid
    kind, so it flattens into that many optional columns plus a count column;
    longer (or non-tuple) values are unrepresentable.  The ``None`` mask of a
    slot column encodes *padding only* (``slot >= len``): a ``None`` sitting
    *inside* the tuple is also unrepresentable, because the kernel compares
    slot values against genuine identifiers (distinctness, the root/partner/
    path-end anchors) without consulting the mask, and a masked ``None``
    stored as ``0`` would conflate with a real identifier ``0``.
    """
    def get(certificate: Any) -> Any:
        ids = certificate.branch_ids
        if type(ids) is not tuple or len(ids) > MAX_BRANCH_VERTICES:
            return UNREPRESENTABLE
        if slot >= len(ids):
            return None
        if ids[slot] is None:
            return UNREPRESENTABLE
        return ids[slot]
    return get


def _has_role(certificate: Any) -> Any:
    role = certificate.role
    if role is None:
        return False
    if type(role) is not SubdivisionRole:
        return UNREPRESENTABLE
    return True


def _role_field(name: str):
    def get(certificate: Any) -> Any:
        role = certificate.role
        if role is None:
            return None
        if type(role) is not SubdivisionRole:
            return UNREPRESENTABLE
        return getattr(role, name)
    return get


#: the ``spanning_tree`` label of a composite certificate, flattened under
#: the exact names :func:`spanning_tree_accept` reads — compiling these into
#: a table makes the shared sub-check work on composite certificates as-is
NESTED_SPANNING_TREE_FIELDS = (
    FieldSpec("total", getter=_st_field("total")),
    FieldSpec("root_id", limit=ID_LIMIT, getter=_st_field("root_id")),
    FieldSpec("parent_id", optional=True, limit=ID_LIMIT,
              getter=_st_field("parent_id")),
    FieldSpec("distance", getter=_st_field("distance")),
    FieldSpec("subtree_size", getter=_st_field("subtree_size")),
)

#: field layout of :class:`NonPlanarityCertificate` consumed by its kernel;
#: identifier-valued and equality-only fields relax the magnitude bound to
#: :data:`ID_LIMIT` (they are never segment-summed)
NONPLANARITY_FIELDS = NESTED_SPANNING_TREE_FIELDS + (
    FieldSpec("kind", limit=ID_LIMIT),
    FieldSpec("branch_count", limit=ID_LIMIT, getter=_branch_count),
    *(FieldSpec(f"branch_{slot}", optional=True, limit=ID_LIMIT,
                getter=_branch_slot(slot))
      for slot in range(MAX_BRANCH_VERTICES)),
    FieldSpec("has_role", limit=ID_LIMIT, getter=_has_role),
    FieldSpec("branch_index", optional=True, limit=ID_LIMIT,
              getter=_role_field("branch_index")),
    FieldSpec("path_low", optional=True, limit=ID_LIMIT,
              getter=_role_field("path_low")),
    FieldSpec("path_high", optional=True, limit=ID_LIMIT,
              getter=_role_field("path_high")),
    FieldSpec("position", optional=True, limit=ID_LIMIT,
              getter=_role_field("position")),
    FieldSpec("prev_id", optional=True, limit=ID_LIMIT,
              getter=_role_field("prev_id")),
    FieldSpec("next_id", optional=True, limit=ID_LIMIT,
              getter=_role_field("next_id")),
)

#: node-level field layout of :class:`PlanarityCertificate`: the nested
#: spanning-tree label (the per-edge certificates live in an EdgeListTable)
PLANARITY_FIELDS = NESTED_SPANNING_TREE_FIELDS


def _entry_is_tree(entry: Any) -> Any:
    return type(entry) is TreeEdgeCertificate


def _entry_endpoint(tree_name: str, cotree_name: str):
    def get(entry: Any) -> Any:
        if type(entry) is TreeEdgeCertificate:
            return getattr(entry, tree_name)
        return getattr(entry, cotree_name)
    return get


#: per-entry layout of the flattened ``edge_certificates`` lists: the edge
#: kind, the two endpoint identifiers the collection phase matches against
#: the spanning-tree labels, and the two ``G_{T,f}`` indices (descend/return
#: for tree edges, the two chord copies for cotree edges) that the
#: DFS-mapping and Algorithm 1 phases consume.  Together with the interval
#: sub-list these cover every dataclass field of both entry types, which is
#: what entitles the kernel to treat the compiler's per-entry ``uids`` as
#: dataclass equality (the conflicting-certificates check).
EDGE_CERTIFICATE_FIELDS = (
    FieldSpec("is_tree", limit=ID_LIMIT, getter=_entry_is_tree),
    FieldSpec("id_a", limit=ID_LIMIT, getter=_entry_endpoint("parent_id", "a_id")),
    FieldSpec("id_b", limit=ID_LIMIT, getter=_entry_endpoint("child_id", "b_id")),
    FieldSpec("idx_a", limit=ID_LIMIT, getter=_entry_endpoint("descend_index", "copy_a")),
    FieldSpec("idx_b", limit=ID_LIMIT, getter=_entry_endpoint("return_index", "copy_b")),
)

#: positional layout of one ``(index, low, high)`` interval entry; the values
#: are only ever equality/order-compared (never segment-summed), so the
#: identifier-sized magnitude bound applies
INTERVAL_ENTRY_FIELDS = (
    FieldSpec("index", limit=ID_LIMIT),
    FieldSpec("low", limit=ID_LIMIT),
    FieldSpec("high", limit=ID_LIMIT),
)


# ----------------------------------------------------------------------
# non-planarity: a full kernel
# ----------------------------------------------------------------------
class NonPlanarityKernel:
    """Bulk verifier of :class:`~repro.core.nonplanarity_scheme.NonPlanarityScheme`.

    Phases mirror the reference verifier:

    1. *global claim* — kind valid, branch tuple of the expected size with
       distinct entries, every neighbor agreeing on (kind, branch_ids);
    2. *spanning-tree anchor* — the shared :func:`spanning_tree_accept`
       prefilter, plus root anchored at branch vertex 0 (if no node survives
       both phases the role passes are skipped entirely);
    3. *branch role* — the node owns its claimed branch identifier and every
       required partner edge of the subdivision pattern is matched by a
       neighboring branch vertex or path endpoint;
    4. *internal role* — the (low, high) pair is legal for the claimed kind
       and the predecessor/successor links chain the subdivided path.
    """

    scheme_name = NonPlanarityScheme.name
    coverage = "full"

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is NonPlanarityScheme

    def accept_vector(self, ctx: VectorContext, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        tracer = current_tracer()
        prefix = "kernel:" + self.scheme_name + "/"
        table = compile_certificates(ctx, certificates, NonPlanarityCertificate,
                                     NONPLANARITY_FIELDS)
        fallback = view_fallback(ctx, table)
        src, dst, starts = ctx.src, ctx.dst, ctx.starts
        ids = ctx.node_ids
        n = ctx.n
        rows = np.arange(n)
        columns, isnone = table.columns, table.isnone

        kind = columns["kind"]
        bcount = columns["branch_count"]
        branch = np.stack([columns[f"branch_{slot}"]
                           for slot in range(MAX_BRANCH_VERTICES)], axis=1)
        bnone = np.stack([isnone[f"branch_{slot}"]
                          for slot in range(MAX_BRANCH_VERTICES)], axis=1)
        has_role = columns["has_role"].astype(bool)
        bindex, bindex_none = columns["branch_index"], isnone["branch_index"]
        low, low_none = columns["path_low"], isnone["path_low"]
        high, high_none = columns["path_high"], isnone["path_high"]
        position, position_none = columns["position"], isnone["position"]
        prev, prev_none = columns["prev_id"], isnone["prev_id"]
        nxt, next_none = columns["next_id"], isnone["next_id"]
        st_total = columns["total"]
        st_root = columns["root_id"]

        # ---- phase 1+2: global claim and spanning-tree anchor (prefilter) --
        with tracer.span(prefix + "spanning_tree"):
            accept = spanning_tree_accept(ctx, table)
            is_k33 = kind == KIND_K33
            expected = np.where(is_k33, 6, 5)
            accept &= ((kind == KIND_K5) | is_k33) & (bcount == expected)
            distinct5 = np.ones(n, dtype=bool)
            distinct6 = np.ones(n, dtype=bool)
            for i in range(MAX_BRANCH_VERTICES):
                for j in range(i + 1, MAX_BRANCH_VERTICES):
                    differs = branch[:, i] != branch[:, j]
                    distinct6 &= differs
                    if j < 5:
                        distinct5 &= differs
            accept &= np.where(is_k33, distinct6, distinct5)
            same_claim = kind[dst] == kind[src]
            same_claim &= bcount[dst] == bcount[src]
            for slot in range(MAX_BRANCH_VERTICES):
                same_claim &= (branch[dst, slot] == branch[src, slot]) \
                    & (bnone[dst, slot] == bnone[src, slot])
            accept &= segment_all(same_claim, starts)
            # the spanning tree anchors the existence of branch vertex 0
            accept &= ~bnone[:, 0] & (st_root == branch[:, 0])
            is_root_node = ids == st_root
            accept &= ~is_root_node | (has_role & ~bindex_none & (bindex == 0))
        if not accept.any():
            return accept, fallback

        is_branch = has_role & ~bindex_none
        is_internal = has_role & bindex_none

        # ---- phase 3: branch vertices own their id and see every partner --
        with tracer.span(prefix + "branch_roles"):
            k = bindex
            k_ok = (0 <= k) & (k < bcount)
            k_clip = np.clip(k, 0, MAX_BRANCH_VERTICES - 1)
            branch_accept = k_ok & (ids == branch[rows, k_clip])
            total_edge = st_total[src]
            for s in range(4):
                # the s-th required partner of branch vertex k: for K5 the s-th
                # element of range(5) minus k; for K3,3 the s-th vertex of the
                # opposite side (slot 3 exists only for K5)
                partner = np.where(~is_k33, s + (s >= k),
                                   np.where(k < 3, 3 + s, s))
                partner_clip = np.clip(partner, 0, MAX_BRANCH_VERTICES - 1)
                partner_id = branch[rows, partner_clip]
                partner_is_high = partner > k
                pair_low = np.minimum(k, partner)
                pair_high = np.maximum(k, partner)
                found_branch = is_branch[dst] & (bindex[dst] == partner[src]) \
                    & (ids[dst] == partner_id[src])
                found_internal = is_internal[dst] \
                    & ~low_none[dst] & (low[dst] == pair_low[src]) \
                    & ~high_none[dst] & (high[dst] == pair_high[src]) \
                    & ~position_none[dst] & (1 <= position[dst]) \
                    & (position[dst] <= total_edge)
                path_end = np.where(
                    partner_is_high[src],
                    ~prev_none[dst] & (position[dst] == 1) & (prev[dst] == ids[src]),
                    ~next_none[dst] & (nxt[dst] == ids[src]))
                slot_ok = segment_any(found_branch | (found_internal & path_end), starts)
                if s == 3:
                    slot_ok |= is_k33
                branch_accept &= slot_ok

        # ---- phase 4: internal vertices chain their subdivided path -------
        with tracer.span(prefix + "internal_roles"):
            fields_ok = ~low_none & ~high_none & ~position_none \
                & ~prev_none & ~next_none
            range_ok = (0 <= low) & (low < high) & (high < bcount)
            # every (low, high) pair is legal for K5; K3,3 requires opposite sides
            pair_ok = ~is_k33 | ((low < 3) & (high >= 3))
            position_ok = (1 <= position) & (position <= st_total)
            low_clip = np.clip(low, 0, MAX_BRANCH_VERTICES - 1)
            high_clip = np.clip(high, 0, MAX_BRANCH_VERTICES - 1)
            branch_low_id = branch[rows, low_clip]
            branch_high_id = branch[rows, high_clip]
            prev_edge = ~prev_none[src] & (ids[dst] == prev[src])
            next_edge = ~next_none[src] & (ids[dst] == nxt[src])
            chain = is_internal[dst] \
                & ~low_none[dst] & (low[dst] == low[src]) \
                & ~high_none[dst] & (high[dst] == high[src]) & ~position_none[dst]
            # predecessor: the previous internal vertex, or the low branch vertex
            # exactly at position 1
            prev_is_branch = is_branch[dst] & (bindex[dst] == low[src]) \
                & (prev[src] == branch_low_id[src])
            prev_is_chain = chain & (position[dst] == position[src] - 1)
            first_position = (position == 1)[src]
            prev_ok = segment_any(
                prev_edge & np.where(first_position, prev_is_branch, prev_is_chain),
                starts)
            # successor: the next internal vertex, or the high branch vertex
            next_is_branch = is_branch[dst] & (bindex[dst] == high[src]) \
                & (nxt[src] == branch_high_id[src])
            next_is_chain = chain & (position[dst] == position[src] + 1)
            next_ok = segment_any(next_edge & (next_is_branch | next_is_chain), starts)
            internal_accept = fields_ok & range_ok & pair_ok & position_ok \
                & prev_ok & next_ok

        accept &= ~has_role | np.where(is_branch, branch_accept, internal_accept)
        return accept, fallback


# ----------------------------------------------------------------------
# planarity: a full kernel (every phase of Algorithm 2 as array passes)
# ----------------------------------------------------------------------
#: give up on the certificate-visibility join when the flattened
#: (viewer, edge certificate) pair set exceeds this multiple of the CSR size
#: — adversarial assignments can stuff one node's certificate list; the
#: kernel then degrades to its spanning-tree prefilter with wholesale
#: survivor fallback (the PR-3 contract) instead of materialising the join
_JOIN_BUDGET_FACTOR = 64

#: composite-key stride for per-viewer index lookups: a valid ``G_{T,f}``
#: index is at most ``2 * total - 1 < 2**32`` (``total`` is bounded by the
#: compiler's INT_LIMIT), so ``viewer * 2**32 + index`` is collision-free
#: inside int64 for every index that can still matter (out-of-range indices
#: are encoded as 0, which only ever collides on nodes the range conjuncts
#: already rejected)
_INDEX_ENC = 1 << 32

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


def _enc_index(values: Any) -> Any:
    """Clamp prospective ``G_{T,f}`` indices into the composite-key range."""
    return np.where((values >= 1) & (values < _INDEX_ENC), values, 0)


def _sorted_lookup(sorted_keys: Any, queries: Any) -> tuple[Any, Any]:
    """Binary-search ``queries`` in ``sorted_keys``: ``(positions, found)``.

    Positions are clamped into range so callers can gather parallel value
    arrays unconditionally; ``found`` is all-``False`` on an empty table.
    """
    if len(sorted_keys) == 0:
        zeros = np.zeros(len(queries), dtype=np.int64)
        return zeros, np.zeros(len(queries), dtype=bool)
    positions = np.minimum(np.searchsorted(sorted_keys, queries),
                           len(sorted_keys) - 1)
    return positions, sorted_keys[positions] == queries


class PlanarityKernel:
    """Full kernel of :class:`~repro.core.planarity_scheme.PlanarityScheme`.

    Every phase of Algorithm 2 runs as array passes, so both acceptance and
    rejection are final and ``fallback`` marks only views containing
    certificates without an exact array representation (plus the join-budget
    degradation below):

    1. *spanning tree* (Phase 2a) — the shared :func:`spanning_tree_accept`
       sub-check on the nested label columns, plus the 5-degeneracy cap;
    2. *collection* (Phase 1) — a (viewer, visible edge certificate) join:
       every certificate about an incident edge must resolve to a real
       neighbor, every incident edge must be covered, and all visible
       certificates for one edge must be equal (the compiler's content
       ``uids`` stand in for dataclass equality);
    3. *interval map* — the flattened ``(index, low, high)`` triples of the
       visible certificates, segment-sorted per viewer: indices in range,
       equal indices forced to equal intervals, first-of-group kept as a
       sorted per-viewer map for the later lookups
       (mirrors :func:`~repro.core.planarity_scheme.consistent_interval_map`);
    4. *DFS-mapping / Euler tour* (Phases 1b + 2b) — claimed copies and
       child spans collected per node, segment-sorted, deduplicated, and
       checked against the interleaving chain of
       :func:`~repro.core.dfs_mapping.euler_tour_locally_consistent`, with
       the root/parent ``f_min``/``f_max`` anchors;
    5. *Algorithm 1 simulation* (Phases 1c + 3) — chords grouped per copy by
       a second segmented sort; the path/virtual neighbors enter through the
       ``c ± 1`` encoding (the virtual vertex 0 *is* ``c - 1`` at the first
       copy, ``total + 1`` *is* ``c + 1`` at the last), and every conjunct of
       :func:`~repro.core.planarity_scheme.simulate_algorithm1` /
       :func:`~repro.core.po_scheme.algorithm1_check` becomes one boolean
       array over the copy or chord domain.

    When the visibility join would exceed its size budget the kernel
    degrades to the PR-3 prefilter contract for that call: the spanning-tree
    conjuncts stay final and every survivor is flagged for per-node fallback.
    """

    scheme_name = PlanarityScheme.name
    #: normal-mode granularity (see the degradation note in the docstring)
    coverage = "full"
    #: small batched chunks: the visibility join materialises ~deg² pairs
    #: per node across a dozen parallel arrays, so concatenated batches much
    #: past this fall out of the last-level cache and lose more to memory
    #: stalls than they save in per-call dispatch
    batch_node_budget = 18_000

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is PlanarityScheme

    def accept_vector(self, ctx: VectorContext, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        table = compile_certificates(ctx, certificates, PlanarityCertificate,
                                     PLANARITY_FIELDS)
        src, dst, starts = ctx.src, ctx.dst, ctx.starts
        ids = ctx.node_ids
        n = ctx.n
        m = len(dst)
        present = table.present
        parent = table.columns["parent_id"]
        parent_none = table.isnone["parent_id"]
        fallback = view_fallback(ctx, table)

        tracer = current_tracer()
        prefix = "kernel:" + self.scheme_name + "/"
        # ---- phase 1: spanning tree (Phase 2a) ----------------------------
        with tracer.span(prefix + "spanning_tree"):
            accept = spanning_tree_accept(ctx, table)
        if not accept.any():
            # the common adversarial case (forged-pool attacks): every node
            # already died in the spanning-tree phase, whose decision reads
            # only the node-level columns — skip compiling the edge lists
            # entirely.  The one reference step that precedes its
            # spanning-tree check is the degeneracy-cap ``len()`` probe,
            # which raises on a certificate whose edge list is not a
            # sequence; conservatively route such holders to the fallback so
            # the exception is reproduced.
            get = certificates.get
            raisers = bytearray(n)
            for i, label in enumerate(ctx.labels):
                certificate = get(label)
                if type(certificate) is PlanarityCertificate and \
                        type(certificate.edge_certificates) is not tuple:
                    raisers[i] = True
            if any(raisers):
                fallback |= np.frombuffer(raisers, dtype=np.uint8).astype(bool)
            return accept, fallback

        edges = compile_edge_lists(ctx, certificates, PlanarityCertificate,
                                   "edge_certificates",
                                   (TreeEdgeCertificate, CotreeEdgeCertificate),
                                   EDGE_CERTIFICATE_FIELDS,
                                   sublist="intervals",
                                   sublist_fields=INTERVAL_ENTRY_FIELDS,
                                   sublist_max_len=MAX_INTERVAL_ENTRIES_PER_CERTIFICATE,
                                   assign_uids=True)
        bad = edges.unrepresentable
        fallback |= bad | segment_any(bad[dst], starts)

        # ---- the degeneracy cap -------------------------------------------
        # planar graphs are 5-degenerate; the honest prover never charges
        # more certificates to a node, and the verifier enforces it
        accept &= edges.counts <= MAX_EDGE_CERTIFICATES_PER_NODE

        with tracer.span(prefix + "visibility_join") as sp:
            join = self._visible_pairs(ctx, edges)
            if sp:
                sp.set(over_budget=join is None,
                       pairs=0 if join is None else int(len(join[0])))
        if join is None:
            # join budget exceeded: degrade to the prefilter contract — the
            # conjuncts so far are necessary conditions, survivors fall back
            fallback |= accept
            return accept, fallback
        viewer, entry = join

        # ---- phase 2: collection — keys, coverage, conflicts (Phase 1) ----
        with tracer.span(prefix + "collection"):
            id_a_all = edges.columns["id_a"][entry]
            id_b_all = edges.columns["id_b"][entry]
            incident = (id_a_all == ids[viewer]) | (id_b_all == ids[viewer])
            # only incident pairs enter the reference's collection (the rest
            # are skipped with ``continue``), and they are the minority of the
            # visibility join — filter before the binary-search resolutions
            inc = incident.nonzero()[0]
            iv, ie = viewer[inc], entry[inc]
            id_a, id_b = id_a_all[inc], id_b_all[inc]
            viewer_id = ids[iv]
            # identifiers are distinct and below 2**62, so the endpoint sum
            # recovers "the other endpoint" without overflow
            other_id = id_a + id_b - viewer_id
            proper = other_id != viewer_id

            # resolve the other endpoint to a node index, then to the directed
            # CSR edge (viewer, other); certificates whose collection key is
            # not a genuine neighbor make the reference coverage check fail,
            # so a resolution miss rejects the viewer.  resolve_ids is
            # network-local on a BatchedContext, which is all that keeps this
            # phase (and every composite-key phase below, already keyed by
            # global node index) batch-correct.
            other, id_found = ctx.resolve_ids(iv, other_id)
            resolved = proper & id_found
            edge_order, sorted_keys = ctx.edge_index()
            position, edge_found = _sorted_lookup(sorted_keys, iv * n + other)
            adjacent = resolved & edge_found
            edge_at = edge_order[position]

            accept &= ~scatter_any(~adjacent, iv, n)
            keep = adjacent
            pv, pe, pj = iv[keep], ie[keep], edge_at[keep]
            covered = scatter_any(np.ones(len(pj), dtype=bool), pj, m)
            # representative entry per covered directed edge, and the conflict
            # check against it: the content uids of all visible matches must
            # agree (uid equality is dataclass equality)
            rep = np.zeros(m, dtype=np.int64)
            rep[pj] = pe
            uid = edges.uids
            conflict = scatter_any(uid[pe] != uid[rep[pj]], pj, m)
            accept &= segment_all(covered & ~conflict, starts)
        if not accept.any():
            return accept, fallback
        with tracer.span(prefix + "collection"):
            ew_tree = edges.columns["is_tree"][rep].astype(bool)
            ew_ida = edges.columns["id_a"][rep]
            ew_xa = edges.columns["idx_a"][rep]
            ew_xb = edges.columns["idx_b"][rep]
            vid, oid = ids[src], ids[dst]

            # ---- phase 3: kind/orientation against the tree labels (1b) ---
            need_parent = ~parent_none[src] & (oid == parent[src])
            need_child = present[dst] & ~parent_none[dst] \
                & (parent[dst] == ids[src])
            parent_form = ew_tree & (ew_ida == oid)
            child_form = ew_tree & (ew_ida == vid)
            edge_ok = covered & ~conflict & np.where(
                need_parent, parent_form,
                np.where(need_child, child_form, ~ew_tree))
            # a neighbor that is both my claimed parent and claims me as
            # parent can never be covered consistently (the reference's
            # child-span coverage check): the parent branch wins and the
            # child set mismatches
            accept &= segment_all(edge_ok & ~(need_parent & need_child), starts)

        total = table.columns["total"]
        n_path = 2 * total - 1

        # ---- phase 4: interval-map range, consistency, and lookup table ---
        with tracer.span(prefix + "interval_map"):
            sub = edges.sub
            t_count = sub.counts[pe]
            t_viewer = np.repeat(pv, t_count)
            t_slot = _concat_ranges(sub.offsets[pe], t_count)
            t_index = sub.columns["index"][t_slot]
            t_low = sub.columns["low"][t_slot]
            t_high = sub.columns["high"][t_slot]
            accept &= ~scatter_any((t_index < 1) | (t_index > n_path[t_viewer]),
                                   t_viewer, n)
            # consistency: sort by the (viewer, index) key alone and compare
            # every triple against the first of its group — one single-key
            # argsort instead of a three-key lexsort, same rejections
            t_key = t_viewer * _INDEX_ENC + _enc_index(t_index)
            t_order = np.argsort(t_key, kind="stable")
            key_s = t_key[t_order]
            low_s, high_s = t_low[t_order], t_high[t_order]
            group_first = np.ones(len(key_s), dtype=bool)
            group_first[1:] = key_s[1:] != key_s[:-1]
            positions = np.arange(len(key_s), dtype=np.int64)
            first_of_group = np.maximum.accumulate(
                np.where(group_first, positions, 0))
            mismatch = (low_s != low_s[first_of_group]) \
                | (high_s != high_s[first_of_group])
            accept &= ~scatter_any(mismatch, t_viewer[t_order], n)
            map_keys = key_s[group_first]
            map_low = low_s[group_first]
            map_high = high_s[group_first]

        def interval_lookup(q_viewer: Any, q_index: Any) -> tuple[Any, Any, Any]:
            """``(found, low, high)`` of the per-viewer interval map."""
            valid = (q_index >= 1) & (q_index < _INDEX_ENC)
            positions, found = _sorted_lookup(
                map_keys, q_viewer * _INDEX_ENC + np.where(valid, q_index, 0))
            if len(map_keys) == 0:
                return found, positions, positions.copy()
            return valid & found, map_low[positions], map_high[positions]

        # ---- phase 5: claimed copies and the Euler-tour chain (1b + 2b) ---
        with tracer.span(prefix + "euler_tour"):
            tree_e = need_parent | need_child
            copy_a = np.where(need_parent, ew_xa + 1, ew_xa)
            copy_b = np.where(need_parent, ew_xb, ew_xb + 1)
            item_node = np.concatenate([src[tree_e], src[tree_e]])
            item_val = np.concatenate([copy_a[tree_e], copy_b[tree_e]])
            accept &= ~scatter_any(
                (item_val < 1) | (item_val > n_path[item_node]), item_node, n)
            # sort + dedup on the composite (node, encoded value) key:
            # encoding equals the raw value everywhere the range conjunct
            # above holds, and nodes where it does not are already rejected,
            # so the encoded copy values feed every later phase unchanged
            item_key = item_node * _INDEX_ENC + _enc_index(item_val)
            item_order = np.argsort(item_key, kind="stable")
            ik_s = item_key[item_order]
            unique_first = np.ones(len(ik_s), dtype=bool)
            unique_first[1:] = ik_s[1:] != ik_s[:-1]
            u_key = ik_s[unique_first]
            u_node, u_val = u_key // _INDEX_ENC, u_key % _INDEX_ENC
            u_counts = np.bincount(u_node, minlength=n)
            u_offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(u_counts, out=u_offsets[1:])
            has_copies = u_counts > 0
            accept &= has_copies  # euler_tour_locally_consistent, empty set
            f_min = np.zeros(n, dtype=np.int64)
            f_max = np.zeros(n, dtype=np.int64)
            f_min[has_copies] = u_val[u_offsets[:-1][has_copies]]
            f_max[has_copies] = u_val[u_offsets[1:][has_copies] - 1]

            # the Euler-tour chain: child spans sorted by start must
            # interleave the sorted unique copies exactly
            # (euler_tour_locally_consistent)
            span_e = need_child & ~need_parent
            sp_node = src[span_e]
            sp_min = ew_xa[span_e] + 1
            sp_max = ew_xb[span_e]
            accept &= ~scatter_any(sp_min > sp_max, sp_node, n)
            accept &= u_counts == np.bincount(sp_node, minlength=n) + 1
            span_order = np.argsort(sp_node * _INDEX_ENC + _enc_index(sp_min),
                                    kind="stable")
            sn_s = sp_node[span_order]
            smin_s, smax_s = sp_min[span_order], sp_max[span_order]
            partner = u_offsets[:-1][sn_s] + segment_rank(sn_s) + 1
            partner = np.minimum(partner, max(len(u_val) - 1, 0))
            chain_ok = (smax_s + 1 == u_val[partner]) \
                & (smin_s == u_val[partner - 1] + 1)
            accept &= ~scatter_any(~chain_ok, sn_s, n)
            # root / parent anchors on f_min and f_max
            p_xa = np.zeros(n, dtype=np.int64)
            p_xb = np.zeros(n, dtype=np.int64)
            p_xa[src[need_parent]] = ew_xa[need_parent]
            p_xb[src[need_parent]] = ew_xb[need_parent]
            accept &= np.where(parent_none,
                               (f_min == 1) & (f_max == n_path),
                               (f_min == p_xa + 1) & (f_max == p_xb))
        if not accept.any():
            return accept, fallback

        # ---- phase 6: chords onto copies (Phase 1c) -----------------------
        with tracer.span(prefix + "chords"):
            chord_e = covered & ~ew_tree
            my_copy = np.where(ew_ida == vid, ew_xa, ew_xb)
            other_copy = np.where(ew_ida == vid, ew_xb, ew_xa)
            ch_node = src[chord_e]
            ch_c = my_copy[chord_e]
            ch_x = other_copy[chord_e]
            accept &= ~scatter_any((ch_x < 1) | (ch_x > n_path[ch_node]),
                                   ch_node, n)
            # my_copy must be one of my claimed copies; resolve it to its
            # slot in the unique-copy domain (u_key is already the sorted
            # composite key, so positions are slots) for the per-copy
            # grouping below
            u_pos, u_found = _sorted_lookup(
                u_key, ch_node * _INDEX_ENC + _enc_index(ch_c))
            member = u_found & (ch_c >= 1) & (ch_c < _INDEX_ENC)
            accept &= ~scatter_any(~member, ch_node, n)
            # only member chords proceed: a garbage slot must not leak a
            # chord onto another node's copy
            ch_slot = u_pos[member]
            ch_x = ch_x[member]

        # ---- phase 7: Algorithm 1 at every copy (Phase 3) -----------------
        with tracer.span(prefix + "algorithm1"):
            cp_v, cp_c = u_node, u_val
            cp_np = n_path[cp_v]
            own_found, cp_a, cp_b = interval_lookup(cp_v, cp_c)
            bad_cp = ~own_found
            bad_cp |= ~((cp_a < cp_c) & (cp_c < cp_b))
            down_found, na_dn, nb_dn = interval_lookup(cp_v, cp_c - 1)
            up_found, na_up, nb_up = interval_lookup(cp_v, cp_c + 1)
            bad_cp |= (cp_c - 1 >= 1) & ~down_found
            bad_cp |= (cp_c + 1 <= cp_np) & ~up_found
            # every neighbor lies inside [a, b]; the virtual vertices 0 and
            # total + 1 are exactly c - 1 at the first copy and c + 1 at the last
            bad_cp |= ~((cp_a <= cp_c - 1) & (cp_c + 1 <= cp_b))

            # per-copy chord blocks via a segmented sort by (slot, target)
            chord_order = np.argsort(ch_slot * _INDEX_ENC + _enc_index(ch_x),
                                     kind="stable")
            cs_s = ch_slot[chord_order]
            x_s = ch_x[chord_order]
            cc_s = u_val[cs_s]
            node_s = u_node[cs_s]
            a_s, b_s = cp_a[cs_s], cp_b[cs_s]
            n_copies = len(u_val)
            x_found, na_x, nb_x = interval_lookup(node_s, x_s)
            bad_ch = ~x_found
            bad_ch |= (x_s == cc_s) | (x_s == cc_s - 1) | (x_s == cc_s + 1)
            bad_ch |= ~((a_s <= x_s) & (x_s <= b_s))
            # duplicates and the consecutive-neighbor interval chains (lines 6-9)
            same_slot = cs_s[1:] == cs_s[:-1]
            bad_ch[1:] |= same_slot & (x_s[1:] == x_s[:-1])
            pair_above = same_slot & (x_s[:-1] > cc_s[:-1])
            above_ok = (na_x[:-1] == cc_s[:-1]) & (nb_x[:-1] == x_s[1:])
            pair_below = same_slot & (x_s[1:] < cc_s[1:])
            below_ok = (na_x[1:] == x_s[:-1]) & (nb_x[1:] == cc_s[1:])
            bad_ch[1:] |= (pair_above & ~above_ok) | (pair_below & ~below_ok)

            # extreme chords per copy (for lines 6-13)
            above = x_s > cc_s
            below = x_s < cc_s
            exists_above = np.zeros(n_copies, dtype=bool)
            exists_above[cs_s[above]] = True
            exists_below = np.zeros(n_copies, dtype=bool)
            exists_below[cs_s[below]] = True
            min_above = np.full(n_copies, _INT64_MAX, dtype=np.int64)
            np.minimum.at(min_above, cs_s[above], x_s[above])
            max_above = np.full(n_copies, _INT64_MIN, dtype=np.int64)
            np.maximum.at(max_above, cs_s[above], x_s[above])
            min_below = np.full(n_copies, _INT64_MAX, dtype=np.int64)
            np.minimum.at(min_below, cs_s[below], x_s[below])
            max_below = np.full(n_copies, _INT64_MIN, dtype=np.int64)
            np.maximum.at(max_below, cs_s[below], x_s[below])

            # lines 6-7 / 8-9 head links: the path neighbor bounds the nearest
            # chord on each side
            bad_cp |= exists_above & ~((na_up == cp_c) & (nb_up == min_above))
            bad_cp |= exists_below & ~((na_dn == max_below) & (nb_dn == cp_c))
            # lines 10-11: the largest neighbor, when strictly inside [a, b],
            # shares I(x); the largest is the topmost chord, else c + 1 (which is
            # the virtual total + 1 — interval None, hence an outright reject —
            # exactly at the last copy)
            _, na_top, nb_top = interval_lookup(cp_v, max_above)
            bad_cp |= exists_above & (max_above < cp_b) \
                & ~((na_top == cp_a) & (nb_top == cp_b))
            virtual_up = cp_c == cp_np
            bad_cp |= ~exists_above & (cp_c + 1 < cp_b) \
                & (virtual_up | ~((na_up == cp_a) & (nb_up == cp_b)))
            # lines 12-13: symmetric for the smallest neighbor (virtual 0 at the
            # first copy)
            _, na_bot, nb_bot = interval_lookup(cp_v, min_below)
            bad_cp |= exists_below & (min_below > cp_a) \
                & ~((na_bot == cp_a) & (nb_bot == cp_b))
            virtual_dn = cp_c == 1
            bad_cp |= ~exists_below & (cp_c - 1 > cp_a) \
                & (virtual_dn | ~((na_dn == cp_a) & (nb_dn == cp_b)))

            # lines 14-17: neighbors whose interval is delimited by the copy must
            # point at another neighbor and be strictly contained in I(x)
            chord_member_keys = np.sort(cs_s * _INDEX_ENC + _enc_index(x_s))

            def neighbor_member(slots: Any, copies: Any, others: Any) -> Any:
                """Is ``others`` in the copy's neighbor set (path, virtual, chord)?"""
                on_path = (others == copies - 1) | (others == copies + 1)
                valid = (others >= 1) & (others < _INDEX_ENC)
                _, found = _sorted_lookup(
                    chord_member_keys,
                    slots * _INDEX_ENC + np.where(valid, others, 0))
                return on_path | (valid & found)

            copy_slots = np.arange(n_copies, dtype=np.int64)
            for applicable, na_r, nb_r in (
                    ((cp_c - 1 >= 1) & down_found, na_dn, nb_dn),
                    ((cp_c + 1 <= cp_np) & up_found, na_up, nb_up)):
                delimited = applicable & ((na_r == cp_c) | (nb_r == cp_c))
                partner_r = np.where(na_r == cp_c, nb_r, na_r)
                contained = neighbor_member(copy_slots, cp_c, partner_r) \
                    & (cp_a <= na_r) & (nb_r <= cp_b) \
                    & ~((na_r == cp_a) & (nb_r == cp_b))
                bad_cp |= delimited & ~contained
            delimited = x_found & ((na_x == cc_s) | (nb_x == cc_s))
            partner_x = np.where(na_x == cc_s, nb_x, na_x)
            contained = neighbor_member(cs_s, cc_s, partner_x) \
                & (a_s <= na_x) & (nb_x <= b_s) & ~((na_x == a_s) & (nb_x == b_s))
            bad_ch |= delimited & ~contained

            accept &= ~scatter_any(bad_cp, cp_v, n)
            accept &= ~scatter_any(bad_ch, node_s, n)
        return accept, fallback

    @staticmethod
    def _visible_pairs(ctx: VectorContext, edges: Any):
        """The (viewer, entry) visibility join, or ``None`` over budget.

        Every edge-certificate entry is visible at its holder and at each of
        the holder's neighbors — exactly the certificates the reference
        verifier's collection phase walks at one node.
        """
        n = ctx.n
        counts = edges.counts
        entries_total = int(counts.sum())
        if entries_total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        holder = np.repeat(np.arange(n), counts)
        pair_sizes = ctx.degrees[holder] + 1
        if int(pair_sizes.sum()) > _JOIN_BUDGET_FACTOR * (len(ctx.dst) + n):
            return None
        per_edge = counts[ctx.dst]
        viewer = np.concatenate([holder, np.repeat(ctx.src, per_edge)])
        entry = np.concatenate([np.arange(entries_total),
                                _concat_ranges(edges.offsets[ctx.dst], per_edge)])
        return viewer, entry


def _concat_ranges(starts: Any, lengths: Any) -> Any:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` blocks."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonzero = lengths > 0
    starts = starts[nonzero]
    lengths = lengths[nonzero]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    block_ends = np.cumsum(lengths)[:-1]
    out[block_ends] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)
