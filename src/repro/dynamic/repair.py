"""Honest-prover certificate repair after edge events.

A proof-labeling certificate assignment is a *global* artifact: the paper's
prover computes it from a whole-graph embedding.  But the certificates are
*locally structured* — spanning-tree labels are (parent, distance, subtree
counter) tuples and the planarity edge certificates are per-edge records over
a fixed tour — so most single-edge events admit a local repair: update the
handful of labels the event invalidates and leave everything else untouched.

Each repairer returns a :class:`RepairResult` carrying the repaired
assignment, the exact set of nodes whose certificate object changed, and two
honesty flags:

* ``fallback`` — the local repair cascaded (or the event shape was not
  repairable) and the prover re-proved from scratch.  Counted by the caller
  under the ``repair_fallbacks`` metric; the benchmark commits it, so a
  repairer must never silently re-prove without setting it.
* ``member`` — whether the mutated graph is still in the scheme's class.
  Non-member graphs keep their now-stale certificates unchanged (there is no
  honest certificate to repair *to*), which is exactly what makes the
  incremental audit alarm: the verifier rejects at the event's neighbourhood.

**Validate-then-commit.**  The planarity repairs are sound because decisions
are radius-1 local: an edge event plus a repair only changes the local views
of the event endpoints, the holder of the touched edge certificate, and the
holder's neighbours.  Every other node provably keeps its previous (accept)
decision, so re-running the reference verifier on just that dirty set decides
global acceptance — if the dirty set accepts a candidate repair, *every* node
accepts, and the scheme's soundness theorem certifies the mutated graph.  A
candidate that fails validation is discarded and the repairer falls back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.building_blocks import SpanningTreeLabel, TreeScheme
from repro.core.path_outerplanar import compute_covering_intervals
from repro.core.planarity_scheme import (CotreeEdgeCertificate,
                                         PlanarityCertificate,
                                         PlanarityScheme,
                                         TreeEdgeCertificate)
from repro.distributed.views import assemble_view, structure_at
from repro.exceptions import NotInClassError
from repro.graphs.graph import GraphDelta, Node
from repro.observability.tracer import current as current_tracer

__all__ = ["RepairResult", "SpanningTreeRepairer", "PlanarityRepairer",
           "repairer_for"]

#: a local repair touching more nodes than this fraction of the graph is a
#: cascade: the bookkeeping approaches full-re-prove cost, so the repairer
#: stops and re-proves honestly instead (counted).  The absolute floor keeps
#: tiny graphs repairable at all.
CASCADE_FRACTION = 0.5
CASCADE_FLOOR = 64

#: candidate (copy_u, copy_v, holder) triples a planarity edge-addition
#: repair tries before giving up; each attempt costs a dirty-set validation
MAX_ADDITION_CANDIDATES = 24


@dataclass
class RepairResult:
    """Outcome of one repair attempt (see module docstring for the flags)."""

    certificates: dict[Node, Any]
    changed: set[Node] = field(default_factory=set)
    fallback: bool = False
    member: bool = True
    reason: str | None = None


def _net_effect(deltas: Iterable[GraphDelta]):
    """Collapse a delta batch to net (added, removed) edge sets.

    Returns ``None`` when the batch contains node operations — those change
    the network's identifier cover and are out of repair scope (the caller
    rebuilds the world).  Edges are keyed order-independently.
    """
    added: set[frozenset] = set()
    removed: set[frozenset] = set()
    for delta in deltas:
        if not delta.is_edge_op:
            return None
        key = frozenset((delta.u, delta.v))
        if delta.op == "add_edge":
            if key in removed:
                removed.discard(key)
            else:
                added.add(key)
        else:
            if key in added:
                added.discard(key)
            else:
                removed.add(key)
    return added, removed


def _cascade_limit(n: int) -> int:
    return max(CASCADE_FLOOR, int(n * CASCADE_FRACTION))


def _validate(scheme: Any, network: Any, certificates: dict[Node, Any],
              nodes: Iterable[Node]) -> bool:
    """Reference-verify ``nodes`` under ``certificates``."""
    verify = scheme.verify
    for node in set(nodes):
        view = assemble_view(structure_at(network, node), certificates)
        if not verify(view):
            return False
    return True


class SpanningTreeRepairer:
    """Repair ``tree-pls`` spanning-tree labels after an edge swap.

    The only repairable event shape on the class of trees is the *swap*
    ``remove {u, v}, add {x, y}`` that yields a tree again: the detached
    subtree is re-rooted at its new attachment point, which flips the parent
    pointers along one tree path, re-derives the subtree's distances by a
    BFS bounded to the subtree, and adjusts the subtree counters along the
    two root chains — all O(subtree + depth), no global pass.  A lone
    addition (cycle) or removal (disconnection) leaves the class: stale
    certificates are kept and the verifier alarms at the event.
    """

    def __init__(self, scheme: TreeScheme) -> None:
        self.scheme = scheme

    def repair(self, network: Any, certificates: dict[Node, Any],
               deltas: Iterable[GraphDelta]) -> RepairResult:
        with current_tracer().span("repair") as sp:
            result = self._repair(network, certificates, deltas)
            if sp:
                sp.set(scheme=self.scheme.name, changed=len(result.changed),
                       fallback=result.fallback, member=result.member,
                       reason=result.reason or "")
            return result

    def _repair(self, network: Any, certificates: dict[Node, Any],
                deltas: Iterable[GraphDelta] | None) -> RepairResult:
        if deltas is None:  # journal truncated past the caller's version
            return self._full(network, certificates, "journal_truncated")
        net = _net_effect(deltas)
        if net is None:
            return self._full(network, certificates, "node_ops")
        added, removed = net
        if not added and not removed:
            return RepairResult(certificates)
        if len(added) == 1 and len(removed) == 1:
            return self._swap(network, certificates,
                              tuple(next(iter(removed))),
                              tuple(next(iter(added))))
        if len(added) + len(removed) == 1:
            return self._lone(network, certificates,
                              tuple(next(iter(added or removed))),
                              bool(added))
        return self._full(network, certificates, "multi_edge_batch")

    # ------------------------------------------------------------------
    def _full(self, network: Any, certificates: dict[Node, Any],
              reason: str) -> RepairResult:
        """Honest full re-prove (the counted cascade/fallback path)."""
        graph = network.graph
        if not self.scheme.is_member(graph):
            return RepairResult(certificates, member=False, reason=reason)
        fresh = self.scheme.prove(network)
        changed = {node for node, label in fresh.items()
                   if certificates.get(node) != label}
        return RepairResult(fresh, changed=changed, fallback=True,
                            reason=reason)

    def _lone(self, network: Any, certificates: dict[Node, Any],
              edge: tuple[Node, Node], is_addition: bool) -> RepairResult:
        """A single addition or removal, no counterpart in the batch.

        On a *valid* tree either event leaves the class (cycle /
        disconnection): stale certificates are kept so the endpoints alarm.
        But churn workloads bounce: the event may be undoing an earlier one
        (re-adding the removed tree edge, or removing an extra edge), in
        which case the old labels are exactly right again — detected by the
        labels' own parent claims and confirmed by dirty-set validation
        before committing.
        """
        u, v = edge
        cert_u = certificates.get(u)
        cert_v = certificates.get(v)
        if not isinstance(cert_u, SpanningTreeLabel) or \
                not isinstance(cert_v, SpanningTreeLabel):
            return self._full(network, certificates, "foreign_certificates")
        claimed = (cert_u.parent_id == network.id_of(v)
                   or cert_v.parent_id == network.id_of(u))
        # addition of a claimed tree edge, or removal of an unclaimed edge,
        # restores the certified tree; the other two shapes leave the class
        if claimed == is_addition and _validate(self.scheme, network,
                                                certificates, edge):
            return RepairResult(certificates)
        return self._full(network, certificates, "lone_edge_event")

    def _swap(self, network: Any, certificates: dict[Node, Any],
              removed: tuple[Node, Node], added: tuple[Node, Node]) -> RepairResult:
        graph = network.graph
        id_of = network.id_of
        u, v = removed
        cert_u = certificates.get(u)
        cert_v = certificates.get(v)
        if not isinstance(cert_u, SpanningTreeLabel) or \
                not isinstance(cert_v, SpanningTreeLabel):
            return self._full(network, certificates, "foreign_certificates")
        if cert_u.parent_id == id_of(v):
            child_side = u
        elif cert_v.parent_id == id_of(u):
            child_side = v
        else:
            return self._full(network, certificates, "inconsistent_parents")

        # the detached subtree: component of child_side in the mutated graph
        # *without* crossing the added edge (the mutated graph is old-tree
        # minus the removed edge plus the added edge, so this reproduces the
        # old subtree exactly), bounded by the cascade limit
        limit = _cascade_limit(len(graph._adj))
        x, y = added
        adj = graph._adj
        subtree = {child_side}
        stack = [child_side]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if {node, nb} == {x, y} or nb in subtree:
                    continue
                subtree.add(nb)
                if len(subtree) > limit:
                    return self._full(network, certificates, "cascade")
                stack.append(nb)

        x_in, y_in = x in subtree, y in subtree
        if x_in == y_in:
            # both endpoints on one side: the graph is disconnected (and the
            # subtree side additionally carries a cycle) — not a tree
            return RepairResult(certificates, member=False, reason="not_a_tree")
        inner, outer = (x, y) if x_in else (y, x)
        outer_cert = certificates.get(outer)
        if not isinstance(outer_cert, SpanningTreeLabel):
            return self._full(network, certificates, "foreign_certificates")

        size = cert_u.subtree_size if child_side is u else cert_v.subtree_size
        node_of = network.node_of

        # 1. parent flips along the old path inner -> child_side
        new_parent: dict[Node, Node] = {inner: outer}
        flip_path = [inner]
        walker = inner
        while walker is not child_side:
            parent_id = certificates[walker].parent_id
            if parent_id is None:
                return self._full(network, certificates, "inconsistent_parents")
            parent = node_of(parent_id)
            if parent not in subtree or parent in new_parent:
                return self._full(network, certificates, "inconsistent_parents")
            new_parent[parent] = walker
            flip_path.append(parent)
            walker = parent

        # 2. distances: BFS from inner inside the subtree
        new_distance = {inner: outer_cert.distance + 1}
        queue = [inner]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            next_distance = new_distance[node] + 1
            for nb in adj[node]:
                if nb in subtree and nb not in new_distance:
                    new_distance[nb] = next_distance
                    queue.append(nb)
        if len(new_distance) != len(subtree):
            return RepairResult(certificates, member=False, reason="not_a_tree")

        # 3. subtree counters: re-rooting identity along the flipped path
        # (new_size(p_i) = subtree_total - old_size(p_{i-1})), plus the two
        # ancestor chains outside the subtree shift by ±subtree_total
        new_size: dict[Node, int] = {inner: size}
        for prev, node in zip(flip_path, flip_path[1:]):
            new_size[node] = size - certificates[prev].subtree_size
        size_shift: dict[Node, int] = {}
        chain_budget = limit
        for start, shift in ((u if child_side is v else v, -size),
                             (outer, size)):
            walker: Node | None = start
            while walker is not None:
                size_shift[walker] = size_shift.get(walker, 0) + shift
                parent_id = certificates[walker].parent_id
                walker = None if parent_id is None else node_of(parent_id)
                chain_budget -= 1
                if chain_budget < 0:
                    return self._full(network, certificates, "cascade")

        # 4. assemble replacement labels, keeping identical objects identical
        repaired = dict(certificates)
        changed: set[Node] = set()
        touched = set(subtree)
        touched.update(node for node, shift in size_shift.items() if shift)
        for node in touched:
            old = certificates[node]
            if node in subtree:
                parent = new_parent.get(node)
                parent_id = old.parent_id if parent is None else id_of(parent)
                label = SpanningTreeLabel(
                    total=old.total, root_id=old.root_id, parent_id=parent_id,
                    distance=new_distance[node],
                    subtree_size=new_size.get(node, old.subtree_size))
            else:
                label = SpanningTreeLabel(
                    total=old.total, root_id=old.root_id,
                    parent_id=old.parent_id, distance=old.distance,
                    subtree_size=old.subtree_size + size_shift[node])
            if label != old:
                repaired[node] = label
                changed.add(node)
        return RepairResult(repaired, changed=changed)


class _TourState:
    """The planar-cut decomposition recovered from a planarity assignment.

    The prover's certificates flatten exactly one decomposition: an Euler
    tour of length ``n_path = 2n - 1`` (the copies), a laminar chord family
    with one chord per cotree edge, and the Lemma 2 interval map ``I(x)`` —
    which :func:`~repro.core.path_outerplanar.compute_covering_intervals`
    derives from ``(n_path, chords)`` alone.  Holding these explicitly is
    what makes edge events cheap: an event adds or removes one chord, the
    interval map is re-derived with one linear sweep, and only certificates
    that *mention* a shifted index are rewritten — no new embedding, no new
    tour.  The state is recovered by one full scan of the assignment and
    then maintained incrementally across committed repairs.
    """

    __slots__ = ("n_path", "cert_of", "holders_of", "chords", "intervals",
                 "mentions")

    def __init__(self, n_path: int) -> None:
        self.n_path = n_path
        #: edge key (frozenset of the two endpoint identifiers) -> certificate
        self.cert_of: dict[frozenset, Any] = {}
        #: edge key -> node(s) holding its certificate
        self.holders_of: dict[frozenset, tuple[Node, ...]] = {}
        #: the chord of every cotree edge, as a sorted index pair
        self.chords: set[tuple[int, int]] = set()
        #: current ``I(x)`` for every ``x`` in ``1..n_path``
        self.intervals: dict[int, tuple[int, int]] = {}
        #: index -> edge keys whose certificate mentions it
        self.mentions: dict[int, set[frozenset]] = {}

    @classmethod
    def from_certificates(cls, network: Any,
                          certificates: dict[Node, Any]) -> "_TourState | None":
        """Recover the decomposition, or ``None`` when the assignment is not
        one coherent honest-prover flattening (conflicting duplicates, a
        foreign certificate, or interval entries that disagree with the
        chord family — all cases where only a full re-prove is honest)."""
        state = cls(2 * network.size - 1)
        cert_of, holders_of = state.cert_of, state.holders_of
        for node in network.nodes():
            certificate = certificates.get(node)
            if type(certificate) is not PlanarityCertificate:
                return None
            for ec in certificate.edge_certificates:
                key = ec.endpoint_ids()
                existing = cert_of.get(key)
                if existing is None:
                    cert_of[key] = ec
                    holders_of[key] = (node,)
                elif existing == ec:
                    holders_of[key] += (node,)
                else:
                    return None
        mentions = state.mentions
        for key, ec in cert_of.items():
            for index in ec.mentioned_indices():
                mentions.setdefault(index, set()).add(key)
            if not ec.is_tree_edge:
                chord = (min(ec.copy_a, ec.copy_b), max(ec.copy_a, ec.copy_b))
                if chord in state.chords:
                    return None
                state.chords.add(chord)
        state.intervals = compute_covering_intervals(
            state.n_path, list(state.chords), assume_laminar=True)
        # the stored interval entries must agree with the recomputed map,
        # otherwise the untouched certificates would contradict any rewrite
        intervals = state.intervals
        for ec in cert_of.values():
            for index, low, high in ec.intervals:
                if intervals.get(index) != (low, high):
                    return None
        return state

    def shifted_keys(self, new_intervals: dict[int, tuple[int, int]],
                     exclude: frozenset) -> set[frozenset]:
        """Edge keys whose certificate mentions an index whose ``I`` shifted."""
        old = self.intervals
        return {key
                for index, keys in self.mentions.items()
                if new_intervals[index] != old[index]
                for key in keys if key != exclude}

    def crosses(self, chord: tuple[int, int]) -> bool:
        """Whether ``chord`` crosses the current (laminar) chord family."""
        a, b = chord
        return any(c < a < d < b or a < c < b < d for c, d in self.chords)


class PlanarityRepairer:
    """Repair ``planarity-pls`` certificates after a single edge event.

    Built on :class:`_TourState`: the spanning tree and the Euler tour are
    kept fixed, so a cotree edge event is one chord leaving or entering the
    laminar family.  The Lemma 2 interval map is re-derived by a linear
    sweep and only the certificates mentioning a shifted index are rewritten
    — additions try chord candidates between the endpoints' existing tour
    copies and commit the first one that survives dirty-set validation
    (sound by radius-1 locality: every node outside the dirty set provably
    keeps its previous view).  Events that touch the spanning tree, cross
    every candidate chord, or fail validation fall back to a full re-prove
    (counted); events that leave the class keep the stale certificates so
    the verifier alarms at the event's neighbourhood.
    """

    def __init__(self, scheme: PlanarityScheme) -> None:
        self.scheme = scheme
        self._state: _TourState | None = None
        # the assignment ``_state`` describes, held so its id() is never
        # recycled for a different dict while the state is cached
        self._committed: dict[Node, Any] | None = None

    def repair(self, network: Any, certificates: dict[Node, Any],
               deltas: Iterable[GraphDelta] | None) -> RepairResult:
        with current_tracer().span("repair") as sp:
            result = self._repair(network, certificates, deltas)
            if sp:
                sp.set(scheme=self.scheme.name, changed=len(result.changed),
                       fallback=result.fallback, member=result.member,
                       reason=result.reason or "")
            return result

    def _repair(self, network: Any, certificates: dict[Node, Any],
                deltas: Iterable[GraphDelta] | None) -> RepairResult:
        if deltas is None:  # journal truncated past the caller's version
            return self._full(network, certificates, "journal_truncated")
        net = _net_effect(deltas)
        if net is None:
            return self._full(network, certificates, "node_ops")
        added, removed = net
        if not added and not removed:
            return RepairResult(certificates)
        if len(added) + len(removed) != 1:
            return self._full(network, certificates, "multi_edge_batch")
        state = self._ensure_state(network, certificates)
        if state is None:
            return self._full(network, certificates, "unrecoverable_state")
        if removed:
            return self._remove(network, certificates, state,
                                tuple(next(iter(removed))))
        return self._add(network, certificates, state,
                         tuple(next(iter(added))))

    # ------------------------------------------------------------------
    def _ensure_state(self, network: Any,
                      certificates: dict[Node, Any]) -> _TourState | None:
        """The cached tour state, rebuilt when the assignment is unfamiliar.

        Identity of the certificates dict is the staleness signal: committed
        repairs update the state in place and hold the new dict, while a
        fallback re-prove (or a foreign caller) presents another dict and
        triggers one full O(n + m) recovery scan.
        """
        if self._state is not None and certificates is self._committed:
            return self._state
        state = _TourState.from_certificates(network, certificates)
        self._state = state
        self._committed = certificates if state is not None else None
        return state

    def _full(self, network: Any, certificates: dict[Node, Any],
              reason: str) -> RepairResult:
        self._state = None
        self._committed = None
        graph = network.graph
        if not graph.is_connected():
            return RepairResult(certificates, member=False, reason=reason)
        try:
            fresh = self.scheme.prove(network)
        except NotInClassError:
            return RepairResult(certificates, member=False, reason=reason)
        changed = {node for node, certificate in fresh.items()
                   if certificates.get(node) != certificate}
        return RepairResult(fresh, changed=changed, fallback=True,
                            reason=reason)

    def _dirty(self, network: Any, edge: tuple[Node, Node],
               holders: Iterable[Node]) -> set[Node]:
        """Nodes whose local view the event + repair can have changed."""
        graph = network.graph
        dirty = set(edge)
        for holder in holders:
            dirty.add(holder)
            dirty.update(graph._adj[holder])
        return dirty

    # ------------------------------------------------------------------
    def _rebuild_holders(self, certificates: dict[Node, Any],
                         state: _TourState,
                         replacements: dict[frozenset, Any],
                         drop_key: frozenset | None = None,
                         new_cert: Any = None,
                         new_holder: Node | None = None,
                         ) -> tuple[dict[Node, Any], set[Node]]:
        """Apply per-edge certificate replacements to their holders."""
        holders: set[Node] = set()
        for key in replacements:
            holders.update(state.holders_of[key])
        if drop_key is not None:
            holders.update(state.holders_of[drop_key])
        if new_holder is not None:
            holders.add(new_holder)
        repaired = dict(certificates)
        for holder in holders:
            certificate = repaired[holder]
            entries = []
            for ec in certificate.edge_certificates:
                key = ec.endpoint_ids()
                if key == drop_key:
                    continue
                entries.append(replacements.get(key, ec))
            if new_cert is not None and holder == new_holder:
                entries.append(new_cert)
            repaired[holder] = PlanarityCertificate(
                certificate.spanning_tree, tuple(entries))
        return repaired, holders

    def _replacements(self, state: _TourState,
                      new_intervals: dict[int, tuple[int, int]],
                      keys: set[frozenset]) -> dict[frozenset, Any]:
        """Re-issue the certificates of ``keys`` under the new interval map."""
        replacements: dict[frozenset, Any] = {}
        for key in keys:
            old = state.cert_of[key]
            entries = tuple((index, *new_intervals[index])
                            for index in sorted(set(old.mentioned_indices())))
            if old.is_tree_edge:
                replacements[key] = TreeEdgeCertificate(
                    old.parent_id, old.child_id, old.descend_index,
                    old.return_index, entries)
            else:
                replacements[key] = CotreeEdgeCertificate(
                    old.a_id, old.b_id, old.copy_a, old.copy_b, entries)
        return replacements

    def _commit(self, state: _TourState, repaired: dict[Node, Any],
                changed: set[Node],
                new_intervals: dict[int, tuple[int, int]],
                replacements: dict[frozenset, Any],
                drop_key: frozenset | None = None,
                drop_chord: tuple[int, int] | None = None,
                new_key: frozenset | None = None,
                new_cert: Any = None,
                new_holder: Node | None = None,
                new_chord: tuple[int, int] | None = None) -> RepairResult:
        """Fold a validated repair into the cached tour state."""
        state.cert_of.update(replacements)
        if drop_key is not None:
            old = state.cert_of.pop(drop_key)
            state.holders_of.pop(drop_key)
            for index in old.mentioned_indices():
                keys = state.mentions[index]
                keys.discard(drop_key)
                if not keys:
                    del state.mentions[index]
            state.chords.discard(drop_chord)
        if new_key is not None:
            state.cert_of[new_key] = new_cert
            state.holders_of[new_key] = (new_holder,)
            for index in new_cert.mentioned_indices():
                state.mentions.setdefault(index, set()).add(new_key)
            state.chords.add(new_chord)
        state.intervals = new_intervals
        self._state = state
        self._committed = repaired
        return RepairResult(repaired, changed=changed)

    # ------------------------------------------------------------------
    def _remove(self, network: Any, certificates: dict[Node, Any],
                state: _TourState, edge: tuple[Node, Node]) -> RepairResult:
        u, v = edge
        key = frozenset((network.id_of(u), network.id_of(v)))
        ec = state.cert_of.get(key)
        if ec is None:
            # no certificate covered this edge: it was never certified (the
            # assignment predates the edge, e.g. a miswired link being backed
            # out) — removing it can only restore validity, confirmed by
            # validating the endpoints' views before committing
            if _validate(self.scheme, network, certificates,
                         self._dirty(network, edge, ())):
                return RepairResult(certificates)
            return self._full(network, certificates, "uncovered_edge")
        if ec.is_tree_edge:
            # the spanning tree itself lost an edge: the whole Euler tour is
            # gone with it — that is the definition of a cascade
            return self._full(network, certificates, "tree_edge_removed")
        chord = (min(ec.copy_a, ec.copy_b), max(ec.copy_a, ec.copy_b))
        new_chords = state.chords - {chord}
        new_intervals = compute_covering_intervals(
            state.n_path, list(new_chords), assume_laminar=True)
        replacements = self._replacements(
            state, new_intervals, state.shifted_keys(new_intervals, key))
        repaired, changed = self._rebuild_holders(
            certificates, state, replacements, drop_key=key)
        if not _validate(self.scheme, network, repaired,
                         self._dirty(network, edge, changed)):
            return self._full(network, certificates, "validation_failed")
        return self._commit(state, repaired, changed, new_intervals,
                            replacements, drop_key=key, drop_chord=chord)

    def _copies_of(self, state: _TourState, node_id: int) -> list[int]:
        """The tour copies of ``node_id``, from its tree-edge certificates."""
        copies: set[int] = set()
        for key, ec in state.cert_of.items():
            if node_id not in key or not ec.is_tree_edge:
                continue
            if ec.parent_id == node_id:
                copies.add(ec.descend_index)
                copies.add(ec.return_index + 1)
            else:
                copies.add(ec.descend_index + 1)
                copies.add(ec.return_index)
        return sorted(copies)

    def _add(self, network: Any, certificates: dict[Node, Any],
             state: _TourState, edge: tuple[Node, Node]) -> RepairResult:
        u, v = edge
        u_id, v_id = network.id_of(u), network.id_of(v)
        key = frozenset((u_id, v_id))
        if key in state.cert_of:
            # the assignment already certifies this edge (a backed-out
            # removal bouncing back): nothing to rewrite if it still verifies
            if _validate(self.scheme, network, certificates,
                         self._dirty(network, edge,
                                     state.holders_of[key])):
                return RepairResult(certificates)
            return self._full(network, certificates, "stale_duplicate")
        copies_u = self._copies_of(state, u_id)
        copies_v = self._copies_of(state, v_id)
        if not copies_u or not copies_v:
            return self._full(network, certificates, "no_known_copies")
        # try the lighter-loaded endpoint first: the verifier caps the number
        # of certificates a node may hold, so the fuller endpoint is the one
        # more likely to fail validation on the cap alone
        cert_u, cert_v = certificates[u], certificates[v]
        holders = ((u, v) if len(cert_u.edge_certificates)
                   <= len(cert_v.edge_certificates) else (v, u))
        attempts = 0
        for copy_u in copies_u:
            for copy_v in copies_v:
                chord = (min(copy_u, copy_v), max(copy_u, copy_v))
                if chord[1] - chord[0] < 2 or chord in state.chords \
                        or state.crosses(chord):
                    continue
                if attempts >= MAX_ADDITION_CANDIDATES:
                    return self._full(network, certificates, "no_candidate")
                attempts += 1
                new_chords = state.chords | {chord}
                new_intervals = compute_covering_intervals(
                    state.n_path, list(new_chords), assume_laminar=True)
                candidate = CotreeEdgeCertificate(
                    a_id=u_id, b_id=v_id, copy_a=copy_u, copy_b=copy_v,
                    intervals=tuple(
                        (index, *new_intervals[index])
                        for index in sorted({copy_u, copy_v})))
                replacements = self._replacements(
                    state, new_intervals,
                    state.shifted_keys(new_intervals, key))
                for holder in holders:
                    repaired, changed = self._rebuild_holders(
                        certificates, state, replacements,
                        new_cert=candidate, new_holder=holder)
                    if _validate(self.scheme, network, repaired,
                                 self._dirty(network, edge, changed)):
                        return self._commit(
                            state, repaired, changed, new_intervals,
                            replacements, new_key=key, new_cert=candidate,
                            new_holder=holder, new_chord=chord)
        return self._full(network, certificates,
                          "no_candidate" if attempts else "no_planar_chord")


def repairer_for(scheme: Any):
    """Return the matching repairer, or ``None`` (caller re-proves per event)."""
    if isinstance(scheme, TreeScheme):
        return SpanningTreeRepairer(scheme)
    if isinstance(scheme, PlanarityScheme):
        return PlanarityRepairer(scheme)
    return None
