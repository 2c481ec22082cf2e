"""A dMAM (Merlin–Arthur–Merlin) distributed interactive proof for planarity.

This is the baseline the paper improves on: Naor, Parter, and Yogev
(SODA 2020) obtain planarity certification with ``O(log n)``-bit messages but
*three* prover/verifier interactions and a randomized verifier, by certifying
the execution of a sequential algorithm whose state consistency is verified
with algebraic fingerprints.  We reproduce that style of protocol at the
scale relevant for the comparison experiment (E5):

* **Merlin (turn 1)** commits to the same combinatorial structure used by
  Theorem 1 — spanning tree, DFS-mapping, one chord of ``G_{T,f}`` per
  cotree edge — but *without* the Lemma 2 intervals.  Instead he commits,
  for every copy ``i``, to the stack height ``sp_i`` of the sequential
  left-to-right chord scan after step ``i``.
* **Arthur (turn 2)** — every node flips a random field element; only the
  root's coins are used (a standard global-coin implementation: the prover
  relays the value and neighbors cross-check it, the root checks it against
  its own coins).
* **Merlin (turn 3)** relays the global random point ``z`` and, for the
  spanning-tree aggregation, the partial products of the two multiset
  fingerprints ``prod (z - enc(chord, push_height))`` and
  ``prod (z - enc(chord, pop_height))`` over each subtree.
* **Verification round** — each node re-runs the deterministic structural
  checks of Algorithm 2 (via
  :func:`repro.core.planarity_scheme.reconstruct_local_structure`), derives
  its own fingerprint factors, checks the prover's partial products
  bottom-up, and the root compares the two global products.

The protocol is sound because the chord scan pushes and pops every chord
exactly once, and the push height equals the pop height for *every* chord
if and only if the chord family is non-crossing (a crossing pair always
contains a chord whose heights differ); the multiset fingerprint detects a
difference except with probability ``O(m / field size)``.  This reproduces
the defining features of the dMAM baseline — three interactions, randomness,
``O(log n)``-bit messages, non-zero soundness error — against which the
deterministic one-interaction scheme of Theorem 1 is compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.dfs_mapping import cut_open
from repro.core.planarity_scheme import (
    CotreeEdgeCertificate,
    PlanarityCertificate,
    TreeEdgeCertificate,
    reconstruct_local_structure,
)
from repro.core.building_blocks import spanning_tree_labels
from repro.distributed.certificates import BitWriter, Encodable, encode_nested
from repro.distributed.interactive import FirstTurn, InteractiveProtocol
from repro.distributed.network import LocalView, Network
from repro.exceptions import NotInClassError, NotPlanarError
from repro.graphs.degeneracy import assign_edges_by_degeneracy
from repro.graphs.graph import Graph, Node, edge_key
from repro.graphs.planarity import compute_planar_embedding, is_planar

__all__ = [
    "DMAMFirstMessage",
    "DMAMSecondMessage",
    "PlanarityDMAMProtocol",
    "FIELD_PRIME",
    "chord_scan_heights",
]

#: a 61-bit Mersenne prime: field for the polynomial-identity fingerprints
FIELD_PRIME = (1 << 61) - 1


def chord_scan_heights(chords: list[tuple[int, int]],
                       path_length: int) -> tuple[dict[tuple[int, int], int],
                                                  dict[tuple[int, int], int]]:
    """Run the sequential left-to-right chord scan and return per-chord heights.

    Returns ``(push_heights, pop_heights)``: the number of open chords right
    after a chord is pushed and right before it is popped (counting itself).
    Pops are processed innermost-first and pushes outermost-first at every
    position, so for a *laminar* (non-crossing) chord family every chord has
    ``push_height == pop_height``; conversely any crossing forces a mismatch
    for at least one chord — this equivalence is what the protocol's
    fingerprints test, and it is exercised directly by the property-based
    tests.
    """
    opens_at: dict[int, list[tuple[int, int]]] = {}
    closes_at: dict[int, list[tuple[int, int]]] = {}
    normalised = [(min(a, b), max(a, b)) for a, b in chords]
    for low, high in normalised:
        opens_at.setdefault(low, []).append((low, high))
        closes_at.setdefault(high, []).append((low, high))
    push_height: dict[tuple[int, int], int] = {}
    pop_height: dict[tuple[int, int], int] = {}
    current = 0
    for position in range(1, path_length + 1):
        for chord in sorted(closes_at.get(position, []), key=lambda c: -c[0]):
            pop_height[chord] = current
            current -= 1
        for chord in sorted(opens_at.get(position, []), key=lambda c: -c[1]):
            current += 1
            push_height[chord] = current
    return push_height, pop_height


def _encode_chord_event(low: int, high: int, height: int, path_length: int,
                        prime: int = FIELD_PRIME) -> int:
    """Encoding of a (chord, stack height) pair into the field.

    Injective whenever ``prime > (path_length + 2)**2 * (path_length + 2)``
    (always true for the default 61-bit prime at every realistic size).  For
    deliberately small experiment primes the reduction can collide; the
    ``m/p`` soundness bound survives collisions as long as the two global
    event multisets stay distinct, which the cheating-prover experiments
    check exactly (see :mod:`repro.adversary.cheating`).
    """
    return ((low * (path_length + 2) + high) * (path_length + 2) + height) % prime


@dataclass(frozen=True)
class DMAMFirstMessage(Encodable):
    """Merlin's first message: the Theorem 1 structure plus the stack heights.

    ``structure`` is a :class:`PlanarityCertificate` whose interval entries
    are empty (the deterministic interval mechanism of Lemma 2 is exactly
    what this protocol replaces); ``stack_heights`` lists, for every copy
    ``i`` owned by the node, the claimed number of open chords after the
    scan has processed position ``i``.
    """

    structure: PlanarityCertificate
    stack_heights: tuple[tuple[int, int], ...]   # (copy index, height after the step)

    def encode(self, writer: BitWriter) -> None:
        encode_nested(writer, self.structure)
        writer.write_uint(len(self.stack_heights))
        for index, height in self.stack_heights:
            writer.write_uint(index)
            writer.write_uint(height)


@dataclass(frozen=True)
class DMAMSecondMessage(Encodable):
    """Merlin's second message: the relayed global coin and subtree products."""

    global_point: int
    push_product_subtree: int
    pop_product_subtree: int

    def encode(self, writer: BitWriter) -> None:
        writer.write_uint(self.global_point)
        writer.write_uint(self.push_product_subtree)
        writer.write_uint(self.pop_product_subtree)


class PlanarityDMAMProtocol(InteractiveProtocol):
    """Three-interaction randomized distributed proof for planarity (the [38] baseline)."""

    name = "planarity-dmam"
    interactions = 3
    randomized = True
    challenge_bits = 61

    def __init__(self, field_prime: int = FIELD_PRIME) -> None:
        if field_prime < 2:
            raise ValueError("field_prime must be a prime >= 2")
        #: fingerprint field size; the soundness error scales as ``m / p``,
        #: so experiments shrink it deliberately to make the error measurable
        self.field_prime = field_prime

    # ------------------------------------------------------------------
    def is_member(self, graph: Graph) -> bool:
        return is_planar(graph)

    # ------------------------------------------------------------------
    # Merlin, turn 1
    # ------------------------------------------------------------------
    def first_turn(self, network: Network) -> FirstTurn:
        """Turn 1 with its prover context (the cut-open decomposition) explicit.

        The decomposition is carried in ``FirstTurn.state`` so the second
        turn can be replayed against many challenge draws — and cached per
        ``(network, protocol)`` by the simulation engine — from the turn
        alone, whichever network the protocol instance served last.  As in
        :meth:`~repro.core.planarity_scheme.PlanarityScheme.prove`, one
        embedding both answers membership and feeds ``cut_open``.
        """
        graph = network.graph
        try:
            rotation = compute_planar_embedding(graph)
        except NotPlanarError:
            raise NotInClassError("the network is not planar") from None
        decomposition = cut_open(graph, rotation=rotation)
        messages = self.messages_from_decomposition(network, decomposition)
        return FirstTurn(messages=messages, state=decomposition)

    def messages_from_decomposition(self, network: Network,
                                    decomposition) -> dict[Node, DMAMFirstMessage]:
        """Turn-1 messages committing to an explicit cut-open decomposition.

        The honest :meth:`first_turn` passes a genuine planar decomposition;
        the cheating prover of :mod:`repro.adversary.cheating` passes a
        *pseudo*-decomposition built from an arbitrary rotation system of a
        non-planar graph, whose crossing chords only the fingerprints can
        catch.  Both commit stack heights consistent with their own chord
        family, so every deterministic structural check passes either way.
        """
        graph = network.graph
        n_path = decomposition.path_length
        chords = decomposition.chord_intervals()

        # stack height after every position of the left-to-right scan
        opens_at: dict[int, int] = {}
        closes_at: dict[int, int] = {}
        for low, high in chords:
            opens_at[low] = opens_at.get(low, 0) + 1
            closes_at[high] = closes_at.get(high, 0) + 1
        heights: dict[int, int] = {}
        current = 0
        for position in range(1, n_path + 1):
            current -= closes_at.get(position, 0)
            current += opens_at.get(position, 0)
            heights[position] = current

        # structural certificates (identical to Theorem 1, with empty intervals)
        edge_certificates: dict[tuple[Node, Node], object] = {}
        for key, image in decomposition.tree_edge_images.items():
            edge_certificates[key] = TreeEdgeCertificate(
                parent_id=network.id_of(image.parent),
                child_id=network.id_of(image.child),
                descend_index=image.descend_index,
                return_index=image.return_index,
                intervals=(),
            )
        for key, (copy_a, copy_b) in decomposition.cotree_edge_images.items():
            a, b = key
            edge_certificates[key] = CotreeEdgeCertificate(
                a_id=network.id_of(a), b_id=network.id_of(b),
                copy_a=copy_a, copy_b=copy_b, intervals=(),
            )
        assignment = assign_edges_by_degeneracy(graph)
        st_labels = spanning_tree_labels(network, decomposition.tree)

        messages: dict[Node, DMAMFirstMessage] = {}
        for node in graph.nodes():
            structure = PlanarityCertificate(
                spanning_tree=st_labels[node],
                edge_certificates=tuple(edge_certificates[edge_key(*edge)]
                                        for edge in assignment[node]),
            )
            my_heights = tuple((index, heights[index])
                               for index in decomposition.mapping.copies[node])
            messages[node] = DMAMFirstMessage(structure=structure, stack_heights=my_heights)
        return messages

    # ------------------------------------------------------------------
    # Merlin, turn 2 (after Arthur's coins)
    # ------------------------------------------------------------------
    def second_turn(self, network: Network, turn: FirstTurn,
                    challenges: dict[Node, int]) -> dict[Node, DMAMSecondMessage]:
        """Turn 2: the fingerprint products for the decomposition in ``turn.state``.

        The cheating prover of :mod:`repro.adversary.cheating` passes a turn
        whose state is its pseudo-decomposition, and gets the answers the
        bottom-up product checks force for it.
        """
        decomposition = turn.state
        prime = self.field_prime
        tree = decomposition.tree
        root = tree.root
        z = challenges[root] % prime
        n_path = decomposition.path_length

        # run the sequential chord scan to obtain every chord's push/pop height
        # (pops are processed innermost-first, pushes outermost-first, exactly
        # as the verifiers will re-derive locally)
        push_height, pop_height = chord_scan_heights(decomposition.chord_intervals(), n_path)

        push_factor: dict[Node, int] = {node: 1 for node in network.nodes()}
        pop_factor: dict[Node, int] = {node: 1 for node in network.nodes()}
        f = decomposition.mapping.f
        for copy_u, copy_v in decomposition.cotree_edge_images.values():
            low, high = min(copy_u, copy_v), max(copy_u, copy_v)
            low_owner = f[low]
            high_owner = f[high]
            push_factor[low_owner] = (
                push_factor[low_owner]
                * (z - _encode_chord_event(low, high, push_height[(low, high)],
                                           n_path, prime))
            ) % prime
            pop_factor[high_owner] = (
                pop_factor[high_owner]
                * (z - _encode_chord_event(low, high, pop_height[(low, high)],
                                           n_path, prime))
            ) % prime

        # aggregate the factors bottom-up along the spanning tree
        push_subtree = dict(push_factor)
        pop_subtree = dict(pop_factor)
        order = sorted(network.nodes(), key=tree.depth, reverse=True)
        for node in order:
            parent = tree.parent(node)
            if parent is not None:
                push_subtree[parent] = (push_subtree[parent] * push_subtree[node]) % prime
                pop_subtree[parent] = (pop_subtree[parent] * pop_subtree[node]) % prime

        return {
            node: DMAMSecondMessage(global_point=z,
                                    push_product_subtree=push_subtree[node],
                                    pop_product_subtree=pop_subtree[node])
            for node in network.nodes()
        }

    # ------------------------------------------------------------------
    # verification round
    # ------------------------------------------------------------------
    # The verifier is a conjunction of two kinds of checks: deterministic
    # structural ones that depend only on Merlin's *first* message (Algorithm
    # 2 reconstruction, stack-height consistency, the chord-event encodings
    # behind the fingerprint factors) and randomized ones that depend on the
    # challenge and the *second* message (coin consistency, fingerprint
    # products).  ``prepare_verifier`` runs the first kind once per
    # (network, first assignment); ``verify_with_state`` finishes from that
    # state, so soundness estimation over many challenge draws does not
    # re-derive the structure per draw.  ``verify`` composes the two and is
    # decision-identical to the historical monolithic implementation.

    def verify(self, view: LocalView, challenge: int,
               neighbor_challenges: dict[int, int]) -> bool:
        state = self.prepare_verifier(_first_components_view(view))
        return self.verify_with_state(state, view, challenge, neighbor_challenges)

    def prepare_verifier(self, first_view: LocalView) -> "_PreparedVerifier | object":
        """Challenge-independent half of the verifier (turn-1 messages only)."""
        first = first_view.certificate
        if not isinstance(first, DMAMFirstMessage):
            return _REJECT

        # re-run the deterministic structural checks of Algorithm 2 on a view
        # whose certificates are the embedded PlanarityCertificate structures
        structural_view = LocalView(
            center_id=first_view.center_id,
            certificate=first.structure,
            neighbor_ids=first_view.neighbor_ids,
            certificates={
                nid: (cert.structure if isinstance(cert, DMAMFirstMessage) else None)
                for nid, cert in first_view.certificates.items()
            },
        )
        structure = reconstruct_local_structure(structural_view)
        if structure is None:
            return _REJECT
        if structure.is_single_node:
            return _SINGLE_NODE
        n_path = structure.path_length

        neighbor_first: dict[int, DMAMFirstMessage] = {}
        for nid in first_view.neighbor_ids:
            cert = first_view.certificates.get(nid)
            if not isinstance(cert, DMAMFirstMessage):
                return _REJECT
            neighbor_first[nid] = cert

        # stack heights: committed per copy, consistent with my chord events
        # and with the heights claimed for the neighboring copies.  A
        # garbage-typed ``stack_heights`` field (not a pair sequence, or
        # non-numeric heights) is a rejection, not a crash: the type-level
        # guard matters here because this half now runs *before* the
        # second-message type checks that used to shield it in the
        # monolithic verifier.
        try:
            my_heights = dict(first.stack_heights)
            if set(my_heights) != set(structure.copies):
                return _REJECT
            all_heights = dict(my_heights)
            for message in neighbor_first.values():
                for index, height in message.stack_heights:
                    if all_heights.setdefault(index, height) != height:
                        return _REJECT
            for index in structure.copies:
                opens = sum(1 for other in structure.chord_neighbors[index] if other > index)
                closes = sum(1 for other in structure.chord_neighbors[index] if other < index)
                if index == 1:
                    previous_height = 0
                else:
                    if index - 1 not in all_heights:
                        return _REJECT
                    previous_height = all_heights[index - 1]
                expected = previous_height - closes + opens
                if expected < 0 or my_heights[index] != expected:
                    return _REJECT
                if index == n_path and my_heights[index] != 0:
                    return _REJECT

            # my fingerprint events: re-derive each incident chord's push/pop
            # height from the committed heights of the preceding position and
            # the local tie-breaking orders (pops innermost-first, pushes
            # outermost-first); the encodings are challenge-independent, the
            # factors ``prod (z - event)`` are formed at challenge time
            prime = self.field_prime
            push_events: list[int] = []
            pop_events: list[int] = []
            for index in structure.copies:
                height_before = 0 if index == 1 else all_heights[index - 1]
                closers = sorted((other for other in structure.chord_neighbors[index]
                                  if other < index), reverse=True)
                openers = sorted((other for other in structure.chord_neighbors[index]
                                  if other > index), reverse=True)
                running = height_before
                for other in closers:
                    pop_events.append(_encode_chord_event(other, index, running,
                                                          n_path, prime))
                    running -= 1
                for other in openers:
                    running += 1
                    push_events.append(_encode_chord_event(index, other, running,
                                                           n_path, prime))
        except (TypeError, ValueError):
            return _REJECT

        child_ids = tuple(
            nid for nid in first_view.neighbor_ids
            if neighbor_first[nid].structure.spanning_tree.parent_id == first_view.center_id)
        return _PreparedVerifier(
            is_root=structure.is_root,
            compares_global=first.structure.spanning_tree.parent_id is None,
            child_ids=child_ids,
            push_events=tuple(push_events),
            pop_events=tuple(pop_events),
            field_prime=prime,
        )

    def verify_with_state(self, state: Any, view: LocalView, challenge: int,
                          neighbor_challenges: dict[int, int]) -> bool:
        """Challenge-dependent half: coin consistency and fingerprint products."""
        if state is _REJECT:
            return False
        pair = view.certificate
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        second = pair[1]
        if not isinstance(second, DMAMSecondMessage):
            return False
        if state is _SINGLE_NODE:
            return True

        neighbor_second: dict[int, DMAMSecondMessage] = {}
        for nid in view.neighbor_ids:
            cert = view.certificates.get(nid)
            if not isinstance(cert, tuple) or len(cert) != 2 \
                    or not isinstance(cert[1], DMAMSecondMessage):
                return False
            neighbor_second[nid] = cert[1]

        # the relayed global coin must be locally consistent, and correct at the root
        z = second.global_point
        if any(neighbor.global_point != z for neighbor in neighbor_second.values()):
            return False
        prime = state.field_prime
        if state.is_root and z != challenge % prime:
            return False

        push_factor = 1
        for event in state.push_events:
            push_factor = (push_factor * (z - event)) % prime
        pop_factor = 1
        for event in state.pop_events:
            pop_factor = (pop_factor * (z - event)) % prime

        # subtree products: mine must equal my factor times my children's products
        expected_push = push_factor
        expected_pop = pop_factor
        for child_id in state.child_ids:
            expected_push = (expected_push
                             * neighbor_second[child_id].push_product_subtree) % prime
            expected_pop = (expected_pop
                            * neighbor_second[child_id].pop_product_subtree) % prime
        if second.push_product_subtree != expected_push:
            return False
        if second.pop_product_subtree != expected_pop:
            return False
        if state.compares_global:
            # the root compares the two global fingerprints
            if second.push_product_subtree != second.pop_product_subtree:
                return False
        return True


#: sentinel states of :meth:`PlanarityDMAMProtocol.prepare_verifier` — the
#: first turn already forces the decision, whatever the challenge turns out
#: to be (modulo the second message being well-typed)
_REJECT = object()
_SINGLE_NODE = object()


@dataclass(frozen=True)
class _PreparedVerifier:
    """Challenge-independent verifier state of one node (first turn only)."""

    is_root: bool
    #: this node's certificate claims no parent, so it compares the two
    #: global fingerprints (matches ``is_root`` on honest assignments)
    compares_global: bool
    child_ids: tuple[int, ...]
    #: pre-encoded chord events; the fingerprint factors are
    #: ``prod (z - event) mod field_prime`` over these
    push_events: tuple[int, ...]
    pop_events: tuple[int, ...]
    #: the field the protocol instance fingerprints over; rides here so the
    #: vectorized round kernel (which never sees the protocol object) can
    #: reduce with the same modulus
    field_prime: int = FIELD_PRIME


def _first_components_view(view: LocalView) -> LocalView:
    """Project a final-round view (certificates are pairs) onto turn 1.

    Ill-formed pairs project to ``None`` — exactly the treatment the
    monolithic verifier gave them.  ``neighbor_ids`` is shared with the
    input view, which the verifier does not modify.
    """
    def first_of(cert: Any) -> Any:
        if isinstance(cert, tuple) and len(cert) == 2:
            return cert[0]
        return None

    return LocalView(
        center_id=view.center_id,
        certificate=first_of(view.certificate),
        neighbor_ids=view.neighbor_ids,
        certificates={nid: first_of(cert) for nid, cert in view.certificates.items()},
    )
