"""A cheating interactive prover for the dMAM planarity protocol.

The paper's dMAM protocol replaces the deterministic interval mechanism
with multiset fingerprints: acceptance reduces to the root comparing two
degree-``c`` monic polynomials (one factor per chord push / pop event) at
a random point of ``F_p``.  Its soundness is therefore *statistical* —
error ``O(m / p)`` — and only measurable when a prover lies exactly where
the fingerprints look.

:class:`CheatingDMAMProver` is that prover.  On a connected *non-planar*
network it commits to a *pseudo-decomposition*: the Lemma 3 cut-open
construction run over an arbitrary (non-planar) rotation system.  Every
deterministic check of the verifier passes — the spanning tree is real,
the DFS mapping is a real Euler tour, the stack heights are consistent
with the committed chord family, and chord *crossings* are precisely what
the replaced interval mechanism used to catch — so the transcript's fate
rests entirely on the root's fingerprint comparison.  The push and pop
event multisets of a crossing chord family differ, the two polynomials
differ, and the protocol accepts exactly when the random evaluation point
lands on a root of their difference: at most ``c - 1 < m`` of the ``p``
field points.

Because the challenge draws are seeded, the lucky guesses are not merely
bounded but *predictable*: :meth:`CheatingDMAMProver.fooling_points`
brute-forces the fooling set and :meth:`predict_all_accept_draws` replays
the engine's challenge derivation to name, in advance, exactly which
trial indices will be fooled.  The soundness tests assert the measured
all-accept count equals that prediction — an exact accounting, not a
statistical tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.baselines.dmam import (
    DMAMFirstMessage,
    PlanarityDMAMProtocol,
    _encode_chord_event,
    chord_scan_heights,
)
from repro.core.dfs_mapping import cut_open
from repro.distributed.engine import derive_seed
from repro.distributed.interactive import FirstTurn
from repro.distributed.network import Network
from repro.graphs.embedding import RotationSystem
from repro.graphs.generators import planar_plus_random_edges
from repro.graphs.graph import Graph, Node

__all__ = [
    "CheatingDMAMProver",
    "CheatingSecondStrategy",
    "nonplanar_cheating_instance",
]


def nonplanar_cheating_instance(n: int, seed: int | None = None,
                                extra_edges: int = 2) -> Graph:
    """A non-planar graph the cheating prover can attack within the cap.

    A random Apollonian triangulation (3-degenerate) plus ``extra_edges``
    forced extras: guaranteed non-planar for ``n >= 7``, with degeneracy at
    most ``3 + extra_edges``, so the degeneracy-capped certificate checks
    (at most 5 edge certificates per node) stay satisfiable for the default
    two extras — the prover's lie must survive *every* deterministic check,
    not sneak past a rejected assignment.
    """
    return planar_plus_random_edges(n, extra_edges=extra_edges, seed=seed)


@dataclass
class CheatingSecondStrategy:
    """Picklable ``second_strategy`` replaying the prover's committed lie.

    :meth:`SimulationEngine.estimate_soundness_error` calls strategies as
    ``strategy(network, first, challenges)`` — in worker processes when
    fanned out, hence a module-level dataclass rather than a bound method
    or closure.  It answers every challenge honestly *for the committed
    pseudo-decomposition*: the bottom-up product checks force any cheater
    to these exact values, so this is the strongest second turn available
    once the first turn is fixed.
    """

    protocol: PlanarityDMAMProtocol
    decomposition: Any

    def __call__(self, network: Network, first: dict[Node, Any],
                 challenges: dict[Node, int]) -> dict[Node, Any]:
        return self.protocol.second_turn(
            network, FirstTurn(messages=first, state=self.decomposition),
            challenges)


class CheatingDMAMProver:
    """Forge a dMAM transcript for a non-planar network.

    The prover is adaptive in the protocol's own terms: it inspects the
    graph, builds the best internally-consistent lie (a pseudo-
    decomposition over a trivial rotation system), and confines the
    falsehood to the fingerprinted quantities.  Instantiate with a small
    ``field_prime`` on the protocol to make the ``m / p`` error measurable.
    """

    def __init__(self, protocol: PlanarityDMAMProtocol,
                 network: Network) -> None:
        graph = network.graph
        if protocol.is_member(graph):
            raise ValueError(
                "the cheating prover needs a no-instance; on planar graphs "
                "the honest prover already convinces every node")
        self.protocol = protocol
        self.network = network
        #: the committed lie: Lemma 3 run over an arbitrary rotation system
        #: (no planarity anywhere in its construction — only the *choice*
        #: of a planar rotation makes the chord family non-crossing)
        self.decomposition = cut_open(graph,
                                      rotation=RotationSystem.trivial(graph))

    # ------------------------------------------------------------------
    # the forged transcript
    # ------------------------------------------------------------------
    def first_messages(self) -> dict[Node, DMAMFirstMessage]:
        """Turn-1 messages committing to the pseudo-decomposition."""
        return self.protocol.messages_from_decomposition(self.network,
                                                         self.decomposition)

    def second_strategy(self) -> CheatingSecondStrategy:
        """The per-draw second turn (picklable, for pooled estimates)."""
        return CheatingSecondStrategy(self.protocol, self.decomposition)

    # ------------------------------------------------------------------
    # exact lucky-guess accounting
    # ------------------------------------------------------------------
    def event_multisets(self) -> tuple[list[int], list[int]]:
        """The committed push / pop chord-event encodings (with multiplicity).

        Exactly the factors both the cheating second turn and the verifier
        derive: the global fingerprint polynomials are
        ``P(z) = prod (z - e)`` over each multiset.
        """
        prime = self.protocol.field_prime
        decomposition = self.decomposition
        n_path = decomposition.path_length
        push_height, pop_height = chord_scan_heights(
            decomposition.chord_intervals(), n_path)
        push_events: list[int] = []
        pop_events: list[int] = []
        for copy_u, copy_v in decomposition.cotree_edge_images.values():
            low, high = min(copy_u, copy_v), max(copy_u, copy_v)
            push_events.append(_encode_chord_event(
                low, high, push_height[(low, high)], n_path, prime))
            pop_events.append(_encode_chord_event(
                low, high, pop_height[(low, high)], n_path, prime))
        return push_events, pop_events

    def is_degenerate(self) -> bool:
        """True when the two event multisets collide into equality mod ``p``.

        Small primes can fold distinct events together; if the *entire*
        multisets coincide the two polynomials are identical and every
        challenge fools every node (the ``m / p`` bound only speaks to
        distinct polynomials).  The experiments assert this never happens
        for their chosen instances and primes.
        """
        push_events, pop_events = self.event_multisets()
        return sorted(push_events) == sorted(pop_events)

    def chord_count(self) -> int:
        """Number of committed chords ``c`` (the fingerprint degree)."""
        return len(self.decomposition.cotree_edge_images)

    def analytic_bound(self) -> float:
        """The per-draw error bound ``(c - 1) / p``.

        Both fingerprint polynomials are monic of degree ``c``, so their
        difference has degree at most ``c - 1`` and at most that many
        roots; with ``c <= m`` this is the paper's ``O(m / p)``.
        """
        prime = self.protocol.field_prime
        return min(1.0, max(0, self.chord_count() - 1) / prime)

    def fooling_points(self) -> set[int]:
        """All ``z`` in ``F_p`` where the two fingerprints agree.

        Brute force over the field — the whole point of a small
        experimental prime is that this set is exactly enumerable, turning
        the soundness estimate into a deterministic prediction.
        """
        prime = self.protocol.field_prime
        push_events, pop_events = self.event_multisets()
        points: set[int] = set()
        for z in range(prime):
            push_value = 1
            for event in push_events:
                push_value = (push_value * (z - event)) % prime
            pop_value = 1
            for event in pop_events:
                pop_value = (pop_value * (z - event)) % prime
            if push_value == pop_value:
                points.add(z)
        return points

    def predict_all_accept_draws(self, trials: int,
                                 seed: int | None) -> list[int]:
        """Trial indices whose challenge draw lands in the fooling set.

        Replays exactly the engine's per-trial derivation
        (``random.Random(derive_seed(seed, index))`` feeding
        ``draw_challenges``), so the returned indices are the draws where
        :meth:`SimulationEngine.estimate_soundness_error` will record all
        nodes accepting — no more, no fewer.
        """
        fooling = self.fooling_points()
        prime = self.protocol.field_prime
        root = self.decomposition.tree.root
        indices: list[int] = []
        for index in range(trials):
            rng = random.Random(derive_seed(seed, index))
            challenges = self.protocol.draw_challenges(self.network, rng)
            if challenges[root] % prime in fooling:
                indices.append(index)
        return indices
