"""Distributed interactive proofs (dMA / dMAM protocols).

The baseline the paper improves on is the dMAM protocol of Naor, Parter, and
Yogev (SODA 2020): Merlin assigns certificates, every node's Arthur draws a
random challenge, Merlin answers with a second certificate, and only then do
the nodes run one round of local verification.  This module provides the
protocol *framework* — turn structure, randomness handling, message-size and
interaction accounting — while the concrete planarity protocol lives in
:mod:`repro.baselines.dmam`.

The interaction count follows the convention of the paper's introduction:
``dM`` (= PLS / LCP) has one interaction, ``dMA`` two, ``dMAM`` three.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.distributed.network import LocalView, Network
from repro.distributed.verifier import certificate_statistics
from repro.graphs.graph import Graph, Node

__all__ = ["FirstTurn", "InteractiveProtocol", "InteractiveTranscript",
           "require_second_message", "run_interactive_protocol"]


@dataclass(frozen=True)
class FirstTurn:
    """Merlin's first turn as an explicit, cacheable artifact.

    ``messages`` is the per-node certificate assignment of turn 1; ``state``
    is whatever private prover context the protocol needs again in turn 3
    (the dMAM planarity protocol keeps its cut-open decomposition here).
    Making the state explicit — instead of stashing it on the protocol
    instance between calls — is what lets the
    :class:`~repro.distributed.engine.SimulationEngine` cache one first turn
    per ``(network, protocol)`` and replay it against many challenge draws,
    even when the same protocol instance is interleaved across networks.
    """

    messages: dict[Node, Any]
    state: Any = None


@dataclass
class InteractiveTranscript:
    """Full record of one execution of a distributed interactive protocol."""

    protocol_name: str
    interactions: int
    first_certificates: dict[Node, Any] = field(default_factory=dict)
    challenges: dict[Node, int] = field(default_factory=dict)
    second_certificates: dict[Node, Any] = field(default_factory=dict)
    decisions: dict[Node, bool] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """Global decision (conjunction over the nodes)."""
        return all(self.decisions.values())

    @property
    def max_certificate_bits(self) -> int:
        """Largest message sent by Merlin to any single node over both turns.

        Both turns are sized by
        :func:`~repro.distributed.verifier.certificate_statistics`, so a
        forged message with no encoding is charged ``8·len(repr)`` bits, as
        in every proof-labeling scheme's size statistics.
        """
        sizes = [*certificate_statistics(self.first_certificates).values(),
                 *certificate_statistics(self.second_certificates).values()]
        return max(sizes, default=0)


class InteractiveProtocol(ABC):
    """A dMAM-style protocol: Merlin, Arthur's coin flips, Merlin, local check."""

    name: str = "abstract-interactive-protocol"
    interactions: int = 3
    randomized: bool = True
    #: number of bits of randomness each node draws for its challenge
    challenge_bits: int = 32

    @abstractmethod
    def is_member(self, graph: Graph) -> bool:
        """Ground-truth membership predicate."""

    @abstractmethod
    def first_turn(self, network: Network) -> FirstTurn:
        """Merlin's first turn: the per-node messages and the private state
        the second turn needs, as one :class:`FirstTurn`."""

    @abstractmethod
    def second_turn(self, network: Network, turn: FirstTurn,
                    challenges: dict[Node, int]) -> dict[Node, Any]:
        """Merlin's second turn, answering ``challenges`` from ``turn`` alone."""

    @abstractmethod
    def verify(self, view: LocalView, challenge: int,
               neighbor_challenges: dict[int, int]) -> bool:
        """Final local verification at one node.

        ``view.certificate`` and ``view.certificates`` contain *pairs*
        ``(first, second)`` of Merlin messages; the node also sees its own
        challenge and the challenges of its neighbors (they were broadcast
        during the Arthur turn).

        Views may be assembled from the batched view layer
        (:mod:`repro.distributed.views`); each view is the verifier's own, so
        scratch edits to it reach no other execution.
        """

    # ------------------------------------------------------------------
    # split verification (overridable; defaults fall back to verify())
    # ------------------------------------------------------------------
    def prepare_verifier(self, first_view: LocalView) -> Any:
        """Challenge-independent precomputation for one node's verifier.

        ``first_view`` contains only the turn-1 messages (not the
        ``(first, second)`` pairs of the final round).  Protocols whose
        verifier runs deterministic structural checks on the first message
        can do them once here and reuse the returned state across many
        challenge draws via :meth:`verify_with_state`; the default returns
        ``None`` (no precomputation available).
        """
        return None

    def verify_with_state(self, state: Any, view: LocalView, challenge: int,
                          neighbor_challenges: dict[int, int]) -> bool:
        """Finish verification from a :meth:`prepare_verifier` state.

        Must decide exactly like :meth:`verify` on the same view.  The
        default ignores ``state`` and calls :meth:`verify`.
        """
        return self.verify(view, challenge, neighbor_challenges)

    # ------------------------------------------------------------------
    def draw_challenges(self, network: Network, rng: random.Random) -> dict[Node, int]:
        """Arthur's turn: every node draws a private random challenge."""
        return {node: rng.getrandbits(self.challenge_bits) for node in network.nodes()}


def require_second_message(first: Any, second: Any) -> None:
    """Refuse a fixed first Merlin message that comes without a second one.

    The honest second turn answers from the private state of the honest
    first turn (:attr:`FirstTurn.state`), which a caller-supplied first
    message does not carry; whoever fixes the first message fixes the second
    too.
    """
    if first is not None and second is None:
        raise ValueError("a fixed first Merlin message needs a fixed second "
                         "message: the honest second turn answers only the "
                         "honest first turn")


def run_interactive_protocol(protocol: InteractiveProtocol, network: Network,
                             seed: int | None = None,
                             dishonest_second: dict[Node, Any] | None = None,
                             dishonest_first: dict[Node, Any] | None = None,
                             ) -> InteractiveTranscript:
    """Execute a dMAM protocol end to end and return the transcript.

    ``dishonest_first`` / ``dishonest_second`` allow tests to replace
    Merlin's messages with adversarial ones (soundness experiments); a
    dishonest first message needs a second one (:func:`require_second_message`).
    """
    require_second_message(dishonest_first, dishonest_second)
    rng = random.Random(seed)
    turn = None if dishonest_first is not None else protocol.first_turn(network)
    first = dishonest_first if turn is None else turn.messages
    challenges = protocol.draw_challenges(network, rng)
    if dishonest_second is not None:
        second = dishonest_second
    else:
        second = protocol.second_turn(network, turn, challenges)

    paired = {node: (first.get(node), second.get(node)) for node in network.nodes()}
    decisions: dict[Node, bool] = {}
    for node in network.nodes():
        view = network.local_view(node, paired)
        neighbor_challenges = {network.id_of(neighbor): challenges[neighbor]
                               for neighbor in network.graph.neighbors(node)}
        decisions[node] = bool(protocol.verify(view, challenges[node], neighbor_challenges))
    return InteractiveTranscript(
        protocol_name=protocol.name,
        interactions=protocol.interactions,
        first_certificates=first,
        challenges=challenges,
        second_certificates=second,
        decisions=decisions,
    )
