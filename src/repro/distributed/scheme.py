"""Abstract interfaces for proof-labeling schemes and locally checkable proofs.

A *proof-labeling scheme* (PLS) for a graph class ``C`` is a prover/verifier
pair (Section 2 of the paper):

* **completeness** — on every ``G in C`` the (honest, centralised,
  non-trustable-in-general) prover can assign certificates making every node
  accept;
* **soundness** — on every ``G not in C`` *no* certificate assignment makes
  all nodes accept.

The verifier is a purely local function of a node's
:class:`~repro.distributed.network.LocalView`, checked in one round: the node
sees its own identifier and certificate and its neighbors' identifiers and
certificates.  A *locally checkable proof* (LCP) relaxes the model by
allowing more verification rounds; every scheme here, Theorem 1's included,
needs only one.  Views always include the neighbors' identifiers (which
PLSs with sub-logarithmic certificates could not afford to transmit — the
distinction only matters for the lower bounds, which we reproduce as
explicit constructions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.distributed.network import LocalView, Network
from repro.graphs.graph import Graph, Node

__all__ = ["ProofLabelingScheme", "SchemeDescription"]


class ProofLabelingScheme(ABC):
    """Base class of every certification scheme in the library."""

    #: human-readable name used by the comparison tables
    name: str = "abstract-scheme"
    #: whether the verifier uses randomness (False for every PLS in the paper)
    randomized: bool = False
    #: number of prover/verifier interactions (1 for a PLS, 3 for dMAM, ...)
    interactions: int = 1

    # ------------------------------------------------------------------
    @abstractmethod
    def is_member(self, graph: Graph) -> bool:
        """Ground-truth membership predicate of the certified class."""

    @abstractmethod
    def prove(self, network: Network) -> dict[Node, Any]:
        """Honest prover: assign a certificate to every node of a *yes*-instance.

        Must raise :class:`repro.exceptions.NotInClassError` when the network's
        graph is not in the class.
        """

    @abstractmethod
    def verify(self, view: LocalView) -> bool:
        """Local verifier: accept or reject based on a single node's view."""

    # ------------------------------------------------------------------
    def describe(self) -> "SchemeDescription":
        """Return the static characteristics used by the comparison table (E5)."""
        return SchemeDescription(
            name=self.name,
            interactions=self.interactions,
            randomized=self.randomized,
        )


class SchemeDescription:
    """Static description of a scheme (interactions, randomness)."""

    def __init__(self, name: str, interactions: int, randomized: bool) -> None:
        self.name = name
        self.interactions = interactions
        self.randomized = randomized

    def as_row(self) -> dict[str, object]:
        """Return the description as a table row."""
        return {
            "scheme": self.name,
            "interactions": self.interactions,
            "randomized": self.randomized,
            # every verifier here, interactive ones included, checks in one round
            "verification_rounds": 1,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"SchemeDescription({self.name!r}, interactions={self.interactions}, "
                f"randomized={self.randomized})")
