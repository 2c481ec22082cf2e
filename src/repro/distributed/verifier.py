"""Running a proof-labeling scheme over a simulated network.

The runner builds each node's :class:`~repro.distributed.network.LocalView`
under a certificate assignment, executes the scheme's verifier at every node,
and collects the global decision together with the measurements the
experiments report:

* per-node accept/reject decisions (the global decision is the conjunction);
* exact certificate sizes in bits (max / mean / total);
* CONGEST message accounting for the verification round (in a PLS every node
  sends its certificate to each neighbor once, so the per-edge message size
  equals the certificate size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.distributed.certificates import encoded_size_bits
from repro.distributed.network import Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.exceptions import CertificateError
from repro.graphs.graph import Graph, Node

__all__ = ["VerificationResult", "run_verification", "certify_and_verify", "certificate_statistics"]


@dataclass
class VerificationResult:
    """Outcome of running a scheme's verifier at every node."""

    scheme_name: str
    decisions: dict[Node, bool]
    certificate_bits: dict[Node, int]
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """Global decision: the network accepts iff every node accepts."""
        return all(self.decisions.values())

    @property
    def rejecting_nodes(self) -> list[Node]:
        """Return the nodes that rejected."""
        return [node for node, ok in self.decisions.items() if not ok]

    @property
    def max_certificate_bits(self) -> int:
        """Return the size of the largest certificate (the PLS complexity measure)."""
        return max(self.certificate_bits.values(), default=0)

    @property
    def mean_certificate_bits(self) -> float:
        """Return the average certificate size."""
        if not self.certificate_bits:
            return 0.0
        return sum(self.certificate_bits.values()) / len(self.certificate_bits)

    @property
    def message_bits_per_edge(self) -> int:
        """Upper bound on the bits exchanged over any edge during verification."""
        return self.max_certificate_bits

    def summary(self) -> dict[str, Any]:
        """Return a compact summary dictionary (used by the experiment tables)."""
        return {
            "scheme": self.scheme_name,
            "accepted": self.accepted,
            "n": len(self.decisions),
            "max_certificate_bits": self.max_certificate_bits,
            "mean_certificate_bits": round(self.mean_certificate_bits, 2),
            "rejecting_nodes": len(self.rejecting_nodes),
        }


def certificate_statistics(certificates: dict[Node, Any]) -> dict[Node, int]:
    """Return the exact encoded size in bits of each certificate.

    Certificates produced by the honest provers are always
    :class:`~repro.distributed.certificates.Encodable`, and their size is
    the length of their encoding.  Adversarial experiments may inject
    payloads that have no encoding: an object that is not ``Encodable``, a
    field that is not a non-negative int (``None``, a negative number), or
    a nested certificate that is not ``Encodable``.  Sizing such a payload
    raises :class:`~repro.exceptions.CertificateError`, and its size is
    defined as ``8 * len(repr(cert))`` bits, so that soundness attacks never
    fail on bookkeeping.  Any other exception is a bug in an encoder and
    propagates.
    """
    sizes: dict[Node, int] = {}
    for node, cert in certificates.items():
        try:
            sizes[node] = encoded_size_bits(cert)
        except CertificateError:
            sizes[node] = 8 * len(repr(cert))
    return sizes


def run_verification(scheme: ProofLabelingScheme, network: Network,
                     certificates: dict[Node, Any]) -> VerificationResult:
    """Run the scheme's verifier at every node under ``certificates``."""
    decisions: dict[Node, bool] = {}
    for node in network.nodes():
        decisions[node] = bool(scheme.verify(network.local_view(node, certificates)))
    return VerificationResult(
        scheme_name=scheme.name,
        decisions=decisions,
        certificate_bits=certificate_statistics(certificates),
    )


def certify_and_verify(scheme: ProofLabelingScheme, graph: Graph,
                       seed: int | None = None,
                       ids: dict[Node, int] | None = None) -> VerificationResult:
    """Convenience wrapper: build a network, run the honest prover, then verify.

    On *yes*-instances this exercises completeness; calling it on a
    *no*-instance propagates the prover's :class:`NotInClassError` so tests
    can assert the contract.
    """
    network = Network(graph, ids=ids, seed=seed)
    certificates = scheme.prove(network)
    result = run_verification(scheme, network, certificates)
    return result
