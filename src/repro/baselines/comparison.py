"""Scheme comparison harness (experiment E5).

Builds the table the paper's introduction argues about: for the same planar
input, how many prover/verifier interactions, how much randomness, how many
certificate bits, and what soundness error does each certification mechanism
need?

=====================  ============  ==========  ==================  ===============
scheme                 interactions  randomized  certificate bits    soundness error
=====================  ============  ==========  ==================  ===============
Theorem 1 (this paper) 1             no          O(log n)            0
dMAM baseline [38]     3             yes         O(log n)            O(m / 2^61)
universal map          1             no          O(n log n)          0
Kuratowski (non-plan.) 1             no          O(log n)            0
=====================  ============  ==========  ==================  ===============
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.engine import SimulationEngine
from repro.distributed.registry import SchemeRegistry, default_registry
from repro.graphs.graph import Graph

__all__ = ["ComparisonRow", "compare_schemes_on"]

#: planarity mechanisms (registry names) run on the planar input, in table order
PLANARITY_SCHEMES = ("planarity-pls", "universal-map-pls")


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the E5 comparison table."""

    scheme: str
    interactions: int
    randomized: bool
    max_certificate_bits: int
    accepted: bool
    certifies: str

    def as_dict(self) -> dict[str, object]:
        """Return the row as a plain dictionary (for table printers)."""
        return {
            "scheme": self.scheme,
            "interactions": self.interactions,
            "randomized": self.randomized,
            # every mechanism in the table checks in one round
            "verification_rounds": 1,
            "max_certificate_bits": self.max_certificate_bits,
            "accepted": self.accepted,
            "certifies": self.certifies,
        }


def compare_schemes_on(planar_graph: Graph, nonplanar_graph: Graph | None = None,
                       seed: int = 0,
                       engine: SimulationEngine | None = None,
                       registry: SchemeRegistry | None = None) -> list[ComparisonRow]:
    """Run every certification mechanism on the same inputs and collect the table.

    The planarity mechanisms (Theorem 1, dMAM, universal) run on
    ``planar_graph``; the Kuratowski scheme runs on ``nonplanar_graph`` when
    provided (it certifies the complementary class).  Schemes are resolved
    through ``registry`` (defaulting to the shared :func:`default_registry`)
    and executed through ``engine`` (defaulting to a fresh engine per call —
    pass one in to share caches across calls), so the same networks, honest
    certificates, and Merlin first turns are never rebuilt between rows of
    one table: the dMAM row runs through
    :meth:`~repro.distributed.engine.SimulationEngine.run_interactive` on the
    same cached view structures as the PLS rows.
    """
    engine = engine if engine is not None else SimulationEngine()
    registry = registry if registry is not None else default_registry()
    rows: list[ComparisonRow] = []
    network = engine.network_for(planar_graph, seed=seed)

    for name in PLANARITY_SCHEMES:
        scheme = registry.create(name)
        certificates = engine.certify(scheme, network)
        result = engine.verify(scheme, network, certificates)
        rows.append(ComparisonRow(
            scheme=scheme.name,
            interactions=scheme.interactions,
            randomized=scheme.randomized,
            max_certificate_bits=result.max_certificate_bits,
            accepted=result.accepted,
            certifies="planarity",
        ))

    protocol = registry.create("planarity-dmam")
    transcript = engine.run_interactive(protocol, network, seed=seed)
    rows.append(ComparisonRow(
        scheme=protocol.name,
        interactions=protocol.interactions,
        randomized=protocol.randomized,
        max_certificate_bits=transcript.max_certificate_bits,
        accepted=transcript.accepted,
        certifies="planarity",
    ))

    if nonplanar_graph is not None:
        scheme = registry.create("non-planarity-pls")
        np_network = engine.network_for(nonplanar_graph, seed=seed)
        certificates = engine.certify(scheme, np_network)
        result = engine.verify(scheme, np_network, certificates)
        rows.append(ComparisonRow(
            scheme=scheme.name,
            interactions=scheme.interactions,
            randomized=scheme.randomized,
            max_certificate_bits=result.max_certificate_bits,
            accepted=result.accepted,
            certifies="non-planarity",
        ))
    return rows
