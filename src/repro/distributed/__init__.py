"""Distributed-verification substrate: networks, views, schemes, runtimes."""

from repro.distributed.certificates import BitReader, BitWriter, Encodable, encoded_size_bits
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme, SchemeDescription
from repro.distributed.verifier import (
    VerificationResult,
    certify_and_verify,
    run_verification,
)
from repro.distributed.engine import (
    BACKENDS,
    InteractiveSoundnessEstimate,
    NodeStructure,
    SimulationEngine,
    derive_seed,
)
from repro.distributed.registry import RegistryEntry, SchemeRegistry, default_registry
from repro.distributed.interactive import (
    FirstTurn,
    InteractiveProtocol,
    InteractiveTranscript,
    run_interactive_protocol,
)
from repro.distributed.views import assemble_view, materialize_structures

__all__ = [
    "BitReader",
    "BitWriter",
    "Encodable",
    "encoded_size_bits",
    "LocalView",
    "Network",
    "ProofLabelingScheme",
    "SchemeDescription",
    "VerificationResult",
    "certify_and_verify",
    "run_verification",
    "BACKENDS",
    "SimulationEngine",
    "NodeStructure",
    "derive_seed",
    "SchemeRegistry",
    "RegistryEntry",
    "default_registry",
    "FirstTurn",
    "InteractiveProtocol",
    "InteractiveSoundnessEstimate",
    "InteractiveTranscript",
    "run_interactive_protocol",
    "assemble_view",
    "materialize_structures",
]
