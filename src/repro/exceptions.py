"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single type when they want to treat every library failure the
same way.  More specific types are provided for the situations that callers
are expected to handle individually (e.g. asking the honest prover to certify
a graph outside of the target class).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class GraphError(ReproError):
    """A graph argument is malformed (unknown node, self-loop, ...)."""


class NotConnectedError(GraphError):
    """The operation requires a connected graph but received a disconnected one."""


class NotPlanarError(GraphError):
    """The operation requires a planar graph but received a non-planar one."""


class PlanarGraphError(GraphError):
    """The operation requires a non-planar graph but received a planar one."""


class NotInClassError(ReproError):
    """The honest prover was asked to certify a graph outside the target class.

    Per the completeness/soundness contract of a proof-labeling scheme, the
    prover is only defined on *yes*-instances; calling it on a *no*-instance
    raises this exception rather than silently producing garbage.
    """


class CertificateError(ReproError):
    """A certificate cannot be encoded, decoded, or is structurally invalid."""


class EmbeddingError(ReproError):
    """A combinatorial embedding is inconsistent or cannot be constructed."""


class RegistryError(ReproError):
    """A scheme-registry operation failed (unknown name, duplicate registration)."""
