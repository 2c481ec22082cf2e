"""The proof-labeling scheme for path-outerplanarity (Lemma 2, Algorithm 1).

The certificate of a node consists of

1. the Hamiltonian-path fields of
   :class:`repro.core.building_blocks.HamiltonianPathLabel` (number of nodes,
   rank, root identifier, predecessor identifier) certifying that the ranks
   form a spanning path, and
2. the covering interval ``I(x)``: the shortest edge ``{v_a, v_b}`` with
   ``a < rank(x) < b`` (the sentinel ``(0, n + 1)`` when none exists).

The verifier is Algorithm 1 of the paper, implemented in
:func:`algorithm1_check`.  The function is deliberately standalone — it takes
only ranks and intervals — because the planarity scheme of Theorem 1 re-runs
it at every *virtual* node of the transformed graph ``G_{T,f}``
(see :mod:`repro.core.planarity_scheme`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.building_blocks import (
    HamiltonianPathLabel,
    check_hamiltonian_path_label,
    hamiltonian_path_labels,
)
from repro.core.path_outerplanar import (
    compute_covering_intervals,
    find_path_outerplanar_witness,
    is_path_outerplanar_witness,
)
from repro.distributed.certificates import BitWriter, Encodable, encode_nested
from repro.distributed.network import LocalView, Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.exceptions import NotInClassError
from repro.graphs.graph import Graph, Node

__all__ = ["PathOuterplanarLabel", "algorithm1_check", "PathOuterplanarScheme"]

Interval = tuple[int, int]


@dataclass(frozen=True)
class PathOuterplanarLabel(Encodable):
    """Certificate of the Lemma 2 scheme: path fields plus the covering interval."""

    path: HamiltonianPathLabel
    interval: Interval

    @property
    def rank(self) -> int:
        """Rank of the node in the witness order."""
        return self.path.rank

    @property
    def total(self) -> int:
        """Number of nodes of the path."""
        return self.path.total

    def encode(self, writer: BitWriter) -> None:
        encode_nested(writer, self.path)
        writer.write_uint(self.interval[0])
        writer.write_uint(self.interval[1])


def algorithm1_check(rank: int, total: int, interval: Interval,
                     neighbor_intervals: dict[int, Interval | None]) -> bool:
    """Algorithm 1 of the paper, executed at the node of the given ``rank``.

    Parameters
    ----------
    rank, total:
        Position of the node in the witness order and the total path length.
    interval:
        The node's own certified interval ``I(x) = (a, b)``.
    neighbor_intervals:
        For each *real* neighbor of the node (in the path-outerplanar graph),
        its certified rank mapped to its certified interval.  The virtual
        vertices ``0`` and ``total + 1`` of the paper (with interval
        ``[-inf, +inf]``) are added internally.

    Returns ``True`` when every check of Algorithm 1 passes.
    """
    if not 1 <= rank <= total:
        return False
    neighbors: dict[int, Interval | None] = dict(neighbor_intervals)
    if len(neighbors) != len(neighbor_intervals):
        return False
    if any(r == rank or not 0 < r <= total for r in neighbors):
        return False
    # path consistency: the predecessor/successor in the witness order are neighbors
    if rank > 1 and (rank - 1) not in neighbors:
        return False
    if rank < total and (rank + 1) not in neighbors:
        return False
    # the two virtual vertices of the paper, with interval [-inf, +inf]
    if rank == 1:
        neighbors[0] = None
    if rank == total:
        neighbors[total + 1] = None

    a, b = interval
    # line 5: a < x < b and every neighbor lies inside [a, b]
    if not a < rank < b:
        return False
    if any(not a <= r <= b for r in neighbors):
        return False

    larger = sorted(r for r in neighbors if r > rank)       # x+_0 < ... < x+_k
    smaller = sorted((r for r in neighbors if r < rank), reverse=True)  # x-_0 > ... > x-_l
    if not larger or not smaller:
        return False

    # lines 6-7: consecutive larger neighbors bound each other's interval
    for i in range(len(larger) - 1):
        if neighbors[larger[i]] != (rank, larger[i + 1]):
            return False
    # lines 8-9: symmetric check for the smaller neighbors
    for i in range(len(smaller) - 1):
        if neighbors[smaller[i]] != (smaller[i + 1], rank):
            return False
    # lines 10-11: the largest neighbor, when strictly inside [a, b], shares I(x)
    if larger[-1] < b and neighbors[larger[-1]] != (a, b):
        return False
    # lines 12-13: the smallest neighbor, when strictly inside [a, b], shares I(x)
    if smaller[-1] > a and neighbors[smaller[-1]] != (a, b):
        return False
    # lines 14-17: neighbors whose interval is delimited by x
    for r, nb_interval in neighbors.items():
        if nb_interval is None:
            continue
        na, nb = nb_interval
        if rank in (na, nb):
            other = nb if na == rank else na
            if other not in neighbors:
                return False
            # I(y) must be strictly contained in I(x)
            if not (a <= na and nb <= b and (na, nb) != (a, b)):
                return False
    return True


class PathOuterplanarScheme(ProofLabelingScheme):
    """Lemma 2: a 1-round PLS for path-outerplanarity with ``O(log n)``-bit certificates.

    The honest prover needs a path-outerplanarity witness.  Either supply it
    at construction time (``witness=`` a list of nodes) or let the prover
    search for one (exact only for small graphs, since finding a Hamiltonian
    path is NP-hard in general; the planarity scheme never needs the search
    because it constructs its witness explicitly).
    """

    name = "path-outerplanarity-pls"

    def __init__(self, witness: list[Node] | None = None) -> None:
        self.witness = witness

    # ------------------------------------------------------------------
    def is_member(self, graph: Graph) -> bool:
        if self.witness is not None:
            return is_path_outerplanar_witness(graph, self.witness)
        return find_path_outerplanar_witness(graph, raise_on_failure=True) is not None

    def prove(self, network: Network) -> dict[Node, PathOuterplanarLabel]:
        graph = network.graph
        witness = self.witness
        if witness is None:
            witness = find_path_outerplanar_witness(graph, raise_on_failure=True)
        if witness is None or not is_path_outerplanar_witness(graph, witness):
            raise NotInClassError("the network is not path-outerplanar (no valid witness)")
        n = len(witness)
        rank = {node: index + 1 for index, node in enumerate(witness)}
        chords = [(rank[u], rank[v]) for u, v in graph.edges()]
        intervals = compute_covering_intervals(n, chords, assume_laminar=True)
        path_labels = hamiltonian_path_labels(network, witness)
        return {
            node: PathOuterplanarLabel(path=path_labels[node], interval=intervals[rank[node]])
            for node in witness
        }

    def verify(self, view: LocalView) -> bool:
        own = view.certificate
        if not isinstance(own, PathOuterplanarLabel):
            return False
        neighbor_certs = {nid: view.neighbor_certificate(nid) for nid in view.neighbor_ids}
        if any(not isinstance(cert, PathOuterplanarLabel) for cert in neighbor_certs.values()):
            return False
        # part 1: the ranks form a spanning path (line 3 of Algorithm 1)
        path_ok = check_hamiltonian_path_label(
            view.center_id, own.path, {nid: cert.path for nid, cert in neighbor_certs.items()})
        if not path_ok:
            return False
        # part 2: the interval checks of Algorithm 1
        neighbor_intervals = {cert.rank: cert.interval for cert in neighbor_certs.values()}
        if len(neighbor_intervals) != len(neighbor_certs):
            return False
        return algorithm1_check(own.rank, own.total, own.interval, neighbor_intervals)
