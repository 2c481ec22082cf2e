"""A contiguous-integer-indexed graph backend (CSR adjacency).

The public :class:`~repro.graphs.graph.Graph` stores adjacency as
``dict[Node, set[Node]]`` over arbitrary hashable labels, which is the right
interface for building instances but a poor substrate for the hot loops
(traversals, connectivity checks, batched view materialisation): every visit
pays hashing, set copies, and — worst of all — a ``sorted(..., key=repr)``
per node to keep traversal orders deterministic.

:class:`IndexedGraph` is the compiled form of a :class:`Graph`: nodes are
renumbered ``0 .. n-1`` (in the graph's insertion order) and adjacency is
stored CSR-style as two flat integer lists, ``indptr`` and ``indices``, with
each adjacency block pre-sorted by ``repr`` of the neighbor's label.  The hot
loops then run over plain integers and the deterministic order comes for free
from the block layout.  Conversion is lossless: :meth:`to_graph` rebuilds an
equal :class:`Graph`, heterogeneous labels included.

:meth:`Graph.indexed() <repro.graphs.graph.Graph.indexed>` caches the
compiled form against a mutation counter, so repeated traversals over the
same graph compile once.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.graph import Graph, Node

__all__ = ["IndexedGraph"]


class IndexedGraph:
    """An immutable CSR view of a :class:`~repro.graphs.graph.Graph`.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the original node label of index ``i`` (insertion
        order of the source graph).
    index_of:
        Inverse mapping ``label -> index``.
    indptr:
        ``indices[indptr[i]:indptr[i + 1]]`` is the adjacency block of ``i``.
    indices:
        Flat neighbor-index list; every block is sorted by ``repr`` of the
        neighbor's label, matching the deterministic order the traversal
        helpers historically used.
    """

    __slots__ = ("labels", "index_of", "indptr", "indices", "degrees",
                 "_csr_arrays")

    def __init__(self, labels: list["Node"], indptr: list[int],
                 indices: list[int],
                 index_of: dict["Node", int] | None = None) -> None:
        self.labels = labels
        self.index_of: dict["Node", int] = (
            index_of if index_of is not None
            else {label: i for i, label in enumerate(labels)})
        self.indptr = indptr
        self.indices = indices
        self.degrees = [indptr[i + 1] - indptr[i] for i in range(len(labels))]
        self._csr_arrays: tuple | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "IndexedGraph":
        """Compile ``graph`` into its indexed form (O(n + m log d))."""
        adj = graph._adj
        labels = list(adj)
        index_of = {label: i for i, label in enumerate(labels)}
        reprs = [repr(label) for label in labels]
        indptr = [0]
        indices: list[int] = []
        for label in labels:
            block = sorted((index_of[nb] for nb in adj[label]),
                           key=reprs.__getitem__)
            indices.extend(block)
            indptr.append(len(indices))
        return cls(labels, indptr, indices, index_of=index_of)

    @classmethod
    def patched(cls, prev: "IndexedGraph", graph: "Graph",
                deltas: tuple) -> "IndexedGraph | None":
        """Recompile only the adjacency blocks touched by edge ``deltas``.

        ``prev`` is the compiled view of an earlier version of ``graph`` and
        ``deltas`` the edge-only journal suffix separating the two (see
        :meth:`Graph.deltas_since <repro.graphs.graph.Graph.deltas_since>`).
        The blocks of the delta endpoints are re-sorted from the current
        adjacency sets; every other block, and the label numbering, is
        spliced through unchanged.  The result is a **new** instance whose
        layout is byte-identical to what :meth:`from_graph` would produce
        on the mutated graph — same insertion-order labels, same repr-sorted
        blocks (ties between equal reprs resolve by the same set-iteration
        order both paths read) — which is what lets downstream table patches
        claim byte-identity transitively.  Returns ``None`` when the deltas
        cannot be applied (an endpoint is unknown, or the node set changed),
        signalling the caller to fall back to a full compile.
        """
        adj = graph._adj
        index_of = prev.index_of
        labels = prev.labels
        if len(labels) != len(adj):
            return None
        touched: set[int] = set()
        for delta in deltas:
            iu = index_of.get(delta.u)
            iv = index_of.get(delta.v)
            if iu is None or iv is None:
                return None
            touched.add(iu)
            touched.add(iv)
        order = sorted(touched)
        new_blocks = {
            i: sorted((index_of[nb] for nb in adj[labels[i]]),
                      key=lambda j: repr(labels[j]))
            for i in order}

        old_indptr, old_indices = prev.indptr, prev.indices
        indices: list[int] = []
        prev_end = 0
        for i in order:
            start = old_indptr[i]
            if start > prev_end:
                indices.extend(old_indices[prev_end:start])
            indices.extend(new_blocks[i])
            prev_end = old_indptr[i + 1]
        if prev_end < len(old_indices):
            indices.extend(old_indices[prev_end:])

        indptr = old_indptr[:order[0] + 1]
        shift = 0
        for pos, i in enumerate(order):
            shift += len(new_blocks[i]) - prev.degrees[i]
            nxt = order[pos + 1] if pos + 1 < len(order) else len(labels)
            segment = old_indptr[i + 1:nxt + 1]
            if shift:
                indptr.extend(x + shift for x in segment)
            else:
                indptr.extend(segment)
        return cls(labels, indptr, indices, index_of=index_of)

    def to_graph(self) -> "Graph":
        """Rebuild an equal :class:`Graph` (lossless round-trip)."""
        from repro.graphs.graph import Graph

        graph = Graph()
        adj = graph._adj
        for i, label in enumerate(self.labels):
            adj[label] = {self.labels[j] for j in self.neighbors_of(i)}
        return graph

    # ------------------------------------------------------------------
    # queries (index space)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Return ``|V|``."""
        return len(self.labels)

    @property
    def m(self) -> int:
        """Return ``|E|``."""
        return len(self.indices) // 2

    def index(self, label: "Node") -> int:
        """Return the index of ``label``; raise :class:`GraphError` if absent."""
        try:
            return self.index_of[label]
        except KeyError:
            raise GraphError(f"node {label!r} is not in the graph") from None

    def neighbors_of(self, i: int) -> list[int]:
        """Return the adjacency block of index ``i`` (repr-sorted)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree_of(self, i: int) -> int:
        """Return the degree of index ``i``."""
        return self.degrees[i]

    def csr_arrays(self) -> tuple:
        """Return ``(indptr, indices)`` as cached numpy ``int64`` arrays.

        This is the substrate of the :mod:`repro.vectorized` bulk-verification
        kernels: the adjacency blocks keep their repr-sorted layout, so array
        gathers over ``indices`` see neighbors in the same deterministic order
        as the Python traversal helpers.  The arrays are materialised once per
        compiled graph and must be treated as read-only.
        """
        cached = self._csr_arrays
        if cached is None:
            import numpy

            cached = (numpy.asarray(self.indptr, dtype=numpy.int64),
                      numpy.asarray(self.indices, dtype=numpy.int64))
            self._csr_arrays = cached
        return cached

    def edges_indexed(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as an ``(i, j)`` pair with ``i < j``."""
        for i in range(self.n):
            for j in self.neighbors_of(i):
                if i < j:
                    yield (i, j)

    # ------------------------------------------------------------------
    # batched algorithms
    # ------------------------------------------------------------------
    def bfs_order_from(self, start: int) -> list[int]:
        """Return the BFS visiting order from index ``start``."""
        seen = bytearray(self.n)
        seen[start] = 1
        order = [start]
        head = 0
        indptr, indices = self.indptr, self.indices
        while head < len(order):
            i = order[head]
            head += 1
            for j in indices[indptr[i]:indptr[i + 1]]:
                if not seen[j]:
                    seen[j] = 1
                    order.append(j)
        return order

    def is_connected(self) -> bool:
        """Return whether the graph is connected (the empty graph is not)."""
        if not self.labels:
            return False
        return len(self.bfs_order_from(0)) == self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IndexedGraph(n={self.n}, m={self.m})"
