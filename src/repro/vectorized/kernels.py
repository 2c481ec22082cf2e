"""Array kernels for the radius-1 building-block verifiers.

Each kernel re-expresses one scheme's per-node verifier as whole-array
operations over a :class:`~repro.vectorized.compiler.VectorContext`: field
gathers along the CSR directed-edge arrays (``column[src]`` / ``column[dst]``)
followed by per-node segment reductions (``reduceat`` over the CSR block
starts).  The per-node decision logic is a literal transcription of the
reference checks in :mod:`repro.core.building_blocks` — every conjunct there
appears as one boolean array here — so the accept vector is bit-identical to
running the Python verifier at every node (asserted by the differential fuzz
harness in ``tests/test_vectorized.py``).

Two shared sub-checks are exposed as standalone functions because they are
the certification ingredients the paper's planarity scheme builds on:

* :func:`spanning_tree_accept` — the (root, parent, distance) consistency
  plus the subtree-counter check of ``check_spanning_tree_label``;
* :func:`hamiltonian_path_accept` — the rank/parent consistency of
  ``check_hamiltonian_path_label``.

:class:`TreeKernel` and :class:`PathGraphKernel` layer the schemes' extra
every-edge conditions on top.  The paper's headline schemes build on the
same sub-checks through nested-field compilation — see
:mod:`repro.vectorized.paper_kernels` for the non-planarity and planarity
kernels (both full: the planarity kernel compiles Algorithm 2's
certificate-set-shaped reconstruction phases to per-node segmented sorts —
composite-key ``argsort`` passes, the bounded-key specialisation of
:func:`segment_sort` — aligned with :func:`segment_rank`).

A kernel returns ``(accept, fallback)``: ``fallback[i]`` marks nodes whose
radius-1 view contains an unrepresentable certificate (see the compiler's
exactness contract); the engine overwrites their entries with the reference
verifier's decision.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.core.building_blocks import (
    HamiltonianPathLabel,
    PathGraphScheme,
    SpanningTreeLabel,
    TreeScheme,
)
from repro.vectorized.compiler import (
    ID_LIMIT,
    CertificateTable,
    FieldSpec,
    VectorContext,
    compile_certificates,
)

__all__ = [
    "VectorizedKernel",
    "SPANNING_TREE_FIELDS",
    "HAMILTONIAN_PATH_FIELDS",
    "segment_sum",
    "segment_count",
    "segment_all",
    "segment_any",
    "segment_sort",
    "segment_rank",
    "scatter_any",
    "view_fallback",
    "spanning_tree_accept",
    "hamiltonian_path_accept",
    "TreeKernel",
    "PathGraphKernel",
    "builtin_kernels",
]

#: field layout of :class:`SpanningTreeLabel` consumed by the tree kernels;
#: ``root_id`` / ``parent_id`` hold network identifiers and only ever sit in
#: equality comparisons, so they relax the magnitude bound to
#: :data:`~repro.vectorized.compiler.ID_LIMIT` — with the default id space of
#: ``n**2`` the :data:`~repro.vectorized.compiler.INT_LIMIT` bound would send
#: every node of an n >= ~46000 network through the reference fallback
SPANNING_TREE_FIELDS = (
    FieldSpec("total"),
    FieldSpec("root_id", limit=ID_LIMIT),
    FieldSpec("parent_id", optional=True, limit=ID_LIMIT),
    FieldSpec("distance"),
    FieldSpec("subtree_size"),
)

#: field layout of :class:`HamiltonianPathLabel` consumed by the path kernel
HAMILTONIAN_PATH_FIELDS = (
    FieldSpec("total"),
    FieldSpec("rank"),
    FieldSpec("root_id", limit=ID_LIMIT),
    FieldSpec("parent_id", optional=True, limit=ID_LIMIT),
)


@runtime_checkable
class VectorizedKernel(Protocol):
    """Bulk verifier of one scheme over a compiled network.

    Implementations are stateless; schemes opt in by registering a kernel
    under their name (see
    :meth:`repro.distributed.registry.SchemeRegistry.register_kernel`).
    """

    #: registry name of the scheme this kernel accelerates
    scheme_name: str

    def supports(self, scheme: Any) -> bool:
        """Return whether this kernel reproduces ``scheme`` exactly.

        Must reject subclasses and any parametrisation that changes the
        verifier's decision function.
        """
        ...

    def accept_vector(self, ctx: VectorContext, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        """Return ``(accept, fallback)`` boolean arrays over ``ctx``'s nodes."""
        ...


# ----------------------------------------------------------------------
# segment reductions over the CSR layout (the kernel-authoring toolkit —
# see docs/KERNELS.md)
# ----------------------------------------------------------------------
# ``starts = indptr[:-1]`` and every adjacency block is non-empty (the
# compiler refuses n < 2), which is the precondition np.add.reduceat needs:
# an empty segment would alias its successor's first element.  Reductions
# over layouts that *can* have empty blocks (the variable-width
# ``EdgeListTable``) must use :func:`scatter_any` instead.

def segment_sum(values: Any, starts: Any) -> Any:
    """Per-node sum of a per-directed-edge int64 array."""
    return np.add.reduceat(values, starts)


def segment_count(flags: Any, starts: Any) -> Any:
    """Per-node count of set flags over a per-directed-edge bool array."""
    return np.add.reduceat(flags.astype(np.int64), starts)


def segment_all(flags: Any, starts: Any) -> Any:
    """Per-node conjunction over a per-directed-edge bool array."""
    return segment_count(~flags, starts) == 0


def segment_any(flags: Any, starts: Any) -> Any:
    """Per-node disjunction over a per-directed-edge bool array."""
    return segment_count(flags, starts) > 0


def segment_sort(segments: Any, *keys: Any) -> Any:
    """Permutation sorting lexicographically by ``(segments, keys[0], ...)``.

    The general tool for per-node *set* checks: apply the returned index
    array to ``segments`` and every parallel value array, and each segment
    becomes a contiguous block whose elements are ordered by the keys —
    adjacent-element comparisons then implement per-segment dedup,
    uniqueness, and chain conditions without any Python loop.  When the sort
    key is a single value with a known bound (the planarity kernel's
    ``G_{T,f}`` indices are below ``2**32``), packing ``segment * bound +
    key`` into one int64 and using a plain ``np.argsort`` computes the same
    permutation faster — see docs/KERNELS.md.
    """
    return np.lexsort(tuple(reversed(keys)) + (segments,))


def segment_rank(sorted_segments: Any) -> Any:
    """0-based rank of every element within its segment run.

    ``sorted_segments`` must already be segment-contiguous (e.g. the segment
    array permuted by :func:`segment_sort`); the ranks restart at 0 at every
    segment boundary, which is what aligns the k-th sorted item of a segment
    with the k-th slot of a parallel per-segment structure.
    """
    count = len(sorted_segments)
    positions = np.arange(count, dtype=np.int64)
    if count == 0:
        return positions
    is_start = np.empty(count, dtype=bool)
    is_start[0] = True
    is_start[1:] = sorted_segments[1:] != sorted_segments[:-1]
    return positions - np.maximum.accumulate(np.where(is_start, positions, 0))


def scatter_any(flags: Any, index: Any, n: int) -> Any:
    """Per-target disjunction of ``flags`` scattered by ``index``.

    Unlike the ``reduceat``-based segment reductions this needs no contiguous
    block layout, so empty targets are legal (they come out ``False``) —
    which is exactly the shape of per-entry→per-node reductions over an
    :class:`~repro.vectorized.compiler.EdgeListTable`.
    """
    return np.bincount(index[flags], minlength=n).astype(bool)


def view_fallback(ctx: VectorContext, table: CertificateTable) -> Any:
    """Nodes whose radius-1 view contains an unrepresentable certificate."""
    bad = table.unrepresentable
    return bad | segment_any(bad[ctx.dst], ctx.starts)


# ----------------------------------------------------------------------
# shared sub-checks (the paper's certification building blocks)
# ----------------------------------------------------------------------
def spanning_tree_accept(ctx: VectorContext, table: CertificateTable) -> Any:
    """Vectorized ``check_spanning_tree_label`` at every node at once.

    ``table`` must be compiled with :data:`SPANNING_TREE_FIELDS`.  Mirrors the
    reference conjuncts: own label present; every neighbor label present with
    matching ``total`` / ``root_id``; the root (``own_id == root_id``) has no
    parent, distance 0 and ``subtree_size == total``; every other node has a
    neighboring parent one distance unit closer; and the subtree counter
    equals one plus the children's counters.
    """
    src, dst, starts = ctx.src, ctx.dst, ctx.starts
    ids = ctx.node_ids
    present = table.present
    total = table.columns["total"]
    root = table.columns["root_id"]
    parent = table.columns["parent_id"]
    parent_none = table.isnone["parent_id"]
    distance = table.columns["distance"]
    size = table.columns["subtree_size"]

    neighbor_ok = present[dst] & (total[dst] == total[src]) & (root[dst] == root[src])
    accept = present & segment_all(neighbor_ok, starts)

    is_root = ids == root
    root_ok = parent_none & (distance == 0) & (size == total)
    # the claimed parent must be a neighbor (ids are distinct, so at most one
    # edge matches) whose distance is exactly one less; ``parent_none`` rows
    # hold column value 0, which a genuine id 0 must not match, hence the mask
    parent_edge = ~parent_none[src] & (ids[dst] == parent[src])
    parent_ok = segment_any(
        parent_edge & present[dst] & (distance[dst] == distance[src] - 1), starts)
    accept &= np.where(is_root, root_ok, ~parent_none & parent_ok)

    child_edge = present[dst] & ~parent_none[dst] & (parent[dst] == ids[src])
    child_sum = segment_sum(np.where(child_edge, size[dst], 0), starts)
    accept &= size == 1 + child_sum
    return accept


def hamiltonian_path_accept(ctx: VectorContext, table: CertificateTable) -> Any:
    """Vectorized ``check_hamiltonian_path_label`` at every node at once.

    ``table`` must be compiled with :data:`HAMILTONIAN_PATH_FIELDS`.  The
    exactly-one-child condition uses the count/sum pair: when the child count
    is 1 the rank sum over child edges *is* the child's rank.
    """
    src, dst, starts = ctx.src, ctx.dst, ctx.starts
    ids = ctx.node_ids
    present = table.present
    total = table.columns["total"]
    rank = table.columns["rank"]
    root = table.columns["root_id"]
    parent = table.columns["parent_id"]
    parent_none = table.isnone["parent_id"]

    neighbor_ok = present[dst] & (total[dst] == total[src]) & (root[dst] == root[src])
    accept = present & (1 <= rank) & (rank <= total) & segment_all(neighbor_ok, starts)

    first = rank == 1
    first_ok = (ids == root) & parent_none
    parent_edge = ~parent_none[src] & (ids[dst] == parent[src])
    parent_ok = segment_any(
        parent_edge & present[dst] & (rank[dst] == rank[src] - 1), starts)
    accept &= np.where(first, first_ok, ~parent_none & parent_ok)

    child_edge = present[dst] & ~parent_none[dst] & (parent[dst] == ids[src])
    child_count = segment_count(child_edge, starts)
    child_rank_sum = segment_sum(np.where(child_edge, rank[dst], 0), starts)
    has_next = rank < total
    next_ok = (child_count == 1) & (child_rank_sum == rank + 1)
    accept &= np.where(has_next, next_ok, child_count == 0)
    return accept


# ----------------------------------------------------------------------
# scheme kernels
# ----------------------------------------------------------------------
class TreeKernel:
    """Bulk verifier of :class:`~repro.core.building_blocks.TreeScheme`."""

    scheme_name = TreeScheme.name
    coverage = "full"

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is TreeScheme

    def accept_vector(self, ctx: VectorContext, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        table = compile_certificates(ctx, certificates, SpanningTreeLabel,
                                     SPANNING_TREE_FIELDS)
        accept = spanning_tree_accept(ctx, table)
        # every incident edge must be a tree edge: the neighbor is my parent
        # or claims me as its parent
        src, dst = ctx.src, ctx.dst
        ids = ctx.node_ids
        parent = table.columns["parent_id"]
        parent_none = table.isnone["parent_id"]
        tree_edge = (~parent_none[src] & (ids[dst] == parent[src])) \
            | (table.present[dst] & ~parent_none[dst] & (parent[dst] == ids[src]))
        accept &= segment_all(tree_edge, ctx.starts)
        return accept, view_fallback(ctx, table)


class PathGraphKernel:
    """Bulk verifier of :class:`~repro.core.building_blocks.PathGraphScheme`."""

    scheme_name = PathGraphScheme.name
    coverage = "full"

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is PathGraphScheme

    def accept_vector(self, ctx: VectorContext, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        table = compile_certificates(ctx, certificates, HamiltonianPathLabel,
                                     HAMILTONIAN_PATH_FIELDS)
        accept = hamiltonian_path_accept(ctx, table)
        accept &= ctx.degrees <= 2
        # every incident edge must be a path edge: consecutive ranks only
        rank = table.columns["rank"]
        consecutive = np.abs(rank[ctx.dst] - rank[ctx.src]) == 1
        accept &= segment_all(consecutive, ctx.starts)
        return accept, view_fallback(ctx, table)


def builtin_kernels() -> list:
    """Return the kernels shipped with the library."""
    # imported lazily: the paper and scheme kernels build on this module's
    # sub-checks
    from repro.vectorized.paper_kernels import NonPlanarityKernel, PlanarityKernel
    from repro.vectorized.scheme_kernels import (
        PathOuterplanarKernel,
        UniversalMapKernel,
    )

    return [PathGraphKernel(), TreeKernel(), NonPlanarityKernel(),
            PlanarityKernel(), PathOuterplanarKernel(), UniversalMapKernel()]
