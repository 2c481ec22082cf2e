"""Patch a compiled :class:`~repro.vectorized.compiler.VectorContext` after
edge-only deltas.

The compilers in :mod:`repro.vectorized.compiler` build a network's vector
context from scratch.  After a small edge event only the CSR-derived arrays
change; :func:`patch_vector_context` re-derives those from the already
patched :class:`~repro.graphs.indexed.IndexedGraph` and carries the
node-identity arrays over.  The engine's
:meth:`~repro.distributed.engine._NetworkState.patched` calls it whenever it
patches a network's cache record that holds a compiled context.
"""

from __future__ import annotations

from typing import Any

from repro.vectorized.compiler import HAVE_NUMPY, VectorContext

if HAVE_NUMPY:
    import numpy as np

__all__ = ["patch_vector_context"]


def patch_vector_context(ctx: VectorContext, network: Any) -> VectorContext | None:
    """Rebuild the CSR-derived arrays of ``ctx`` after edge-only deltas.

    The heavy lifting already happened in
    :meth:`IndexedGraph.patched <repro.graphs.indexed.IndexedGraph.patched>`
    (reached through ``network.graph.indexed()``); this only re-derives the
    directed-edge arrays and reuses the node-identity arrays — the node set
    is unchanged for edge-only deltas, so ``labels`` / ``node_ids`` and the
    sorted id index carry over, while the edge index is dropped.  Returns
    ``None`` when the patched network no longer qualifies for the vectorized
    backend (isolated node after a removal), mirroring
    :func:`~repro.vectorized.compiler.build_vector_context`.
    """
    if not HAVE_NUMPY:
        return None
    indexed = network.graph.indexed()
    if indexed.n != ctx.n or indexed.n < 2:
        return None
    indptr, indices = indexed.csr_arrays()
    degrees = np.diff(indptr)
    if int(degrees.min()) == 0:
        return None
    src = np.repeat(np.arange(ctx.n, dtype=np.int64), degrees)
    return VectorContext(
        n=ctx.n,
        labels=ctx.labels,
        node_ids=ctx.node_ids,
        indptr=indptr,
        starts=indptr[:-1],
        src=src,
        dst=indices,
        degrees=degrees,
        _id_index=ctx._id_index,
    )
