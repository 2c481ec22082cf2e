"""Vectorized bulk verification on the IndexedGraph CSR arrays.

The paper's verifiers are radius-1 local predicates, which maps directly onto
array kernels: compile the certificate assignment into struct-of-arrays form
(one numpy column per certificate field, indexed by
:class:`~repro.graphs.indexed.IndexedGraph` node id) and decide **all nodes
at once** with CSR gathers and segment reductions instead of a Python
per-node loop.

The subsystem has three layers (documented end to end in
``docs/ARCHITECTURE.md``; the kernel-authoring contract in
``docs/KERNELS.md``):

* :mod:`repro.vectorized.compiler` — network → :class:`VectorContext`
  (certificate-independent CSR/id arrays, cached per network by the engine)
  and assignment → :class:`CertificateTable` (per-field columns, rebuilt per
  trial) or :class:`EdgeListTable` (variable-width per-node lists flattened
  into offsets+values arrays), with an exactness contract that routes
  unrepresentable certificates back to the reference verifier; many-network
  *batches* concatenate into a :class:`BatchedContext` super-CSR
  (:func:`build_batched_context`) that every kernel runs on unchanged;
* :mod:`repro.vectorized.kernels` — the :class:`VectorizedKernel` protocol,
  the segment-reduction toolkit, the shared spanning-tree and
  Hamiltonian-path sub-checks, and the concrete kernels for ``tree-pls``
  and ``path-graph-pls``;
* :mod:`repro.vectorized.paper_kernels` — the headline schemes: full
  kernels for both ``non-planarity-pls`` and ``planarity-pls`` (every
  Algorithm 2 phase compiled to segmented array passes, fallback reserved
  for unrepresentable certificates);
* :mod:`repro.vectorized.scheme_kernels` — the remaining rows of the
  backend-support matrix: full kernels for ``path-outerplanarity-pls``
  (Algorithm 1) and ``universal-map-pls`` (map interning), and the *round*
  kernel for the interactive ``planarity-dmam`` verification round;
* registration — kernels are registered alongside their schemes in
  :func:`repro.distributed.registry.default_registry`; the
  :class:`~repro.distributed.engine.SimulationEngine` selects them with
  ``backend="vectorized"`` and falls back to the reference loop for schemes
  without a kernel.
"""

from repro.vectorized.compiler import (
    ID_LIMIT,
    INT_LIMIT,
    UNREPRESENTABLE,
    BatchedContext,
    CertificateTable,
    EdgeListTable,
    FieldSpec,
    IntervalTable,
    VectorContext,
    build_batched_context,
    build_vector_context,
    compile_certificates,
    compile_edge_lists,
)
from repro.vectorized.kernels import (
    HAMILTONIAN_PATH_FIELDS,
    SPANNING_TREE_FIELDS,
    PathGraphKernel,
    TreeKernel,
    VectorizedKernel,
    builtin_kernels,
    hamiltonian_path_accept,
    scatter_any,
    segment_all,
    segment_any,
    segment_count,
    segment_rank,
    segment_sort,
    segment_sum,
    spanning_tree_accept,
    view_fallback,
)
from repro.vectorized.paper_kernels import (
    EDGE_CERTIFICATE_FIELDS,
    INTERVAL_ENTRY_FIELDS,
    NESTED_SPANNING_TREE_FIELDS,
    NONPLANARITY_FIELDS,
    PLANARITY_FIELDS,
    NonPlanarityKernel,
    PlanarityKernel,
)
from repro.vectorized.scheme_kernels import (
    DMAM_SECOND_FIELDS,
    PATH_OUTERPLANAR_FIELDS,
    CompiledPrepared,
    DMAMRoundKernel,
    PathOuterplanarKernel,
    UniversalMapKernel,
    mulmod_p61,
)

__all__ = [
    "ID_LIMIT",
    "INT_LIMIT",
    "UNREPRESENTABLE",
    "BatchedContext",
    "CertificateTable",
    "EdgeListTable",
    "FieldSpec",
    "IntervalTable",
    "VectorContext",
    "build_batched_context",
    "build_vector_context",
    "compile_certificates",
    "compile_edge_lists",
    "HAMILTONIAN_PATH_FIELDS",
    "SPANNING_TREE_FIELDS",
    "PathGraphKernel",
    "TreeKernel",
    "VectorizedKernel",
    "builtin_kernels",
    "hamiltonian_path_accept",
    "scatter_any",
    "segment_all",
    "segment_any",
    "segment_count",
    "segment_rank",
    "segment_sort",
    "segment_sum",
    "spanning_tree_accept",
    "view_fallback",
    "EDGE_CERTIFICATE_FIELDS",
    "INTERVAL_ENTRY_FIELDS",
    "NESTED_SPANNING_TREE_FIELDS",
    "NONPLANARITY_FIELDS",
    "PLANARITY_FIELDS",
    "NonPlanarityKernel",
    "PlanarityKernel",
    "DMAM_SECOND_FIELDS",
    "PATH_OUTERPLANAR_FIELDS",
    "CompiledPrepared",
    "DMAMRoundKernel",
    "PathOuterplanarKernel",
    "UniversalMapKernel",
    "mulmod_p61",
]
