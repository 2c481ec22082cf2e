"""Incremental recompilation and certificate repair for dynamic networks.

The rest of the library assumes whole-world recompute: any mutation of a
:class:`~repro.graphs.graph.Graph` bumps its version counter and every
compiled artifact is rebuilt from scratch.  This package is the delta path
for churning overlays:

* :mod:`repro.dynamic.repair` — honest-prover certificate *repair*: update
  spanning-tree distances/parents and planarity interval maps locally after
  an edge event, falling back to a full re-prove (counted) when the repair
  cascades;
* :mod:`repro.dynamic.incremental` — :class:`DynamicAuditor`, the streamed
  churn workflow: apply an edge event, repair the certificates, and
  re-decide only the radius-1 neighbourhood of the change, reusing every
  other node's prior decision.

The graph-layer half of the story (the bounded mutation journal and CSR
patching) lives on :class:`~repro.graphs.graph.Graph` /
:class:`~repro.graphs.indexed.IndexedGraph` themselves, and the engine's
delta-aware cache invalidation in
:meth:`~repro.distributed.engine.SimulationEngine._state` (which patches a
network's cache record through
:meth:`~repro.distributed.engine._NetworkState.patched`).
"""

from repro.dynamic.incremental import DynamicAuditor, EventReport
from repro.dynamic.repair import (PlanarityRepairer, RepairResult,
                                  SpanningTreeRepairer, repairer_for)

__all__ = [
    "DynamicAuditor",
    "EventReport",
    "RepairResult",
    "SpanningTreeRepairer",
    "PlanarityRepairer",
    "repairer_for",
]
