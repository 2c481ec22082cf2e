"""Streamed incremental audit of a mutating network.

:class:`DynamicAuditor` is the delta path's top-level workflow: hold a
network, an honest prover's certificate assignment, and every node's current
decision; per edge event, *repair* the certificates locally
(:mod:`repro.dynamic.repair`) and *re-decide only the radius-1 neighbourhood
of the change*, reusing every other node's prior decision.

Correctness rests on radius-1 locality: a node's decision is a function of
its own certificate, its neighbours' certificates, and its incident edges.
The dirty set after an event plus a repair is therefore

    {event endpoints} ∪ changed ∪ (∪_{w ∈ changed} current-neighbours(w))

— every node outside it provably sees an unchanged local view, so its prior
decision stands verbatim.  When the graph's mutation journal has been
truncated past the auditor's version (:meth:`Graph.deltas_since
<repro.graphs.graph.Graph.deltas_since>` returns ``None``) nothing bounds
the change, so the auditor re-proves and re-decides the whole world —
counted as a fallback, never silently.

Observability: each event runs under a ``radius1_verify`` span and feeds the
``delta_nodes`` (dirty nodes re-decided), ``delta_edges`` (edge deltas
consumed), and ``repair_fallbacks`` counters of the installed tracer, which
is what the benchmark's trace gate asserts over.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.distributed.views import assemble_view, structure_at
from repro.dynamic.repair import RepairResult, repairer_for
from repro.graphs.graph import Node
from repro.observability.tracer import current as current_tracer

__all__ = ["DynamicAuditor", "EventReport"]


@dataclass(frozen=True)
class EventReport:
    """What one :meth:`DynamicAuditor.apply_event` call did."""

    op: str
    u: Node
    v: Node | None
    #: whether the repairer believes the mutated graph is still in the class
    member: bool
    #: the repair fell back to a full re-prove (counted)
    fallback: bool
    #: repairer's reason string when it took a non-trivial path
    reason: str | None
    #: nodes whose certificate object changed
    changed: int
    #: nodes re-decided this event (the radius-1 dirty set)
    redecided: int
    #: identifiers of re-decided nodes that now reject (sorted)
    alarms: tuple[int, ...]
    #: whether every node of the network currently accepts
    accept_all: bool


class DynamicAuditor:
    """Audit a mutating overlay without whole-world recomputes.

    Parameters
    ----------
    network:
        The live network; the auditor mutates ``network.graph`` through
        :meth:`apply_event` and must be the only writer.
    scheme:
        A proof-labeling scheme with a repairer registered in
        :func:`~repro.dynamic.repair.repairer_for` (``tree-pls`` /
        ``planarity-pls``).
    """

    def __init__(self, network: Any, scheme: Any) -> None:
        self.network = network
        self.scheme = scheme
        self.repairer = repairer_for(scheme)
        if self.repairer is None:
            raise ValueError(
                f"no certificate repairer is registered for {scheme.name!r}")
        self.certificates: dict[Node, Any] = {}
        self.decisions: dict[Node, bool] = {}
        #: how many values of ``decisions`` are ``False``, kept per event so
        #: no report scans the whole decision map
        self._rejecting = 0
        self.events = 0
        self.fallbacks = 0
        self._version = network.graph._version

    # ------------------------------------------------------------------
    def baseline(self) -> dict[Node, bool]:
        """Prove the current graph and decide every node once, from scratch.

        Must be called before the first :meth:`apply_event`.  Raises the
        scheme's :class:`~repro.exceptions.NotInClassError` when the starting
        graph is not in the class — the incremental audit streams *from* a
        valid state.
        """
        network = self.network
        self.certificates = self.scheme.prove(network)
        self.decisions = self._decide(network.nodes())
        self._rejecting = sum(not ok for ok in self.decisions.values())
        self._version = network.graph._version
        return dict(self.decisions)

    def apply_event(self, op: str, u: Node, v: Node | None = None) -> EventReport:
        """Apply one edge event, repair, and re-decide the dirty set."""
        return self.apply_events([(op, u, v)])

    def apply_events(self, events: list) -> EventReport:
        """Apply a batch of edge events, then repair and re-decide once.

        Batching is semantic, not just an optimisation: a tree edge *swap*
        (remove one edge, add another) is only repairable when both deltas
        reach the repairer together — split across two calls, each half
        leaves the class of trees and forces a full fallback.
        """
        if not events:
            raise ValueError("empty event batch")
        network = self.network
        graph = network.graph
        endpoints: set[Node] = set()
        for op, u, v in events:
            if op == "add_edge":
                graph.add_edge(u, v)
            elif op == "remove_edge":
                graph.remove_edge(u, v)
            else:
                raise ValueError(f"unsupported dynamic event {op!r}; "
                                 "node events change the identifier cover")
            endpoints.add(u)
            endpoints.add(v)
        op, u, v = events[-1]
        self.events += len(events)
        deltas = graph.deltas_since(self._version)
        tracer = current_tracer()
        if deltas is not None and tracer.enabled:
            tracer.metrics.count("delta_edges", len(deltas))

        result: RepairResult = self.repairer.repair(
            network, self.certificates, deltas)
        self.certificates = result.certificates
        if result.fallback:
            self.fallbacks += 1
            if tracer.enabled:
                tracer.metrics.count("repair_fallbacks")

        if deltas is None:
            # journal truncated: nothing bounds the change, re-decide all
            dirty = set(network.nodes())
        else:
            adj = graph._adj
            dirty = set(endpoints)
            dirty.update(result.changed)
            for w in result.changed:
                dirty.update(adj[w])

        with tracer.span("radius1_verify") as sp:
            decided = self._decide(dirty)
            if sp:
                sp.set(scheme=self.scheme.name, nodes=len(dirty),
                       changed=len(result.changed),
                       fallback=result.fallback)
        if tracer.enabled:
            tracer.metrics.count("delta_nodes", len(dirty))
        decisions = self.decisions
        for node, ok in decided.items():
            self._rejecting += int(decisions.get(node, True)) - int(ok)
        decisions.update(decided)
        self._version = graph._version

        id_of = network.id_of
        alarms = tuple(sorted(id_of(node) for node, ok in decided.items()
                              if not ok))
        return EventReport(
            op=op, u=u, v=v, member=result.member, fallback=result.fallback,
            reason=result.reason, changed=len(result.changed),
            redecided=len(dirty), alarms=alarms,
            accept_all=self._rejecting == 0)

    # ------------------------------------------------------------------
    def _decide(self, nodes: Any) -> dict[Node, bool]:
        network = self.network
        certificates = self.certificates
        verify = self.scheme.verify
        return {node: bool(verify(assemble_view(
                    structure_at(network, node), certificates)))
                for node in nodes}

    def decisions_digest(self) -> str:
        """A digest of the full decision vector, keyed by node identifier.

        Byte-identical across the incremental path and a from-scratch
        verification of the same graph state — the benchmark's identity
        gate compares exactly this string.
        """
        id_of = self.network.id_of
        blob = "\n".join(
            f"{identifier}:{int(decision)}"
            for identifier, decision in sorted(
                (id_of(node), decision)
                for node, decision in self.decisions.items()))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()
