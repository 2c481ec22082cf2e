"""A batched, caching simulation engine for proof-labeling schemes.

:func:`~repro.distributed.verifier.run_verification` is the reference
implementation of the verification round: build one
:class:`~repro.distributed.network.LocalView` at a time and run the verifier
node by node.  That is the right shape for explaining the model, but the
experiments run the *same* network through the verifier many times — once per
adversarial trial, once per scheme, once per sweep point — and the per-node
loop then rebuilds identical view structure (sorted neighbor identifier
lists, visible-node lists) and re-encodes identical certificates on every
run.

:class:`SimulationEngine` hoists everything that does not depend on the
certificate assignment out of the per-trial loop:

* **structural views** — for each network the engine materialises every
  node's center identifier, sorted neighbor identifiers and visible-node
  list in one pass over the network's compiled
  :class:`~repro.graphs.indexed.IndexedGraph`, and caches the result for the
  lifetime of the network;
* **prover artifacts** — honest certificate assignments are cached per
  ``(network, scheme)``, so sweeps that re-verify the same instance (or
  attack it with transplanted honest certificates) pay the prover once;
* **decision-only verification** — adversarial attacks only need the number
  of accepting nodes, so :meth:`count_accepting` skips the bit-exact
  certificate-size accounting that :func:`run_verification` performs on
  every call.  Under the vectorized backend an attack also pays only for
  what it changed: verification takes one round, so the engine keeps the
  kernel's decisions on each cached honest assignment and, for an
  assignment that differs from it (by certificate identity) within a small
  closed neighbourhood, re-decides just that ball with the reference
  verifier and takes every other decision from the honest vector;
* **trial fan-out** — independent trials (completeness sweep points,
  soundness attacks) can be distributed over a process pool with
  :meth:`run_trials`, with per-trial seeds derived deterministically from the
  engine seed;
* **interactive runtime** — dMA/dMAM protocols execute on the same cached
  view structures: :meth:`run_interactive` reproduces
  :func:`~repro.distributed.interactive.run_interactive_protocol`
  field-for-field under the same seed, Merlin first turns are cached per
  ``(network, protocol)`` as explicit
  :class:`~repro.distributed.interactive.FirstTurn` artifacts, and
  :meth:`estimate_soundness_error` replays many challenge draws through the
  decision-only :meth:`count_accepting_interactive` with the protocol's
  challenge-independent verifier states computed once;
* **vectorized backend** — schemes that registered a
  :class:`~repro.vectorized.kernels.VectorizedKernel` (see
  :mod:`repro.vectorized`) can be verified with array kernels over the
  network's CSR arrays instead of the per-node Python loop: construct the
  engine with ``backend="vectorized"`` (or pass ``backend=`` per call) and
  :meth:`verify` / :meth:`count_accepting` — and therefore every attack or
  sweep evaluated through this engine instance — use the kernels
  transparently.  (:meth:`run_trials` workers run in separate processes and
  construct their own engines, so give those the backend explicitly.)  The
  fallback rules keep the backend
  decision-preserving: schemes without a kernel and networks the compiler
  refuses (n < 2, isolated nodes, oversized identifiers) run the reference
  path wholesale, and individual nodes that can see a certificate
  the array form cannot represent exactly are re-decided by the reference
  verifier;
* **batched sweeps** — :meth:`verify_batch` and :meth:`count_accepting_batch`
  take a whole list of ``(network, certificates)`` items and decide them with
  *one* kernel invocation over a
  :class:`~repro.vectorized.compiler.BatchedContext` super-CSR (cached per
  tuple of member contexts), so a sweep or attack loop pays one compile and
  one array pass per phase instead of one per item; items the batch cannot
  represent (refused networks, no kernel) run the reference loop, and
  flagged nodes fall back per item exactly as in :meth:`verify`.
  Interactive protocols have no kernel: every verification round runs the
  reference loop on every backend.

Every decision takes one path.  :meth:`verify` and :meth:`count_accepting`
are one-item :meth:`verify_batch` / :meth:`count_accepting_batch` calls;
one helper runs every kernel invocation (single network or batched chunk)
with its span, counters and flagged-node re-decide; and one reference loop
serves every reference pass, PLS and interactive alike, whole networks as
well as the balls of local decides.
Everything cached about a network lives in one record, dropped whole when
the network goes away and patched (or started afresh) when its graph
mutates.

The engine is behaviour-preserving: :meth:`verify` returns a
:class:`~repro.distributed.verifier.VerificationResult` equal field-for-field
to the one the per-node loop produces (``tests/test_engine.py`` asserts this
for every registered scheme on planar and non-planar instances).
"""

from __future__ import annotations

import random
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress, count
from operator import is_not
from typing import Any

from repro.distributed.interactive import (
    FirstTurn,
    InteractiveProtocol,
    InteractiveTranscript,
    require_second_message,
)
from repro.distributed.network import Network
from repro.distributed.scheme import ProofLabelingScheme
from repro.distributed.verifier import VerificationResult, certificate_statistics
from repro.distributed.views import (
    NodeStructure,
    assemble_view,
    iter_structures,
    materialize_structures,
    structure_at,
)
from repro.graphs.graph import Graph, Node, PATCH_DELTA_LIMIT
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import current as current_tracer

__all__ = ["SimulationEngine", "NodeStructure", "InteractiveSoundnessEstimate",
           "derive_seed", "BACKENDS"]

#: verification backends selectable on the engine (and per call)
BACKENDS = ("reference", "vectorized")

#: keys of the :attr:`SimulationEngine.backend_counters` compatibility view
#: (a fixed subset of the engine's :class:`MetricsRegistry` counters)
_BACKEND_COUNTER_KEYS = (
    "kernel_calls", "kernel_nodes", "fallback_nodes", "fallback_networks",
    "reference_calls", "reference_nodes", "local_items", "local_nodes",
)

#: a vectorized decide re-decides only the changed ball of an item when the
#: ball holds at most ``n // _LOCAL_BALL_DIVISOR`` of the network's ``n``
#: nodes, and kernel-decides the whole item otherwise.  Measured on
#: planarity meshes of n = 500-1500 on a 2-CPU x86-64 host: the reference
#: verifier took 58-117 us per node, the batched kernel 10-13 us per node
#: of the network, which puts the crossover between n/9 and n/5.
_LOCAL_BALL_DIVISOR = 8


#: nodes per batched super-CSR chunk when the kernel does not declare its
#: own ``batch_node_budget``.  The cap trades kernel-invocation count
#: against cache residency: chunks of this size keep a typical kernel's
#: intermediate arrays inside the last-level cache on commodity cores,
#: while still amortising per-call dispatch over hundreds of small
#: networks.  Kernels with unusually large per-node working sets (the
#: planarity kernel's visibility join) declare a smaller budget.
_DEFAULT_BATCH_NODE_BUDGET = 1 << 16

#: networks :meth:`SimulationEngine.network_for` keeps alive.  A cached
#: network pins its graph, so the cache is a bounded LRU rather than
#: weakref-evicted; evicting a network also drops its per-network record.
_NETWORK_CACHE_SIZE = 32

#: node count from which the per-node view paths *stream* instead of
#: caching: every reference pass (``verify``, ``count_accepting``, both
#: interactive rounds and ``interactive_prepared``) and every re-decide of a
#: kernel's flagged nodes consume :func:`~repro.distributed.views.iter_structures`
#: / :func:`~repro.distributed.views.structure_at` rather than the cached
#: whole-graph structure list, so a million-node verification never holds
#: every node's structure at once.  Below it the cached list stays strictly
#: better (sweeps revisit it per trial).
_STREAM_NODE_THRESHOLD = 1 << 17


def derive_seed(seed: int | None, index: int) -> int | None:
    """Derive a deterministic per-trial seed from a root seed and a trial index."""
    if seed is None:
        return None
    return (seed * 1_000_003 + index * 7_919 + 12_345) % (1 << 63)


def _merged_certificates(assignments: Sequence[dict[Node, Any]]) -> dict:
    """Composite-key view over the per-item certificate assignments.

    A :class:`~repro.vectorized.compiler.BatchedContext` labels node ``i``
    with ``(item_index, label)``; the certificate compiler and the kernels
    only ever call ``certificates.get(label)`` with those labels, so one
    merged ``(item_index, label) -> certificate`` dictionary is the whole
    batched-assignment story.  A real dict (rather than a ``get`` shim over
    the per-item dictionaries) keeps the compiler's per-label lookup a
    C-level call — the compile loop is the per-trial floor of the batched
    path, so a Python frame per label would cost more than the merge."""
    merged: dict = {}
    for item, certificates in enumerate(assignments):
        for label, certificate in certificates.items():
            merged[(item, label)] = certificate
    return merged


def _decision_map(network: Network, accept: Any) -> dict[Node, bool]:
    """Per-node decisions of ``network`` from an accept vector in node order."""
    labels = network.graph.indexed().labels
    return {label: bool(accept[i]) for i, label in enumerate(labels)}


def _accepting(accept: Any) -> int:
    """Accepting-node count of an accept vector (kernel array or bool list)."""
    return int(accept.sum()) if hasattr(accept, "sum") else sum(accept)


def _changed_ball(network: Network, decided: Sequence[Any],
                  certificates: dict[Node, Any]) -> list[int] | None:
    """Node indices whose radius-1 view can differ from the decided assignment.

    A node's certificate has changed when it is not the very object at its
    position of ``decided`` (the decided certificates in node order); the
    ball is every changed node and its CSR neighbours, in node order.
    ``None`` when it holds more than ``n // _LOCAL_BALL_DIVISOR`` nodes.
    """
    indexed = network.graph.indexed()
    limit = len(decided) // _LOCAL_BALL_DIVISOR
    changed = list(compress(count(), map(is_not, map(certificates.get,
                                                     indexed.labels),
                                         decided)))
    if len(changed) > limit:
        return None
    indptr, indices = indexed.indptr, indexed.indices
    ball = set(changed)
    for i in changed:
        ball.update(indices[indptr[i]:indptr[i + 1]])
    return sorted(ball) if len(ball) <= limit else None


@dataclass(frozen=True)
class InteractiveSoundnessEstimate:
    """Acceptance statistics of an interactive protocol over many challenge draws.

    One entry of ``accepting_counts`` per draw: the number of nodes whose
    final verification accepted.  For a dishonest prover on a no-instance,
    :attr:`error_rate` estimates the protocol's soundness error
    (the probability that *every* node accepts); for the honest prover on a
    yes-instance it estimates completeness (and must be ``1.0``).
    """

    protocol_name: str
    trials: int
    total_nodes: int
    accepting_counts: tuple[int, ...]

    @property
    def all_accept_count(self) -> int:
        """Number of draws on which every node accepted."""
        return sum(1 for count in self.accepting_counts
                   if count == self.total_nodes)

    @property
    def error_rate(self) -> float:
        """Fraction of draws on which the prover convinced every node."""
        return self.all_accept_count / self.trials if self.trials else 0.0

    @property
    def max_accepting(self) -> int:
        """Largest per-draw accepting-node count."""
        return max(self.accepting_counts, default=0)


#: marks a :attr:`_NetworkState.context` that was never compiled (``None``
#: already means "the compiler refused this network")
_UNSET = object()


@dataclass(eq=False)
class _HonestDecision:
    """The kernel's decisions on one cached honest assignment.

    Local decides diff an item against :attr:`certificates` by identity, so
    the snapshot, not the live honest dict (which its owner may still
    mutate), is what :attr:`accept` is known to decide.
    """

    #: the honest certificate objects in node order, as decided
    certificates: list[Any]
    #: private copy of the kernel's accept vector for them
    accept: Any
    #: accepting-node count of :attr:`accept`
    accepting: int


@dataclass(eq=False)
class _NetworkState:
    """Everything a :class:`SimulationEngine` caches about one network.

    The engine keeps one record per live network, keyed by ``id(network)``
    and stamped with the graph version its contents were built against.
    Evicting a network (garbage collection, LRU eviction,
    :meth:`SimulationEngine.clear_caches`) drops its record; a mutation of
    the graph replaces it, by :meth:`patched` when the mutation journal
    allows and by an empty record otherwise.
    """

    #: ``Graph._version`` the contents were built against
    version: int
    #: weakref whose callback evicts the record when the network is collected
    finalizer: weakref.ref
    #: every node's view structure, in node order; ``None`` until requested
    structures: list[NodeStructure] | None = None
    #: compiled :class:`~repro.vectorized.compiler.VectorContext`, ``None``
    #: for a network the compiler refuses, or :data:`_UNSET`
    context: Any = _UNSET
    #: honest certificates per ``id(scheme)`` (keyed by identity, not name:
    #: instances of the same scheme class can carry different prover state,
    #: e.g. an explicit witness)
    honest: dict[int, dict[Node, Any]] = field(default_factory=dict)
    #: the kernel's decisions on each honest assignment, under the same
    #: ``id(scheme)`` key; filled by the first vectorized decide that meets
    #: the network and scheme, dropped with the honest assignment
    decided: dict[int, _HonestDecision] = field(default_factory=dict)
    #: encoded certificate sizes of the honest assignments, per
    #: ``id(certificates)``
    sizes: dict[int, dict[Node, int]] = field(default_factory=dict)
    #: honest Merlin first turns per ``id(protocol)`` (identity, as above)
    turns: dict[int, FirstTurn] = field(default_factory=dict)
    #: cheap trace fingerprint (size, edges, identifier range)
    fingerprint: str | None = None

    def patched(self, network: Network) -> _NetworkState | None:
        """A fresh record for ``network`` carried through its edge deltas.

        Only the structure list carries over, re-materialised for the delta
        endpoints (a node's structure depends on nothing beyond its own
        adjacency) and byte-identical to a from-scratch rebuild.  The compiled
        :class:`~repro.vectorized.compiler.VectorContext` is left unset and
        rebuilt on demand from the CSR that :meth:`IndexedGraph.patched
        <repro.graphs.indexed.IndexedGraph.patched>` already patched: a
        patch of it would be O(n) array work too, and saved only a fraction
        of a millisecond per event at n = 2000.  *Assignment-shaped*
        artifacts — honest certificates and their decisions, size
        statistics, first turns, fingerprints — have no
        bounded delta form and stay behind.

        Returns ``None`` when the journal cannot vouch for the mutation
        (truncated, node operations, or more than
        :data:`~repro.graphs.graph.PATCH_DELTA_LIMIT` deltas) — the caller
        then starts from an empty record, which is always safe.
        """
        deltas = network.graph.deltas_since(self.version)
        if not deltas or len(deltas) > PATCH_DELTA_LIMIT or \
                not all(delta.is_edge_op for delta in deltas):
            return None
        fresh = _NetworkState(network.graph._version, self.finalizer)
        tracer = current_tracer()
        with tracer.span("delta_compile") as sp:
            touched: set[Node] = set()
            for delta in deltas:
                touched.add(delta.u)
                touched.add(delta.v)
            cached = self.structures
            if cached is not None:
                index_of = network.graph.indexed().index_of
                for node in touched:
                    i = index_of.get(node)
                    if i is None or i >= len(cached):
                        return None
                    cached[i] = structure_at(network, node)
                fresh.structures = cached
            if sp:
                sp.set(nodes=network.size, deltas=len(deltas),
                       touched=len(touched))
        if tracer.enabled:
            tracer.metrics.count("delta_edges", len(deltas))
            tracer.metrics.count("delta_nodes", len(touched))
        return fresh


class SimulationEngine:
    """Batched prover/verifier simulation with structural and prover caches.

    Parameters
    ----------
    workers:
        Number of worker processes used by :meth:`run_trials`.  ``1`` (the
        default) runs trials serially in-process; larger values fan the
        trials out over a :class:`concurrent.futures.ProcessPoolExecutor`.
    seed:
        Root seed from which per-trial seeds are derived (see
        :func:`derive_seed`); ``None`` leaves trial seeding to the caller.
    backend:
        Default verification backend of :meth:`verify` and
        :meth:`count_accepting` — ``"reference"`` (the per-node loop) or
        ``"vectorized"`` (array kernels for schemes that registered one,
        reference fallback for everything else).  Either method also takes a
        per-call ``backend=`` override.
    kernel_registry:
        Registry the vectorized backend resolves kernels from (anything with
        a ``kernel_for(scheme)`` method, normally a
        :class:`~repro.distributed.registry.SchemeRegistry`); ``None`` uses
        :func:`~repro.distributed.registry.default_registry`.
    """

    def __init__(self, workers: int = 1, seed: int | None = None,
                 backend: str = "reference", kernel_registry: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.workers = workers
        self.seed = seed
        self.backend = backend
        self.kernel_registry = kernel_registry
        # per-engine metrics; backs the backend_counters compatibility view
        # (the alias below shares the registry's counter dict, so the hot
        # increment sites stay plain dict operations)
        self.metrics = MetricsRegistry()
        for name in _BACKEND_COUNTER_KEYS:
            self.metrics.counters[name] = 0
        self._backend_counters = self.metrics.counters
        # one cache record per tracked network: id(network) -> _NetworkState
        self._states: dict[int, _NetworkState] = {}
        # bounded LRU of batched super-CSRs, keyed by the identities of the
        # member VectorContexts, which each entry keeps alive (so a key can
        # never alias): a mutated or evicted member gets a new context, so
        # its stale batches never match again and age out of the LRU
        self._batched_contexts: OrderedDict[tuple[int, ...], tuple[list, Any]] = OrderedDict()
        # bounded LRU of engine-built networks, keyed by (id(graph), seed),
        # each entry stamped with the graph version it was built against;
        # seed=None requests are never cached (fresh random ids per call)
        self._networks: OrderedDict[tuple[int, int], tuple[int, Network]] = OrderedDict()
        # weakrefs that evict a scheme's or protocol's cached artifacts from
        # every record when the caller's scheme/protocol is garbage-collected
        self._owners: dict[int, weakref.ref] = {}

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------
    def _state(self, network: Network) -> _NetworkState:
        """Return the cache record of ``network``, current with its graph.

        The first request tracks the network with a weakref whose callback
        evicts the record.  A mutation of the underlying graph (detected
        through the same counter that guards :meth:`Graph.indexed`) makes
        the record stale at once: a small batch of edge-only deltas patches
        it (:meth:`_NetworkState.patched`), anything else starts it afresh.
        """
        key = id(network)
        version = network.graph._version
        state = self._states.get(key)
        if state is None:
            finalizer = weakref.ref(network, lambda _ref: self._drop_network(key))
            state = self._states[key] = _NetworkState(version, finalizer)
        elif state.version != version:
            state = self._states[key] = (state.patched(network)
                                         or _NetworkState(version, state.finalizer))
        return state

    def _drop_network(self, key: int) -> None:
        """Evict everything cached about the network with ``id(network) == key``.

        Batched contexts need no eviction here: they are keyed by member
        context identity (see :meth:`_batched_context`).
        """
        self._states.pop(key, None)

    def clear_caches(self) -> None:
        """Drop every cached structure, prover artifact, and network."""
        self._states.clear()
        self._networks.clear()
        self._batched_contexts.clear()
        self._owners.clear()

    def network_for(self, graph: Graph, seed: int | None = None,
                    ids: dict[Node, int] | None = None) -> Network:
        """Return a :class:`Network` over ``graph`` (cached when ``ids`` is None).

        The cache is a bounded LRU (``_NETWORK_CACHE_SIZE`` entries): a cached
        network keeps its graph alive, so unbounded weakref caching would pin
        every graph ever passed in.  Evicting a network drops its dependent
        structural/prover/size caches as well.

        Calls with explicit ``ids`` or with ``seed=None`` bypass the cache:
        ``Network(graph)`` means a *fresh random* identifier assignment per
        call, and caching it would silently collapse that distribution to a
        single sample.
        """
        if ids is not None or seed is None:
            return Network(graph, ids=ids, seed=seed)
        key = (id(graph), seed)
        entry = self._networks.get(key)
        if entry is not None:
            version, network = entry
            # a live cache entry pins its graph, so id(graph) cannot have
            # been reused while the entry exists; the identity check is a
            # cheap guard, and the version check drops networks whose id
            # assignment no longer covers a mutated graph's node set
            if network.graph is graph and version == graph._version:
                self._networks.move_to_end(key)
                return network
        network = Network(graph, seed=seed)
        self._networks[key] = (graph._version, network)
        if len(self._networks) > _NETWORK_CACHE_SIZE:
            _, (_, evicted) = self._networks.popitem(last=False)
            self._drop_network(id(evicted))
        return network

    def structures(self, network: Network) -> list[NodeStructure]:
        """Return the cached certificate-independent view structure of every node.

        Nodes appear in the network's node order (the order
        :func:`~repro.distributed.verifier.run_verification` visits them).
        """
        state = self._state(network)
        if state.structures is None:
            state.structures = self._materialize(network)
        return state.structures

    def _structures_for(self, network: Network,
                        nodes: Sequence[int] | None = None,
                        ) -> Iterable[NodeStructure]:
        """Structures of the nodes at indices ``nodes`` (all when ``None``).

        Below ``_STREAM_NODE_THRESHOLD`` nodes they come from the cached
        whole-network list; from the threshold on they are built on demand
        (:func:`iter_structures` / :func:`structure_at`), so no whole-network
        list is materialised or cached.
        """
        if network.size < _STREAM_NODE_THRESHOLD:
            structures = self.structures(network)
            return structures if nodes is None else [structures[i] for i in nodes]
        if nodes is None:
            return iter_structures(network)
        labels = network.graph.indexed().labels
        return [structure_at(network, labels[i]) for i in nodes]

    # the batched materialisation/assembly primitives live in the shared
    # view layer (repro.distributed.views); the engine layers caching on top
    _materialize = staticmethod(materialize_structures)
    _view = staticmethod(assemble_view)

    # ------------------------------------------------------------------
    # batched verification
    # ------------------------------------------------------------------
    def verify(self, scheme: ProofLabelingScheme, network: Network,
               certificates: dict[Node, Any],
               backend: str | None = None) -> VerificationResult:
        """Batched equivalent of :func:`~repro.distributed.verifier.run_verification`.

        ``backend`` overrides the engine default for this call; under
        ``"vectorized"`` the per-node decisions come from the scheme's array
        kernel when one is registered (see the class docstring for the
        fallback rules) and are identical to the reference loop's either way.
        This is a one-item :meth:`verify_batch`.
        """
        return self.verify_batch(scheme, [(network, certificates)], backend)[0]

    def count_accepting(self, scheme: ProofLabelingScheme, network: Network,
                        certificates: dict[Node, Any],
                        backend: str | None = None) -> int:
        """Return how many nodes accept, skipping certificate-size accounting.

        This is the adversary's inner loop: attacks only rank assignments by
        the number of convinced nodes, so the bit-exact encoding pass of
        :func:`run_verification` would be pure overhead here.  ``backend``
        behaves as in :meth:`verify`.  This is a one-item
        :meth:`count_accepting_batch`.
        """
        return self.count_accepting_batch(scheme, [(network, certificates)],
                                          backend)[0]

    def verify_batch(self, scheme: ProofLabelingScheme,
                     network_certificates: Sequence[tuple[Network, dict[Node, Any]]],
                     backend: str | None = None) -> list[VerificationResult]:
        """:meth:`verify` over many ``(network, certificates)`` items at once.

        Under the vectorized backend an item that changes a small ball of a
        decided honest assignment is re-decided on that ball only (see
        :meth:`_local_items`), and the other representable items are decided
        with one kernel invocation per batch chunk (see
        :meth:`_kernel_items`); every other item — and every item under the
        reference backend — runs the reference loop.  The returned results
        are field-for-field identical to calling :meth:`verify` per item, in
        item order.
        """
        items = list(network_certificates)
        results = []
        for (network, certificates), (accept, _) in zip(
                items, self._decide_items(scheme, items, backend)):
            results.append(VerificationResult(
                scheme_name=scheme.name,
                decisions=_decision_map(network, accept),
                certificate_bits=self._certificate_stats(network, certificates),
            ))
        return results

    def count_accepting_batch(self, scheme: ProofLabelingScheme,
                              network_certificates: Sequence[tuple[Network, dict[Node, Any]]],
                              backend: str | None = None) -> list[int]:
        """:meth:`count_accepting` over many items, batch-compiled.

        The adversary's chunked inner loop: attacks stage their candidate
        assignments and rank them from one kernel pass instead of one call
        per trial.  Decisions (and therefore counts) are identical to the
        per-item method's.
        """
        items = list(network_certificates)
        return [accepting for _, accepting
                in self._decide_items(scheme, items, backend)]

    def _decide_items(self, scheme: ProofLabelingScheme,
                      items: Sequence[tuple[Network, dict[Node, Any]]],
                      backend: str | None) -> list[tuple[Any, int]]:
        """Per-item ``(accept vector in node order, accepting count)``: the
        one PLS decision path.

        Under the vectorized backend an item whose changes from its
        network's decided honest assignment fit a small ball is decided
        locally (:meth:`_local_items`), and every other item with a vector
        context by the scheme's kernel (:meth:`_kernel_items`).  Every
        remaining item — all of them under the reference backend, which
        stays the oracle — runs the reference loop over the whole network,
        after its whole-network fallback (no kernel, or a network the
        compiler refuses) is counted and attributed.
        """
        accepts: list[Any] = [None] * len(items)
        counts: list[int | None] = [None] * len(items)
        reason = None
        if self._resolve_backend(backend) == "vectorized":
            kernel = self._kernel_for(scheme)
            if kernel is None:
                reason = "no_kernel"
            else:
                reason = "refused_network"
                self._local_items(scheme, kernel, items, accepts, counts)
                self._kernel_items(scheme, kernel, items, accepts)
        for idx, (network, certificates) in enumerate(items):
            if accepts[idx] is None:
                if reason is not None:
                    self._note_network_fallback(scheme, reason)
                accepts[idx] = self._reference(
                    scheme.name, network, self._pls_decide(scheme, certificates))
        return [(accept, _accepting(accept) if accepting is None else accepting)
                for accept, accepting in zip(accepts, counts)]

    def _local_items(self, scheme: ProofLabelingScheme, kernel: Any,
                     items: Sequence[tuple[Network, dict[Node, Any]]],
                     accepts: list[Any], counts: list[int | None]) -> None:
        """Fill ``accepts`` and ``counts`` for every item decided locally.

        An item is local when its network has a decided honest assignment
        for ``scheme`` (:meth:`_honest_decision`) and the certificates it
        changed, found by identity, have a closed neighbourhood of at most
        ``n // _LOCAL_BALL_DIVISOR`` nodes (:func:`_changed_ball`).  One-round
        verification means only that ball can decide differently: it is
        re-decided by the reference verifier and every other decision comes
        from the honest vector.  The count is the honest count, minus the
        honest accepts in the ball, plus the ball's new accepts.  Other
        items are left for the kernel.  Counted in ``local_items`` /
        ``local_nodes`` and timed in one ``local_decide`` span per call.
        """
        pending = []
        for idx, (network, _) in enumerate(items):
            decided = self._honest_decision(scheme, kernel, network)
            if decided is not None:
                pending.append((idx, decided))
        if not pending:
            return
        counters = self._backend_counters
        with current_tracer().span("local_decide") as sp:
            local = nodes = 0
            for idx, decided in pending:
                network, certificates = items[idx]
                ball = _changed_ball(network, decided.certificates,
                                     certificates)
                if ball is None:
                    continue
                accept = decided.accept.copy()
                accepting = decided.accepting
                if ball:
                    fresh = self._reference(
                        scheme.name, network,
                        self._pls_decide(scheme, certificates), ball)
                    accepting += sum(fresh) - int(accept[ball].sum())
                    accept[ball] = fresh
                accepts[idx], counts[idx] = accept, accepting
                local += 1
                nodes += len(ball)
            counters["local_items"] += local
            counters["local_nodes"] += nodes
            if sp:
                sp.set(scheme=scheme.name, items=local, nodes=nodes)

    def _honest_decision(self, scheme: ProofLabelingScheme, kernel: Any,
                         network: Network) -> _HonestDecision | None:
        """The kernel's decisions on ``network``'s cached honest assignment.

        Decided by one kernel call the first time a vectorized decide meets
        the network and scheme, then kept in the network's record until the
        honest assignment is dropped.  ``None`` when :meth:`certify` cached
        no assignment for ``scheme`` or the compiler refuses the network.
        """
        state = self._state(network)
        key = id(scheme)
        decided = state.decided.get(key)
        if decided is None:
            honest = state.honest.get(key)
            ctx = None if honest is None else self._vector_context(network)
            if ctx is None:
                return None
            accept = self._kernel(
                scheme.name, ctx,
                lambda: kernel.accept_vector(ctx, scheme, honest),
                lambda: [(network, self._pls_decide(scheme, honest))],
                network=network)
            snapshot = list(map(honest.get, network.graph.indexed().labels))
            decided = state.decided[key] = _HonestDecision(
                snapshot, accept.copy(), _accepting(accept))
        return decided

    def _kernel_items(self, scheme: ProofLabelingScheme, kernel: Any,
                      items: Sequence[tuple[Network, dict[Node, Any]]],
                      accepts: list[Any]) -> None:
        """Fill ``accepts`` for every undecided item that has a vector context.

        The items are packed greedily, in order, into chunks of at most the
        kernel's ``batch_node_budget`` nodes (default
        :data:`_DEFAULT_BATCH_NODE_BUDGET`), never the compiler's ``2**31``
        composite-key bound alone: a kernel's per-node working set is what
        decides when a concatenated batch falls out of cache, so heavy
        kernels declare a smaller budget and stay at a few kernel calls per
        sweep instead of one giant memory-bound pass.  A chunk of several
        items is one kernel call over a cached :class:`BatchedContext`
        super-CSR; a one-item chunk is one call on the item's own context.
        """
        from repro.vectorized import INT_LIMIT

        budget = min(INT_LIMIT - 1,
                     getattr(kernel, "batch_node_budget", None)
                     or _DEFAULT_BATCH_NODE_BUDGET)
        groups: list[list[int]] = []
        total = 0
        for idx, (network, _) in enumerate(items):
            ctx = None if accepts[idx] is not None \
                else self._vector_context(network)
            if ctx is None:
                continue
            if not groups or total + ctx.n > budget:
                groups.append([])
                total = 0
            groups[-1].append(idx)
            total += ctx.n
        tracer = current_tracer()
        for chunk, group in enumerate(groups):
            batched = None
            if len(group) > 1:
                with tracer.span("batch_build") as sp:
                    batched = self._batched_context(
                        [items[idx][0] for idx in group])
                    if sp:
                        sp.set(scheme=scheme.name, chunk=chunk,
                               items=len(group),
                               nodes=0 if batched is None else int(batched.n))
            if batched is None:  # one item, or a batch that lost a size race
                for idx in group:
                    network, certificates = items[idx]
                    ctx = self._vector_context(network)
                    accepts[idx] = self._kernel(
                        scheme.name, ctx,
                        lambda: kernel.accept_vector(ctx, scheme, certificates),
                        lambda: [(network, self._pls_decide(scheme, certificates))],
                        network=network)
                continue
            members = [items[idx] for idx in group]
            merged = _merged_certificates([certs for _, certs in members])
            accept = self._kernel(
                scheme.name, batched,
                lambda: kernel.accept_vector(batched, scheme, merged),
                lambda: [(network, self._pls_decide(scheme, certs))
                         for network, certs in members],
                chunk=chunk, items=len(group))
            offsets = batched.node_offsets
            for k, idx in enumerate(group):
                accepts[idx] = accept[offsets[k]:offsets[k + 1]]

    def _kernel(self, name: str, ctx: Any,
                run: Callable[[], tuple[Any, Any]],
                members: Callable[[], list[tuple[Network, Callable]]],
                network: Network | None = None, **attrs: Any) -> Any:
        """One kernel invocation, with its span, counters and fallback.

        ``run()`` calls the kernel over ``ctx`` and returns its
        ``(accept, fallback)`` vectors, inside a ``kernel:<name>`` span
        carrying ``attrs`` (and the fingerprint of ``network``, when given).
        Nodes the kernel flags — their view holds a value the array form
        cannot represent exactly — are re-decided by :meth:`_reference`
        under a ``fallback`` span; ``members()`` lists the
        ``(network, decide)`` pair of each network ``ctx`` concatenates, in
        order, and runs only when some node is flagged.  Returns the accept
        vector, exact.
        """
        tracer = current_tracer()
        with tracer.span("kernel:" + name) as sp:
            if sp:
                sp.set(scheme=name, nodes=int(ctx.n), **attrs)
                if network is not None:
                    sp.set(network=self._fingerprint(network))
            accept, fallback = run()
        counters = self._backend_counters
        counters["kernel_calls"] += 1
        counters["kernel_nodes"] += ctx.n
        if fallback.any():
            nodes = int(fallback.sum())
            counters["fallback_nodes"] += nodes
            if tracer.enabled:
                tracer.metrics.count(
                    f"fallback_nodes.{name}.unrepresentable_view", nodes)
            flagged = fallback.nonzero()[0]
            # a batched context concatenates its members at node_offsets
            offsets = getattr(ctx, "node_offsets", (0, ctx.n))
            with tracer.span("fallback") as sp:
                if sp:
                    sp.set(scheme=name, reason="unrepresentable_view",
                           nodes=nodes, **attrs)
                for k, (member, decide) in enumerate(members()):
                    lo, hi = offsets[k], offsets[k + 1]
                    local = flagged[(flagged >= lo) & (flagged < hi)] - lo
                    if len(local):
                        accept[local + lo] = self._reference(
                            name, member, decide, local)
        return accept

    def _reference(self, name: str, network: Network,
                   decide: Callable[[int, NodeStructure], Any],
                   nodes: Sequence[int] | None = None) -> list[bool]:
        """The per-node reference loop: ``decide(i, structure)`` as bools.

        ``nodes=None`` decides every node, in node order, as one
        whole-network pass counted in ``reference_calls`` /
        ``reference_nodes`` and timed in a ``reference_loop`` span; a
        sequence of node indices re-decides just those nodes (a kernel's
        flagged nodes, or the ball of a local decide), counted and timed by
        the caller.  Structures stream above ``_STREAM_NODE_THRESHOLD``
        (:meth:`_structures_for`).
        """
        structures = self._structures_for(network, nodes)
        if nodes is not None:
            return [bool(decide(i, s)) for i, s in zip(nodes, structures)]
        counters = self._backend_counters
        counters["reference_calls"] += 1
        counters["reference_nodes"] += network.size
        with current_tracer().span("reference_loop") as sp:
            if sp:
                sp.set(scheme=name, nodes=network.size,
                       network=self._fingerprint(network),
                       streamed=network.size >= _STREAM_NODE_THRESHOLD)
            return [bool(decide(i, s)) for i, s in enumerate(structures)]

    def _pls_decide(self, scheme: ProofLabelingScheme,
                    certificates: dict[Node, Any]) -> Callable:
        """A node's reference decision in a PLS round, as ``decide(i, s)``."""
        verify = scheme.verify
        view = self._view

        def decide(_index: int, structure: NodeStructure) -> Any:
            return verify(view(structure, certificates))

        return decide

    def _resolve_backend(self, backend: str | None) -> str:
        if backend is None:
            return self.backend
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        return backend

    def _kernel_for(self, scheme: ProofLabelingScheme) -> Any | None:
        """Resolve the scheme's vectorized kernel (``None`` → reference path)."""
        registry = self.kernel_registry
        if registry is None:
            from repro.distributed.registry import default_registry

            registry = default_registry()
        return registry.kernel_for(scheme)

    def _vector_context(self, network: Network) -> Any | None:
        """Return the cached compiled :class:`VectorContext` of ``network``.

        A network that carries its own context (an attached
        :class:`~repro.distributed.shm.SharedNetwork`) lends it, zero-copy;
        any other is compiled once.  ``None`` entries (networks the compiler
        refuses) are cached too, so a hot reference-fallback loop does not
        recompile per trial.
        """
        state = self._state(network)
        if state.context is _UNSET:
            state.context = getattr(network, "vector_context", None)
            if state.context is None:
                from repro.vectorized import build_vector_context

                state.context = build_vector_context(network)
        return state.context

    #: batched super-CSRs kept alive at once (a sweep reuses one batch per
    #: (section, scheme) item tuple, so a handful covers every benchmark)
    _BATCH_CACHE_SIZE = 8

    def _batched_context(self, networks: Sequence[Network]) -> Any | None:
        """Cached :class:`BatchedContext` over ``networks`` (exact tuple match).

        Keyed by the identities of the member contexts, so a batch is reused
        only while every member still has the context it was built from.
        """
        contexts = [self._vector_context(network) for network in networks]
        key = tuple(id(ctx) for ctx in contexts)
        cached = self._batched_contexts.get(key)
        if cached is not None:
            self._batched_contexts.move_to_end(key)
            return cached[1]
        from repro.vectorized import build_batched_context

        batched = build_batched_context(contexts)
        if batched is None:
            return None
        self._batched_contexts[key] = (contexts, batched)
        if len(self._batched_contexts) > self._BATCH_CACHE_SIZE:
            self._batched_contexts.popitem(last=False)
        return batched

    def _fingerprint(self, network: Network) -> str:
        """Cheap cached trace fingerprint of a network (size, edges, id range)."""
        state = self._state(network)
        if state.fingerprint is None:
            ids = network.ids()
            state.fingerprint = (f"n{network.size}"
                                 f"e{network.graph.number_of_edges()}"
                                 f"#{min(ids, default=0):x}-{max(ids, default=0):x}")
        return state.fingerprint

    def _note_network_fallback(self, scheme: Any, reason: str) -> None:
        """Count a whole-network fallback, attributed to (scheme, reason)."""
        self._backend_counters["fallback_networks"] += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.count(f"fallback_networks.{scheme.name}.{reason}")
            tracer.event("fallback", scheme=scheme.name, reason=reason)

    def _certificate_stats(self, network: Network,
                           certificates: dict[Node, Any]) -> dict[Node, int]:
        """Encode certificate sizes, cached for prover-produced assignments.

        Only assignments held in the prover cache are memoised (they are the
        ones verified repeatedly, and caching arbitrary attack assignments
        would retain every trial's dictionary).
        """
        state = self._state(network)
        honest = any(certs is certificates for certs in state.honest.values())
        stats = state.sizes.get(id(certificates)) if honest else None
        if stats is None:
            with current_tracer().span("size_accounting") as sp:
                if sp:
                    sp.set(nodes=len(certificates))
                stats = certificate_statistics(certificates)
            if honest:
                state.sizes[id(certificates)] = stats
        return stats

    # ------------------------------------------------------------------
    # shared-memory artifact plane
    # ------------------------------------------------------------------
    def export_shared(self, network: Network) -> Any | None:
        """Place ``network``'s compiled :class:`VectorContext` into shared memory.

        Returns a picklable
        :class:`~repro.distributed.shm.SharedNetworkHandle` that
        :meth:`run_trials` specs can carry instead of the network itself.
        Every trial resolves it, in whichever process runs it, to a
        read-only :class:`~repro.distributed.shm.SharedNetwork` that maps the
        one shared copy of the arrays and carries the zero-copy context, so
        a trial engine's first vectorized decide starts at kernel dispatch.
        The caller owns the segment and must call ``handle.unlink()`` when
        done.

        Returns ``None`` whenever the zero-copy path is unavailable — the
        vectorized compiler refuses the network (n < 2, isolated nodes,
        oversized identifiers), or non-integer node labels — in which case callers simply keep the network in the spec
        and the established pickle path applies (see the fallback matrix in
        :mod:`repro.distributed.shm`).
        """
        ctx = self._vector_context(network)
        if ctx is None:
            return None
        from repro.distributed import shm

        return shm.export_network(ctx)

    @property
    def backend_counters(self) -> dict[str, int]:
        """Coverage counters of the verification paths (a read-only snapshot).

        ``kernel_calls`` / ``kernel_nodes`` count the calls (and their node
        totals) actually decided through a kernel; ``fallback_nodes`` counts
        the nodes a kernel flagged for per-node reference re-decision (the
        exactness fallback plus any prefilter-degradation survivors);
        ``fallback_networks`` counts vectorized-backend calls the kernels
        could not serve at all (no kernel, refused network) and
        that ran the reference loop wholesale; and ``reference_calls`` /
        ``reference_nodes`` count every whole-network pass of the per-node
        reference loop — both deliberate ``backend="reference"`` calls and
        vectorized-backend calls that fell back wholesale — so
        mixed-backend comparisons report coverage for *both* sides instead
        of silently carrying stale vectorized counts.  ``local_items`` /
        ``local_nodes`` count the vectorized-backend items decided locally
        and the ball nodes the reference verifier re-decided for them (an
        unchanged honest assignment is a local item with no ball nodes);
        those items count in neither the kernel nor the reference
        counters.  Together with wall-clock these make backend coverage a
        tracked benchmark quantity — a regression that silently reverts a
        kernel to its fallback path shows up here even when decisions stay
        identical.

        The counters live in the engine's :attr:`metrics` registry (this
        property is a compatibility view over the
        :data:`_BACKEND_COUNTER_KEYS` subset).
        """
        counters = self.metrics.counters
        return {name: counters.get(name, 0) for name in _BACKEND_COUNTER_KEYS}

    def reset_backend_counters(self) -> None:
        """Zero the :attr:`backend_counters` (e.g. between benchmark legs)."""
        self.metrics.reset(_BACKEND_COUNTER_KEYS)

    # ------------------------------------------------------------------
    # prover artifacts
    # ------------------------------------------------------------------
    def _track_owner(self, owner: Any) -> int:
        """Track a scheme or protocol whose artifacts the engine caches.

        Returns ``id(owner)`` after registering a weakref finalizer that
        evicts the owner's cached prover artifacts (with their decisions and
        size stats) and first-turn artifacts from every network's record
        when the owner is garbage-collected.
        """
        owner_key = id(owner)
        if owner_key not in self._owners:
            def _evict(_ref: weakref.ref, owner_key: int = owner_key) -> None:
                for state in self._states.values():
                    certificates = state.honest.pop(owner_key, None)
                    state.decided.pop(owner_key, None)
                    if certificates is not None:
                        # drop the size stats keyed by the freed dict's id as
                        # well, or a later allocation at the recycled address
                        # could be served another assignment's sizes
                        state.sizes.pop(id(certificates), None)
                    state.turns.pop(owner_key, None)
                self._owners.pop(owner_key, None)
            self._owners[owner_key] = weakref.ref(owner, _evict)
        return owner_key

    def certify(self, scheme: ProofLabelingScheme, network: Network,
                cache: bool = True) -> dict[Node, Any]:
        """Run the honest prover, caching the assignment per (network, scheme)."""
        if not cache:
            return scheme.prove(network)
        honest = self._state(network).honest
        scheme_key = self._track_owner(scheme)
        certificates = honest.get(scheme_key)
        if certificates is None:
            certificates = scheme.prove(network)
            honest[scheme_key] = certificates
        return certificates

    def certify_and_verify(self, scheme: ProofLabelingScheme, graph: Graph,
                           seed: int | None = None,
                           ids: dict[Node, int] | None = None) -> VerificationResult:
        """Batched equivalent of :func:`~repro.distributed.verifier.certify_and_verify`."""
        network = self.network_for(graph, seed=seed, ids=ids)
        certificates = self.certify(scheme, network)
        return self.verify(scheme, network, certificates)

    # ------------------------------------------------------------------
    # interactive protocols (dMA / dMAM)
    # ------------------------------------------------------------------
    def first_turn(self, protocol: InteractiveProtocol, network: Network,
                   cache: bool = True) -> FirstTurn:
        """Run Merlin's first turn, caching the artifact per (network, protocol).

        The cached :class:`~repro.distributed.interactive.FirstTurn` carries
        the protocol's private prover state (e.g. the dMAM decomposition)
        explicitly, so it stays replayable even when the same protocol
        instance is interleaved across networks.
        """
        if not cache:
            return protocol.first_turn(network)
        turns = self._state(network).turns
        protocol_key = self._track_owner(protocol)
        turn = turns.get(protocol_key)
        if turn is None:
            turn = protocol.first_turn(network)
            turns[protocol_key] = turn
        return turn

    def run_interactive(self, protocol: InteractiveProtocol, network: Network,
                        seed: int | None = None,
                        dishonest_second: dict[Node, Any] | None = None,
                        dishonest_first: dict[Node, Any] | None = None,
                        ) -> InteractiveTranscript:
        """Batched equivalent of :func:`~repro.distributed.interactive.run_interactive_protocol`.

        The transcript is field-for-field identical to the reference runner's
        under the same ``seed`` (asserted by ``tests/test_engine.py``); the
        difference is cost: Merlin's first turn is served from the
        per-(network, protocol) cache and the final verification round runs
        on the engine's cached view structures instead of rebuilding every
        node's :meth:`~repro.distributed.network.Network.local_view`.
        """
        require_second_message(dishonest_first, dishonest_second)
        rng = random.Random(seed)
        turn = None
        if dishonest_first is not None:
            first = dishonest_first
        else:
            turn = self.first_turn(protocol, network)
            # copy: the transcript belongs to the caller (mutating an honest
            # transcript into a dishonest variant is the natural idiom) and
            # must not alias the per-(network, protocol) first-turn cache
            first = dict(turn.messages)
        challenges = protocol.draw_challenges(network, rng)
        if dishonest_second is not None:
            second = dishonest_second
        else:
            second = protocol.second_turn(network, turn, challenges)
        accept = self._interactive_decisions(protocol, network, first,
                                             second, challenges)
        return InteractiveTranscript(
            protocol_name=protocol.name,
            interactions=protocol.interactions,
            first_certificates=first,
            challenges=challenges,
            second_certificates=second,
            decisions=_decision_map(network, accept),
        )

    def _interactive_decisions(self, protocol: InteractiveProtocol,
                               network: Network, first: dict[Node, Any],
                               second: dict[Node, Any],
                               challenges: dict[Node, int],
                               prepared: Sequence[Any] | None = None) -> Any:
        """Accept vector (node order) of one verification round.

        The reference loop decides every node on every backend.  With
        ``prepared`` (see :meth:`interactive_prepared`) each node's
        challenge-independent verifier state is reused and only the
        challenge-dependent half runs.
        """
        with current_tracer().span("interactive_round") as sp:
            if sp:
                sp.set(protocol=protocol.name, nodes=network.size,
                       network=self._fingerprint(network))
            return self._reference(
                protocol.name, network,
                self._round_decide(protocol, network, first, second,
                                   challenges, prepared))

    def _round_decide(self, protocol: InteractiveProtocol, network: Network,
                      first: dict[Node, Any], second: dict[Node, Any],
                      challenges: dict[Node, int],
                      prepared: Sequence[Any] | None) -> Callable:
        """A node's reference decision in an interactive round, as ``decide(i, s)``.

        Without ``prepared`` the protocol's full verifier runs; with it, only
        the challenge-dependent half (:meth:`verify_with_state`) on node
        ``i``'s prepared state.
        """
        paired = {node: (first.get(node), second.get(node))
                  for node in network.nodes()}
        view = self._view

        def decide(index: int, s: NodeStructure) -> Any:
            neighbor_challenges = {vid: challenges[v] for vid, v in
                                   zip(s.visible_ids[1:], s.visible_nodes[1:])}
            if prepared is None:
                return protocol.verify(view(s, paired), challenges[s.node],
                                       neighbor_challenges)
            return protocol.verify_with_state(prepared[index],
                                              view(s, paired),
                                              challenges[s.node],
                                              neighbor_challenges)

        return decide

    def interactive_prepared(self, protocol: InteractiveProtocol,
                             network: Network,
                             first: dict[Node, Any]) -> list[Any]:
        """Challenge-independent verifier states for a fixed first turn.

        One state per node (network node order), computed from views that
        carry only the turn-1 messages; feed the list back into
        :meth:`count_accepting_interactive` to amortise the deterministic
        structural checks over many challenge draws.
        """
        prepare = protocol.prepare_verifier
        view = self._view
        return [prepare(view(s, first))
                for s in self._structures_for(network)]

    def count_accepting_interactive(self, protocol: InteractiveProtocol,
                                    network: Network, first: dict[Node, Any],
                                    second: dict[Node, Any],
                                    challenges: dict[Node, int],
                                    prepared: Sequence[Any] | None = None) -> int:
        """Decision-only interactive round: how many nodes accept.

        The interactive analogue of :meth:`count_accepting` — soundness
        estimation only ranks challenge draws by the number of convinced
        nodes, so the transcript bundling of :meth:`run_interactive` would be
        pure overhead here.  ``prepared`` (from :meth:`interactive_prepared`)
        reuses each node's challenge-independent verifier state.
        """
        return _accepting(self._interactive_decisions(
            protocol, network, first, second, challenges, prepared=prepared))

    def estimate_soundness_error(self, protocol: InteractiveProtocol,
                                 network: Network, trials: int,
                                 seed: int | None = None,
                                 first: dict[Node, Any] | None = None,
                                 second_strategy: Callable[..., dict[Node, Any]] | None = None,
                                 ) -> InteractiveSoundnessEstimate:
        """Acceptance statistics of ``protocol`` over ``trials`` challenge draws.

        Draw ``index`` uses challenges from
        ``random.Random(derive_seed(seed, index))`` (``seed`` defaults to the
        engine seed), so draw ``index`` reproduces
        :func:`run_interactive_protocol` under that derived seed exactly.

        ``first`` fixes Merlin's first message (a dishonest prover in a
        soundness experiment); ``None`` plays the honest cached first turn.
        ``second_strategy(network, first, challenges)`` produces the second
        message per draw; ``None`` plays honest Merlin, which answers only
        the honest first turn, so a fixed ``first`` needs a strategy.  Trials
        are fanned out through :meth:`run_trials` when ``workers > 1`` (each worker
        process rebuilds its own engine, so the protocol, network, and
        ``second_strategy`` must then be picklable).
        """
        require_second_message(first, second_strategy)
        root_seed = self.seed if seed is None else seed
        if self.workers > 1 and trials > 1:
            bounds = [(trials * w // self.workers, trials * (w + 1) // self.workers)
                      for w in range(self.workers)]
            specs = [(protocol, network, first, second_strategy, root_seed,
                      start, stop) for start, stop in bounds if stop > start]
            counts: list[int] = []
            for chunk in self.run_trials(_estimate_chunk, specs):
                counts.extend(chunk)
        else:
            counts = _estimate_counts(self, protocol, network, first,
                                      second_strategy, root_seed, 0, trials)
        return InteractiveSoundnessEstimate(
            protocol_name=protocol.name,
            trials=trials,
            total_nodes=network.size,
            accepting_counts=tuple(counts),
        )

    # ------------------------------------------------------------------
    # trial fan-out
    # ------------------------------------------------------------------
    def run_trials(self, worker: Callable[[Any], Any],
                   specs: Sequence[Any]) -> list[Any]:
        """Map ``worker`` over independent trial ``specs``.

        Runs serially when ``workers == 1``; otherwise fans out over a
        process pool (``worker`` and every spec must then be picklable, e.g.
        a module-level function taking plain tuples).  The pool uses the
        ``spawn`` start method on every platform: fork would duplicate the
        parent's numpy/BLAS thread state (a latent deadlock) and silently
        hide unpicklable workers until the first non-Linux run.  Results
        keep the order of ``specs`` either way.

        Specs may carry :class:`~repro.distributed.shm.SharedNetworkHandle`
        values (from :meth:`export_shared`) anywhere a network would go —
        inside tuples, lists, or dict values.  The process that runs a trial
        resolves them to attached read-only networks before calling
        ``worker``, so worker code written against networks runs against
        handles unchanged; each attached network carries its zero-copy
        :class:`~repro.vectorized.compiler.VectorContext`, so the worker's
        engines compile no context for it.

        When tracing is enabled, each spec runs inside a ``trial`` span; on
        the pool path every worker process installs its own fresh tracer
        and ships its spans and metrics snapshot back through the pool
        result, which the parent tracer absorbs (per-worker totals
        aggregate to the same counters a serial run would record).  The
        parent additionally records ``bytes_pickled.specs`` — the serialised
        size of the shipped specs, the number the shared-memory plane
        exists to shrink.
        """
        from repro.distributed.shm import resolve_spec

        tracer = current_tracer()
        if self.workers == 1 or len(specs) <= 1:
            results = []
            for index, spec in enumerate(specs):
                with tracer.span("trial") as sp:
                    if sp:
                        sp.set(index=index)
                    results.append(worker(resolve_spec(spec)))
            return results
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if tracer.enabled:
            import pickle

            tracer.metrics.count(
                "bytes_pickled.specs",
                sum(len(pickle.dumps(spec)) for spec in specs))
        trial = _Trial(worker, traced=tracer.enabled)
        with ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            outputs = list(pool.map(trial, range(len(specs)), specs))
        if not tracer.enabled:
            return outputs
        results = []
        for index, (result, payload) in enumerate(outputs):
            tracer.absorb(payload, worker=index)
            results.append(result)
        return results


class _Trial:
    """Picklable wrapper running one trial spec in a pool worker.

    The pool ships this instead of the bare worker so that
    :func:`~repro.distributed.shm.resolve_spec` runs *inside* the worker
    process — where the attach maps the shared segment — rather than in the
    parent, where resolution would pull the whole network back into the
    spec and pickle it anyway.

    When the parent traces, the trial runs under a fresh enabled tracer of
    the worker's own (never the fork-inherited copy of the parent's, which
    would re-ship the parent's spans) and returns ``(result,
    trace_payload)``; the parent folds the payload back with
    :meth:`~repro.observability.tracer.Tracer.absorb` — aggregation goes
    through the serialised snapshot, never shared state.
    """

    def __init__(self, worker: Callable[[Any], Any], traced: bool) -> None:
        self.worker = worker
        self.traced = traced

    def __call__(self, index: int, spec: Any) -> Any:
        from repro.distributed.shm import resolve_spec

        if not self.traced:
            return self.worker(resolve_spec(spec))
        from repro.observability.tracer import Tracer, install

        tracer = Tracer(enabled=True)
        previous = install(tracer)
        try:
            with tracer.span("trial") as sp:
                sp.set(index=index)
                result = self.worker(resolve_spec(spec))
        finally:
            install(previous)
        return result, tracer.export_payload()


def _estimate_counts(engine: SimulationEngine, protocol: InteractiveProtocol,
                     network: Network, first: dict[Node, Any] | None,
                     second_strategy: Callable[..., dict[Node, Any]] | None,
                     root_seed: int | None, start: int, stop: int) -> list[int]:
    """Accepting-node counts for draws ``start .. stop - 1`` (one engine).

    The challenge-independent work — the first turn, the view structures,
    the per-node prepared verifier states — is done once; each draw then
    costs one challenge vector, one second turn, and the challenge-dependent
    half of the verification round.
    """
    turn = None
    if first is None:
        turn = engine.first_turn(protocol, network)
        first = turn.messages
    prepared = engine.interactive_prepared(protocol, network, first)
    counts: list[int] = []
    for index in range(start, stop):
        rng = random.Random(derive_seed(root_seed, index))
        challenges = protocol.draw_challenges(network, rng)
        if second_strategy is not None:
            second = second_strategy(network, first, challenges)
        else:
            second = protocol.second_turn(network, turn, challenges)
        counts.append(engine.count_accepting_interactive(
            protocol, network, first, second, challenges, prepared=prepared))
    return counts


def _estimate_chunk(spec: tuple) -> list[int]:
    """Process-pool worker for :meth:`SimulationEngine.estimate_soundness_error`.

    Each worker process rebuilds its own engine (the established
    :meth:`run_trials` pattern), so the spec must be picklable.
    """
    protocol, network, first, second_strategy, root_seed, start, stop = spec
    return _estimate_counts(SimulationEngine(), protocol, network, first,
                            second_strategy, root_seed, start, stop)
