"""Zero-copy shared-memory plane for compiled networks.

``run_trials(workers > 1)`` historically shipped whole networks into every
worker process by pickling them through the pool — at n = 10^6 that is
hundreds of megabytes of adjacency dictionaries serialised, transferred and
rebuilt *per worker*.  A proof-labeling round needs only the network and one
certificate per node, and the certificates travel with the trial spec, so
this module moves the one compiled artifact a worker needs — the network's
:class:`~repro.vectorized.compiler.VectorContext` (CSR adjacency, the
per-directed-edge ``src`` column, identifiers, degrees) — into a
:mod:`multiprocessing.shared_memory` segment, so workers *attach* to one
copy of the bytes instead of deserialising their own.

Two layers:

* :class:`SharedArtifact` — one shm segment holding a manifest of named
  numpy arrays ``(key, dtype, shape, offset)``.  The handle is a small
  frozen dataclass (picklable; a pickled handle is ~200 bytes regardless of
  n) with an explicit per-process refcounted lifecycle:
  :meth:`~SharedArtifact.attach` maps the arrays, :meth:`~SharedArtifact.detach`
  drops one reference (closing the mapping at zero), and the *creator* calls
  :meth:`~SharedArtifact.unlink` to destroy the segment.
* :func:`export_network` / :func:`attach_network` — a
  :class:`SharedNetworkHandle` that reconstructs a read-only
  :class:`SharedNetwork` from the shared arrays.  The network carries its
  zero-copy :class:`~repro.vectorized.compiler.VectorContext` over the same
  pages, which a :class:`~repro.distributed.engine.SimulationEngine` takes
  instead of compiling one, so a worker's first vectorized decide starts at
  kernel dispatch.  The heavy payloads are mapped, not copied; only the
  O(n) label list and the lazy id dictionaries are per-process Python
  objects.

Lifecycle contract (see docs/ARCHITECTURE.md for the narrative version):

* The **creator** process calls :func:`export_arrays` (directly or through
  :func:`export_network`), keeps the handle, and calls
  :meth:`SharedArtifact.unlink` when the experiment is done.  The
  segment stays registered with the creator's ``resource_tracker``, so a
  crashed creator still cleans up at interpreter exit.
* **Attachers** call ``attach`` (directly or through :func:`attach_network`)
  and *must not* unlink.  On CPython 3.11 an attaching process's
  ``resource_tracker`` would also register the segment and unlink it when
  that process exits — destroying it under every other process (bpo-38119;
  ``track=False`` only exists from 3.13) — so :meth:`attach` explicitly
  unregisters non-creator attachments from the tracker.
* Attached array views stay valid only while the attachment is held;
  :meth:`detach` after the views are dead.  :func:`attach_network` caches
  its attachment per process for the process lifetime (trials reuse it),
  which is why worker-side attach counts stay at one per worker.

Fallback matrix (the pickle path stays fully supported):

=====================================  =========================
condition                              behaviour
=====================================  =========================
network refused by the vectorized      ``None`` (no compiled arrays to
compiler (n < 2, isolated nodes,       share); pickle fallback
oversized ids)
non-integer node labels                ``None`` (labels cannot be shared
                                       as an int64 column); pickle fallback
handle inside a ``run_trials`` spec    resolved transparently (serial and
                                       pool paths both attach)
=====================================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.distributed.network import Network
from repro.graphs.graph import Graph
from repro.observability.tracer import current as current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vectorized.compiler import VectorContext

__all__ = [
    "SharedArtifact",
    "SharedNetworkHandle",
    "export_arrays",
    "export_network",
    "attach_network",
    "resolve_spec",
]


class _Segment:
    """Per-process state of one mapped shm segment."""

    __slots__ = ("shm", "refcount", "creator")

    def __init__(self, shm: Any, refcount: int, creator: bool) -> None:
        self.shm = shm
        self.refcount = refcount
        self.creator = creator


#: every segment this process created or attached, keyed by segment name.
#: The registry is what keeps the underlying mmap alive while attached
#: array views exist, and what the refcount assertions of the lifecycle
#: tests read.
_segments: dict[str, _Segment] = {}


@dataclass(frozen=True)
class SharedArtifact:
    """Handle to one shared-memory segment holding named numpy arrays.

    ``manifest`` rows are ``(key, dtype_str, shape, byte_offset)``; the
    handle carries everything needed to re-map the arrays in any process,
    and pickles to a couple hundred bytes no matter how large the arrays
    are — that is the whole point.
    """

    name: str
    manifest: tuple[tuple[str, str, tuple[int, ...], int], ...]
    nbytes: int

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> dict[str, Any]:
        """Map the segment and return read-only array views, refcounted.

        Views are valid only while this attachment is held; call
        :meth:`detach` once per successful ``attach`` when done.  In the
        creator process this maps the already-open segment (no second
        mapping); in any other process the first attach opens the segment
        and unregisters it from that process's ``resource_tracker`` (the
        creator keeps the registration — see the module docstring).
        """
        tracer = current_tracer()
        with tracer.span("shm_attach") as sp:
            if sp:
                sp.set(segment=self.name, bytes=self.nbytes,
                       arrays=len(self.manifest))
            segment = _segments.get(self.name)
            if segment is None:
                shm = shared_memory.SharedMemory(name=self.name)
                # CPython 3.11: attaching registered the segment with a
                # resource tracker (``track=False`` only exists from 3.13).
                # If this process runs its OWN tracker (``_pid`` set — an
                # independently launched attacher), that tracker would
                # unlink the segment when this process exits — under the
                # creator's feet (bpo-38119) — so drop the registration.
                # Pool workers instead INHERIT the creator's tracker
                # (``_pid`` is None: spawn ships the fd in the preparation
                # data); there the attach-register was an idempotent no-op
                # and unregistering would erase the creator's entry.
                try:
                    if resource_tracker._resource_tracker._pid is not None:
                        resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:  # pragma: no cover - tracker internals
                    pass
                segment = _segments[self.name] = _Segment(shm, 0, False)
            segment.refcount += 1
            if tracer.enabled:
                tracer.metrics.count("shm_attach")
                tracer.metrics.count("bytes_attached", self.nbytes)
        return self._views(segment.shm)

    def detach(self) -> None:
        """Drop one attachment; close the mapping when none remain.

        The creator's mapping stays open at refcount zero (it is closed by
        :meth:`unlink`); a pure attacher's mapping is closed and forgotten.
        A detach without a matching attach raises, so unbalanced lifecycle
        code fails loudly instead of leaking.
        """
        segment = _segments.get(self.name)
        if segment is None or segment.refcount <= 0:
            raise RuntimeError(f"detach without attach for segment {self.name!r}")
        segment.refcount -= 1
        if segment.refcount == 0 and not segment.creator:
            segment.shm.close()
            del _segments[self.name]

    def unlink(self) -> None:
        """Destroy the segment (creator side).

        Closes this process's mapping and unlinks the segment from the
        system.  Safe to call once attachments in *other* processes are
        done (their detach only closes their own mapping); idempotent when
        the segment is already gone.
        """
        segment = _segments.pop(self.name, None)
        if segment is not None:
            segment.shm.close()
            if segment.creator:
                segment.shm.unlink()
            return
        try:  # segment created by another process; best-effort cleanup
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return
        shm.close()
        shm.unlink()

    @property
    def refcount(self) -> int:
        """This process's live attachment count (0 when never attached)."""
        segment = _segments.get(self.name)
        return 0 if segment is None else segment.refcount

    # -- internals -------------------------------------------------------
    def _views(self, shm: Any) -> dict[str, Any]:
        views: dict[str, Any] = {}
        for key, dtype, shape, offset in self.manifest:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                              offset=offset)
            view.flags.writeable = False
            views[key] = view
        return views


def export_arrays(arrays: dict[str, Any]) -> SharedArtifact:
    """Copy ``arrays`` into a fresh shm segment; return its handle.

    The one copy of the artifact's lifetime happens here — every attach
    afterwards maps the same bytes.  Array offsets are 64-byte aligned.
    The calling process is the segment's creator (see the module docstring
    for the lifecycle contract); tracing records an ``shm_export`` span and
    a ``bytes_shared`` counter.
    """
    contiguous = {key: np.ascontiguousarray(value)
                  for key, value in arrays.items()}
    manifest: list[tuple[str, str, tuple[int, ...], int]] = []
    offset = 0
    for key, array in contiguous.items():
        offset = (offset + 63) & ~63
        manifest.append((key, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    total = max(offset, 1)
    tracer = current_tracer()
    with tracer.span("shm_export") as sp:
        if sp:
            sp.set(bytes=total, arrays=len(manifest))
        shm = shared_memory.SharedMemory(create=True, size=total)
        for (key, dtype, shape, start), array in zip(manifest,
                                                     contiguous.values()):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                              offset=start)
            view[...] = array
        _segments[shm.name] = _Segment(shm, 0, True)
        if tracer.enabled:
            tracer.metrics.count("shm_export")
            tracer.metrics.count("bytes_shared", total)
    return SharedArtifact(name=shm.name, manifest=tuple(manifest),
                          nbytes=total)


# ---------------------------------------------------------------------------
# shared networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedNetworkHandle:
    """Picklable stand-in for a :class:`Network` inside ``run_trials`` specs.

    Produced by :meth:`SimulationEngine.export_shared
    <repro.distributed.engine.SimulationEngine.export_shared>` (or
    :func:`export_network`); resolved back into a read-only network by
    :func:`attach_network` — ``run_trials`` does this transparently for
    handles found inside trial specs, on the serial and pool paths alike.
    """

    artifact: SharedArtifact
    n: int

    def unlink(self) -> None:
        """Destroy the underlying segment (creator-side teardown)."""
        self.artifact.unlink()


def export_network(ctx: "VectorContext") -> SharedNetworkHandle | None:
    """Place a compiled :class:`VectorContext` into shared memory.

    Returns ``None`` when the context cannot be shared: node labels that are
    not plain ints (the label column is int64; see the fallback matrix in the
    module docstring).
    """
    if any(type(label) is not int for label in ctx.labels):
        return None
    artifact = export_arrays({
        "labels": np.array(ctx.labels, dtype=np.int64),
        "node_ids": ctx.node_ids,
        "indptr": ctx.indptr,
        "src": ctx.src,
        "dst": ctx.dst,
        "degrees": ctx.degrees,
    })
    return SharedNetworkHandle(artifact=artifact, n=ctx.n)


#: per-process attachment cache: segment name -> attached network.  One
#: attach per worker process per shared network, however many trial specs
#: reference the handle.
_attached: dict[str, SharedNetwork] = {}


def attach_network(handle: SharedNetworkHandle) -> SharedNetwork:
    """Reconstruct the read-only :class:`SharedNetwork` behind ``handle``.

    The CSR arrays, identifiers and ``src`` column are zero-copy views of
    the shared segment, and so is the network's
    :attr:`~SharedNetwork.vector_context`, which engines use instead of
    compiling their own.  The label list and the ``label -> index`` mapping
    are rebuilt per process (O(n) Python objects, a small fraction of what
    pickling the adjacency dictionaries would allocate), and the
    ``label <-> identifier`` dictionaries are built lazily — the vectorized
    trial path never touches them.  Cached per process, so repeated specs
    referencing the same handle attach once.
    """
    network = _attached.get(handle.artifact.name)
    if network is not None:
        return network
    from repro.graphs.indexed import IndexedGraph
    from repro.vectorized.compiler import VectorContext

    arrays = handle.artifact.attach()
    labels = arrays["labels"].tolist()
    indexed = IndexedGraph.__new__(IndexedGraph)
    indexed.labels = labels
    indexed.index_of = {label: i for i, label in enumerate(labels)}
    indexed.indptr = arrays["indptr"]
    indexed.indices = arrays["dst"]
    indexed.degrees = arrays["degrees"]
    indexed._csr_arrays = (arrays["indptr"], arrays["dst"])
    context = VectorContext(
        n=handle.n,
        labels=labels,
        node_ids=arrays["node_ids"],
        indptr=arrays["indptr"],
        starts=arrays["indptr"][:-1],
        src=arrays["src"],
        dst=arrays["dst"],
        degrees=arrays["degrees"],
    )
    network = SharedNetwork(_SharedGraph(indexed), arrays["node_ids"], context)
    _attached[handle.artifact.name] = network
    return network


def resolve_spec(spec: Any) -> Any:
    """Replace every :class:`SharedNetworkHandle` in ``spec`` by its network.

    Recurses through tuples, lists and dict values (the shapes trial specs
    are built from); anything else passes through untouched.  Called by
    ``run_trials`` on both the serial and the pool path, so worker code
    written against networks needs no changes to run against handles.
    """
    if isinstance(spec, SharedNetworkHandle):
        return attach_network(spec)
    if isinstance(spec, tuple):
        return tuple(resolve_spec(item) for item in spec)
    if isinstance(spec, list):
        return [resolve_spec(item) for item in spec]
    if isinstance(spec, dict):
        return {key: resolve_spec(value) for key, value in spec.items()}
    return spec


class _SharedGraph(Graph):
    """Read-only :class:`Graph` over a shared :class:`IndexedGraph`.

    Subclasses :class:`Graph` for isinstance compatibility but keeps every
    query on the CSR arrays; the adjacency-set dictionary — the single
    largest allocation a pickled network rebuilds — is materialised only if
    something reaches for ``_adj`` directly (only the remaining inherited
    read helpers — ``edges``, ``subgraph``, ``copy``, interop — do).
    Mutation is refused: the shared arrays are one immutable snapshot
    mapped by many processes.
    """

    def __init__(self, indexed: Any) -> None:
        # deliberately does NOT call Graph.__init__: _adj is a lazy property
        # here, and the version/index caches are pinned to the shared arrays.
        self._indexed = indexed
        self._version = 0
        self._indexed_cache = (0, indexed)
        self._lazy_adj: dict | None = None

    # -- Graph interface (read side) ------------------------------------
    @property
    def _adj(self) -> dict:
        if self._lazy_adj is None:
            indexed = self._indexed
            labels = indexed.labels
            self._lazy_adj = {
                label: {labels[j] for j in indexed.neighbors_of(i)}
                for i, label in enumerate(labels)}
        return self._lazy_adj

    def indexed(self) -> Any:
        return self._indexed

    def nodes(self):
        return iter(self._indexed.labels)

    def neighbors(self, node: Any) -> set:
        indexed = self._indexed
        labels = indexed.labels
        return {labels[j] for j in indexed.neighbors_of(indexed.index(node))}

    def degree(self, node: Any) -> int:
        indexed = self._indexed
        return int(indexed.degree_of(indexed.index(node)))

    def has_node(self, node: Any) -> bool:
        return node in self._indexed.index_of

    def has_edge(self, u: Any, v: Any) -> bool:
        indexed = self._indexed
        iu = indexed.index_of.get(u)
        iv = indexed.index_of.get(v)
        if iu is None or iv is None:
            return False
        return any(int(j) == iv for j in indexed.neighbors_of(iu))

    def number_of_nodes(self) -> int:
        return self._indexed.n

    def number_of_edges(self) -> int:
        return self._indexed.m

    def is_connected(self) -> bool:
        return self._indexed.is_connected()

    def __len__(self) -> int:
        return self._indexed.n

    def __contains__(self, node: Any) -> bool:
        return node in self._indexed.index_of

    def __iter__(self):
        return iter(self._indexed.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_SharedGraph(n={self._indexed.n}, m={self._indexed.m})"

    # -- mutation is refused --------------------------------------------
    def _refuse(self, *_args: Any, **_kwargs: Any) -> None:
        from repro.exceptions import GraphError

        raise GraphError("shared networks are read-only; mutate the original "
                         "network and re-export")

    add_node = add_edge = _refuse
    remove_edge = remove_node = _refuse


class SharedNetwork(Network):
    """A :class:`Network` reconstructed from shared memory (read-only).

    Skips :meth:`Network.__init__` entirely: connectivity and identifier
    validation happened in the creator before export, and the eager
    ``label <-> identifier`` dictionaries would be pure per-worker overhead
    for vectorized trials — they are built lazily for reference-path
    callers instead.
    """

    def __init__(self, graph: _SharedGraph, node_ids: Any,
                 vector_context: "VectorContext") -> None:
        self.graph = graph
        #: the zero-copy compiled context over the shared pages; the graph
        #: is read-only, so it stays valid for the network's lifetime
        self.vector_context = vector_context
        self._shared_ids = node_ids
        self._lazy_id_of: dict | None = None
        self._lazy_node_of: dict | None = None

    @property
    def _id_of(self) -> dict:
        if self._lazy_id_of is None:
            self._lazy_id_of = dict(zip(self.graph._indexed.labels,
                                        self._shared_ids.tolist()))
        return self._lazy_id_of

    @property
    def _node_of(self) -> dict:
        if self._lazy_node_of is None:
            self._lazy_node_of = dict(zip(self._shared_ids.tolist(),
                                          self.graph._indexed.labels))
        return self._lazy_node_of

    def nodes(self) -> list:
        return list(self.graph._indexed.labels)

    def ids(self) -> list:
        return self._shared_ids.tolist()
