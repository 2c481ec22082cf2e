"""Compilation of networks and certificate assignments into array form.

The vectorized backend verifies all nodes of a network at once, which needs
two ingredients in struct-of-arrays form, both indexed by the node ids of the
network's compiled :class:`~repro.graphs.indexed.IndexedGraph`:

* a :class:`VectorContext` — the certificate-independent part: the CSR
  adjacency (``indptr`` / ``dst``), the matching per-directed-edge source
  index ``src``, and the network identifier of every node.  It is built once
  per network (the :class:`~repro.distributed.engine.SimulationEngine` caches
  it alongside its structural views), or not at all for a network attached
  from shared memory, which carries a zero-copy one over the shared pages
  (:mod:`repro.distributed.shm`);
* a :class:`CertificateTable` — the certificate-dependent part: one int64
  column per declared certificate field plus presence masks, rebuilt per
  assignment (the per-trial cost of the backend).

**Exactness contract.**  The kernels must reproduce the reference verifier's
per-node decisions bit for bit, including on adversarial assignments, so the
compiler never coerces a value it cannot represent exactly: a certificate
that is not an instance of the kernel's certificate class, or that carries a
non-integer field, or an integer outside ``(-2**31, 2**31)`` (the bound that
keeps every segment sum inside int64), is marked *unrepresentable*.  The
engine re-runs the reference verifier at every node that can see an
unrepresentable certificate, so such assignments stay correct — they just
leave the fast path.  ``None`` certificates (absent nodes) are representable:
the reference verifiers reject on them locally, and the kernels mirror that
through the ``present`` mask.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.observability.tracer import current as current_tracer

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.network import Network

__all__ = [
    "INT_LIMIT",
    "ID_LIMIT",
    "COMPILE_CHUNK",
    "UNREPRESENTABLE",
    "FieldSpec",
    "VectorContext",
    "BatchedContext",
    "CertificateTable",
    "EdgeListTable",
    "IntervalTable",
    "build_vector_context",
    "build_batched_context",
    "compile_certificates",
    "compile_edge_lists",
    "NONE_SENTINEL",
]

#: certificate integer fields must lie strictly inside ``(-INT_LIMIT, INT_LIMIT)``
#: so that a per-node sum of up to ``n < 2**31`` of them cannot overflow int64.
INT_LIMIT = 1 << 31

#: network identifiers only ever sit on one side of an equality comparison, so
#: they merely need to be exactly representable as int64.
ID_LIMIT = 1 << 62

#: node-range chunk of the streamed table compilers: the per-chunk Python
#: staging lists are bounded by this many rows before being flushed into the
#: dense int64 arrays, so a 10^6-node compile never holds per-node Python int
#: objects for the whole graph at once.  Mirrors the default
#: ``batch_node_budget`` of the batched sweeps — one knob scale-reasons about
#: both the sweep slabs and the compile staging.
COMPILE_CHUNK = 1 << 16


#: sentinel a :attr:`FieldSpec.getter` returns to mark the whole certificate
#: unrepresentable (e.g. a nested object of the wrong type); never a value
UNREPRESENTABLE = object()


@dataclass(frozen=True)
class FieldSpec:
    """One certificate field a kernel consumes: its name and optionality.

    ``optional`` fields may hold ``None`` (tracked in a separate mask, since
    the reference checks distinguish ``None`` from any integer value, -1
    included).

    ``limit`` bounds the accepted magnitude (values must lie strictly inside
    ``(-limit, limit)``).  The default :data:`INT_LIMIT` keeps segment *sums*
    of the column inside int64; fields that only ever sit in equality
    comparisons or ``± 1`` arithmetic (identifiers, positions) may relax it to
    :data:`ID_LIMIT`, matching the bound on network identifiers.

    ``getter`` overrides plain attribute access for *derived* fields: nested
    dataclass attributes (``certificate.spanning_tree.total``), fixed-width
    slots of a variable-length tuple, or computed flags.  A getter returns the
    field value, ``None`` (optional fields), or :data:`UNREPRESENTABLE` to
    route every node that can see this certificate through the reference
    fallback.  Getters must be total — raising is a kernel bug, not a
    fallback signal.
    """

    name: str
    optional: bool = False
    limit: int = INT_LIMIT
    getter: Callable[[Any], Any] | None = None


@dataclass
class VectorContext:
    """Certificate-independent arrays of one network (read-only once built).

    ``dst[indptr[i]:indptr[i + 1]]`` are the neighbor indices of node ``i``
    (repr-sorted CSR layout) and ``src`` is the parallel source-index array,
    so per-directed-edge gathers are ``column[src]`` / ``column[dst]`` and
    per-node reductions are ``reduceat`` over ``starts = indptr[:-1]``.
    Connected networks with ``n >= 2`` have no empty adjacency block, which is
    exactly the precondition ``reduceat`` needs; :func:`build_vector_context`
    refuses smaller networks.

    Deliberately holds no reference back to the network: the engine caches
    contexts keyed by network identity and relies on garbage collection of
    the network to evict them.
    """

    n: int
    labels: list
    node_ids: Any
    indptr: Any
    starts: Any
    src: Any
    dst: Any
    degrees: Any
    _id_index: Any = None
    _edge_index: Any = None

    def id_index(self) -> tuple:
        """Return ``(order, sorted_ids)`` for identifier→node-index lookups.

        Certificate-independent, so it is computed once per context (the
        engine caches contexts per network) rather than per trial.
        """
        cached = self._id_index
        if cached is None:
            order = np.argsort(self.node_ids, kind="stable")
            cached = (order, self.node_ids[order])
            self._id_index = cached
        return cached

    def edge_index(self) -> tuple:
        """Return ``(order, sorted_keys)`` over the ``src * n + dst`` keys,
        for locating a directed edge's CSR position by endpoint pair (also
        certificate-independent, cached on the context)."""
        cached = self._edge_index
        if cached is None:
            keys = self.src * self.n + self.dst
            order = np.argsort(keys, kind="stable")
            cached = (order, keys[order])
            self._edge_index = cached
        return cached

    def resolve_ids(self, viewers: Any, queries: Any) -> tuple:
        """Resolve identifier ``queries`` to node indices: ``(nodes, found)``.

        ``viewers`` carries the querying node per entry; a single-network
        context resolves against its global id table regardless, but the
        :class:`BatchedContext` override restricts each lookup to the
        viewer's own network — kernels written against this method work on
        both context kinds unchanged.  Positions are clamped into range so
        callers can gather parallel arrays unconditionally.
        """
        order, sorted_ids = self.id_index()
        positions = np.minimum(np.searchsorted(sorted_ids, queries),
                               len(sorted_ids) - 1)
        return order[positions], sorted_ids[positions] == queries


def build_vector_context(network: "Network") -> VectorContext | None:
    """Compile ``network`` into a :class:`VectorContext`.

    Returns ``None`` when the vectorized backend cannot serve this network —
    fewer than two nodes or any isolated node (``reduceat``
    needs every adjacency block non-empty; a network is born connected but
    its graph may be mutated afterwards), or identifiers too large to
    represent exactly — in which case the engine stays on the reference
    path.
    """
    with current_tracer().span("compile") as sp:
        ctx = _build_vector_context(network)
        if sp:
            sp.set(stage="context", nodes=network.size, refused=ctx is None)
        return ctx


def _build_vector_context(network: "Network") -> VectorContext | None:
    indexed = network.graph.indexed()
    n = indexed.n
    if n < 2 or min(indexed.degrees) == 0:
        return None
    ids = [network.id_of(label) for label in indexed.labels]
    if max(ids) >= ID_LIMIT:
        return None
    indptr, indices = indexed.csr_arrays()
    degrees = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    return VectorContext(
        n=n,
        labels=list(indexed.labels),
        node_ids=np.array(ids, dtype=np.int64),
        indptr=indptr,
        starts=indptr[:-1],
        src=src,
        dst=indices,
        degrees=degrees,
    )


@dataclass
class BatchedContext:
    """Many networks concatenated into one super-CSR (read-only once built).

    The arrays have exactly the :class:`VectorContext` shape — node indices
    are *global* (network ``k``'s nodes occupy the block
    ``node_offsets[k]:node_offsets[k + 1]``), ``src`` / ``dst`` are global
    directed-edge endpoints, and ``labels[i]`` is the composite key
    ``(item_index, label)`` — so the segment toolkit and every kernel written
    against per-node/per-edge gathers and segment reductions runs on a batch
    unchanged: no segment ever spans two networks, and the composite
    ``viewer * 2**32 + index`` keys the kernels build stay collision-free
    because :func:`build_batched_context` bounds the total node count by
    ``2**31``.  Only identifier resolution is network-local, which is what
    the :meth:`resolve_ids` override restores.

    ``network_of[i]`` is the item index of node ``i``; ``accept[
    node_offsets[k]:node_offsets[k + 1]]`` slices a batched accept vector
    back into item ``k``'s per-node decisions.
    """

    n: int
    items: int
    labels: list
    node_ids: Any
    indptr: Any
    starts: Any
    src: Any
    dst: Any
    degrees: Any
    network_of: Any
    node_offsets: Any
    _id_index: Any = None
    _edge_index: Any = None

    def id_index(self) -> tuple:
        """``(order, sorted_ids)`` sorted by the (network, identifier) key,
        so each network's block of :attr:`node_offsets` is internally
        id-sorted — the layout :meth:`resolve_ids` bisects."""
        cached = self._id_index
        if cached is None:
            order = np.lexsort((self.node_ids, self.network_of))
            cached = (order, self.node_ids[order])
            self._id_index = cached
        return cached

    def edge_index(self) -> tuple:
        """Same contract as :meth:`VectorContext.edge_index`; the
        ``src * n + dst`` keys stay unique because the endpoints are global
        node indices."""
        cached = self._edge_index
        if cached is None:
            keys = self.src * self.n + self.dst
            order = np.argsort(keys, kind="stable")
            cached = (order, keys[order])
            self._edge_index = cached
        return cached

    def resolve_ids(self, viewers: Any, queries: Any) -> tuple:
        """Resolve ``queries`` inside each viewer's own network's id block.

        A vectorized lower-bound bisection over the per-network slices of
        :meth:`id_index` (identifiers can reach ``2**62``, so a composite
        ``network * stride + id`` search key cannot fit int64); every block
        is non-empty, and the loop runs ``log2(max block size)`` rounds over
        the whole query set at once.
        """
        order, sorted_ids = self.id_index()
        net = self.network_of[viewers]
        lo = self.node_offsets[net].copy()
        end = self.node_offsets[net + 1]
        hi = end.copy()
        top = self.n - 1
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            go_right = active & (sorted_ids[np.minimum(mid, top)] < queries)
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(active & ~go_right, mid, hi)
        clamped = np.minimum(lo, top)
        found = (lo < end) & (sorted_ids[clamped] == queries)
        return order[clamped], found


def build_batched_context(contexts: list) -> BatchedContext | None:
    """Concatenate per-network :class:`VectorContext` objects into a batch.

    Returns ``None`` when the batch cannot keep the kernels' composite-key
    arithmetic collision-free — more than ``2**31`` total nodes (the caller
    splits such sweeps into several batches) — or when ``contexts`` is empty.
    The inputs are not copied lazily: every array is concatenated once here,
    and the result is cached by the engine keyed on the item networks.
    """
    if not contexts:
        return None
    sizes = [ctx.n for ctx in contexts]
    total = sum(sizes)
    if total >= INT_LIMIT:
        return None
    with current_tracer().span("batch_build/concat") as sp:
        if sp:
            sp.set(items=len(contexts), nodes=total)
        return _build_batched_context(contexts, sizes, total)


def _build_batched_context(contexts: list, sizes: list[int],
                           total: int) -> BatchedContext:
    node_offsets = np.zeros(len(contexts) + 1, dtype=np.int64)
    np.cumsum(np.array(sizes, dtype=np.int64), out=node_offsets[1:])
    labels: list = []
    for k, ctx in enumerate(contexts):
        labels.extend((k, label) for label in ctx.labels)
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [ctx.indptr[1:] + edge_offset for ctx, edge_offset in
           zip(contexts, np.cumsum([0] + [len(ctx.dst) for ctx in contexts[:-1]]))])
    return BatchedContext(
        n=total,
        items=len(contexts),
        labels=labels,
        node_ids=np.concatenate([ctx.node_ids for ctx in contexts]),
        indptr=indptr,
        starts=indptr[:-1],
        src=np.concatenate([ctx.src + off for ctx, off in
                            zip(contexts, node_offsets[:-1])]),
        dst=np.concatenate([ctx.dst + off for ctx, off in
                            zip(contexts, node_offsets[:-1])]),
        degrees=np.concatenate([ctx.degrees for ctx in contexts]),
        network_of=np.repeat(np.arange(len(contexts), dtype=np.int64),
                             node_offsets[1:] - node_offsets[:-1]),
        node_offsets=node_offsets,
    )


@dataclass
class CertificateTable:
    """One certificate assignment in struct-of-arrays form.

    ``present[i]`` — node ``i`` holds a representable certificate of the
    kernel's class; ``unrepresentable[i]`` — it holds something else than
    ``None`` that the table cannot express exactly (wrong or subclassed type,
    non-integer or out-of-range field), so every node that sees it must take
    the reference path.  ``columns[f]`` holds the int64 field values (0 where
    not present or ``None``) and ``isnone[f]`` the ``None`` mask of optional
    fields.
    """

    present: Any
    unrepresentable: Any
    columns: dict[str, Any]
    isnone: dict[str, Any]


_MISSING = object()

#: in-row encoding of an optional field holding ``None``; sits outside the
#: accepted range of every field limit (values are strictly below
#: :data:`ID_LIMIT`), so it can never collide with a representable value
NONE_SENTINEL = ID_LIMIT


def _fields_key(fields: tuple[FieldSpec, ...]) -> str:
    return ",".join(spec.name + ("?" if spec.optional else "")
                    + ("" if spec.limit == INT_LIMIT else f"<{spec.limit}")
                    for spec in fields)


def _node_row_key(certificate_type: type,
                  fields: tuple[FieldSpec, ...]) -> str:
    """Memo-key under which a certificate's extracted field row is cached.

    Keyed by certificate type and field layout, not ``id(fields)``: equal
    (type, layout) pairs share rows safely, a recycled tuple address can
    never alias a stale entry, and a kernel expecting a different class
    with a coincidentally equal layout never inherits another kernel's
    type-check verdict.  Getters cannot be part of the key, so a layout's
    (name, optional, limit) triples must determine its getters — use fresh
    field names when a derived field changes meaning.
    """
    return (f"_vectorized_row_{certificate_type.__qualname__}_"
            + _fields_key(fields))


def _list_rows_key(certificate_type: type, list_name: str,
                   entry_types: tuple[type, ...],
                   fields: tuple[FieldSpec, ...],
                   sublist: str | None = None,
                   sublist_fields: tuple[FieldSpec, ...] = (),
                   sublist_max_len: int | None = None) -> str:
    """Memo-key for a certificate's pre-flattened edge-list rows.

    Keyed like :func:`_node_row_key`, and carries the entry types and the
    sublist spec as well: the same list compiled under a narrower
    entry-type tuple (or without the nested sub-rows) must not inherit
    these rows.
    """
    key = (f"_vectorized_flatlist_{certificate_type.__qualname__}_{list_name}_"
           + "|".join(t.__qualname__ for t in entry_types) + "_"
           + _fields_key(fields))
    if sublist is not None:
        key += (f"_{sublist}<={sublist_max_len}_"
                + ",".join(spec.name
                           + ("" if spec.limit == INT_LIMIT else f"<{spec.limit}")
                           for spec in sublist_fields))
    return key


def _extract_row(certificate: Any, certificate_type: type,
                 fields: tuple[FieldSpec, ...]) -> tuple | None:
    """Return the exact field tuple of ``certificate``, or ``None`` if it has
    no exact int64 representation (subclasses included — their overridden
    attributes must keep reference semantics, which only the reference
    verifier can guarantee).  ``None`` field values are encoded as
    :data:`NONE_SENTINEL`."""
    if type(certificate) is not certificate_type:
        return None
    return _field_row(certificate, fields)


def _field_row(obj: Any, fields: tuple[FieldSpec, ...]) -> tuple | None:
    """Extract the exact int64 field tuple of an already-type-checked object."""
    values: list[int] = []
    for spec in fields:
        if spec.getter is None:
            value = getattr(obj, spec.name)
        else:
            value = spec.getter(obj)
            if value is UNREPRESENTABLE:
                return None
        if value is None and spec.optional:
            values.append(NONE_SENTINEL)
            continue
        # exactly int or bool — an int *subclass* may override comparison
        # semantics the int64 columns cannot reproduce, so it must take the
        # reference fallback like any other foreign object
        if type(value) is not int and type(value) is not bool:
            return None
        if not -spec.limit < value < spec.limit:
            return None
        values.append(int(value))  # normalises bool, which compares like int
    return tuple(values)


def compile_certificates(ctx: VectorContext, certificates: dict[Any, Any],
                         certificate_type: type,
                         fields: tuple[FieldSpec, ...]) -> CertificateTable:
    """Compile ``certificates`` into a :class:`CertificateTable` over ``ctx``.

    This is the per-trial cost of the vectorized backend, so extraction is
    memoised per certificate *object*, in the object's ``__dict__`` (the same
    idiom as the planarity certificates' ``endpoint_ids`` cache: certificates
    are immutable, the entry does not participate in dataclass equality, and
    it survives across trials — attack assignments recycle a small pool of
    honest certificates, so steady-state compilation is one dict hit per node
    plus a single bulk array conversion).
    """
    with current_tracer().span("compile/certificates") as sp:
        if sp:
            sp.set(stage="certificates", nodes=int(ctx.n),
                   certificate_type=certificate_type.__name__)
        return _compile_certificates(ctx, certificates, certificate_type,
                                     fields)


def _compile_certificates(ctx: VectorContext, certificates: dict[Any, Any],
                          certificate_type: type,
                          fields: tuple[FieldSpec, ...]) -> CertificateTable:
    n = ctx.n
    width = len(fields)
    empty_row = (0,) * width
    row_key = _node_row_key(certificate_type, fields)
    present = bytearray(n)
    unrepresentable = bytearray(n)
    get = certificates.get
    labels = ctx.labels
    tracer = current_tracer()
    # streamed: the Python-object staging list only ever holds one chunk of
    # rows — at n = 10^6 an unchunked flat list of per-field int objects
    # (n * width of them) dominated peak RSS; the compiled matrix itself is
    # a single dense int64 allocation either way
    matrix = np.empty((n, width), dtype=np.int64)
    for start in range(0, n, COMPILE_CHUNK):
        stop = min(start + COMPILE_CHUNK, n)
        with tracer.span("compile/chunk") as sp:
            if sp:
                sp.set(stage="certificates", start=start, stop=stop)
            flat: list[int] = []
            extend = flat.extend
            for i in range(start, stop):
                certificate = get(labels[i])
                if certificate is None:
                    extend(empty_row)
                    continue
                try:
                    row = certificate.__dict__.get(row_key, _MISSING)
                except AttributeError:  # no __dict__ (e.g. slotted foreign object)
                    row = _extract_row(certificate, certificate_type, fields)
                else:
                    if row is _MISSING:
                        row = _extract_row(certificate, certificate_type, fields)
                        certificate.__dict__[row_key] = row
                if row is None:
                    unrepresentable[i] = True
                    extend(empty_row)
                    continue
                present[i] = True
                extend(row)
            matrix[start:stop] = np.array(flat, dtype=np.int64).reshape(
                stop - start, width)
    columns: dict[str, Any] = {}
    isnone: dict[str, Any] = {}
    for j, spec in enumerate(fields):
        column = matrix[:, j]
        if spec.optional:
            mask = column == NONE_SENTINEL
            column[mask] = 0
            isnone[spec.name] = mask
        columns[spec.name] = column
    return CertificateTable(
        present=np.frombuffer(present, dtype=np.uint8).astype(bool),
        unrepresentable=np.frombuffer(unrepresentable, dtype=np.uint8).astype(bool),
        columns=columns, isnone=isnone)


@dataclass
class IntervalTable:
    """A variable-width *sub-list* of an :class:`EdgeListTable` entry.

    Second level of the offsets+values idiom: entry ``e`` of the parent
    edge-list table owns the block ``offsets[e]:offsets[e + 1]`` of every
    column here.  This is the layout that lets interval *values* (the Lemma 2
    ``(index, low, high)`` triples of the planarity edge certificates) enter
    the columns instead of forcing the holder onto the reference fallback:
    each sub-record is a plain tuple whose positional fields are declared by
    the ``sublist_fields`` of :func:`compile_edge_lists` — no optional
    slots, every value an exact int within the field's magnitude limit,
    anything else marks the *holder* unrepresentable.
    """

    offsets: Any
    counts: Any
    columns: dict[str, Any]


@dataclass
class EdgeListTable:
    """A variable-width per-node list field in flattened offsets+values form.

    This is the struct-of-arrays layout for certificates that carry a
    *sequence* of sub-records (the planarity scheme's per-edge certificates):
    node ``i``'s entries occupy the block ``offsets[i]:offsets[i + 1]`` of
    every entry column — the same offsets+values idiom as the CSR adjacency
    exposed by :meth:`IndexedGraph.csr_arrays()
    <repro.graphs.indexed.IndexedGraph.csr_arrays>`, so per-entry→per-node
    reductions run over ``offsets`` exactly like per-edge→per-node reductions
    run over ``indptr`` (empty blocks are legal here, so reductions must use
    the masked-scatter helpers, not bare ``reduceat``).

    ``unrepresentable[i]`` marks holders whose list the layout cannot express
    exactly (not the declared sequence type, or an entry of a foreign/
    subclassed type or with out-of-range fields); their blocks are empty and
    every node that can see them must take the reference path.  Holders whose
    *certificate* is absent or foreign get an empty block too, but are not
    flagged here — the node-level :class:`CertificateTable` already accounts
    for them.

    ``uids`` (with ``assign_uids=True``) holds a per-entry *content
    identity*: two entries share a uid exactly when they are equal as
    dataclasses.  This only holds when the declared ``fields`` (plus the
    sublist) cover every dataclass field of every entry type — the caller's
    obligation — and it is what lets a kernel run the reference verifier's
    ``existing != certificate`` conflict checks as integer comparisons.

    ``sub`` (with ``sublist=...``) carries the nested
    :class:`IntervalTable` of each entry's variable-width tuple field.
    """

    offsets: Any
    counts: Any
    columns: dict[str, Any]
    isnone: dict[str, Any]
    unrepresentable: Any
    uids: Any = None
    sub: IntervalTable | None = None


def compile_edge_lists(ctx: VectorContext, certificates: dict[Any, Any],
                       certificate_type: type, list_name: str,
                       entry_types: tuple[type, ...],
                       fields: tuple[FieldSpec, ...],
                       sublist: str | None = None,
                       sublist_fields: tuple[FieldSpec, ...] = (),
                       sublist_max_len: int | None = None,
                       assign_uids: bool = False) -> EdgeListTable:
    """Compile the ``list_name`` sequence attribute into an :class:`EdgeListTable`.

    Every entry must be exactly one of ``entry_types`` (subclasses fall back,
    like everywhere else in the exactness contract) and yield an exact row
    under ``fields`` (whose getters receive the *entry*); otherwise the whole
    holder is marked unrepresentable.  Extraction is memoised per certificate
    object in its ``__dict__``, like :func:`compile_certificates`.

    ``sublist`` names a variable-width tuple attribute of each entry (the
    planarity edge certificates' ``intervals``), compiled into a nested
    :class:`IntervalTable` on ``table.sub``: every item must be a plain tuple
    of exactly ``len(sublist_fields)`` ints, each within its field's
    magnitude limit, and the tuple at most ``sublist_max_len`` long —
    anything else marks the holder unrepresentable (the reference verifier
    either raises on such a shape or compares it where int64 columns could
    not reproduce the comparison, so the viewers must take the reference
    path either way).

    ``assign_uids=True`` labels each entry with a per-call content identity
    on ``table.uids`` (equal uid ⟺ equal extracted content).  For the uid to
    coincide with dataclass equality, ``fields`` plus the sublist must cover
    every dataclass field of every entry type.
    """
    with current_tracer().span("compile/edge_lists") as sp:
        if sp:
            sp.set(stage="edge_lists", nodes=int(ctx.n), list=list_name,
                   certificate_type=certificate_type.__name__)
        return _compile_edge_lists(ctx, certificates, certificate_type,
                                   list_name, entry_types, fields, sublist,
                                   sublist_fields, sublist_max_len,
                                   assign_uids)


def _compile_edge_lists(ctx: VectorContext, certificates: dict[Any, Any],
                        certificate_type: type, list_name: str,
                        entry_types: tuple[type, ...],
                        fields: tuple[FieldSpec, ...],
                        sublist: str | None = None,
                        sublist_fields: tuple[FieldSpec, ...] = (),
                        sublist_max_len: int | None = None,
                        assign_uids: bool = False) -> EdgeListTable:
    n = ctx.n
    rows_key = _list_rows_key(certificate_type, list_name, entry_types,
                              fields, sublist, sublist_fields, sublist_max_len)
    unrepresentable = bytearray(n)
    counts = [0] * n
    # streamed like _compile_certificates: the variable-width value stream
    # is staged in per-chunk Python lists, flushed to int64 blocks every
    # COMPILE_CHUNK nodes, and concatenated once at the end — total entries
    # are unknown up front, so blocks replace the preallocated matrix
    flat_blocks: list[Any] = []
    sub_count_blocks: list[Any] = []
    sub_blocks: list[Any] = []
    uid_blocks: list[Any] = []
    uid_of: dict[Any, int] = {}
    uid_setdefault = uid_of.setdefault
    get = certificates.get
    labels = ctx.labels
    tracer = current_tracer()
    for chunk_start in range(0, n, COMPILE_CHUNK):
        chunk_stop = min(chunk_start + COMPILE_CHUNK, n)
        with tracer.span("compile/chunk") as sp:
            if sp:
                sp.set(stage="edge_lists", start=chunk_start, stop=chunk_stop)
            flat: list[int] = []
            extend = flat.extend
            sub_counts: list[int] = []
            sub_counts_extend = sub_counts.extend
            sub_flat: list[int] = []
            sub_extend = sub_flat.extend
            uids: list[int] = []
            uids_append = uids.append
            for i in range(chunk_start, chunk_stop):
                certificate = get(labels[i])
                if type(certificate) is not certificate_type:
                    continue  # absent/foreign holder: the node table owns the verdict
                try:
                    rows = certificate.__dict__.get(rows_key, _MISSING)
                except AttributeError:  # pragma: no cover - frozen dataclasses have __dict__
                    rows = _extract_list_rows(certificate, list_name, entry_types,
                                              fields, sublist, sublist_fields,
                                              sublist_max_len)
                else:
                    if rows is _MISSING:
                        rows = _extract_list_rows(certificate, list_name,
                                                  entry_types, fields, sublist,
                                                  sublist_fields, sublist_max_len)
                        certificate.__dict__[rows_key] = rows
                if rows is None:
                    unrepresentable[i] = True
                    continue
                # the memoised payload is pre-flattened (see _extract_list_rows),
                # so per-trial assembly is a handful of extends per certificate —
                # this loop is the per-trial cost of the backend on
                # certificate-heavy schemes, and a per-row loop here dominated
                # whole-kernel profiles
                count, flat_fields, entry_sub_counts, flat_subs, contents = rows
                counts[i] = count
                extend(flat_fields)
                if sublist is not None:
                    sub_counts_extend(entry_sub_counts)
                    sub_extend(flat_subs)
                if assign_uids:
                    for content in contents:
                        uids_append(uid_setdefault(content, len(uid_of)))
            if flat:
                flat_blocks.append(np.array(flat, dtype=np.int64))
            if sub_counts:
                sub_count_blocks.append(np.array(sub_counts, dtype=np.int64))
            if sub_flat:
                sub_blocks.append(np.array(sub_flat, dtype=np.int64))
            if uids:
                uid_blocks.append(np.array(uids, dtype=np.int64))
    width = len(fields)
    flat_arr = _concat_blocks(flat_blocks)
    matrix = flat_arr.reshape(len(flat_arr) // width if width else 0, width)
    counts_arr = np.array(counts, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts_arr, out=offsets[1:])
    columns: dict[str, Any] = {}
    isnone: dict[str, Any] = {}
    for j, spec in enumerate(fields):
        column = matrix[:, j]
        if spec.optional:
            mask = column == NONE_SENTINEL
            column[mask] = 0
            isnone[spec.name] = mask
        columns[spec.name] = column
    sub_table = None
    if sublist is not None:
        sub_width = len(sublist_fields)
        sub_flat_arr = _concat_blocks(sub_blocks)
        sub_matrix = sub_flat_arr.reshape(
            len(sub_flat_arr) // sub_width if sub_width else 0, sub_width)
        sub_counts_arr = _concat_blocks(sub_count_blocks)
        sub_offsets = np.zeros(len(sub_counts_arr) + 1, dtype=np.int64)
        np.cumsum(sub_counts_arr, out=sub_offsets[1:])
        sub_table = IntervalTable(
            offsets=sub_offsets, counts=sub_counts_arr,
            columns={spec.name: sub_matrix[:, j]
                     for j, spec in enumerate(sublist_fields)})
    return EdgeListTable(
        offsets=offsets, counts=counts_arr, columns=columns, isnone=isnone,
        unrepresentable=np.frombuffer(unrepresentable, dtype=np.uint8).astype(bool),
        uids=_concat_blocks(uid_blocks) if assign_uids else None,
        sub=sub_table)


def _concat_blocks(blocks: list) -> Any:
    """Concatenate per-chunk int64 blocks (empty list -> empty array)."""
    if not blocks:
        return np.empty(0, dtype=np.int64)
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks)


def _extract_list_rows(certificate: Any, list_name: str,
                       entry_types: tuple[type, ...],
                       fields: tuple[FieldSpec, ...],
                       sublist: str | None = None,
                       sublist_fields: tuple[FieldSpec, ...] = (),
                       sublist_max_len: int | None = None) -> tuple | None:
    """Exact, pre-flattened rows of ``certificate.<list_name>``, or ``None``.

    The memoised payload is the assembly-ready 5-tuple
    ``(entry_count, flat_field_values, per_entry_sub_counts,
    flat_sub_values, per_entry_contents)`` — flattening happens once per
    certificate object here, so :func:`compile_edge_lists` only concatenates
    per trial.  ``per_entry_contents`` holds one hashable content tuple per
    entry (the field row, paired with the sub-rows when a sublist is
    declared) and is what the uid assignment interns.
    """
    entries = getattr(certificate, list_name)
    if type(entries) is not tuple:
        return None
    flat_fields: list[int] = []
    entry_sub_counts: list[int] = []
    flat_subs: list[int] = []
    contents: list[Any] = []
    for entry in entries:
        if type(entry) not in entry_types:
            return None
        row = _field_row(entry, fields)
        if row is None:
            return None
        flat_fields.extend(row)
        if sublist is None:
            contents.append(row)
            continue
        sub_rows = _sublist_rows(getattr(entry, sublist), sublist_fields,
                                 sublist_max_len)
        if sub_rows is None:
            return None
        entry_sub_counts.append(len(sub_rows))
        for sub_row in sub_rows:
            flat_subs.extend(sub_row)
        contents.append((row, sub_rows))
    return (len(entries), tuple(flat_fields), tuple(entry_sub_counts),
            tuple(flat_subs), tuple(contents))


def _sublist_rows(items: Any, fields: tuple[FieldSpec, ...],
                  max_len: int | None) -> tuple | None:
    """Exact rows of a tuple-of-tuples sub-list, or ``None`` if unrepresentable."""
    if type(items) is not tuple or (max_len is not None and len(items) > max_len):
        return None
    width = len(fields)
    rows = []
    for item in items:
        if type(item) is not tuple or len(item) != width:
            return None
        row = []
        for value, spec in zip(item, fields):
            if type(value) is not int and type(value) is not bool:
                return None
            if not -spec.limit < value < spec.limit:
                return None
            row.append(int(value))
        rows.append(tuple(row))
    return tuple(rows)
