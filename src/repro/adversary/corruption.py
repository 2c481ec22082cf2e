"""Shared corruption vocabulary for certificate assignments.

Two layers live here.  The *blind* operators (:func:`int_fields`,
:func:`mutate_nested_certificate`, :func:`corrupt_assignment`) are the
differential-fuzz mutations promoted verbatim from the vectorized test
harness — ``tests/test_vectorized.py`` now imports them from here, so the
fuzzer and the adversary campaigns corrupt certificates with the exact
same operator set (and the fuzzer's per-node identity assertions keep
guarding the promoted code).  They draw from ``rng`` in a fixed order;
changing that order silently changes every seeded fuzz corpus, so treat
the draw sequence as part of the contract.

The *targeted* operators below them (:func:`lie_about_root`,
:func:`shift_interval_endpoint`, :func:`swap_dfs_copies`) are
structure-aware: they inspect the certificates for the spanning-tree /
interval / DFS-copy structure the paper's verifiers check, and forge
exactly the fields those checks read.  Each returns a fresh assignment
and falls back to one blind corruption when the assignment carries no
matching structure, so every strategy built on them is total over the
seven schemes.  Their candidate sites come from a private site index
(:func:`_sites`): every node is scanned once per (network, assignment),
not once per corruption.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import weakref
from operator import is_not
from typing import Any, Callable

from repro.core.nonplanarity_scheme import SubdivisionRole

__all__ = [
    "int_fields",
    "mutate_nested_certificate",
    "corrupt_assignment",
    "lie_about_root",
    "shift_interval_endpoint",
    "swap_dfs_copies",
]


def int_fields(certificate: Any) -> list[str]:
    """Fields declared as (optional) ints.  Nested structure is mutated
    separately: swapping e.g. a composite certificate's ``role`` for an int
    would make the reference verifier raise rather than decide."""
    return [f.name for f in dataclasses.fields(certificate)
            if str(f.type).startswith("int")]


def mutate_nested_certificate(certificate: Any, rng: random.Random) -> Any | None:
    """One structure-aware mutation of a composite (paper-scheme) certificate.

    Returns ``None`` when the certificate has no nested structure to mutate
    (the building-block labels), letting the caller fall through to the flat
    field tweaks.
    """
    choices = []
    st = getattr(certificate, "spanning_tree", None)
    if st is not None and dataclasses.is_dataclass(st):
        def tweak_st():
            field = rng.choice(int_fields(st))
            values = [-1, 0, 1, 2, rng.randrange(1 << 20), (1 << 40), (1 << 70)]
            if field == "parent_id":
                values.append(None)
            return dataclasses.replace(certificate, spanning_tree=dataclasses.replace(
                st, **{field: rng.choice(values)}))
        choices.append(tweak_st)
    branch_ids = getattr(certificate, "branch_ids", None)
    if isinstance(branch_ids, tuple):
        def tweak_branch():
            ids = list(branch_ids)
            op = rng.randrange(3)
            if op == 0 and ids:  # overwrite a slot (possibly duplicating one,
                # or planting a None *inside* the tuple — unrepresentable, so
                # the None-vs-0 column encoding is never trusted with it)
                ids[rng.randrange(len(ids))] = rng.choice(
                    [None, 0, ids[0], rng.randrange(1 << 20), (1 << 70)])
            elif op == 1:  # grow past the expected width
                ids.append(rng.randrange(1 << 20))
            elif ids:  # shrink below it
                ids.pop()
            return dataclasses.replace(certificate, branch_ids=tuple(ids))
        choices.append(tweak_branch)
    if hasattr(certificate, "role"):
        role = certificate.role

        def tweak_role():
            op = rng.randrange(4)
            if op == 0:
                return dataclasses.replace(certificate, role=None)
            if op == 1:
                return dataclasses.replace(certificate, role=SubdivisionRole.branch(
                    rng.choice([-1, 0, 1, 2, 3, 4, 5, 6])))
            if op == 2:
                low, high = sorted(rng.sample(range(6), 2))
                return dataclasses.replace(certificate, role=SubdivisionRole.internal(
                    low, high, rng.randrange(0, 5),
                    rng.randrange(1 << 20), rng.randrange(1 << 20)))
            if role is not None:
                field = rng.choice(int_fields(role))
                return dataclasses.replace(certificate, role=dataclasses.replace(
                    role, **{field: rng.choice([None, -1, 0, 1, 3, (1 << 70)])}))
            return dataclasses.replace(certificate, role=None)
        choices.append(tweak_role)
    edge_certs = getattr(certificate, "edge_certificates", None)
    if isinstance(edge_certs, tuple):
        def tweak_edges():
            entries = list(edge_certs)
            op = rng.randrange(4)
            if op == 0:
                return dataclasses.replace(certificate, edge_certificates=())
            if op == 1 and entries:  # drop one entry (breaks edge coverage)
                entries.pop(rng.randrange(len(entries)))
            elif op == 2 and entries:  # flip a tree edge's orientation, or
                # retarget a cotree endpoint
                index = rng.randrange(len(entries))
                entry = entries[index]
                if entry.is_tree_edge:
                    entries[index] = dataclasses.replace(
                        entry, parent_id=entry.child_id, child_id=entry.parent_id)
                else:
                    entries[index] = dataclasses.replace(
                        entry, a_id=rng.randrange(1 << 20))
            else:  # blow past the degeneracy cap
                entries = entries * 3
            return dataclasses.replace(certificate,
                                       edge_certificates=tuple(entries))
        choices.append(tweak_edges)

        def tweak_entry_payload():
            """Target the vectorized phases: interval entries, the
            DFS-mapping indices, and the chord copies of one edge
            certificate."""
            entries = list(edge_certs)
            if not entries:
                return dataclasses.replace(certificate, edge_certificates=())
            index = rng.randrange(len(entries))
            entry = entries[index]
            op = rng.randrange(4)
            if op == 0 and entry.intervals:  # corrupt one interval entry
                intervals = list(entry.intervals)
                at = rng.randrange(len(intervals))
                iv_index, low, high = intervals[at]
                field = rng.randrange(3)
                delta = rng.choice([-2, -1, 1, 2, (1 << 20), (1 << 70)])
                corrupted = (iv_index + delta if field == 0 else iv_index,
                             low + delta if field == 1 else low,
                             high + delta if field == 2 else high)
                intervals[at] = corrupted
                entries[index] = dataclasses.replace(entry,
                                                     intervals=tuple(intervals))
            elif op == 1 and entry.intervals:  # drop or duplicate an entry
                intervals = list(entry.intervals)
                if rng.random() < 0.5:
                    intervals.pop(rng.randrange(len(intervals)))
                else:
                    intervals.append(intervals[rng.randrange(len(intervals))])
                entries[index] = dataclasses.replace(entry,
                                                     intervals=tuple(intervals))
            elif op == 2:
                if entry.is_tree_edge:  # off-by-one / swapped tour indices
                    if rng.random() < 0.5:
                        field = rng.choice(["descend_index", "return_index"])
                        entries[index] = dataclasses.replace(
                            entry, **{field: getattr(entry, field)
                                      + rng.choice([-1, 1])})
                    else:
                        entries[index] = dataclasses.replace(
                            entry, descend_index=entry.return_index,
                            return_index=entry.descend_index)
                else:  # swapped or shifted chord copies
                    if rng.random() < 0.5:
                        entries[index] = dataclasses.replace(
                            entry, copy_a=entry.copy_b, copy_b=entry.copy_a)
                    else:
                        field = rng.choice(["copy_a", "copy_b"])
                        entries[index] = dataclasses.replace(
                            entry, **{field: getattr(entry, field)
                                      + rng.choice([-1, 1, 7])})
            else:  # unrepresentable interval payloads the reference still
                # *decides* on (truly malformed shapes make it raise, which
                # the fallback reproduces — asserted by the targeted tests,
                # out of scope for the decision-identity fuzz)
                entries[index] = dataclasses.replace(entry, intervals=rng.choice(
                    [((1, 0, 1 << 70),), ((1, 0, 2),) * 9]))
            return dataclasses.replace(certificate,
                                       edge_certificates=tuple(entries))
        choices.append(tweak_entry_payload)
    path_label = getattr(certificate, "path", None)
    if path_label is not None and dataclasses.is_dataclass(path_label):
        def tweak_path():
            field = rng.choice(int_fields(path_label))
            values = [-1, 0, 1, 2, rng.randrange(1 << 20), (1 << 40), (1 << 70)]
            if field == "parent_id":
                values.append(None)
            return dataclasses.replace(certificate, path=dataclasses.replace(
                path_label, **{field: rng.choice(values)}))
        choices.append(tweak_path)
    interval = getattr(certificate, "interval", None)
    if isinstance(interval, tuple) and len(interval) == 2:
        def tweak_interval():
            op = rng.randrange(4)
            if op == 0:
                return dataclasses.replace(
                    certificate,
                    interval=(interval[0] + rng.choice([-1, 1]), interval[1]))
            if op == 1:
                return dataclasses.replace(
                    certificate,
                    interval=(interval[0], interval[1] + rng.choice([-2, -1, 1])))
            if op == 2:  # list shape: unrepresentable, and never tuple-equal
                return dataclasses.replace(certificate, interval=list(interval))
            return dataclasses.replace(
                certificate,
                interval=(rng.randrange(-2, 20), rng.randrange(-2, 20)))
        choices.append(tweak_interval)
    map_ids = getattr(certificate, "node_ids", None)
    map_edges = getattr(certificate, "edges", None)
    if isinstance(map_ids, tuple) and isinstance(map_edges, tuple):
        def tweak_map():
            op = rng.randrange(4)
            if op == 0 and map_edges:
                return dataclasses.replace(certificate, edges=map_edges[:-1])
            if op == 1:
                return dataclasses.replace(
                    certificate, node_ids=map_ids + (rng.randrange(1 << 20),))
            if op == 2 and map_edges:
                u, v = map_edges[rng.randrange(len(map_edges))]
                return dataclasses.replace(certificate,
                                           edges=map_edges + ((v, u),))
            # list container: unrepresentable, routed through the fallback
            return dataclasses.replace(certificate, node_ids=list(map_ids))
        choices.append(tweak_map)
    if not choices:
        return None
    return rng.choice(choices)()


def corrupt_assignment(certificates: dict[Any, Any], nodes: list[Any],
                       rng: random.Random) -> dict[Any, Any]:
    """Apply one random corruption; returns a fresh assignment."""
    mutated = dict(certificates)
    operation = rng.randrange(6)
    node = rng.choice(nodes)
    if operation == 0:  # swap two nodes' certificates
        other = rng.choice(nodes)
        mutated[node], mutated[other] = mutated[other], mutated[node]
    elif operation == 1:  # drop a certificate
        mutated[node] = None
    elif operation == 2:  # duplicate another node's certificate
        mutated[node] = mutated[rng.choice(nodes)]
    elif operation == 3 and mutated[node] is not None:  # tweak one field
        fields = int_fields(mutated[node])
        field = rng.choice(fields) if fields else None
        values = [-1, 0, 1, 2, rng.randrange(1 << 20), (1 << 40), (1 << 70)]
        if field == "parent_id":
            # None stays confined to the optional field: the reference checks
            # would raise (not decide) on e.g. a None total, and the backends
            # only promise identical *decisions*
            values.append(None)
        if field is not None:
            mutated[node] = dataclasses.replace(mutated[node],
                                                **{field: rng.choice(values)})
    elif operation == 4 and mutated[node] is not None:  # offset one field
        fields = int_fields(mutated[node])
        field = rng.choice(fields) if fields else None
        current = getattr(mutated[node], field) if field is not None else None
        if isinstance(current, int):
            mutated[node] = dataclasses.replace(
                mutated[node], **{field: current + rng.choice([-1, 1])})
    elif operation == 5 and mutated[node] is not None:  # nested mutation
        nested = mutate_nested_certificate(mutated[node], rng)
        if nested is not None:
            mutated[node] = nested
    return mutated


# ----------------------------------------------------------------------
# targeted, structure-aware operators
# ----------------------------------------------------------------------
#: the fields that make a dataclass a spanning-tree label
_TREE_FIELDS = frozenset({"root_id", "parent_id"})


@functools.cache
def _field_names(cls: type) -> frozenset[str] | None:
    """Field names of dataclass ``cls``; ``None`` for any other class.

    Looked up once per class, because the targeted operators scan every
    node's certificate.
    """
    if not dataclasses.is_dataclass(cls):
        return None
    return frozenset(f.name for f in dataclasses.fields(cls))


def _tree_label(certificate: Any) -> tuple[Any, str | None]:
    """Locate the spanning-tree-shaped label inside a certificate.

    Returns ``(label, field)``: the label itself when the certificate *is*
    one (``field is None``, e.g. the tree scheme's bare labels), or the
    nested label and the attribute holding it (``spanning_tree`` on the
    planarity certificates, ``path`` on the Hamiltonian-path ones).
    ``(None, None)`` when the certificate carries no such structure.
    """
    names = _field_names(type(certificate))
    if names is None:
        return None, None
    if _TREE_FIELDS <= names:
        return certificate, None
    for field in ("spanning_tree", "path"):
        nested = getattr(certificate, field, None)
        nested_names = _field_names(type(nested))
        if nested_names is not None and _TREE_FIELDS <= nested_names:
            return nested, field
    return None, None


def _with_tree_label(certificate: Any, field: str | None, label: Any) -> Any:
    return label if field is None else dataclasses.replace(
        certificate, **{field: label})


# ----------------------------------------------------------------------
# the site index: each assignment's candidate sites, scanned once
# ----------------------------------------------------------------------
def _parented_sites(nodes: list[Any], certificates: list[Any]) -> list[Any]:
    """Nodes whose certificate carries a tree label with a parent to deny."""
    sites = []
    for node, certificate in zip(nodes, certificates):
        label, _ = _tree_label(certificate)
        if label is not None and label.parent_id is not None:
            sites.append(node)
    return sites


def _interval_sites(nodes: list[Any],
                    certificates: list[Any]) -> list[tuple[Any, Any]]:
    """``(node, None)`` per ``interval`` pair, ``(node, edge_certificates)``
    per edge-certificate tuple with an ``intervals`` entry."""
    sites = []
    for node, certificate in zip(nodes, certificates):
        if _field_names(type(certificate)) is None:
            continue
        interval = getattr(certificate, "interval", None)
        if isinstance(interval, tuple) and len(interval) == 2:
            sites.append((node, None))
            continue
        entries = getattr(certificate, "edge_certificates", None)
        if isinstance(entries, tuple) and \
                any(getattr(entry, "intervals", ()) for entry in entries):
            sites.append((node, entries))
    return sites


def _edge_list_sites(nodes: list[Any], certificates: list[Any]) -> list[Any]:
    """Nodes that own a non-empty ``edge_certificates`` tuple."""
    sites = []
    for node, certificate in zip(nodes, certificates):
        entries = getattr(certificate, "edge_certificates", None)
        if isinstance(entries, tuple) and entries:
            sites.append(node)
    return sites


#: assignments whose sites are kept per network; every caller corrupts one
#: honest assignment many times, so a few suffice
_INDEXED_ASSIGNMENTS = 4


@dataclasses.dataclass
class _SiteRecord:
    """One scanned assignment: what was scanned, and each scan's sites."""

    nodes: list[Any]
    #: the certificate objects scanned, in ``nodes`` order
    certificates: list[Any]
    sites: dict[Callable, list] = dataclasses.field(default_factory=dict)


#: network -> records of its most recently scanned assignments, newest
#: first; weakly keyed, so the records die with the network
_SITE_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sites(scan: Callable[[list[Any], list[Any]], list],
           certificates: dict[Any, Any], network: Any) -> list:
    """``scan``'s candidate sites of ``certificates`` on ``network``.

    The first call on a (network, assignment) pair runs ``scan`` over the
    nodes in node order.  Later calls reuse its list while the network
    lists the same nodes in the same order and every node's certificate
    is the very object scanned, checked by identity at C speed as the
    engine's local decide checks changed certificates.  Sites depend on
    nothing else, so a reused list equals a fresh scan, entry for entry,
    and the same ``rng`` draws pick the same site.  The returned list is
    shared: callers must not mutate it.
    """
    nodes = network.nodes()
    records = _SITE_INDEX.setdefault(network, [])
    for record in records:
        if record.nodes == nodes and \
                not any(map(is_not, map(certificates.get, nodes),
                            record.certificates)):
            break
    else:
        record = _SiteRecord(nodes, list(map(certificates.get, nodes)))
        records.insert(0, record)
        del records[_INDEXED_ASSIGNMENTS:]
    sites = record.sites.get(scan)
    if sites is None:
        sites = record.sites[scan] = scan(record.nodes, record.certificates)
    return sites


def lie_about_root(certificates: dict[Any, Any], network: Any,
                   rng: random.Random) -> dict[Any, Any]:
    """A non-root node forges a root claim: ``parent_id = None``, its own id
    as ``root_id``.

    This is the targeted version of the fuzzer's blind ``parent_id``
    tweaks: it aims at exactly the agreement checks the spanning-tree
    verifiers run (everyone must name the same root, exactly one node may
    be parentless).  Falls back to one blind corruption when no
    certificate carries a tree label with a parent to deny.
    """
    candidates = _sites(_parented_sites, certificates, network)
    if not candidates:
        return corrupt_assignment(certificates, list(network.nodes()), rng)
    node = rng.choice(candidates)
    certificate = certificates[node]
    label, field = _tree_label(certificate)
    forged = dataclasses.replace(label, parent_id=None,
                                 root_id=network.id_of(node))
    mutated = dict(certificates)
    mutated[node] = _with_tree_label(certificate, field, forged)
    return mutated


def shift_interval_endpoint(certificates: dict[Any, Any], network: Any,
                            rng: random.Random) -> dict[Any, Any]:
    """Shift one endpoint of one interval claim by ``+-1``.

    Covers both interval carriers: the path-outerplanarity certificates'
    ``interval`` pair and the planarity edge certificates' per-edge
    ``intervals`` entries (the Lemma 2 structures).  Falls back to one
    blind corruption when the assignment claims no intervals at all
    (e.g. the dMAM first messages, whose intervals are empty by design).
    """
    candidates = _sites(_interval_sites, certificates, network)
    if not candidates:
        return corrupt_assignment(certificates, list(network.nodes()), rng)
    node, entries = candidates[rng.randrange(len(candidates))]
    certificate = certificates[node]
    delta = rng.choice([-1, 1])
    mutated = dict(certificates)
    if entries is None:
        low, high = certificate.interval
        shifted = (low + delta, high) if rng.random() < 0.5 else (low, high + delta)
        mutated[node] = dataclasses.replace(certificate, interval=shifted)
        return mutated
    slots = [i for i, entry in enumerate(entries)
             if getattr(entry, "intervals", ())]
    entries = list(entries)
    at = slots[rng.randrange(len(slots))]
    entry = entries[at]
    intervals = list(entry.intervals)
    pos = rng.randrange(len(intervals))
    iv_index, low, high = intervals[pos]
    intervals[pos] = (iv_index, low + delta, high) if rng.random() < 0.5 \
        else (iv_index, low, high + delta)
    entries[at] = dataclasses.replace(entry, intervals=tuple(intervals))
    mutated[node] = dataclasses.replace(certificate,
                                        edge_certificates=tuple(entries))
    return mutated


def swap_dfs_copies(certificates: dict[Any, Any], network: Any,
                    rng: random.Random) -> dict[Any, Any]:
    """Swap the DFS-copy commitments of one edge certificate.

    Cotree entries get their two chord copies exchanged; tree entries get
    their descend/return tour indices exchanged.  Both leave every id and
    magnitude intact, so only the checks that read the DFS mapping's order
    structure can notice — the sharpest probe of the Algorithm 2
    reconstruction.  Falls back to one blind corruption when no node owns
    edge certificates.
    """
    candidates = _sites(_edge_list_sites, certificates, network)
    if not candidates:
        return corrupt_assignment(certificates, list(network.nodes()), rng)
    node = rng.choice(candidates)
    certificate = certificates[node]
    entries = list(certificate.edge_certificates)
    at = rng.randrange(len(entries))
    entry = entries[at]
    if entry.is_tree_edge:
        entries[at] = dataclasses.replace(entry,
                                          descend_index=entry.return_index,
                                          return_index=entry.descend_index)
    else:
        entries[at] = dataclasses.replace(entry, copy_a=entry.copy_b,
                                          copy_b=entry.copy_a)
    mutated = dict(certificates)
    mutated[node] = dataclasses.replace(certificate,
                                        edge_certificates=tuple(entries))
    return mutated
