"""Kernels for the path-outerplanarity and universal-map schemes.

Two kernels that, with :mod:`repro.vectorized.kernels` and
:mod:`repro.vectorized.paper_kernels`, give every proof-labeling scheme in
the registry a full kernel (see ``SchemeRegistry.kernel_coverage``):

* :class:`PathOuterplanarKernel` — Algorithm 1 (Lemma 2) as segment passes:
  the spanning-path part reuses :func:`~repro.vectorized.kernels
  .hamiltonian_path_accept` over the nested path fields, and the interval
  checks become per-viewer rank-sorted adjacent-pair comparisons plus a
  composite-key ``(viewer, rank) -> interval`` lookup table — the same
  ``viewer * 2**32 + index`` trick the planarity kernel uses for its
  ``G_{T,f}`` maps.
* :class:`UniversalMapKernel` — the whole-graph-map scheme has certificates
  whose *content* is shared by every node, so the kernel interns each
  distinct map once, turns the every-neighbor-has-the-same-map check into a
  uid comparison, and checks each distinct map's neighborhood table and
  planarity once per map instead of once per node (memoised on the
  certificate, so repeated trials in a sweep pay nothing).

Both obey the exactness contract of :mod:`repro.vectorized.compiler`:
anything without an exact array representation routes every viewer through
the reference fallback, so decisions are bit-identical to the reference
verifiers (asserted by the differential fuzz harness).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.universal import GraphMapCertificate, UniversalPlanarityScheme
from repro.core.building_blocks import HamiltonianPathLabel
from repro.core.po_scheme import PathOuterplanarLabel, PathOuterplanarScheme
from repro.graphs.planarity import is_planar
from repro.observability.tracer import current as current_tracer
from repro.vectorized.compiler import (
    ID_LIMIT,
    UNREPRESENTABLE,
    FieldSpec,
    compile_certificates,
)
from repro.vectorized.kernels import (
    hamiltonian_path_accept,
    scatter_any,
    segment_all,
    segment_any,
    view_fallback,
)
from repro.vectorized.paper_kernels import (
    _INDEX_ENC,
    _INT64_MAX,
    _INT64_MIN,
    _concat_ranges,
    _enc_index,
    _sorted_lookup,
)

__all__ = [
    "PATH_OUTERPLANAR_FIELDS",
    "PathOuterplanarKernel",
    "UniversalMapKernel",
]


# ----------------------------------------------------------------------
# path-outerplanarity (Lemma 2 / Algorithm 1)
# ----------------------------------------------------------------------
def _path_field(name: str):
    def get(certificate: Any) -> Any:
        path = certificate.path
        if type(path) is not HamiltonianPathLabel:
            return UNREPRESENTABLE
        return getattr(path, name)
    return get


def _interval_slot(slot: int):
    def get(certificate: Any) -> Any:
        interval = certificate.interval
        # the reference both unpacks ``a, b = interval`` (raising on other
        # shapes) and compares the *object* against result tuples, which the
        # int64 columns can only reproduce for plain 2-tuples
        if type(interval) is not tuple or len(interval) != 2:
            return UNREPRESENTABLE
        return interval[slot]
    return get


#: nested path fields (names match :data:`~repro.vectorized.kernels
#: .HAMILTONIAN_PATH_FIELDS` so :func:`hamiltonian_path_accept` applies)
#: plus the covering-interval endpoints
PATH_OUTERPLANAR_FIELDS = (
    FieldSpec("total", getter=_path_field("total")),
    FieldSpec("rank", getter=_path_field("rank")),
    FieldSpec("root_id", limit=ID_LIMIT, getter=_path_field("root_id")),
    FieldSpec("parent_id", optional=True, limit=ID_LIMIT,
              getter=_path_field("parent_id")),
    FieldSpec("interval_a", limit=ID_LIMIT, getter=_interval_slot(0)),
    FieldSpec("interval_b", limit=ID_LIMIT, getter=_interval_slot(1)),
)


class PathOuterplanarKernel:
    """Full kernel of :class:`~repro.core.po_scheme.PathOuterplanarScheme`.

    Algorithm 1 sorts each node's neighbors by certified rank and chains
    their intervals; in array form that is one composite-key sort of the
    directed-edge array — ``viewer * 2**32 + rank`` — after which every
    per-viewer condition is an adjacent-pair comparison (lines 6-9), an
    extreme-element lookup (lines 10-13), or a membership probe in the
    sorted ``(viewer, rank)`` key table (lines 14-17).

    Out-of-range ranks encode to the same key slot, so the sorted layout
    can misorder them — harmless, because the reference rejects any viewer
    with a neighbor rank outside ``(0, total]`` (line 4), which the kernel
    checks as its own conjunct: wherever the pair logic matters, ranks are
    clean.
    """

    scheme_name = PathOuterplanarScheme.name
    coverage = "full"

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is PathOuterplanarScheme

    def accept_vector(self, ctx: Any, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        tracer = current_tracer()
        prefix = "kernel:" + self.scheme_name + "/"
        table = compile_certificates(ctx, certificates, PathOuterplanarLabel,
                                     PATH_OUTERPLANAR_FIELDS)
        n = ctx.n
        src, dst, starts = ctx.src, ctx.dst, ctx.starts
        rank = table.columns["rank"]
        total = table.columns["total"]
        ia = table.columns["interval_a"]
        ib = table.columns["interval_b"]
        rk_s, rk_d = rank[src], rank[dst]
        tot_s = total[src]

        with tracer.span(prefix + "spanning_path"):
            # part 1: the nested path labels form a spanning path
            accept = hamiltonian_path_accept(ctx, table)

            # line 4 prelude: every neighbor rank distinct from mine and in
            # range
            accept &= ~segment_any(
                (rk_d == rk_s) | (rk_d <= 0) | (rk_d > tot_s), starts)

        with tracer.span(prefix + "interval_chain"):
            # duplicate neighbor ranks collapse in the rank->interval dict,
            # which the verifier detects by the length mismatch
            key = src * _INDEX_ENC + _enc_index(rk_d)
            order = np.argsort(key)
            k_sorted = key[order]
            v_sorted = src[order]
            r_sorted = rk_d[order]
            a_sorted = ia[dst][order]
            b_sorted = ib[dst][order]
            m = len(dst)
            dup = np.zeros(m, dtype=bool)
            dup[1:] = k_sorted[1:] == k_sorted[:-1]
            accept &= ~scatter_any(dup, v_sorted, n)

            # path consistency: predecessor / successor rank among neighbors
            accept &= (rank <= 1) | segment_any(rk_d == rk_s - 1, starts)
            accept &= (rank >= total) | segment_any(rk_d == rk_s + 1, starts)

            # line 5: a < x < b and every neighbor inside [a, b]; the virtual
            # vertices 0 and total+1 join their side's check (their other
            # half is implied by a < rank < b)
            accept &= (ia < rank) & (rank < ib)
            accept &= segment_all((ia[src] <= rk_d) & (rk_d <= ib[src]),
                                  starts)
            accept &= (rank != 1) | (ia <= 0)
            accept &= (rank != total) | (total + 1 <= ib)

            # both sides non-empty (the virtual vertex covers its end of the
            # path)
            above = rk_d > rk_s
            below = rk_d < rk_s
            exists_above = segment_any(above, starts)
            exists_below = segment_any(below, starts)
            accept &= exists_above | (rank == total)
            accept &= exists_below | (rank == 1)

            # lines 6-9: consecutive same-side neighbors chain their
            # intervals; after the composite-key sort these are exactly the
            # same-viewer adjacent pairs.  The virtual vertices never pair: a
            # real neighbor on their side of the rank would be out of range.
            same = v_sorted[1:] == v_sorted[:-1]
            ctr = rank[v_sorted[1:]]
            pair_above = same & (r_sorted[:-1] > ctr)
            bad_up = pair_above & ~((a_sorted[:-1] == ctr)
                                    & (b_sorted[:-1] == r_sorted[1:]))
            pair_below = same & (r_sorted[1:] < ctr)
            bad_dn = pair_below & ~((a_sorted[1:] == r_sorted[:-1])
                                    & (b_sorted[1:] == ctr))
            bad_pairs = np.zeros(m, dtype=bool)
            bad_pairs[1:] = bad_up | bad_dn
            accept &= ~scatter_any(bad_pairs, v_sorted, n)

        with tracer.span(prefix + "interval_map"):
            # (viewer, rank) -> interval map for the extreme and membership
            # probes
            is_first = np.empty(m, dtype=bool)
            is_first[:1] = True
            is_first[1:] = ~dup[1:]
            map_keys = k_sorted[is_first]
            map_a = a_sorted[is_first]
            map_b = b_sorted[is_first]

        def interval_of(viewers: Any, queries: Any) -> tuple[Any, Any, Any]:
            valid = (queries >= 1) & (queries < _INDEX_ENC)
            pos, found = _sorted_lookup(
                map_keys, viewers * _INDEX_ENC + np.where(valid, queries, 0))
            return found & valid, map_a[pos], map_b[pos]

        with tracer.span(prefix + "extremes"):
            max_above = np.full(n, _INT64_MIN)
            np.maximum.at(max_above, src[above], rk_d[above])
            min_below = np.full(n, _INT64_MAX)
            np.minimum.at(min_below, src[below], rk_d[below])
            rows = np.arange(n, dtype=np.int64)

            # lines 10-11: the largest neighbor strictly inside [a, b] shares
            # I(x); at rank == total that neighbor is the virtual total+1,
            # whose interval is [-inf, +inf] and never equals (a, b)
            top_found, top_a, top_b = interval_of(rows, max_above)
            accept &= ~((rank == total) & (total + 1 < ib))
            accept &= ~((rank != total) & exists_above & (max_above < ib)
                        & ~(top_found & (top_a == ia) & (top_b == ib)))

            # lines 12-13: symmetric for the smallest neighbor
            bot_found, bot_a, bot_b = interval_of(rows, min_below)
            accept &= ~((rank == 1) & (ia < 0))
            accept &= ~((rank != 1) & exists_below & (min_below > ia)
                        & ~(bot_found & (bot_a == ia) & (bot_b == ib)))

            # lines 14-17: a neighbor interval delimited by my rank must end
            # at another neighbor (virtuals included) and sit strictly inside
            # I(x)
            na, nb = ia[dst], ib[dst]
            delimited = (na == rk_s) | (nb == rk_s)
            other = np.where(na == rk_s, nb, na)
            member = interval_of(src, other)[0]
            member |= (other == 0) & (rk_s == 1)
            member |= (other == tot_s + 1) & (rk_s == tot_s)
            contained = (ia[src] <= na) & (nb <= ib[src]) \
                & ~((na == ia[src]) & (nb == ib[src]))
            accept &= segment_all(~delimited | (member & contained), starts)

        return accept, view_fallback(ctx, table)


# ----------------------------------------------------------------------
# universal whole-graph-map scheme
# ----------------------------------------------------------------------
_CONTENT_KEY = "_vectorized_graphmap_content"
_PLANAR_KEY = "_vectorized_graphmap_planar"
_MISSING = object()
#: memoised planarity verdict when materialising the map raises (self-loop
#: edges) — the holders take the reference path, which re-raises in node order
_PLANAR_ERROR = object()


def _intlike(value: Any) -> bool:
    return ((type(value) is int or type(value) is bool)
            and -ID_LIMIT < value < ID_LIMIT)


def _graphmap_content(certificate: GraphMapCertificate) -> tuple | None:
    """Canonical ``(node_ids, edges)`` content of a map, or ``None``.

    ``int()`` normalises ``bool`` entries, preserving the equality classes
    dataclass comparison sees (``True == 1``), so equal-content certificates
    intern to the same uid exactly when the reference ``!=`` calls them
    equal.  Non-tuple containers or out-of-int64-range entries have no exact
    array/interning representation and mark the holder unrepresentable.
    """
    node_ids = certificate.node_ids
    edges = certificate.edges
    if type(node_ids) is not tuple or type(edges) is not tuple:
        return None
    ids = []
    for value in node_ids:
        if not _intlike(value):
            return None
        ids.append(int(value))
    pairs = []
    for pair in edges:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        u, v = pair
        if not _intlike(u) or not _intlike(v):
            return None
        pairs.append((int(u), int(v)))
    return (tuple(ids), tuple(pairs))


class UniversalMapKernel:
    """Full kernel of :class:`~repro.baselines.universal.UniversalPlanarityScheme`.

    Per-node work is interning (uid per distinct map content) plus one uid
    equality per directed edge; the map-vs-neighborhood and planarity checks
    run once per *distinct* map over its holders.  Per-map cost is linear in
    the map plus the holders' degrees, so honest assignments (one shared
    map) pay the map once per batch — and the planarity verdict is memoised
    on the certificate object, so repeated sweep trials pay it once ever.
    The reference evaluates ``is_planar`` only after the local checks pass
    somewhere, and materialising an ill-formed map raises — the kernel keeps
    both behaviours by deferring each map's planarity until a holder
    survives the local conjuncts and flagging fallback when it raises.
    """

    scheme_name = UniversalPlanarityScheme.name
    coverage = "full"

    def supports(self, scheme: Any) -> bool:
        return type(scheme) is UniversalPlanarityScheme

    def accept_vector(self, ctx: Any, scheme: Any,
                      certificates: dict[Any, Any]) -> tuple[Any, Any]:
        tracer = current_tracer()
        prefix = "kernel:" + self.scheme_name + "/"
        n = ctx.n
        src, dst, starts = ctx.src, ctx.dst, ctx.starts
        present = np.zeros(n, dtype=bool)
        unrep = np.zeros(n, dtype=bool)
        uid = np.zeros(n, dtype=np.int64)
        interned: dict[Any, int] = {}
        reps: list[GraphMapCertificate] = []
        holders_of: list[list[int]] = []
        get = certificates.get
        with tracer.span(prefix + "intern") as sp:
            for i, label in enumerate(ctx.labels):
                certificate = get(label)
                if certificate is None:
                    continue
                if type(certificate) is not GraphMapCertificate:
                    unrep[i] = True
                    continue
                content = certificate.__dict__.get(_CONTENT_KEY, _MISSING)
                if content is _MISSING:
                    content = _graphmap_content(certificate)
                    certificate.__dict__[_CONTENT_KEY] = content
                if content is None:
                    unrep[i] = True
                    continue
                u = interned.get(content)
                if u is None:
                    u = len(reps)
                    interned[content] = u
                    reps.append(certificate)
                    holders_of.append([])
                present[i] = True
                uid[i] = u
                holders_of[u].append(i)
            if sp:
                sp.set(distinct_maps=len(reps))

        fallback = unrep | segment_any(unrep[dst], starts)
        # own map present; every neighbor carries the *same* map
        accept = present & segment_all(present[dst] & (uid[dst] == uid[src]),
                                       starts)

        ids = ctx.node_ids
        degrees = ctx.degrees
        with tracer.span(prefix + "map_checks"):
            self._check_maps(reps, holders_of, accept, fallback,
                             ids, degrees, starts, dst)
        return accept, fallback

    @staticmethod
    def _check_maps(reps: list, holders_of: list, accept: Any, fallback: Any,
                    ids: Any, degrees: Any, starts: Any, dst: Any) -> None:
        """Per-distinct-map neighborhood and planarity checks (in place)."""
        for u, rep in enumerate(reps):
            holders = np.array(holders_of[u], dtype=np.int64)
            alive = accept[holders]
            if not alive.any():
                continue  # no holder reaches the map checks (reference laziness)
            map_ids, map_edges = rep.__dict__[_CONTENT_KEY]
            ids_arr = np.array(map_ids, dtype=np.int64)
            sorted_map_ids = np.sort(ids_arr)
            edges_arr = np.array(map_edges, dtype=np.int64).reshape(-1, 2)
            eu, ev = edges_arr[:, 0], edges_arr[:, 1]
            # directed pair set with the reference's elif semantics: (u, v)
            # always, (v, u) only when distinct — a self-loop (c, c) puts c
            # in its own neighbor set exactly once
            proper = eu != ev
            pu = np.concatenate([eu, ev[proper]])
            pv = np.concatenate([ev, eu[proper]])
            vocab = np.unique(np.concatenate([pu, pv]))
            width = max(len(vocab), 1)
            pair_keys = np.unique(np.searchsorted(vocab, pu) * width
                                  + np.searchsorted(vocab, pv))
            map_deg = np.bincount(pair_keys // width, minlength=width)

            # the center id appears in the map's node list ...
            center_ids = ids[holders]
            ok = _sorted_lookup(sorted_map_ids, center_ids)[1]
            # ... and the map's neighbor set equals the actual neighborhood:
            # same size, and every actual neighbor found among the map pairs
            center_local, center_known = _sorted_lookup(vocab, center_ids)
            ok &= np.where(center_known, map_deg[center_local], 0) \
                == degrees[holders]
            edge_pos = _concat_ranges(starts[holders], degrees[holders])
            nb_local, nb_known = _sorted_lookup(vocab, ids[dst[edge_pos]])
            counts = degrees[holders]
            pair_ok = np.repeat(center_known, counts) & nb_known \
                & _sorted_lookup(pair_keys,
                                 np.repeat(center_local, counts) * width
                                 + nb_local)[1]
            holder_index = np.repeat(np.arange(len(holders)), counts)
            ok &= np.bincount(holder_index[~pair_ok],
                              minlength=len(holders)) == 0

            alive &= ok
            accept[holders] = alive
            survivors = holders[alive]
            if not survivors.size:
                continue
            planar = rep.__dict__.get(_PLANAR_KEY, _MISSING)
            if planar is _MISSING:
                try:
                    planar = is_planar(rep.to_graph())
                except Exception:
                    planar = _PLANAR_ERROR
                rep.__dict__[_PLANAR_KEY] = planar
            if planar is _PLANAR_ERROR:
                fallback[survivors] = True
            elif not planar:
                accept[survivors] = False
