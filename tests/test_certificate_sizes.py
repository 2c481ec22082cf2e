"""Certificate sizes: the counting sink against the ``BitWriter`` oracle.

Reported sizes come from :class:`~repro.distributed.certificates.BitCounter`,
which counts the bits :class:`BitWriter` would write.  These tests hold the
two to each other on every ``Encodable`` type (hypothesis draws of valid
fields, decoded back with :class:`BitReader`) and on the honest assignments
of every registered scheme, and pin the size of payloads with no encoding.
"""

from __future__ import annotations

import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.dmam import DMAMFirstMessage, DMAMSecondMessage
from repro.baselines.universal import GraphMapCertificate
from repro.core.building_blocks import HamiltonianPathLabel, SpanningTreeLabel
from repro.core.nonplanarity_scheme import NonPlanarityCertificate, SubdivisionRole
from repro.core.path_outerplanar import random_path_outerplanar_graph
from repro.core.planarity_scheme import (
    CotreeEdgeCertificate,
    PlanarityCertificate,
    TreeEdgeCertificate,
)
from repro.core.po_scheme import PathOuterplanarLabel
from repro.distributed.certificates import (
    BitCounter,
    BitReader,
    BitWriter,
    Encodable,
    encoded_size_bits,
)
from repro.distributed.interactive import InteractiveProtocol
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.distributed.verifier import certificate_statistics
from repro.exceptions import CertificateError
from repro.graphs.generators import (
    delaunay_planar_graph,
    k5_subdivision,
    path_graph,
    random_tree,
)


def writer_bits(obj: Encodable) -> BitWriter:
    writer = BitWriter()
    obj.encode(writer)
    return writer


# ----------------------------------------------------------------------
# decoders: BitReader must recover every field BitWriter wrote
# ----------------------------------------------------------------------
def read_spanning_tree(reader: BitReader) -> SpanningTreeLabel:
    return SpanningTreeLabel(total=reader.read_uint(), root_id=reader.read_uint(),
                             parent_id=reader.read_optional_uint(),
                             distance=reader.read_uint(),
                             subtree_size=reader.read_uint())


def read_hamiltonian(reader: BitReader) -> HamiltonianPathLabel:
    return HamiltonianPathLabel(total=reader.read_uint(), rank=reader.read_uint(),
                                root_id=reader.read_uint(),
                                parent_id=reader.read_optional_uint())


def read_path_outerplanar(reader: BitReader) -> PathOuterplanarLabel:
    return PathOuterplanarLabel(path=read_hamiltonian(reader),
                                interval=(reader.read_uint(), reader.read_uint()))


def read_intervals(reader: BitReader) -> tuple:
    return tuple((reader.read_uint(), reader.read_uint(), reader.read_uint())
                 for _ in range(reader.read_uint()))


def read_edge_certificate(reader: BitReader):
    if reader.read_bool():
        return TreeEdgeCertificate(parent_id=reader.read_uint(),
                                   child_id=reader.read_uint(),
                                   descend_index=reader.read_uint(),
                                   return_index=reader.read_uint(),
                                   intervals=read_intervals(reader))
    return CotreeEdgeCertificate(a_id=reader.read_uint(), b_id=reader.read_uint(),
                                 copy_a=reader.read_uint(), copy_b=reader.read_uint(),
                                 intervals=read_intervals(reader))


def read_planarity(reader: BitReader) -> PlanarityCertificate:
    spanning_tree = read_spanning_tree(reader)
    return PlanarityCertificate(
        spanning_tree=spanning_tree,
        edge_certificates=tuple(read_edge_certificate(reader)
                                for _ in range(reader.read_uint())))


def read_role(reader: BitReader) -> SubdivisionRole:
    return SubdivisionRole(*(reader.read_optional_uint() for _ in range(6)))


def read_nonplanarity(reader: BitReader) -> NonPlanarityCertificate:
    kind = reader.read_uint()
    branch_ids = tuple(reader.read_uint() for _ in range(reader.read_uint()))
    spanning_tree = read_spanning_tree(reader)
    role = read_role(reader) if reader.read_bool() else None
    return NonPlanarityCertificate(kind=kind, branch_ids=branch_ids,
                                   spanning_tree=spanning_tree, role=role)


def read_pairs(reader: BitReader) -> tuple:
    return tuple((reader.read_uint(), reader.read_uint())
                 for _ in range(reader.read_uint()))


def read_graph_map(reader: BitReader) -> GraphMapCertificate:
    node_ids = tuple(reader.read_uint() for _ in range(reader.read_uint()))
    return GraphMapCertificate(node_ids=node_ids, edges=read_pairs(reader))


def read_first_message(reader: BitReader) -> DMAMFirstMessage:
    structure = read_planarity(reader)
    return DMAMFirstMessage(structure=structure, stack_heights=read_pairs(reader))


def read_second_message(reader: BitReader) -> DMAMSecondMessage:
    return DMAMSecondMessage(*(reader.read_uint() for _ in range(3)))


# ----------------------------------------------------------------------
# strategies: valid fields of every Encodable type
# ----------------------------------------------------------------------
#: the gamma code's length steps between 2^k - 1 and 2^k, so draw both
#: sides of every step (0 = 2^0 - 1 included) besides arbitrary values
uints = st.one_of(
    st.integers(0, 70).flatmap(lambda k: st.sampled_from([(1 << k) - 1, 1 << k])),
    st.integers(0, 1 << 64))
optional_uints = st.none() | uints


def tuples_of(elements, max_size: int = 5):
    return st.lists(elements, max_size=max_size).map(tuple)


intervals = tuples_of(st.tuples(uints, uints, uints))
pairs = tuples_of(st.tuples(uints, uints))
spanning_trees = st.builds(SpanningTreeLabel, total=uints, root_id=uints,
                           parent_id=optional_uints, distance=uints,
                           subtree_size=uints)
hamiltonians = st.builds(HamiltonianPathLabel, total=uints, rank=uints,
                         root_id=uints, parent_id=optional_uints)
tree_edges = st.builds(TreeEdgeCertificate, parent_id=uints, child_id=uints,
                       descend_index=uints, return_index=uints, intervals=intervals)
cotree_edges = st.builds(CotreeEdgeCertificate, a_id=uints, b_id=uints,
                         copy_a=uints, copy_b=uints, intervals=intervals)
planarity_certificates = st.builds(
    PlanarityCertificate, spanning_tree=spanning_trees,
    edge_certificates=tuples_of(tree_edges | cotree_edges))
roles = st.builds(SubdivisionRole, *(optional_uints for _ in range(6)))

STRATEGIES = {
    SpanningTreeLabel: (spanning_trees, read_spanning_tree),
    HamiltonianPathLabel: (hamiltonians, read_hamiltonian),
    PathOuterplanarLabel: (st.builds(PathOuterplanarLabel, path=hamiltonians,
                                     interval=st.tuples(uints, uints)),
                           read_path_outerplanar),
    TreeEdgeCertificate: (tree_edges, read_edge_certificate),
    CotreeEdgeCertificate: (cotree_edges, read_edge_certificate),
    PlanarityCertificate: (planarity_certificates, read_planarity),
    SubdivisionRole: (roles, read_role),
    NonPlanarityCertificate: (st.builds(NonPlanarityCertificate, kind=uints,
                                        branch_ids=tuples_of(uints, 7),
                                        spanning_tree=spanning_trees,
                                        role=st.none() | roles),
                              read_nonplanarity),
    GraphMapCertificate: (st.builds(GraphMapCertificate, node_ids=tuples_of(uints),
                                    edges=pairs),
                          read_graph_map),
    DMAMFirstMessage: (st.builds(DMAMFirstMessage, structure=planarity_certificates,
                                 stack_heights=pairs),
                       read_first_message),
    DMAMSecondMessage: (st.builds(DMAMSecondMessage, uints, uints, uints),
                        read_second_message),
}


def library_encodable_types() -> set[type]:
    """Every ``Encodable`` subclass defined in the library."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = set(), [Encodable]
    while stack:
        for subclass in stack.pop().__subclasses__():
            if subclass not in found:
                found.add(subclass)
                stack.append(subclass)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


class TestSinkMatchesWriter:
    def test_every_encodable_type_has_a_strategy(self):
        assert library_encodable_types() == set(STRATEGIES)
        assert len(STRATEGIES) == 11

    @pytest.mark.parametrize("cls", sorted(STRATEGIES, key=lambda cls: cls.__name__),
                             ids=lambda cls: cls.__name__)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_size_equals_writer_length_and_round_trips(self, cls, data):
        strategy, read = STRATEGIES[cls]
        obj = data.draw(strategy)
        writer = writer_bits(obj)
        assert obj.size_bits() == len(writer)
        assert encoded_size_bits(obj) == len(writer)
        reader = BitReader(writer.bits)
        assert read(reader) == obj
        with pytest.raises(CertificateError):  # nothing left over
            reader.read_bit()

    @settings(max_examples=60)
    @given(st.one_of(uints, uints.map(lambda v: -v), st.booleans(), st.none()))
    def test_plain_payload_sizes(self, value):
        if value is None or isinstance(value, bool):
            assert encoded_size_bits(value) == 1
            return
        writer = BitWriter()
        writer.write_int(value)
        assert encoded_size_bits(value) == len(writer)

    @settings(max_examples=60)
    @given(uints, st.integers(0, 80), st.booleans())
    def test_each_write_method_counts_what_the_writer_writes(self, value, width, flag):
        writer, counter = BitWriter(), BitCounter()
        for sink in (writer, counter):
            sink.write_uint(value)
            sink.write_int(-value)
            sink.write_optional_uint(value)
            sink.write_optional_uint(None)
            sink.write_bool(flag)
            sink.write_bit(flag)
            sink.write_fixed_uint(value & ((1 << width) - 1), width)
        assert counter.bits == len(writer)

    @pytest.mark.parametrize("call", [
        lambda sink: sink.write_uint(-1),
        lambda sink: sink.write_optional_uint(-3),
        lambda sink: sink.write_fixed_uint(8, 3),
        lambda sink: sink.write_fixed_uint(-1, 3),
    ])
    def test_same_range_checks_as_the_writer(self, call):
        for sink in (BitWriter(), BitCounter()):
            with pytest.raises(CertificateError):
                call(sink)


# ----------------------------------------------------------------------
# honest assignments of every registered scheme
# ----------------------------------------------------------------------
def registered_instances() -> dict[str, tuple[dict, object]]:
    """(factory kwargs, small yes-instance) for every registered scheme."""
    po_graph, po_witness = random_path_outerplanar_graph(24, seed=6)
    return {
        "planarity-pls": ({}, delaunay_planar_graph(40, seed=6)),
        "non-planarity-pls": ({}, k5_subdivision(2, seed=6)),
        "path-outerplanarity-pls": ({"witness": po_witness}, po_graph),
        "path-graph-pls": ({}, path_graph(12)),
        "tree-pls": ({}, random_tree(20, seed=6)),
        "universal-map-pls": ({}, delaunay_planar_graph(16, seed=6)),
        "planarity-dmam": ({}, delaunay_planar_graph(40, seed=7)),
    }


def honest_assignments(name: str) -> list[dict]:
    kwargs, graph = registered_instances()[name]
    scheme = default_registry().create(name, **kwargs)
    network = Network(graph, seed=6)
    if not isinstance(scheme, InteractiveProtocol):
        return [scheme.prove(network)]
    turn = scheme.first_turn(network)
    challenges = scheme.draw_challenges(network, random.Random(6))
    return [turn.messages, scheme.second_turn(network, turn, challenges)]


def test_every_registered_scheme_is_covered():
    assert set(registered_instances()) == set(default_registry().names())


@pytest.mark.parametrize("name", sorted(registered_instances()))
def test_honest_sizes_equal_writer_lengths(name):
    for certificates in honest_assignments(name):
        sizes = certificate_statistics(certificates)
        assert sizes.keys() == certificates.keys()
        for node, certificate in certificates.items():
            assert isinstance(certificate, Encodable)
            assert sizes[node] == len(writer_bits(certificate)) > 0


# ----------------------------------------------------------------------
# payloads with no encoding
# ----------------------------------------------------------------------
LABEL = SpanningTreeLabel(total=5, root_id=1, parent_id=None, distance=0,
                          subtree_size=5)


def assert_no_encoding(payload: object) -> None:
    """Sizing raises CertificateError; statistics charge 8 * len(repr)."""
    with pytest.raises(CertificateError):
        encoded_size_bits(payload)
    assert certificate_statistics({"v": payload}) == {"v": 8 * len(repr(payload))}


class TestPayloadsWithNoEncoding:
    def test_none_field(self):
        assert_no_encoding(SpanningTreeLabel(total=None, root_id=1, parent_id=None,
                                             distance=0, subtree_size=5))
        assert_no_encoding(NonPlanarityCertificate(kind=0, branch_ids=(3, None),
                                                   spanning_tree=LABEL, role=None))

    def test_negative_field(self):
        assert_no_encoding(TreeEdgeCertificate(parent_id=1, child_id=-2,
                                               descend_index=0, return_index=3,
                                               intervals=()))
        assert_no_encoding(SubdivisionRole.branch(-1))

    @pytest.mark.parametrize("payload", ["certificate", object(), 1.5, [1, 2]],
                             ids=["str", "object", "float", "list"])
    def test_payload_that_is_not_encodable(self, payload):
        assert_no_encoding(payload)

    def test_nested_certificate_that_is_not_encodable(self):
        assert_no_encoding(PlanarityCertificate(spanning_tree=None,
                                                edge_certificates=()))
        assert_no_encoding(NonPlanarityCertificate(kind=0, branch_ids=(),
                                                   spanning_tree="tree", role=None))
        assert_no_encoding(PlanarityCertificate(spanning_tree=LABEL,
                                                edge_certificates=(None,)))

    def test_a_bug_in_an_encoder_propagates(self):
        class Broken(Encodable):
            def encode(self, writer):
                raise ValueError("encoder bug")

        with pytest.raises(ValueError, match="encoder bug"):
            certificate_statistics({"v": LABEL, "w": Broken()})
