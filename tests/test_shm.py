"""Tests for the shared-memory artifact plane (repro.distributed.shm).

Covers the SharedArtifact lifecycle contract (attach/detach/unlink,
refcounts, no leaked segments after exceptions), the network round trip
(read-only SharedNetwork semantics, zero-copy context, verification
equivalence of every PLS kernel on the read-only context), and the
run_trials handle resolution on the serial and pool paths, which must
compile no context for a shared network.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.adversary.campaign import campaign_graph
from repro.adversary.strategies import STRATEGIES
from repro.distributed import shm
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.distributed.verifier import run_verification
from repro.exceptions import GraphError
from repro.graphs.generators import delaunay_planar_graph
from repro.graphs.graph import Graph
from repro.observability.tracer import start_tracing, stop_tracing


def active_segments() -> dict[str, int]:
    """Map of segment name -> current refcount for this process.

    Creator segments appear from export (refcount 0 until attached);
    attacher segments appear on first attach and disappear when their
    refcount returns to zero.
    """
    return {name: seg.refcount for name, seg in shm._segments.items()}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave this process's segment registry empty."""
    before = dict(active_segments())
    yield
    leaked = {name: count for name, count in active_segments().items()
              if name not in before}
    for name in leaked:  # clean up so one failure doesn't cascade
        shm.SharedArtifact(name=name, manifest=(), nbytes=0).unlink()
    assert leaked == {}, f"leaked shared-memory segments: {leaked}"


def _planar_network(n: int = 40, seed: int = 1) -> Network:
    return Network(delaunay_planar_graph(n, seed=seed), seed=seed)


# ---------------------------------------------------------------------------
# SharedArtifact lifecycle
# ---------------------------------------------------------------------------
class TestArtifactLifecycle:
    def test_attach_detach_unlink_roundtrip(self):
        arrays = {"a": np.arange(7, dtype=np.int64),
                  "b": np.eye(3, dtype=np.int64)}
        artifact = shm.export_arrays(arrays)
        assert artifact.refcount == 0
        views = artifact.attach()
        assert artifact.refcount == 1
        assert np.array_equal(views["a"], arrays["a"])
        assert np.array_equal(views["b"], arrays["b"])
        assert views["b"].shape == (3, 3)
        artifact.detach()
        assert artifact.refcount == 0
        artifact.unlink()
        assert active_segments() == {}

    def test_handle_is_small_and_picklable(self):
        artifact = shm.export_arrays(
            {"big": np.zeros(100_000, dtype=np.int64)})
        try:
            blob = pickle.dumps(artifact)
            assert len(blob) < 1024  # the point: handles ship, bytes don't
            clone = pickle.loads(blob)
            views = clone.attach()
            assert views["big"].nbytes == 800_000
            clone.detach()
        finally:
            artifact.unlink()

    def test_views_are_read_only(self):
        artifact = shm.export_arrays({"a": np.arange(4, dtype=np.int64)})
        try:
            views = artifact.attach()
            with pytest.raises(ValueError):
                views["a"][0] = 99
            artifact.detach()
        finally:
            artifact.unlink()

    def test_refcount_balances_across_nested_attaches(self):
        artifact = shm.export_arrays({"a": np.arange(4, dtype=np.int64)})
        try:
            artifact.attach()
            artifact.attach()
            assert artifact.refcount == 2
            artifact.detach()
            assert artifact.refcount == 1
            artifact.detach()
            assert artifact.refcount == 0
        finally:
            artifact.unlink()

    def test_unbalanced_detach_raises(self):
        artifact = shm.export_arrays({"a": np.arange(4, dtype=np.int64)})
        try:
            with pytest.raises(RuntimeError, match="detach without attach"):
                artifact.detach()
        finally:
            artifact.unlink()

    def test_unlink_is_idempotent(self):
        artifact = shm.export_arrays({"a": np.arange(4, dtype=np.int64)})
        artifact.unlink()
        artifact.unlink()  # second call must be a no-op, not an error
        assert active_segments() == {}

    def test_no_segment_leak_when_consumer_raises(self):
        artifact = shm.export_arrays({"a": np.arange(4, dtype=np.int64)})
        try:
            with pytest.raises(RuntimeError, match="consumer blew up"):
                views = artifact.attach()
                try:
                    assert views["a"][0] == 0
                    raise RuntimeError("consumer blew up")
                finally:
                    artifact.detach()
            assert artifact.refcount == 0
        finally:
            artifact.unlink()
        assert active_segments() == {}


# ---------------------------------------------------------------------------
# shared networks
# ---------------------------------------------------------------------------
class TestSharedNetwork:
    def test_roundtrip_preserves_topology_and_ids(self):
        network = _planar_network()
        engine = SimulationEngine(backend="vectorized")
        handle = engine.export_shared(network)
        assert handle is not None
        try:
            shared = shm.attach_network(handle)
            assert isinstance(shared, Network)
            assert sorted(shared.nodes()) == sorted(network.nodes())
            assert shared.size == network.size
            for node in list(network.nodes())[:10]:
                assert shared.id_of(node) == network.id_of(node)
                assert shared.neighbor_ids(node) == network.neighbor_ids(node)
            assert (shared.graph.number_of_edges()
                    == network.graph.number_of_edges())
            assert shared.graph.is_connected()
            assert isinstance(shared.graph, Graph)
        finally:
            handle.unlink()

    def test_shared_network_is_read_only(self):
        engine = SimulationEngine(backend="vectorized")
        handle = engine.export_shared(_planar_network())
        try:
            shared = shm.attach_network(handle)
            with pytest.raises(GraphError, match="read-only"):
                shared.graph.add_edge("x", "y")
            with pytest.raises(GraphError, match="read-only"):
                shared.graph.remove_node(next(iter(shared.nodes())))
        finally:
            handle.unlink()

    def test_verification_matches_reference_on_shared_network(self):
        network = _planar_network(60, seed=3)
        scheme = default_registry().create("planarity-pls")
        certificates = scheme.prove(network)
        engine = SimulationEngine(backend="vectorized")
        handle = engine.export_shared(network)
        try:
            attacher = SimulationEngine(backend="vectorized")
            shared = shm.attach_network(handle)
            shared_certs = {node: certificates[node]
                            for node in shared.nodes()}
            reference = run_verification(scheme, network, certificates)
            result = attacher.verify(scheme, shared, shared_certs)
            assert result.decisions == reference.decisions
            # the network lent its attached context: no recompile, no fallback
            assert attacher.backend_counters["kernel_calls"] == 1
            assert attacher.backend_counters["fallback_networks"] == 0
        finally:
            handle.unlink()

    def test_export_refuses_non_integer_labels(self):
        graph = Graph([("a", "b"), ("b", "c")])
        engine = SimulationEngine(backend="vectorized")
        assert engine.export_shared(Network(graph, seed=1)) is None

    def test_export_refuses_networks_the_compiler_refuses(self):
        # single-node networks never get a vector context -> pickle fallback
        graph = Graph(nodes=[1])
        engine = SimulationEngine(backend="vectorized")
        assert engine.export_shared(Network(graph, seed=1)) is None


def _pls_kernel_names():
    registry = default_registry()
    return sorted(name for name in registry.names(kind="pls")
                  if registry.kernel(name) is not None)


@pytest.mark.parametrize("scheme_name", _pls_kernel_names())
def test_every_kernel_decides_on_a_read_only_shared_context(scheme_name):
    """Pool workers decide on the attached context, whose arrays are
    read-only views: every PLS kernel must run there, honest and under one
    corruption per strategy, with the reference verifier's decisions."""
    scheme = default_registry().create(scheme_name)
    network = Network(campaign_graph(scheme_name, 24), seed=24)
    honest = scheme.prove(network)
    assignments = [honest] + [
        STRATEGIES[name]().corrupt(network, honest, random.Random(trial))
        for trial, name in enumerate(sorted(STRATEGIES))]
    handle = SimulationEngine().export_shared(network)
    assert handle is not None
    try:
        shared = shm.attach_network(handle)
        assert not shared.vector_context.src.flags.writeable
        engine = SimulationEngine(backend="vectorized")
        for certificates in assignments:
            result = engine.verify(scheme, shared, certificates)
            reference = run_verification(scheme, network, certificates)
            assert result.decisions == reference.decisions
        assert engine._vector_context(shared) is shared.vector_context
        assert engine.backend_counters["kernel_calls"] == len(assignments)
        assert engine.backend_counters["fallback_networks"] == 0
    finally:
        handle.unlink()


# ---------------------------------------------------------------------------
# run_trials handle resolution
# ---------------------------------------------------------------------------
def _decisions_trial(spec):
    scheme_name, network = spec
    scheme = default_registry().create(scheme_name)
    certificates = scheme.prove(network)
    engine = SimulationEngine(backend="vectorized")
    result = engine.verify(scheme, network, certificates)
    return (sorted(result.decisions.items(), key=lambda kv: repr(kv[0])),
            type(network).__name__)


class TestHandleResolution:
    def test_serial_path_resolves_handles(self):
        network = _planar_network()
        engine = SimulationEngine(workers=1, backend="vectorized")
        handle = engine.export_shared(network)
        try:
            (resolved,) = engine.run_trials(
                _decisions_trial, [("planarity-pls", handle)])
            decisions, network_type = resolved
            assert network_type == "SharedNetwork"
            (direct,) = engine.run_trials(
                _decisions_trial, [("planarity-pls", network)])
            assert decisions == direct[0]
        finally:
            handle.unlink()

    def test_pool_path_resolves_handles_byte_identically(self):
        network = _planar_network(80, seed=9)
        engine = SimulationEngine(workers=2, backend="vectorized")
        handle = engine.export_shared(network)
        try:
            pooled = engine.run_trials(
                _decisions_trial, [("planarity-pls", handle)] * 3)
            serial = SimulationEngine(workers=1).run_trials(
                _decisions_trial, [("planarity-pls", network)])
            for decisions, network_type in pooled:
                assert network_type == "SharedNetwork"
                assert decisions == serial[0][0]
        finally:
            handle.unlink()

    def test_resolution_recurses_into_containers(self):
        network = _planar_network()
        engine = SimulationEngine(backend="vectorized")
        handle = engine.export_shared(network)
        try:
            spec = {"nets": [handle, (handle, 3)], "other": "x"}
            resolved = shm.resolve_spec(spec)
            assert resolved["other"] == "x"
            assert resolved["nets"][0] is resolved["nets"][1][0]
            assert type(resolved["nets"][0]).__name__ == "SharedNetwork"
            assert resolved["nets"][1][1] == 3
        finally:
            handle.unlink()


class TestOnePath:
    """A handle spec reaches the kernel with no context compile anywhere."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_on_a_handle_compile_no_context(self, workers):
        network = _planar_network(60, seed=5)
        handle = SimulationEngine().export_shared(network)
        try:
            engine = SimulationEngine(workers=workers)
            tracer = start_tracing()
            try:
                shared = engine.run_trials(
                    _decisions_trial, [("planarity-pls", handle)] * 2)
            finally:
                stop_tracing()
        finally:
            handle.unlink()
        (direct,) = SimulationEngine().run_trials(
            _decisions_trial, [("planarity-pls", network)])
        assert sum(span.name == "trial" for span in tracer.spans) == 2
        compiles = [span.attributes for span in tracer.spans
                    if span.name == "compile"
                    and span.attributes.get("stage") == "context"]
        assert compiles == []
        for decisions, network_type in shared:
            assert network_type == "SharedNetwork"
            assert pickle.dumps(decisions) == pickle.dumps(direct[0])
