"""Tests for the observability subsystem (tracer, metrics, exporters).

Covers the PR-7 acceptance surface: balanced span nesting across random
batched / fallback / interactive runs, cross-process metric aggregation
(``run_trials(workers=2)`` totals equal the serial totals), the disabled
path staying behaviourally invisible (identical decisions, zero recorded
state, the shared ``NULL_SPAN`` singleton on every call), and the span-log
/ trace-report round trip.
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from repro.baselines.dmam import PlanarityDMAMProtocol
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import SchemeRegistry, default_registry
from repro.graphs.generators import delaunay_planar_graph, random_tree
from repro.observability import (
    NULL_SPAN,
    MetricsRegistry,
    TimingStat,
    Tracer,
    current,
    install,
    self_times,
    start_tracing,
    stop_tracing,
    write_span_log,
)


@pytest.fixture
def traced():
    """An installed enabled tracer, always uninstalled afterwards."""
    tracer = start_tracing()
    try:
        yield tracer
    finally:
        stop_tracing()


def _scheme(name: str):
    return default_registry().create(name)


def _planar_instance(n: int, seed: int):
    network = Network(delaunay_planar_graph(n, seed=seed), seed=seed)
    scheme = _scheme("planarity-pls")
    return scheme, network, scheme.prove(network)


# ---------------------------------------------------------------------------
# tracer / metrics unit behaviour
# ---------------------------------------------------------------------------
class TestTracerBasics:
    def test_disabled_span_is_the_null_singleton_every_call(self):
        tracer = Tracer(enabled=False)
        spans = {id(tracer.span(f"anything-{i}")) for i in range(50)}
        assert spans == {id(NULL_SPAN)}
        assert not NULL_SPAN
        # attribute deferral: the disabled span swallows everything
        with tracer.span("x") as sp:
            assert sp is NULL_SPAN
            sp.set(huge=list(range(10)))
        assert tracer.spans == []
        assert tracer.metrics.snapshot() == {"counters": {}, "timings": {}, "gauges": {}}

    def test_disabled_events_record_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.event("fallback", scheme="x", reason="y")
        assert tracer.spans == [] and tracer.open_spans == 0

    def test_nesting_assigns_parents_and_survives_exceptions(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.open_spans == 0
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_span_timing_lands_in_metrics(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work"):
            pass
        stat = tracer.metrics.timings["span.work"]
        assert stat.count == 1 and stat.total >= 0.0

    def test_max_spans_bounds_retention_but_not_balance(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for _ in range(10):
            with tracer.span("loop"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped_spans == 7
        assert tracer.open_spans == 0
        assert tracer.metrics.timings["span.loop"].count == 10

    def test_absorb_remaps_ids_and_merges_metrics(self):
        worker = Tracer(enabled=True)
        with worker.span("trial"):
            with worker.span("unit"):
                pass
        worker.metrics.count("units", 3)
        parent = Tracer(enabled=True)
        with parent.span("local"):
            pass
        parent.metrics.count("units", 2)
        parent.absorb(worker.export_payload(), worker=0)
        ids = {span.span_id for span in parent.spans}
        assert len(ids) == len(parent.spans)  # no collisions after remap
        absorbed = {span.name: span for span in parent.spans
                    if span.worker == 0}
        assert absorbed["unit"].parent_id == absorbed["trial"].span_id
        assert parent.metrics.counters["units"] == 5

    def test_install_restores_previous_tracer(self):
        before = current()
        mine = Tracer(enabled=True)
        previous = install(mine)
        try:
            assert current() is mine
        finally:
            install(previous)
        assert current() is before


class TestMetricsRegistry:
    def test_timing_stat_merge_is_exact(self):
        a, b = TimingStat(), TimingStat()
        values = [0.002, 0.5, 0.00001, 3.0]
        for value in values[:2]:
            a.observe(value)
        for value in values[2:]:
            b.observe(value)
        a.merge(b.to_dict())
        assert a.count == 4
        assert a.total == pytest.approx(sum(values))
        assert a.minimum == pytest.approx(min(values))
        assert a.maximum == pytest.approx(max(values))
        assert sum(a.buckets) == 4

    def test_reset_zeroes_counters_in_place(self):
        registry = MetricsRegistry()
        registry.count("a", 2)
        registry.observe("t", 0.1)
        alias = registry.counters
        registry.reset()
        assert alias is registry.counters and alias == {"a": 0}
        assert registry.timings == {}

    def test_reset_named_subset(self):
        registry = MetricsRegistry()
        registry.count("a", 2)
        registry.count("b", 3)
        registry.reset(["a", "missing"])
        assert registry.counters == {"a": 0, "b": 3}


# ---------------------------------------------------------------------------
# balanced nesting under randomised engine workloads (satellite 3)
# ---------------------------------------------------------------------------
def _assert_trace_integrity(tracer: Tracer) -> None:
    assert tracer.open_spans == 0
    ids = {span.span_id for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    for span in tracer.spans:
        assert span.end is not None and span.end >= span.start
        if span.parent_id is not None:
            assert span.parent_id in ids
            assert span.parent_id < span.span_id


class TestBalancedSpansFuzz:
    def test_random_batched_fallback_interactive_runs_stay_balanced(self, traced):
        rng = random.Random(20)
        engine = SimulationEngine(seed=20, backend="vectorized")
        bare = SchemeRegistry()
        bare.register("planarity-pls", _scheme("planarity-pls").__class__)
        no_kernel_engine = SimulationEngine(seed=20, backend="vectorized",
                                            kernel_registry=bare)
        scheme, network, honest = _planar_instance(24, seed=20)
        tree_net = Network(random_tree(18, seed=21), seed=21)
        tree_scheme = _scheme("tree-pls")
        tree_honest = tree_scheme.prove(tree_net)
        protocol = PlanarityDMAMProtocol()
        corrupted = dict(honest)
        corrupted[rng.choice(list(corrupted))] = object()  # unrepresentable

        operations = [
            lambda: engine.verify(scheme, network, honest),
            lambda: engine.verify(scheme, network, corrupted),
            lambda: engine.verify_batch(
                scheme, [(network, honest), (network, corrupted)]),
            lambda: engine.count_accepting(tree_scheme, tree_net, tree_honest),
            lambda: engine.run_interactive(protocol, network,
                                           seed=rng.randrange(1000)),
            lambda: no_kernel_engine.verify(scheme, network, honest),
        ]
        for _ in range(12):
            rng.choice(operations)()
            assert traced.open_spans == 0
        _assert_trace_integrity(traced)
        names = {span.name for span in traced.spans}
        assert any(name.startswith("kernel:planarity-pls") for name in names)
        assert "fallback" in names
        assert "interactive_round" in names
        # the kernel-less engine attributed its wholesale fallback
        assert traced.metrics.counters.get(
            "fallback_networks.planarity-pls.no_kernel", 0) >= 1
        assert traced.metrics.counters.get(
            "fallback_nodes.planarity-pls.unrepresentable_view", 0) >= 1

    def test_fallback_event_carries_scheme_and_reason(self, traced):
        bare = SchemeRegistry()
        bare.register("planarity-pls", _scheme("planarity-pls").__class__)
        engine = SimulationEngine(seed=3, backend="vectorized",
                                  kernel_registry=bare)
        scheme, network, honest = _planar_instance(16, seed=3)
        engine.verify(scheme, network, honest)
        events = [span for span in traced.spans if span.name == "fallback"]
        assert events and events[0].attributes == {
            "scheme": "planarity-pls", "reason": "no_kernel"}


class TestProverAndSizeSpans:
    PROVER_PHASES = ("prove/embedding", "prove/cut_open", "prove/assembly")

    def _certify_and_verify(self):
        engine = SimulationEngine(seed=4, backend="vectorized")
        scheme = _scheme("planarity-pls")
        network = Network(delaunay_planar_graph(30, seed=4), seed=4)
        certificates = engine.certify(scheme, network)
        for _ in range(2):  # the second verify reuses the cached sizes
            engine.verify(scheme, network, certificates)

    def test_traced_certify_and_verify_records_prover_and_size_spans(self, traced):
        self._certify_and_verify()
        _assert_trace_integrity(traced)
        by_name: dict[str, list] = {}
        for span in traced.spans:
            by_name.setdefault(span.name, []).append(span)
        (prove,) = by_name["prove"]
        assert prove.attributes == {"scheme": "planarity-pls", "nodes": 30}
        phases = [by_name[name] for name in self.PROVER_PHASES]
        assert all(len(spans) == 1 for spans in phases)
        phases = [spans[0] for spans in phases]
        assert all(span.parent_id == prove.span_id for span in phases)
        assert all(earlier.end <= later.start
                   for earlier, later in zip(phases, phases[1:]))
        assert prove.start <= phases[0].start and phases[-1].end <= prove.end
        (sizing,) = by_name["size_accounting"]
        assert sizing.attributes == {"nodes": 30}
        assert sizing.start >= prove.end

    def test_untraced_run_records_no_span(self):
        assert not current().enabled
        self._certify_and_verify()
        assert current().spans == []


# ---------------------------------------------------------------------------
# cross-process aggregation (satellite 3)
# ---------------------------------------------------------------------------
def _traced_unit(value: int) -> int:
    tracer = current()
    with tracer.span("unit_work") as sp:
        if sp:
            sp.set(value=value)
    tracer.metrics.count("units")
    tracer.metrics.count("value_total", value)
    return value * value


class TestPooledAggregation:
    def test_pool_metrics_aggregate_to_serial_totals(self):
        specs = [1, 2, 3, 4, 5]

        def run(workers: int) -> tuple[list, dict, dict]:
            tracer = start_tracing()
            try:
                results = SimulationEngine(workers=workers).run_trials(
                    _traced_unit, specs)
            finally:
                stop_tracing()
            _assert_trace_integrity(tracer)
            name_counts: dict[str, int] = {}
            for span in tracer.spans:
                name_counts[span.name] = name_counts.get(span.name, 0) + 1
            return results, dict(tracer.metrics.counters), name_counts

        serial_results, serial_counters, serial_names = run(1)
        pooled_results, pooled_counters, pooled_names = run(2)
        assert pooled_results == serial_results == [1, 4, 9, 16, 25]
        # the pool path (and only it) records how many bytes of specs it
        # shipped to the workers; everything else must aggregate identically
        assert pooled_counters.pop("bytes_pickled.specs") > 0
        assert "bytes_pickled.specs" not in serial_counters
        assert pooled_counters == serial_counters
        assert pooled_counters["units"] == len(specs)
        assert pooled_counters["value_total"] == sum(specs)
        assert pooled_names == serial_names
        assert pooled_names["trial"] == len(specs)
        assert pooled_names["unit_work"] == len(specs)

    def test_worker_spans_keep_parent_links_and_worker_tags(self):
        tracer = start_tracing()
        try:
            SimulationEngine(workers=2).run_trials(_traced_unit, [7, 8])
        finally:
            stop_tracing()
        workers = {span.worker for span in tracer.spans}
        assert workers == {0, 1}
        for span in tracer.spans:
            if span.name == "unit_work":
                parent = next(s for s in tracer.spans
                              if s.span_id == span.parent_id)
                assert parent.name == "trial"
                assert parent.worker == span.worker


# ---------------------------------------------------------------------------
# disabled path is behaviourally invisible (satellite 4, tier 1)
# ---------------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_records_nothing_and_decisions_match(self):
        scheme, network, honest = _planar_instance(24, seed=11)
        rng = random.Random(11)
        corrupted = dict(honest)
        corrupted[rng.choice(list(corrupted))] = None

        def decisions(engine):
            return [engine.verify(scheme, network, certs).decisions
                    for certs in (honest, corrupted)]

        # baseline: default (disabled) tracer
        assert not current().enabled
        off_engine = SimulationEngine(seed=11, backend="vectorized")
        off = decisions(off_engine)
        assert current().spans == []
        assert current().metrics.snapshot() == {"counters": {}, "timings": {}, "gauges": {}}

        tracer = start_tracing()
        try:
            on_engine = SimulationEngine(seed=11, backend="vectorized")
            on = decisions(on_engine)
        finally:
            stop_tracing()
        assert on == off
        assert on_engine.backend_counters == off_engine.backend_counters
        assert tracer.spans  # tracing on actually recorded the same run

    def test_disabled_span_allocates_nothing_per_call(self):
        tracer = Tracer(enabled=False)
        # every call returns the one module-level singleton: the disabled
        # path is a flag check plus a constant load, no per-call objects
        assert all(tracer.span("hot") is NULL_SPAN for _ in range(1000))
        assert tracer.spans == [] and tracer.open_spans == 0


# ---------------------------------------------------------------------------
# exporters and the trace_report CLI round trip
# ---------------------------------------------------------------------------
def _load_trace_report():
    path = Path(__file__).resolve().parent.parent / "scripts" / "trace_report.py"
    spec = importlib.util.spec_from_file_location("trace_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExporters:
    def _traced_run(self):
        tracer = start_tracing()
        try:
            engine = SimulationEngine(seed=5, backend="vectorized")
            scheme, network, honest = _planar_instance(20, seed=5)
            engine.verify(scheme, network, honest)
            # two items: a single-item batch takes the per-network path and
            # would not emit a batch_build span
            engine.verify_batch(scheme, [(network, honest), (network, honest)])
        finally:
            stop_tracing()
        return tracer

    def test_span_log_round_trip_and_check(self, tmp_path):
        tracer = self._traced_run()
        log = tmp_path / "spans.jsonl"
        write_span_log(tracer, str(log))
        report = _load_trace_report()
        spans, trailer = report.load_span_log(str(log))
        assert trailer is not None
        assert trailer["unclosed_spans"] == 0
        assert trailer["spans"] == len(spans) == len(tracer.spans)
        assert report.check(spans, trailer) == 0
        rows = report.aggregate(spans)
        assert any(name.startswith("kernel:planarity-pls/") for name in rows)
        assert "batch_build" in rows

    def test_check_flags_unclosed_and_missing_kernels(self):
        report = _load_trace_report()
        trailer = {"trace_summary": True, "spans": 0, "unclosed_spans": 2,
                   "dropped_spans": 0, "metrics": {}}
        assert report.check([], trailer) == 1
        assert report.check([], None) == 1

    def test_fallback_attribution_parses_counter_keys(self):
        report = _load_trace_report()
        table = report.fallback_attribution({
            "fallback_networks.planarity-pls.no_kernel": 2,
            "fallback_nodes.planarity-pls.no_kernel": 48,
            "unrelated": 9,
        })
        assert table == {("planarity-pls", "no_kernel"): [2, 48]}

    def test_expect_zero_copy_gate(self):
        report = _load_trace_report()
        spans = [{"name": "shm_export", "id": 1, "parent": None, "dur": 0.0},
                 {"name": "shm_attach", "id": 2, "parent": None, "dur": 0.0}]
        handles = {"metrics": {"counters": {"bytes_shared": 1000,
                                            "bytes_pickled.specs": 10}}}
        assert report.check_zero_copy(spans, handles) == []
        # pickled spec bytes >= shared bytes: the pool shipped arrays
        arrays = {"metrics": {"counters": {"bytes_shared": 5,
                                           "bytes_pickled.specs": 10}}}
        assert any("shipped arrays" in f
                   for f in report.check_zero_copy(spans, arrays))
        # no shm spans at all
        failures = report.check_zero_copy([], handles)
        assert any("shm_export" in f for f in failures)
        assert any("shm_attach" in f for f in failures)
        assert any("bytes_shared" in f
                   for f in report.check_zero_copy(spans, None))

    def test_self_times_subtract_direct_children(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        selfs = self_times(tracer.spans)
        by_name = {span.name: span for span in tracer.spans}
        outer = by_name["outer"]
        inner = by_name["inner"]
        assert selfs[inner.span_id] == pytest.approx(inner.duration)
        assert selfs[outer.span_id] == pytest.approx(
            max(0.0, outer.duration - inner.duration))

    def test_span_log_is_json_lines(self):
        tracer = self._traced_run()
        buffer = io.StringIO()
        write_span_log(tracer, buffer)
        lines = buffer.getvalue().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[-1]["trace_summary"] is True
        assert all("name" in record for record in records[:-1])
