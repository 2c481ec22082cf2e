"""The adversary campaign framework: corruption library, strategies, the
cheating dMAM prover with exact lucky-guess accounting, campaign
determinism across backends and worker counts, the one-shot attacks' edge
cases and the decide loop that every attack and campaign cell shares.
"""

from __future__ import annotations

import gc
import json
import pickle
import random
import weakref
from pathlib import Path

import pytest

from repro.adversary import (
    STRATEGIES,
    AdversaryStrategy,
    CampaignRunner,
    CheatingDMAMProver,
    CoordinatedRootSplit,
    RandomCorruption,
    TargetedRootLie,
    default_cells,
    exhaustive_attack,
    nonplanar_cheating_instance,
    random_certificate_attack,
    transplant_attack,
)
from repro.adversary.attacks import decide_in_chunks
from repro.adversary.campaign import CampaignCell, campaign_graph
from repro.baselines.dmam import FIELD_PRIME, PlanarityDMAMProtocol
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.graphs.generators import (
    delaunay_planar_graph,
    path_graph,
    random_tree,
)
from repro.observability import Tracer, install, start_tracing, stop_tracing

#: deliberately small experiment primes (all prime; chords ~ 29 at n = 16,
#: so the analytic bound spans ~22% down to ~2.7%)
SMALL_PRIMES = (127, 251, 521, 1031)

PLS_SCHEMES = tuple(sorted(default_registry().names(kind="pls")))


@pytest.fixture
def traced():
    tracer = start_tracing()
    try:
        yield tracer
    finally:
        stop_tracing()


def _assert_trace_integrity(tracer: Tracer) -> None:
    assert tracer.open_spans == 0
    ids = {span.span_id for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    for span in tracer.spans:
        assert span.end is not None and span.end >= span.start
        if span.parent_id is not None:
            assert span.parent_id in ids
            assert span.parent_id < span.span_id


def _honest(scheme_name: str, n: int = 16, seed: int = 3):
    engine = SimulationEngine(seed=seed)
    scheme = default_registry().create(scheme_name)
    network = engine.network_for(campaign_graph(scheme_name, n), seed=seed)
    return engine, scheme, network, engine.certify(scheme, network)


# ----------------------------------------------------------------------
# strategies: protocol conformance, determinism, purity, picklability
# ----------------------------------------------------------------------
class TestStrategies:
    def test_registry_instances_satisfy_the_protocol(self):
        for factory in STRATEGIES.values():
            assert isinstance(factory(), AdversaryStrategy)

    def test_strategies_are_picklable(self):
        for factory in STRATEGIES.values():
            strategy = factory()
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone == strategy

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("scheme_name", PLS_SCHEMES)
    def test_deterministic_and_pure(self, strategy_name, scheme_name):
        """Same rng state => same output; the input is never mutated."""
        _, _, network, honest = _honest(scheme_name)
        strategy = STRATEGIES[strategy_name]()
        snapshot = dict(honest)
        first = strategy.corrupt(network, honest, random.Random(11))
        second = strategy.corrupt(network, honest, random.Random(11))
        assert honest == snapshot
        assert list(first) == list(second)
        for node in first:
            assert first[node] == second[node] or \
                repr(first[node]) == repr(second[node])

    def test_zero_rounds_return_a_fresh_copy(self):
        """``rounds=0`` corrupts nothing but still returns a fresh dict."""
        _, _, network, honest = _honest("planarity-pls")
        result = RandomCorruption(rounds=0).corrupt(network, honest, random.Random(0))
        assert result == honest and result is not honest

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    def test_every_strategy_changes_something(self, strategy_name):
        """On the planarity scheme each strategy finds something to forge."""
        _, _, network, honest = _honest("planarity-pls")
        strategy = STRATEGIES[strategy_name]()
        corrupted = strategy.corrupt(network, honest, random.Random(5))
        assert corrupted != honest

    def test_targeted_root_lie_forges_a_root_claim(self):
        _, _, network, honest = _honest("tree-pls")
        corrupted = TargetedRootLie().corrupt(network, honest,
                                              random.Random(2))
        changed = [node for node in network.nodes()
                   if corrupted[node] != honest[node]]
        assert len(changed) == 1
        label = corrupted[changed[0]]
        assert label.parent_id is None
        assert label.root_id == network.id_of(changed[0])

    def test_root_split_rewrites_a_region(self):
        _, _, network, honest = _honest("tree-pls", n=24)
        corrupted = CoordinatedRootSplit(radius=2).corrupt(
            network, honest, random.Random(4))
        changed = [node for node in network.nodes()
                   if corrupted[node] != honest[node]]
        assert len(changed) > 1  # coordinated, not a single-node lie
        fake_roots = {corrupted[node].root_id for node in changed}
        assert len(fake_roots) == 1

    def test_fallback_on_structureless_assignments(self):
        """Targeted strategies stay total when nothing matches their probe."""
        _, _, network, honest = _honest("tree-pls")
        bare = {node: None for node in network.nodes()}
        for factory in STRATEGIES.values():
            corrupted = factory().corrupt(network, bare, random.Random(9))
            assert isinstance(corrupted, dict)
            assert set(corrupted) == set(bare)


# ----------------------------------------------------------------------
# the site index: candidate sites scanned once per (network, assignment)
# ----------------------------------------------------------------------
def _corrupt(name: str, network: Network, certificates: dict, seed: int):
    return STRATEGIES[name]().corrupt(network, certificates,
                                      random.Random(seed))


class TestSiteIndex:
    """A reused scan must draw exactly the sites a first scan draws."""

    SEEDS = range(5)

    @staticmethod
    def _honest(scheme_name: str) -> tuple[Network, dict]:
        """A 200-node Delaunay mesh or random tree and its honest labels."""
        graph = delaunay_planar_graph(200, seed=7) \
            if scheme_name == "planarity-pls" else random_tree(200, seed=7)
        network = Network(graph, seed=7)
        return network, default_registry().create(scheme_name).prove(network)

    @staticmethod
    def _cold(network: Network, base: dict, name: str, seed: int,
              held: list):
        """``name``'s output from a first call: a fresh network with the
        same graph and identifiers, and a fresh copy of ``base``; both are
        appended to ``held`` so no later object reuses their ids."""
        fresh = Network(network.graph, ids={node: network.id_of(node)
                                            for node in network.nodes()})
        certificates = dict(base)
        held.append((fresh, certificates))
        return _corrupt(name, fresh, certificates, seed)

    @pytest.mark.parametrize("scheme_name", ["planarity-pls", "tree-pls"])
    def test_warm_calls_equal_cold_calls(self, scheme_name):
        network, base = self._honest(scheme_name)
        held: list = []
        grid = [(name, seed) for seed in self.SEEDS
                for name in sorted(STRATEGIES)]
        cold = [self._cold(network, base, name, seed, held)
                for name, seed in grid]
        for _ in range(2):
            assert [_corrupt(name, network, base, seed)
                    for name, seed in grid] == cold
        copies = []
        for (name, seed), expected in zip(grid, cold):
            copies.append(dict(base))
            assert _corrupt(name, network, copies[-1], seed) == expected

    @pytest.mark.parametrize("scheme_name", ["planarity-pls", "tree-pls"])
    def test_an_in_place_change_invalidates_the_index(self, scheme_name):
        network, base = self._honest(scheme_name)

        def liars():
            """The node root-lie forges, per seed."""
            forged = []
            for seed in self.SEEDS:
                corrupted = _corrupt("root-lie", network, base, seed)
                [node] = [node for node in network.nodes()
                          if corrupted[node] is not base[node]]
                forged.append(node)
            return forged

        before = liars()
        # a stale index would draw this node again and raise on its None
        base[before[0]] = None
        held: list = []
        for name in sorted(STRATEGIES):
            for seed in self.SEEDS:
                assert _corrupt(name, network, base, seed) == \
                    self._cold(network, base, name, seed, held)
        assert liars() != before

    def test_a_new_node_order_is_rescanned(self):
        """Sites follow node order even when every node shares one
        certificate, so no certificate identity changes."""
        network = Network(random_tree(20, seed=7), seed=7)
        honest = default_registry().create("tree-pls").prove(network)
        [label, *_] = [label for label in honest.values()
                       if label.parent_id is not None]
        shared = {node: label for node in network.nodes()}
        before = [_corrupt("root-lie", network, shared, seed)
                  for seed in self.SEEDS]
        # move the first node to the end of the node order
        graph = network.graph
        first = next(iter(network.nodes()))
        neighbors = list(graph.neighbors(first))
        graph.remove_node(first)
        graph.add_node(first)
        for neighbor in neighbors:
            graph.add_edge(first, neighbor)
        held: list = []
        after = [_corrupt("root-lie", network, shared, seed)
                 for seed in self.SEEDS]
        assert after == [self._cold(network, shared, "root-lie", seed, held)
                         for seed in self.SEEDS]
        assert after != before

    def test_the_index_keeps_no_assignment_alive(self):
        network = Network(random_tree(50, seed=7), seed=7)
        base = default_registry().create("tree-pls").prove(network)
        for name in sorted(STRATEGIES):
            _corrupt(name, network, base, 0)
        probe = weakref.ref(next(iter(base.values())))
        del network, base
        gc.collect()
        assert probe() is None


# ----------------------------------------------------------------------
# honest completeness: zero measured error, every scheme, every backend
# ----------------------------------------------------------------------
class TestHonestCompleteness:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("scheme_name", PLS_SCHEMES)
    def test_honest_assignment_accepts_everywhere(self, scheme_name, backend):
        _, scheme, network, honest = _honest(scheme_name)
        engine = SimulationEngine(backend=backend)
        assert engine.count_accepting(scheme, network, honest) == network.size
        # batched path: same honest item repeated must count identically
        counts = engine.count_accepting_batch(
            scheme, [(network, honest)] * 3)
        assert counts == [network.size] * 3

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("prime", (FIELD_PRIME,) + SMALL_PRIMES[:2])
    def test_honest_dmam_prover_never_errs(self, backend, prime):
        protocol = PlanarityDMAMProtocol(field_prime=prime)
        engine = SimulationEngine(backend=backend)
        network = engine.network_for(campaign_graph("planarity-pls", 16),
                                     seed=3)
        estimate = engine.estimate_soundness_error(protocol, network,
                                                   trials=20, seed=2020)
        assert estimate.all_accept_count == 20
        assert estimate.error_rate == 1.0  # every draw convinces every node


# ----------------------------------------------------------------------
# the cheating dMAM prover and the measured m/p fingerprint bound
# ----------------------------------------------------------------------
class TestCheatingProver:
    TRIALS = 200

    def _prover(self, prime: int, n: int = 16):
        protocol = PlanarityDMAMProtocol(field_prime=prime)
        engine = SimulationEngine(backend="vectorized")
        network = engine.network_for(nonplanar_cheating_instance(n, seed=7),
                                     seed=7)
        return engine, protocol, network, CheatingDMAMProver(protocol, network)

    def test_rejects_planar_networks(self):
        engine = SimulationEngine()
        network = engine.network_for(campaign_graph("planarity-pls", 16),
                                     seed=3)
        with pytest.raises(ValueError):
            CheatingDMAMProver(PlanarityDMAMProtocol(), network)

    @pytest.mark.parametrize("prime", SMALL_PRIMES)
    def test_exact_lucky_guess_accounting(self, prime):
        """Measured all-accept draws == the replayed prediction, exactly."""
        engine, protocol, network, prover = self._prover(prime)
        assert not prover.is_degenerate()
        estimate = engine.estimate_soundness_error(
            protocol, network, trials=self.TRIALS, seed=2020,
            first=prover.first_messages(),
            second_strategy=prover.second_strategy())
        predicted = prover.predict_all_accept_draws(self.TRIALS, 2020)
        assert estimate.all_accept_count == len(predicted)
        # the lie survives every deterministic check: each draw convinces
        # all nodes or all but the root's global comparison
        n = network.size
        assert set(estimate.accepting_counts) <= {n - 1, n}

    @pytest.mark.parametrize("prime", SMALL_PRIMES)
    def test_fooling_set_respects_the_analytic_bound(self, prime):
        """|fooling points| <= c - 1 < m: the m/p bound, exactly."""
        _, protocol, network, prover = self._prover(prime)
        fooling = prover.fooling_points()
        chords = prover.chord_count()
        assert len(fooling) <= chords - 1
        assert chords <= len(list(network.graph.edges()))
        assert prover.analytic_bound() == pytest.approx(
            (chords - 1) / prime)

    def test_measured_error_is_nonzero_at_a_small_prime(self):
        """The headline: a deliberately small field makes soundness error
        measurable (the forged-products experiments measured 0.0)."""
        engine, protocol, network, prover = self._prover(251)
        estimate = engine.estimate_soundness_error(
            protocol, network, trials=400, seed=2020,
            first=prover.first_messages(),
            second_strategy=prover.second_strategy())
        assert estimate.all_accept_count > 0
        assert estimate.error_rate <= prover.analytic_bound()

    def test_backends_and_workers_agree_on_the_cheating_run(self):
        results = []
        for backend, workers in (("vectorized", 1), ("reference", 1),
                                 ("vectorized", 2)):
            protocol = PlanarityDMAMProtocol(field_prime=251)
            engine = SimulationEngine(backend=backend, workers=workers)
            network = engine.network_for(
                nonplanar_cheating_instance(16, seed=7), seed=7)
            prover = CheatingDMAMProver(protocol, network)
            estimate = engine.estimate_soundness_error(
                protocol, network, trials=60, seed=2020,
                first=prover.first_messages(),
                second_strategy=prover.second_strategy())
            results.append(estimate.accepting_counts)
        assert results[0] == results[1] == results[2]

    def test_round_kernel_gates_on_the_prime(self):
        """Exact-arithmetic primes run the kernel; the rest fall back."""
        from repro.vectorized import DMAMRoundKernel

        kernel = DMAMRoundKernel()
        assert kernel.supports(PlanarityDMAMProtocol())
        assert kernel.supports(PlanarityDMAMProtocol(field_prime=251))
        # a prime between 2**31 and the Mersenne prime: direct int64
        # multiplication could overflow, so the reference path decides
        assert not kernel.supports(
            PlanarityDMAMProtocol(field_prime=2147483659))

    def test_field_prime_validation(self):
        with pytest.raises(ValueError):
            PlanarityDMAMProtocol(field_prime=1)


# ----------------------------------------------------------------------
# one-shot attacks: edge cases and what ``trials`` counts
# ----------------------------------------------------------------------
class TestLegacyAttackEdgeCases:
    def _single_node(self):
        engine = SimulationEngine(seed=1)
        scheme = default_registry().create("tree-pls")
        network = engine.network_for(path_graph(1), seed=1)
        return engine, scheme, network

    def test_single_node_exhaustive_trivial_universe(self):
        engine, scheme, network = self._single_node()
        result = exhaustive_attack(scheme, network, [None], engine=engine)
        assert result.trials == 1
        assert not result.fooled

    def test_single_node_exhaustive_honest_universe_fools(self):
        engine, scheme, network = self._single_node()
        honest = engine.certify(scheme, network)
        result = exhaustive_attack(scheme, network, list(honest.values()),
                                   engine=engine)
        assert result.fooled  # single honest node: trivially convinced

    def test_transplant_with_empty_donor_set(self):
        engine, scheme, network = self._single_node()
        result = transplant_attack(scheme, network, {}, engine=engine)
        assert result.trials == 1
        assert result.best_accepting_nodes == 0

    def test_random_attack_zero_trials(self):
        engine, scheme, network = self._single_node()
        result = random_certificate_attack(
            scheme, network, lambda rng, net, node: None, trials=0,
            engine=engine)
        assert result.trials == 0
        assert result.best_accepting_nodes == 0
        assert not result.fooled

    def test_random_attack_counts_trials_up_to_the_first_fooling(self):
        engine, scheme, network, honest = _honest("tree-pls")
        result = random_certificate_attack(
            scheme, network, lambda rng, net, node: honest[node], trials=40,
            engine=engine)
        assert result.fooled
        assert result.trials == 1

    def test_mutated_transplant_counts_trials_up_to_the_first_fooling(self):
        engine, scheme, network, honest = _honest("tree-pls")
        result = transplant_attack(scheme, network, honest,
                                   mutate=lambda rng, cert: cert,
                                   engine=engine)
        assert result.fooled
        assert result.trials == 1


# ----------------------------------------------------------------------
# decide_in_chunks: the one decide loop
# ----------------------------------------------------------------------
class _CountingEngine:
    """Engine stand-in whose count for an assignment is its ``"count"``
    entry; records the size of every batch it decides."""

    def __init__(self):
        self.batches = []

    def count_accepting_batch(self, scheme, items):
        self.batches.append(len(items))
        return [certificates["count"] for _, certificates in items]


class TestDecideInChunks:
    def test_decides_sixteen_per_batch_call_in_order(self):
        engine = _CountingEngine()
        assignments = [{"count": i} for i in range(40)]
        counts = decide_in_chunks(engine, None, None, assignments)
        assert engine.batches == [16, 16, 8]
        assert counts == list(range(40))

    def test_stops_at_the_first_count_equal_to_stop_at(self):
        drawn = []

        def assignments():
            for i in range(40):
                drawn.append(i)
                yield {"count": i}

        engine = _CountingEngine()
        counts = decide_in_chunks(engine, None, None, assignments(),
                                  stop_at=20)
        assert counts == list(range(21))
        assert len(drawn) == 32
        assert engine.batches == [16, 16]

    def test_reference_loop_matches_the_vectorized_engine(self):
        engine = SimulationEngine(backend="vectorized")
        scheme = default_registry().create("planarity-pls")
        network = engine.network_for(campaign_graph("planarity-pls", 64),
                                     seed=3)
        honest = engine.certify(scheme, network)
        assignments = [honest] + [
            STRATEGIES[name]().corrupt(network, honest, random.Random(t))
            for name in sorted(STRATEGIES) for t in range(4)]
        reference = decide_in_chunks(None, scheme, network, assignments)
        assert reference == decide_in_chunks(engine, scheme, network,
                                             assignments)
        assert reference[0] == network.size
        assert min(reference) < network.size


# ----------------------------------------------------------------------
# campaigns: determinism and tracing
# ----------------------------------------------------------------------
class TestCampaign:
    CELLS = [
        CampaignCell(strategy="root-lie", scheme="tree-pls", n=16,
                     trials=8, seed=41),
        CampaignCell(strategy="copy-swap", scheme="planarity-pls", n=16,
                     trials=8, seed=42),
        CampaignCell(strategy="random", scheme="path-graph-pls", n=12,
                     trials=8, seed=43),
    ]

    def test_workers_and_backends_byte_identical(self):
        baseline = CampaignRunner(backend="vectorized", workers=1).run(self.CELLS)
        pooled = CampaignRunner(backend="vectorized", workers=2).run(self.CELLS)
        reference = CampaignRunner(backend="reference", workers=1).run(self.CELLS)
        assert json.dumps(baseline) == json.dumps(pooled)
        assert json.dumps(baseline) == json.dumps(reference)

    def test_committed_campaign_rows_replay(self):
        """Every strategy on every PLS scheme, against BENCH_adversary.json."""
        bench = Path(__file__).resolve().parents[1] / "BENCH_adversary.json"
        committed = json.loads(bench.read_text())["sections"]["campaign"]
        rows = CampaignRunner(backend="vectorized", workers=1, seed=2020).run(
            default_cells(sizes=(16, 24), trials=32, seed=2020))
        assert rows == committed["rows"]

    def test_default_cells_cover_the_grid(self):
        cells = default_cells(sizes=(16,), trials=4)
        assert len(cells) == len(STRATEGIES) * len(PLS_SCHEMES)
        seeds = {cell.seed for cell in cells}
        assert len(seeds) == len(cells)  # no two cells share a stream

    def test_campaign_runs_are_traced(self, traced):
        """Satellite: kernel/fallback spans and per-strategy counters in the
        snapshot, spans balanced (mirrors the observability fuzz harness)."""
        runner = CampaignRunner(backend="vectorized", workers=1)
        runner.run(self.CELLS)
        _assert_trace_integrity(traced)
        names = {span.name for span in traced.spans}
        assert "trial" in names
        assert any(name.startswith("kernel:") for name in names)
        counters = traced.metrics.counters
        assert counters.get("campaign_cells.root-lie") == 1
        assert counters.get("campaign_trials.root-lie") == 8
        assert counters.get("campaign_cells.copy-swap") == 1

    def test_pooled_campaign_counters_aggregate(self):
        """Worker tracer snapshots fold back into the parent totals."""
        tracer = Tracer(enabled=True)
        previous = install(tracer)
        try:
            CampaignRunner(backend="vectorized", workers=2).run(self.CELLS)
        finally:
            install(previous)
        _assert_trace_integrity(tracer)
        counters = tracer.metrics.counters
        assert counters.get("campaign_cells.root-lie") == 1
        assert counters.get("campaign_trials.random") == 8

    def test_cheating_estimate_traced_spans_balance(self, traced):
        protocol = PlanarityDMAMProtocol(field_prime=127)
        engine = SimulationEngine(backend="vectorized")
        network = engine.network_for(nonplanar_cheating_instance(12, seed=5),
                                     seed=5)
        prover = CheatingDMAMProver(protocol, network)
        engine.estimate_soundness_error(
            protocol, network, trials=10, seed=2020,
            first=prover.first_messages(),
            second_strategy=prover.second_strategy())
        _assert_trace_integrity(traced)
        names = {span.name for span in traced.spans}
        assert "kernel:planarity-dmam" in names
        assert "interactive_round" in names
