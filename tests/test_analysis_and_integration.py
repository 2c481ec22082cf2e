"""Tests for the experiment drivers plus end-to-end integration checks.

The integration tests assert the *qualitative* claims of the experiments: the
Theorem 1 scheme accepts planar inputs with certificates growing like
``log n``, rejects non-planar inputs under the attacks we implement, beats
the universal baseline by a widening factor, and sits above the Theorem 2
lower-bound curve.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.experiments import (
    auxiliary_schemes_experiment,
    certificate_size_fit,
    certificate_size_scaling,
    comparison_experiment,
    completeness_experiment,
    lower_bound_table,
    runtime_experiment,
    soundness_experiment,
    upper_vs_lower_bound_table,
)
from repro.analysis.fitting import fit_log_scaling, fit_nlog_scaling
from repro.analysis.tables import format_table, print_table
from repro.baselines.universal import UniversalPlanarityScheme
from repro.core.planarity_scheme import PlanarityScheme
from repro.distributed.verifier import certify_and_verify
from repro.graphs.generators import delaunay_planar_graph, random_apollonian_network


class TestFitting:
    def test_log_fit_recovers_synthetic_constants(self):
        sizes = [16, 32, 64, 128, 256, 512]
        bits = [50 * math.log2(n) + 20 for n in sizes]
        fit = fit_log_scaling(sizes, bits)
        assert abs(fit.slope - 50) < 1e-6
        assert abs(fit.intercept - 20) < 1e-6
        assert fit.r_squared > 0.999
        assert abs(fit.predict(1024) - (50 * 10 + 20)) < 1e-6

    def test_nlog_fit(self):
        sizes = [16, 32, 64, 128]
        bits = [3 * n * math.log2(n) for n in sizes]
        fit = fit_nlog_scaling(sizes, bits)
        assert abs(fit.slope - 3) < 1e-6
        assert fit.r_squared > 0.999

    def test_degenerate_fit(self):
        fit = fit_log_scaling([10], [100])
        assert fit.intercept == 100


class TestTables:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "a" in text and "22" in text

    def test_empty_table(self):
        assert "(no data)" in format_table([], title="empty")

    def test_print_table(self, capsys):
        print_table([{"k": 1}])
        assert "k" in capsys.readouterr().out


class TestExperimentDrivers:
    def test_certificate_size_scaling_rows(self):
        rows = certificate_size_scaling(sizes=[16, 32], families=["grid", "tree"])
        assert len(rows) == 4
        assert all(row["accepted"] for row in rows)
        fit = certificate_size_fit(rows)
        assert fit["slope_bits_per_log2n"] > 0

    def test_completeness_rows(self):
        rows = completeness_experiment(n=20, trials_per_family=1)
        assert all(row["acceptance_rate"] == 1.0 for row in rows)

    def test_soundness_rows(self):
        rows = soundness_experiment(n=12, trials=5)
        assert all(not row["fooled"] for row in rows)
        assert all(row["transplant_accepting"] < row["total_nodes"] for row in rows)

    def test_comparison_rows(self):
        rows = comparison_experiment(n=20, seed=1)
        names = {row["scheme"] for row in rows}
        assert {"planarity-pls", "planarity-dmam", "universal-map-pls",
                "non-planarity-pls"} <= names
        assert all(row["accepted"] for row in rows)

    def test_lower_bound_rows(self):
        rows = lower_bound_table(k=5, p_values=[4, 16])
        assert rows[1]["lower_bound_bits"] >= rows[0]["lower_bound_bits"]

    def test_upper_vs_lower_rows(self):
        rows = upper_vs_lower_bound_table(sizes=[24, 48])
        assert all(row["upper_bound_max_bits"] >= row["lower_bound_bits"] for row in rows)

    def test_runtime_rows(self):
        rows = runtime_experiment(sizes=[30, 60])
        assert all(row["accepted"] for row in rows)
        assert all(row["prover_seconds"] >= 0 for row in rows)

    def test_auxiliary_rows(self):
        rows = auxiliary_schemes_experiment(n=20)
        assert all(row["accepted"] for row in rows)


class TestIntegration:
    def test_upper_bound_scaling_shape(self):
        """The headline claim: max certificate bits / log2(n) stays bounded as n grows
        while the universal baseline grows by an unbounded factor."""
        ratios = []
        gaps = []
        for n in (32, 128, 512):
            graph = random_apollonian_network(n, seed=n)
            ours = certify_and_verify(PlanarityScheme(), graph, seed=n)
            universal = certify_and_verify(UniversalPlanarityScheme(), graph, seed=n)
            assert ours.accepted and universal.accepted
            ratios.append(ours.max_certificate_bits / math.log2(n))
            gaps.append(universal.max_certificate_bits / ours.max_certificate_bits)
        assert max(ratios) < 2 * min(ratios)        # Theta(log n) shape
        assert gaps[-1] > gaps[0]                   # the gap to O(n log n) widens
        assert gaps[-1] > 20                        # and is already large at n = 512

    def test_upper_bound_sits_above_lower_bound(self):
        """Theorem 1 and Theorem 2 are consistent: measured bits >= Omega(log n) bound."""
        rows = upper_vs_lower_bound_table(sizes=[24, 96, 192])
        for row in rows:
            assert row["upper_bound_max_bits"] >= row["lower_bound_bits"]

    def test_delaunay_large_instance_end_to_end(self):
        graph = delaunay_planar_graph(300, seed=123)
        result = certify_and_verify(PlanarityScheme(), graph, seed=123)
        assert result.accepted
        assert result.max_certificate_bits < 60 * math.log2(300) * 3
