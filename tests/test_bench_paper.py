"""Tests for ``benchmarks/bench_paper.py``, the paper-claims ledger.

The ledger's gates must pass on the committed ``BENCH_paper.json`` and each
must fail on a copy tampered to break exactly its claim.  The script is
loaded with ``importlib``, as ``tests/test_check_reachability.py`` loads
its script; running it takes about half a minute and is CI's job.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "bench_paper.py"
LEDGER = json.loads((REPO / "BENCH_paper.json").read_text())


@pytest.fixture(scope="module")
def bench_paper():
    # the script imports its sibling bench_common, as it does when run
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_paper", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return module


def failed_gates(bench_paper, sections) -> list[str]:
    return [name for name, passed in bench_paper.gate_results(sections).items()
            if not passed]


def test_gates_pass_on_the_committed_ledger(bench_paper):
    gates = bench_paper.gate_results(LEDGER["sections"])
    assert gates == LEDGER["gates"]
    assert all(gates.values())
    assert set(LEDGER["sections"]) == set(bench_paper.SECTIONS)


def unaccept_e1_row(sections):
    sections["E1"]["rows"][7]["accepted"] = False


def lower_grid_fit(sections):
    fit = next(fit for fit in sections["E1"]["fits"] if fit["family"] == "grid")
    fit["r_squared"] = 0.9499


def fool_e3_row(sections):
    sections["E3"]["rows"][2]["fooled"] = True


def fool_e3_transplant(sections):
    sections["E3"]["transplant"][0]["fooled"] = True


def raise_e6_bits(sections):
    sections["E6"]["counting"][4]["lower_bound_bits"] += 1


def lower_e6_bits(sections):
    sections["E6"]["counting"][0]["lower_bound_bits"] -= 1


def sink_upper_bound(sections):
    row = sections["E6"]["upper_vs_lower"][1]
    row["upper_bound_max_bits"] = row["lower_bound_bits"] - 1


@pytest.mark.parametrize("tamper, gate", [
    (unaccept_e1_row, "E1: every row accepted"),
    (lower_grid_fit, "E1: grid fit R^2 >= 0.95"),
    (fool_e3_row, "E3: no attack fooled every node"),
    (fool_e3_transplant, "E3: no attack fooled every node"),
    (raise_e6_bits, "E6: each lower bound is the least g with (k-1)*g*p >= log2(p!)"),
    (lower_e6_bits, "E6: each lower bound is the least g with (k-1)*g*p >= log2(p!)"),
    (sink_upper_bound, "E6: upper bound >= lower bound"),
], ids=lambda value: getattr(value, "__name__", None))
def test_each_gate_fails_on_a_tampered_ledger(bench_paper, tamper, gate):
    sections = copy.deepcopy(LEDGER["sections"])
    tamper(sections)
    assert failed_gates(bench_paper, sections) == [gate]
