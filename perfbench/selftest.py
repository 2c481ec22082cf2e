"""Self-test of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py    # the same checks under pytest

It checks that the layer timers put back every entry point they wrap, that
traced and untraced steps of every workload produce identical outputs, and
that an untraced run reports exactly the end-to-end metrics and a traced run
exactly the per-layer metrics ``BENCHMARK.json`` declares.  The workloads run
at toy sizes, so this takes well under a minute.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 7
#: toy sizes, and step counts that still reach every kind of event
SMALL = {
    "certify": ({"n": 300}, 2),
    "attack-sweep": ({"sizes": (60, 120)}, 2),
    "churn": ({"n": 200, "block": 8, "audit_every": 3, "digest_every": 2,
               "miswires": 2}, 3),
    "fanout": ({"sizes": (60, 120), "trials": 4}, 1),
}


def _outputs(name: str, trace) -> str:
    params, steps = SMALL[name]
    workload = workloads.WORKLOADS[name](SEED, **params)
    state = workload.setup()
    workloads.measure(workload, state, 0.0, trace, max_steps=steps)
    attempted, failed = workload.check(state)
    assert attempted > 0 and failed == 0, (name, attempted, failed)
    return workload.digest()


def test_layer_trace_restores_entry_points():
    before = layers.entry_points()
    trace = layers.LayerTrace()
    with trace:
        during = layers.entry_points()
    assert trace.missing == []
    assert all(during[key] is not before[key] for key in before)
    assert layers.entry_points() == before


def test_traced_and_untraced_outputs_match():
    before = layers.entry_points()
    for name in workloads.WORKLOADS:
        assert _outputs(name, nullcontext()) == \
            _outputs(name, layers.LayerTrace()), name
    assert layers.entry_points() == before


def test_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    params, steps = SMALL["churn"]
    for trace, expected in ((False, end_to_end), (True, per_layer)):
        result = workloads.run("churn", SEED, 0.0, trace, max_steps=steps,
                               **params)
        assert {name: unit for name, (_, unit) in result.metrics.items()} \
            == expected
        assert result.failed == 0


if __name__ == "__main__":
    for test in (test_layer_trace_restores_entry_points,
                 test_traced_and_untraced_outputs_match,
                 test_metrics_match_benchmark_json):
        test()
        print(f"ok  {test.__name__}")
