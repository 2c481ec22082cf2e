"""The benchmark scripts still run against the library they measure.

Each script under ``benchmarks/`` runs as
``PYTHONPATH=src python benchmarks/bench_x.py`` and imports its sibling
``bench_common``, so a renamed or re-signed library call breaks a script
while every other test passes.  Importing each one (its ``__main__`` guard
keeps it from running) checks every name it imports; running
``bench_dynamic``'s engine section on a toy mesh checks the engine calls it
makes directly, ``structures`` and ``_vector_context`` among them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def load(path: Path):
    """Import the script at ``path`` as its own module, as running it would."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location(f"benchmark_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def test_every_script_is_found():
    assert {path.name for path in SCRIPTS} >= {
        "bench_adversary.py", "bench_common.py", "bench_dynamic.py", "bench_paper.py",
        "bench_protocols.py", "bench_scale.py", "bench_vectorized.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path):
    module = load(path)
    if path.stem != "bench_common":  # the shared helpers have no entry point
        assert callable(module.main)
        assert 'if __name__ == "__main__":' in path.read_text()


def test_dynamic_engine_section_on_a_toy_mesh():
    bench_dynamic = load(BENCHMARKS / "bench_dynamic.py")
    row = bench_dynamic.run_engine_section({"mesh_n": 60, "engine_events": 4})
    assert row["events"] == 4
    assert row["divergent_events"] == 0
