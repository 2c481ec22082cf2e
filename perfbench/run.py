#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half under the layer timers and prints the per-layer
metrics.  Earlier lines of standard output are for people: a provenance
record, every metric by name and unit, and the workload's own figures.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/README.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_state() -> tuple[str | None, bool | None]:
    """(commit, dirty flag) of the checkout, or ``None`` outside a git tree.

    Only a ``.git`` at the checkout root counts, so git never searches the
    directories above the checkout.
    """
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD"), None if status is None else bool(status)


def provenance(args: argparse.Namespace, sizes: dict,
               missing: list[str]) -> dict:
    import numpy

    commit, dirty = git_state()
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "missing_entry_points": missing,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "attack-sweep", "churn", "fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print("provenance " + json.dumps(
        provenance(args, result.workload.sizes, result.missing)))
    rows = dict(result.metrics)
    rows.update(result.workload.report())
    rows["failure_rate"] = (result.failed / result.attempted, "fraction")
    for name, (value, unit) in rows.items():
        print(f"{args.workload:13s} {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
