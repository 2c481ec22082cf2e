"""Setuptools entry point (kept as a plain ``setup.py`` so that
``pip install -e .`` works in offline environments that lack the ``wheel``
package needed by the PEP 517 editable-install path)."""
from setuptools import find_packages, setup

setup(
    name="repro-podc-planarity",
    version="1.0.0",  # keep in sync with repro.__version__
    description=("Reproduction of 'Compact Distributed Certification of "
                 "Planar Graphs' (PODC 2020)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[
        # CSR arrays, the repro.vectorized bulk-verification kernels and
        # the shared-memory plane of repro.distributed.shm
        "numpy>=1.24",
    ],
    extras_require={
        # Delaunay instance generator; networkx's version goes in every
        # benchmark's provenance header
        "benchmarks": ["scipy", "networkx>=3.0"],
        # networkx is the planarity test's oracle
        "tests": ["pytest", "hypothesis", "networkx>=3.0"],
    },
)
