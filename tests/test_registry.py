"""Tests for the :class:`SchemeRegistry` and the default registry contents."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.planarity_scheme import PlanarityScheme
from repro.distributed.registry import SchemeRegistry, default_registry
from repro.distributed.scheme import SchemeDescription
from repro.exceptions import RegistryError

EXPECTED_NAMES = {
    "planarity-pls",
    "non-planarity-pls",
    "path-outerplanarity-pls",
    "path-graph-pls",
    "tree-pls",
    "universal-map-pls",
    "planarity-dmam",
}


class TestDefaultRegistry:
    def test_every_builtin_scheme_is_registered(self):
        registry = default_registry()
        assert set(registry.names()) == EXPECTED_NAMES

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()

    def test_kinds(self):
        registry = default_registry()
        assert registry.names("interactive") == ["planarity-dmam"]
        assert set(registry.names("pls")) == EXPECTED_NAMES - {"planarity-dmam"}

    def test_create_returns_fresh_instances(self):
        registry = default_registry()
        a = registry.create("planarity-pls")
        b = registry.create("planarity-pls")
        assert isinstance(a, PlanarityScheme)
        assert a is not b

    def test_create_forwards_kwargs(self):
        scheme = default_registry().create("path-outerplanarity-pls",
                                           witness=[1, 2, 3])
        assert scheme.witness == [1, 2, 3]

    def test_descriptions_match_scheme_attributes(self):
        registry = default_registry()
        for name in EXPECTED_NAMES:
            description = registry.describe(name)
            assert isinstance(description, SchemeDescription)
            assert description.name == name
        dmam = registry.describe("planarity-dmam")
        assert dmam.interactions == 3
        assert dmam.randomized is True

    def test_description_rows(self):
        rows = default_registry().description_rows()
        assert {row["scheme"] for row in rows} == EXPECTED_NAMES


class TestRegistryBehaviour:
    def test_duplicate_registration_raises(self):
        registry = SchemeRegistry()
        registry.register("planarity-pls", PlanarityScheme)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("planarity-pls", PlanarityScheme)

    def test_replace_overwrites(self):
        registry = SchemeRegistry()
        registry.register("planarity-pls", PlanarityScheme)
        entry = registry.register("planarity-pls", PlanarityScheme, replace=True)
        assert registry.entry("planarity-pls") is entry

    def test_unknown_name_raises_with_known_names(self):
        registry = SchemeRegistry()
        registry.register("planarity-pls", PlanarityScheme)
        with pytest.raises(RegistryError, match="planarity-pls"):
            registry.create("no-such-scheme")

    def test_unknown_kind_raises(self):
        registry = SchemeRegistry()
        with pytest.raises(RegistryError, match="kind"):
            registry.register("x", PlanarityScheme, kind="quantum")

    def test_unregister(self):
        registry = SchemeRegistry()
        registry.register("planarity-pls", PlanarityScheme)
        registry.unregister("planarity-pls")
        assert "planarity-pls" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("planarity-pls")

    def test_container_protocol(self):
        registry = SchemeRegistry()
        assert len(registry) == 0
        registry.register("planarity-pls", PlanarityScheme)
        assert "planarity-pls" in registry
        assert len(registry) == 1
        assert [entry.name for entry in registry] == ["planarity-pls"]

    def test_kernel_discovery_with_and_without_kernels(self):
        """``kernel_for`` resolves exactly the schemes that registered a
        kernel and whose ``supports`` check passes."""
        registry = default_registry()
        with_kernels = {name for name in registry.names()
                        if registry.kernel(name) is not None}
        for name in EXPECTED_NAMES:
            if registry.entry(name).kind != "pls":
                continue
            scheme = registry.create(name)
            kernel = registry.kernel_for(scheme)
            if name in with_kernels:
                assert kernel is not None and kernel.supports(scheme)
                assert kernel.scheme_name == name
                assert registry.kernel(name) is kernel
            else:
                assert kernel is None
                assert registry.kernel(name) is None

    def test_kernel_reregistration(self):
        """Re-registration: duplicate guarded, replace swaps, scheme
        re-registration keeps the kernel, unregistering drops it."""
        from repro.vectorized import PlanarityKernel

        registry = SchemeRegistry()
        first, second = PlanarityKernel(), PlanarityKernel()
        with pytest.raises(RegistryError, match="unknown scheme"):
            registry.register_kernel("planarity-pls", first)
        registry.register("planarity-pls", PlanarityScheme)
        registry.register_kernel("planarity-pls", first)
        with pytest.raises(RegistryError, match="already has a kernel"):
            registry.register_kernel("planarity-pls", second)
        registry.register_kernel("planarity-pls", second, replace=True)
        assert registry.kernel("planarity-pls") is second
        # replacing the scheme entry does not silently drop its kernel ...
        registry.register("planarity-pls", PlanarityScheme, replace=True)
        assert registry.kernel("planarity-pls") is second
        # ... but unregistering the scheme does
        registry.unregister("planarity-pls")
        assert registry.kernel("planarity-pls") is None

    def test_backend_support_matrix_matches_architecture_docs(self):
        """The backend-support matrix in docs/ARCHITECTURE.md is the
        documented contract; it must agree with ``default_registry()`` —
        scheme set, kinds, kernel classes, the kind→runtime mapping, and
        each kernel's declared coverage level."""
        docs = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
        rows = re.findall(
            r"^\| `([\w-]+)` \| (\w+) \| (?:`(\w+)`|—) \| `engine\.(\w+)` \| (\w+)",
            docs.read_text(), flags=re.MULTILINE)
        documented = {name: (kind, kernel or None, runtime, coverage)
                      for name, kind, kernel, runtime, coverage in rows}
        registry = default_registry()
        assert set(documented) == set(registry.names())
        from repro.distributed.engine import SimulationEngine

        expected_runtime = {"pls": "verify", "interactive": "run_interactive"}
        for name, (kind, kernel_class, runtime, coverage) in documented.items():
            assert registry.entry(name).kind == kind
            assert runtime == expected_runtime[kind]
            assert callable(getattr(SimulationEngine, runtime))
            kernel = registry.kernel(name)
            if kernel_class is None:
                assert kernel is None
                assert coverage == "reference"  # "reference wholesale"
                assert registry.kernel_coverage(name) is None
            else:
                assert type(kernel).__name__ == kernel_class
                # the coverage cell's leading word is the kernel's contract
                assert coverage == registry.kernel_coverage(name)
                assert coverage == kernel.coverage

    def test_kernel_requires_explicit_coverage(self):
        """Registering a kernel that does not declare its ``coverage``
        contract raises instead of silently reading as "full"."""
        registry = SchemeRegistry()
        registry.register("planarity-pls", PlanarityScheme)

        class NoCoverage:
            scheme_name = "planarity-pls"

            def supports(self, scheme):
                return True

        with pytest.raises(RegistryError, match="coverage"):
            registry.register_kernel("planarity-pls", NoCoverage())

        class EmptyCoverage(NoCoverage):
            coverage = ""

        with pytest.raises(RegistryError, match="coverage"):
            registry.register_kernel("planarity-pls", EmptyCoverage())

        class NonStringCoverage(NoCoverage):
            coverage = 3

        with pytest.raises(RegistryError, match="coverage"):
            registry.register_kernel("planarity-pls", NonStringCoverage())
        assert registry.kernel("planarity-pls") is None

    def test_every_builtin_pls_scheme_has_kernel_coverage(self):
        """Every registered proof-labeling scheme — six rows — ships a
        kernel with a declared coverage; the interactive dMAM has none."""
        registry = default_registry()
        pls = EXPECTED_NAMES - {"planarity-dmam"}
        assert {name for name in registry.names()
                if registry.kernel(name) is not None} == pls
        coverages = {name: registry.kernel_coverage(name) for name in pls}
        assert set(coverages.values()) == {"full"}
        assert registry.kernel_coverage("planarity-dmam") is None

    def test_planarity_kernel_is_full_coverage(self):
        """PR 5's contract flip, pinned: the planarity kernel is a full
        kernel, not a prefilter."""
        assert default_registry().kernel_coverage("planarity-pls") == "full"

    def test_explicit_description_skips_factory_call(self):
        calls = []

        def factory():
            calls.append(1)
            return PlanarityScheme()

        registry = SchemeRegistry()
        description = SchemeDescription("custom", 1, False)
        registry.register("custom", factory, description=description)
        assert registry.describe("custom") is description
        assert not calls
