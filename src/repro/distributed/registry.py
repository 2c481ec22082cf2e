"""Name-based discovery of the library's certification schemes.

Every :class:`~repro.distributed.scheme.ProofLabelingScheme` (and the dMAM
interactive protocol) is registered in a :class:`SchemeRegistry` under its
canonical ``name`` together with a factory and its static
:class:`~repro.distributed.scheme.SchemeDescription`.  Experiment drivers,
benchmarks, and examples look schemes up by name instead of importing the
concrete classes, so adding a scheme to the registry is enough to enrol it in
every sweep, comparison table, and equivalence test.

The shared instance returned by :func:`default_registry` is populated lazily
(on first access) with every scheme shipped in the library:

======================== ============ =======================================
name                     kind         class
======================== ============ =======================================
``planarity-pls``        pls          Theorem 1 planarity scheme
``non-planarity-pls``    pls          folklore Kuratowski scheme
``path-outerplanarity-pls`` pls       Lemma 2 / Algorithm 1 scheme
``path-graph-pls``       pls          Section 2 warm-up (path graphs)
``tree-pls``             pls          spanning-tree building block
``universal-map-pls``    pls          universal O(n log n) baseline
``planarity-dmam``       interactive  Naor–Parter–Yogev dMAM baseline
======================== ============ =======================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.distributed.scheme import SchemeDescription
from repro.exceptions import RegistryError

__all__ = ["SchemeRegistry", "RegistryEntry", "default_registry"]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered scheme: its factory, kind, and static description."""

    name: str
    factory: Callable[..., Any]
    kind: str
    description: SchemeDescription

    def create(self, **kwargs: Any) -> Any:
        """Instantiate the scheme (keyword arguments go to the factory)."""
        return self.factory(**kwargs)


class SchemeRegistry:
    """A mapping ``name -> RegistryEntry`` with duplicate protection.

    Besides the scheme factories, the registry also tracks the optional
    *vectorized kernels* (see :mod:`repro.vectorized`): a scheme opts into
    the bulk-verification backend by registering a
    :class:`~repro.vectorized.kernels.VectorizedKernel` under its name, and
    the :class:`~repro.distributed.engine.SimulationEngine` resolves kernels
    through :meth:`kernel_for`.  Schemes without a kernel simply fall back to
    the reference per-node verifier.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._kernels: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, factory: Callable[..., Any], *,
                 kind: str = "pls",
                 description: SchemeDescription | None = None,
                 replace: bool = False) -> RegistryEntry:
        """Register ``factory`` under ``name``.

        ``description`` defaults to instantiating the factory once and asking
        the instance (``describe()`` for a PLS; the protocol attributes for an
        interactive protocol).  Registering an already-taken name raises
        :class:`~repro.exceptions.RegistryError` unless ``replace`` is True.
        """
        if not replace and name in self._entries:
            raise RegistryError(f"scheme {name!r} is already registered")
        if kind not in ("pls", "interactive"):
            raise RegistryError(f"unknown scheme kind {kind!r}")
        if description is None:
            instance = factory()
            if hasattr(instance, "describe"):
                description = instance.describe()
            else:
                description = SchemeDescription(
                    name=getattr(instance, "name", name),
                    interactions=getattr(instance, "interactions", 1),
                    randomized=getattr(instance, "randomized", False),
                )
        entry = RegistryEntry(name=name, factory=factory, kind=kind,
                              description=description)
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove ``name`` (and its kernel); raise :class:`RegistryError` if absent."""
        if name not in self._entries:
            raise RegistryError(f"scheme {name!r} is not registered")
        del self._entries[name]
        self._kernels.pop(name, None)

    # ------------------------------------------------------------------
    # vectorized kernels
    # ------------------------------------------------------------------
    def register_kernel(self, name: str, kernel: Any, *,
                        replace: bool = False) -> None:
        """Attach a vectorized kernel to the scheme registered under ``name``.

        The scheme must already be registered (a kernel is an accelerator of
        an existing verifier, never a scheme of its own), and the kernel must
        declare its ``coverage`` contract explicitly (see
        :meth:`kernel_coverage`) — an undeclared contract used to silently
        read as ``"full"``, which is exactly the claim a kernel author must
        not make by accident.  Registering a second kernel for the same name
        raises :class:`~repro.exceptions.RegistryError` unless ``replace`` is
        True.
        """
        if name not in self._entries:
            raise RegistryError(
                f"cannot register a kernel for unknown scheme {name!r}")
        coverage = getattr(kernel, "coverage", None)
        if not isinstance(coverage, str) or not coverage:
            raise RegistryError(
                f"kernel for {name!r} must declare a non-empty `coverage` "
                "attribute (e.g. \"full\" or \"prefilter\")")
        if not replace and name in self._kernels:
            raise RegistryError(f"scheme {name!r} already has a kernel")
        self._kernels[name] = kernel

    def kernel(self, name: str) -> Any | None:
        """Return the kernel registered under ``name``, or ``None``."""
        return self._kernels.get(name)

    def kernel_for(self, scheme: Any) -> Any | None:
        """Return a kernel that exactly reproduces ``scheme``, or ``None``.

        Resolution is by the scheme's ``name`` attribute plus the kernel's
        own ``supports`` check (which rejects subclasses and decision-changing
        parametrisations), so a ``None`` here means "use the reference
        verifier" — never an approximation.
        """
        kernel = self._kernels.get(getattr(scheme, "name", ""))
        if kernel is not None and kernel.supports(scheme):
            return kernel
        return None

    def kernel_coverage(self, name: str) -> str | None:
        """Return the kernel's coverage level for ``name``, or ``None``.

        ``"full"`` — the kernel decides every phase in array form (both
        acceptance and rejection are final, fallback only for
        unrepresentable certificates); ``"prefilter"`` — it vectorizes a
        necessary prefix and flags survivors for per-node fallback.  Kernels
        declare this on a ``coverage`` attribute
        (:meth:`register_kernel` enforces the declaration); the
        backend-support matrix in ``docs/ARCHITECTURE.md`` is asserted
        against these values by ``tests/test_registry.py``.
        """
        kernel = self._kernels.get(name)
        if kernel is None:
            return None
        return kernel.coverage

    # ------------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """Return the entry for ``name``; raise :class:`RegistryError` if absent."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise RegistryError(
                f"unknown scheme {name!r} (registered: {known})") from None

    def create(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the scheme registered under ``name``."""
        return self.entry(name).create(**kwargs)

    def describe(self, name: str) -> SchemeDescription:
        """Return the static description of ``name``."""
        return self.entry(name).description

    def names(self, kind: str | None = None) -> list[str]:
        """Return the registered names (optionally restricted to one kind)."""
        return [name for name, entry in self._entries.items()
                if kind is None or entry.kind == kind]

    def description_rows(self) -> list[dict[str, object]]:
        """Return every description as a table row (the E5 static columns)."""
        return [entry.description.as_row() for entry in self._entries.values()]

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SchemeRegistry({sorted(self._entries)!r})"


_DEFAULT: SchemeRegistry | None = None


def default_registry() -> SchemeRegistry:
    """Return the shared registry, populating it with the built-in schemes.

    The population happens lazily on the first call (importing the concrete
    scheme modules at import time would create a cycle through
    :mod:`repro.distributed`).
    """
    global _DEFAULT
    if _DEFAULT is None:
        registry = SchemeRegistry()
        _register_builtin_schemes(registry)
        _DEFAULT = registry
    return _DEFAULT


def _register_builtin_schemes(registry: SchemeRegistry) -> None:
    from repro.baselines.dmam import PlanarityDMAMProtocol
    from repro.baselines.universal import UniversalPlanarityScheme
    from repro.core.building_blocks import PathGraphScheme, TreeScheme
    from repro.core.nonplanarity_scheme import NonPlanarityScheme
    from repro.core.planarity_scheme import PlanarityScheme
    from repro.core.po_scheme import PathOuterplanarScheme

    from repro.vectorized import builtin_kernels

    registry.register(PlanarityScheme.name, PlanarityScheme)
    registry.register(NonPlanarityScheme.name, NonPlanarityScheme)
    registry.register(PathOuterplanarScheme.name, PathOuterplanarScheme)
    registry.register(PathGraphScheme.name, PathGraphScheme)
    registry.register(TreeScheme.name, TreeScheme)
    registry.register(UniversalPlanarityScheme.name, UniversalPlanarityScheme)
    registry.register(PlanarityDMAMProtocol.name, PlanarityDMAMProtocol,
                      kind="interactive")
    for kernel in builtin_kernels():
        registry.register_kernel(kernel.scheme_name, kernel)
