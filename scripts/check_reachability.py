"""Fail on library code that nothing outside the tests reaches.

Every top-level ``def`` and ``class`` in ``src/`` must be used by some
non-test file: as a name, an attribute, an imported name, or a string.  A
string counts when it holds no whitespace, and then each identifier in it
counts on its own, so ``"repro.graphs.graph"`` plus ``"Graph.add_edge"``
(the way ``perfbench/layers.py`` names the entry points it wraps) reach
``Graph``, ``add_edge`` and every module part.  Prose and docstrings
contain whitespace and reach nothing.

The searched files are ``benchmarks/``, ``examples/``, ``scripts/`` (this
script excepted), ``perfbench/`` and ``src/``.  Inside ``src/`` three kinds
of use do not count, because they keep code alive without running it: the
definition's own body (recursion, a class naming itself), ``__all__``
statements, and the imports of a package ``__init__.py`` (re-exports).
``tests/`` is not searched: a helper only a test calls belongs in
``tests/``, and a definition only its own tests reach is dead code.

``ALLOWLIST`` names the few definitions kept on purpose anyway, each with
its reason; an entry that is reached anyway, or no longer defined, fails
the check too.  Run from anywhere::

    python scripts/check_reachability.py
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

SELF = Path(__file__).resolve()
ROOT = SELF.parent.parent
SRC = ROOT / "src"

#: directories (besides ``src/``) whose Python files count as users
USER_DIRS = ("benchmarks", "examples", "scripts", "perfbench")

#: ``module.name`` -> why it stays although no non-test file reaches it
ALLOWLIST = {
    "repro.distributed.certificates.BitReader":
        "decoder half of the certificate codec; tests decode BitWriter output "
        "with it to show every code round-trips",
    "repro.adversary.strategies.AdversaryStrategy":
        "the protocol docs/ADVERSARY.md documents for user-written strategies",
    "repro.adversary.attacks.exhaustive_attack":
        "the exact attack over a bounded certificate universe, documented in "
        "docs/ADVERSARY.md beside the sampled attacks",
    "repro.vectorized.kernels.VectorizedKernel":
        "the protocol docs/KERNELS.md documents for kernel authors",
    "repro.vectorized.kernels.segment_sort":
        "segmented-array primitive docs/KERNELS.md documents for kernel authors",
}

# an identifier inside a whitespace-free string such as "pkg.mod:Cls.attr"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def python_files(directory: Path) -> Iterator[Path]:
    yield from sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def definitions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def is_all_statement(node: ast.AST) -> bool:
    """``__all__ = ...``, ``__all__ += ...`` or ``__all__.append(...)``."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        targets = [node.func.value]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def used_names(root: ast.AST, package_init: bool) -> Iterator[str]:
    """Every name ``root`` uses, one item per use."""
    stack = [root]
    while stack:
        node = stack.pop()
        if is_all_statement(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            if not package_init:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not any(ch.isspace() for ch in node.value):
                yield from _IDENTIFIER.findall(node.value)
        stack.extend(ast.iter_child_nodes(node))


def main() -> int:
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in python_files(SRC)}

    outside: set[str] = set()
    for directory in USER_DIRS:
        for path in python_files(ROOT / directory):
            if path == SELF:
                continue  # the allowlist names what it keeps; that is no use
            tree = ast.parse(path.read_text(), filename=str(path))
            outside.update(used_names(tree, package_init=False))

    # a definition is reached from src/ when src/ uses its name more often
    # than the definition's own body does
    in_src: Counter[str] = Counter()
    for path, tree in trees.items():
        in_src.update(used_names(tree, package_init=path.name == "__init__.py"))

    defined: set[str] = set()
    failures: list[str] = []
    for path, tree in trees.items():
        module = module_name(path)
        package_init = path.name == "__init__.py"
        for definition in definitions(tree):
            qualified = f"{module}.{definition.name}"
            defined.add(qualified)
            own = sum(1 for name in used_names(definition, package_init)
                      if name == definition.name)
            reached = definition.name in outside or in_src[definition.name] > own
            where = f"{path.relative_to(ROOT)}:{definition.lineno}: {qualified}"
            if not reached and qualified not in ALLOWLIST:
                failures.append(f"unreached outside tests: {where}")
            elif reached and qualified in ALLOWLIST:
                failures.append(f"allowlisted but reached (drop the entry): {where}")
    failures.extend(f"allowlisted but not defined: {name}"
                    for name in sorted(set(ALLOWLIST) - defined))

    for failure in failures:
        print(failure)
    if failures:
        return 1
    print(f"reachability ok: every top-level definition in src/ is used outside tests "
          f"({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
