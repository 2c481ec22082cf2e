"""Fail on library code that nothing outside the tests reaches, and on
imports that nothing uses.

Every top-level ``def`` and ``class`` in ``src/`` must be used by some
non-test file: as a name, an attribute, an imported name, or a string.  A
string counts when it holds no whitespace, and then each identifier in it
counts on its own, so ``"repro.graphs.graph"`` plus ``"Graph.add_edge"``
(the way ``perfbench/layers.py`` names the entry points it wraps) reach
``Graph``, ``add_edge`` and every module part.  Prose and docstrings
contain whitespace and reach nothing.

Every ``def`` in the body of a top-level class (methods, properties,
classmethods; dunders excepted) is checked the same way, but only three
uses reach a member: an attribute ``x.name``, a whitespace-free string, and
a bare name in the class's own body (``add_edge = _refuse``).  A bare name
anywhere else is some other variable, not the member.

The searched files are ``benchmarks/``, ``examples/``, ``scripts/`` (this
script excepted), ``perfbench/`` and ``src/``.  A file outside ``src/`` that
defines a name at top level (``def``, ``class`` or assignment) means its own
definition by each bare use of that name, so those uses reach nothing in
``src/``: a benchmark's own ``def helper`` keeps no library ``helper``
alive.  Inside ``src/`` three kinds of use do not count, because they keep
code alive without running it: the definition's own body (recursion, a
class naming itself), ``__all__`` statements, and the imports of a package
``__init__.py`` (re-exports).
``tests/`` is not searched: a helper only a test calls belongs in
``tests/``, and a definition only its own tests reach is dead code.

``ALLOWLIST`` names the few definitions kept on purpose anyway, each with
its reason (an allowlisted class covers its members); an entry that is
reached anyway, or no longer defined, fails the check too.

Every file under ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` and
``examples/`` must also use each name it imports: as a bare name (the base
of ``np.zeros`` is one) or as an identifier in a string that is not a
docstring, which covers forward references (``-> "Network"``) and
``__all__`` entries.  A package ``__init__.py`` re-exports what it imports
and ``from __future__`` binds nothing, so neither is checked;
``perfbench/`` is left alone.  Run from anywhere::

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

#: directories whose Python files may import no name they leave unused
IMPORT_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")

#: ``module.name`` -> why it stays although no non-test file reaches it
ALLOWLIST = {
    "repro.distributed.certificates.BitReader":
        "decoder half of the certificate codec; tests decode BitWriter output "
        "with it to show every code round-trips",
    "repro.distributed.shm.SharedArtifact.detach":
        "the release half of the documented attach/detach lifecycle; "
        "tests/test_shm.py counts the attachments it balances",
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


Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def definitions(body: list[ast.stmt]) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def members(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The class body's ``def``s, dunders excepted."""
    for node in definitions(cls.body):
        if not isinstance(node, ast.ClassDef) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node


def class_body_names(cls: ast.ClassDef) -> set[str]:
    """Bare names the class body uses outside its ``def``s and nested classes."""
    return {name for node in cls.body if not isinstance(node, Definition)
            for name, bare in uses(node, package_init=False) if bare}


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by ``def``, ``class`` or assignment."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return names


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


def uses(root: ast.AST, package_init: bool) -> Iterator[tuple[str, bool]]:
    """Every name ``root`` uses, one item per use, paired with whether the
    use is a bare name or an import (which cannot reach a class member)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if is_all_statement(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, False
        elif isinstance(node, ast.ImportFrom):
            if not package_init:
                yield from ((alias.name, True) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not any(ch.isspace() for ch in node.value):
                yield from ((name, False) for name in _IDENTIFIER.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every name ``tree`` imports and never uses."""
    # strings that stand as statements (docstrings) are prose, not uses
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.setdefault(alias.asname or alias.name.partition(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in prose:
            used.update(_IDENTIFIER.findall(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def main() -> int:
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in python_files(SRC)}

    # every use outside src/ and in src/, split into all uses and the
    # attribute or string uses that can reach a class member
    outside: set[str] = set()
    outside_members: set[str] = set()
    for directory in USER_DIRS:
        for path in python_files(ROOT / directory):
            if path == SELF:
                continue  # the allowlist names what it keeps; that is no use
            tree = ast.parse(path.read_text(), filename=str(path))
            own = top_level_names(tree)
            for name, bare in uses(tree, package_init=False):
                if bare and name in own:
                    continue  # the file's own definition, not src/'s
                outside.add(name)
                if not bare:
                    outside_members.add(name)
    in_src: Counter[str] = Counter()
    in_src_members: Counter[str] = Counter()
    for path, tree in trees.items():
        for name, bare in uses(tree, package_init=path.name == "__init__.py"):
            in_src[name] += 1
            if not bare:
                in_src_members[name] += 1

    defined: set[str] = set()
    failures: list[str] = []

    def check(path: Path, definition: Definition, qualified: str, reached: bool) -> None:
        defined.add(qualified)
        where = f"{path.relative_to(ROOT)}:{definition.lineno}: {qualified}"
        if not reached and qualified not in ALLOWLIST:
            failures.append(f"unreached outside tests: {where}")
        elif reached and qualified in ALLOWLIST:
            failures.append(f"allowlisted but reached (drop the entry): {where}")

    # a definition is reached from src/ when src/ uses its name more often
    # than the definition's own body does
    for path, tree in trees.items():
        module = module_name(path)
        package_init = path.name == "__init__.py"
        for definition in definitions(tree.body):
            name = definition.name
            qualified = f"{module}.{name}"
            own = sum(1 for used, _ in uses(definition, package_init) if used == name)
            check(path, definition, qualified,
                  name in outside or in_src[name] > own)
            if not isinstance(definition, ast.ClassDef) or qualified in ALLOWLIST:
                continue
            aliased = class_body_names(definition)
            for member in members(definition):
                own = sum(1 for used, bare in uses(member, package_init)
                          if used == member.name and not bare)
                check(path, member, f"{qualified}.{member.name}",
                      member.name in outside_members or member.name in aliased
                      or in_src_members[member.name] > own)
    failures.extend(f"allowlisted but not defined: {name}"
                    for name in sorted(set(ALLOWLIST) - defined))

    for directory in IMPORT_DIRS:
        for path in python_files(ROOT / directory):
            if path.name == "__init__.py":
                continue  # a package re-exports what it imports
            tree = trees.get(path) or ast.parse(path.read_text(), filename=str(path))
            failures.extend(f"unused import: {path.relative_to(ROOT)}:{line}: {name}"
                            for line, name in unused_imports(tree))

    for failure in failures:
        print(failure)
    if failures:
        return 1
    print(f"reachability ok: every top-level definition and class member in src/ "
          f"is used outside tests ({len(ALLOWLIST)} allowlisted), and every "
          f"import is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
