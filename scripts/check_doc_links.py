"""Check the documentation for dead relative links and dead citations.

Scans ``README.md`` and ``docs/*.md`` for markdown links and fails when a
*relative* link target (external ``scheme://`` URLs and pure ``#anchor``
links are skipped) does not resolve to an existing file or directory,
relative to the file containing the link.  It also fails when a Python
file under ``src/``, ``benchmarks/``, ``tests/``, ``scripts/`` or
``examples/`` cites a ``.md`` file that exists neither at that path from
the repository root nor under ``docs/``.  Run from anywhere::

    python scripts/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# [text](target) — target captured up to the closing parenthesis; markdown
# images ![alt](target) match the same way via the trailing "[...](...)"
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# a markdown file name cited in Python source, e.g. ``docs/KERNELS.md``
# (a glob such as ``docs/*.md`` is not a name and does not match)
_MD_CITATION = re.compile(r"[\w./-]*\w\.md\b")

#: directories whose Python files may cite markdown files
PYTHON_DIRS = ("src", "benchmarks", "tests", "scripts", "examples")

# Core documentation that must exist; the docs/*.md glob alone would let a
# renamed or deleted file drop out of coverage silently.
REQUIRED = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/KERNELS.md",
    "docs/OBSERVABILITY.md",
    "docs/ADVERSARY.md",
)


def check_file(path: Path) -> list[str]:
    errors = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for target in _LINK.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*://", target) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(f"{path}:{number}: dead link -> {target}")
    return errors


def check_citations(path: Path, root: Path) -> list[str]:
    """Dead ``.md`` citations of one Python file."""
    errors = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for name in _MD_CITATION.findall(line):
            if not any((base / name).exists() for base in (root, root / "docs")):
                errors.append(f"{path}:{number}: cites missing {name}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    files = [root / name for name in REQUIRED]
    files += [path for path in sorted((root / "docs").glob("*.md"))
              if path not in files]
    errors = []
    for path in files:
        if not path.exists():
            errors.append(f"{path}: expected documentation file is missing")
            continue
        errors.extend(check_file(path))
        print(f"checked {path.relative_to(root)}")
    sources = [path for directory in PYTHON_DIRS
               for path in sorted((root / directory).rglob("*.py"))]
    for path in sources:
        errors.extend(check_citations(path, root))
    print(f"checked the .md citations of {len(sources)} Python files")
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    print("all relative links and citations resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
