"""Tests for ``scripts/check_reachability.py``, the dead-code gate.

Most tests build a small repository under ``tmp_path`` and point the
script's module globals at it; the first three run the script itself, on
this repository and on copies of it with one planted definition or import.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_reachability.py"
SEARCHED = ("src", "benchmarks", "examples", "scripts", "perfbench")


def _load_check_reachability():
    spec = importlib.util.spec_from_file_location("check_reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(script: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)


def _copy_searched(destination: Path) -> None:
    """Copy the Python files of the searched directories into ``destination``."""
    def keep_python(directory, names):
        return [name for name in names if name == "__pycache__" or (
            not name.endswith(".py") and not Path(directory, name).is_dir())]

    for directory in SEARCHED:
        shutil.copytree(REPO / directory, destination / directory, ignore=keep_python)


@pytest.fixture
def check(tmp_path, monkeypatch, capsys):
    """``check(files, allowlist={})`` writes ``files`` (relative path -> source)
    into an otherwise empty repository and returns ``(exit code, stdout)``."""
    module = _load_check_reachability()
    for directory in SEARCHED + ("tests",):
        (tmp_path / directory).mkdir()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "SRC", tmp_path / "src")
    monkeypatch.setattr(module, "SELF", tmp_path / "scripts" / "check_reachability.py")

    def run(files: dict[str, str], allowlist: dict[str, str] | None = None):
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.setattr(module, "ALLOWLIST", dict(allowlist or {}))
        code = module.main()
        return code, capsys.readouterr().out

    return run


LIBRARY = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": """\
        def helper():
            return 1
        """,
}


class TestOnThisRepository:
    def test_repository_passes(self):
        result = _run_script(SCRIPT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.startswith("reachability ok")

    def test_planted_definition_in_a_copy_fails(self, tmp_path):
        _copy_searched(tmp_path)
        target = tmp_path / "src" / "repro" / "graphs" / "traversal.py"
        source = target.read_text()
        target.write_text(source + "\n\ndef planted_helper():\n    return None\n")
        line = source.count("\n") + 3

        result = _run_script(tmp_path / "scripts" / "check_reachability.py")
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            "unreached outside tests: src/repro/graphs/traversal.py:"
            f"{line}: repro.graphs.traversal.planted_helper"]

    def test_planted_import_in_a_copy_fails(self, tmp_path):
        _copy_searched(tmp_path)
        target = tmp_path / "src" / "repro" / "graphs" / "traversal.py"
        source = target.read_text()
        target.write_text(source + "\nimport os\n")
        line = source.count("\n") + 2

        result = _run_script(tmp_path / "scripts" / "check_reachability.py")
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            f"unused import: src/repro/graphs/traversal.py:{line}: os"]


class TestRules:
    def test_unreferenced_definition_fails(self, check):
        code, out = check(LIBRARY)
        assert code == 1
        assert out.splitlines() == [
            "unreached outside tests: src/pkg/mod.py:1: pkg.mod.helper"]

    def test_definition_only_tests_use_fails(self, check):
        code, out = check({**LIBRARY, "tests/test_mod.py": """\
            from pkg.mod import helper

            def test_helper():
                assert helper() == 1
            """})
        assert code == 1 and "pkg.mod.helper" in out

    @pytest.mark.parametrize("user", [
        # the import alone reaches; perfbench/ is not held to the unused-import rule
        {"perfbench/demo.py": "from pkg.mod import helper\n"},
        {"examples/demo.py": "import pkg.mod\n\npkg.mod.helper()\n"},
    ], ids=["import", "attribute"])
    def test_import_and_attribute_uses_reach(self, check, user):
        code, out = check({**LIBRARY, **user})
        assert code == 0, out

    def test_unused_import_still_reaches(self, check):
        code, out = check({**LIBRARY, "examples/demo.py": "from pkg.mod import helper\n"})
        assert code == 1
        assert out.splitlines() == ["unused import: examples/demo.py:1: helper"]

    def test_dotted_string_reaches_every_part(self, check):
        code, out = check({
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                class Thing:
                    def method(self):
                        return 1
                """,
            "perfbench/layers.py": 'TIMERS = {"thing": ("pkg.mod", "Thing.method")}\n',
        })
        assert code == 0, out

    def test_prose_string_reaches_nothing(self, check):
        code, out = check({**LIBRARY, "benchmarks/bench.py": '''\
            """Calls helper from pkg.mod once."""
            NOTE = "see helper"
            '''})
        assert code == 1 and "pkg.mod.helper" in out

    def test_name_a_benchmark_defines_itself_reaches_nothing(self, check):
        """A bare ``foo`` in a file that defines its own ``foo`` at top level
        calls that definition, not the library's."""
        code, out = check({
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                def foo():
                    return 1
                """,
            "benchmarks/bench.py": """\
                def foo():
                    return 2


                print(foo())
                """,
        })
        assert code == 1
        assert out.splitlines() == [
            "unreached outside tests: src/pkg/mod.py:1: pkg.mod.foo"]

    def test_use_from_another_src_module_reaches(self, check):
        code, out = check({**LIBRARY, "src/pkg/user.py": """\
            from pkg.mod import helper

            def run():
                return helper()
            """, "perfbench/demo.py": "from pkg.user import run\n"})
        assert code == 0, out

    def test_own_body_does_not_count(self, check):
        code, out = check({
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                def countdown(n):
                    return countdown(n - 1) if n else 0


                class Node:
                    def copy(self) -> "Node":
                        return Node()
                """,
        })
        assert code == 1
        assert "pkg.mod.countdown" in out and "pkg.mod.Node" in out

    def test_all_statements_and_package_reexports_do_not_count(self, check):
        code, out = check({
            "src/pkg/__init__.py": """\
                from pkg.mod import helper, other, third

                __all__ = ["helper"]
                __all__ += ["other"]
                __all__.append("third")
                """,
            "src/pkg/mod.py": """\
                def helper():
                    return 1


                def other():
                    return 2


                def third():
                    return 3
                """,
        })
        assert code == 1
        assert len(out.splitlines()) == 3
        assert all(f"pkg.mod.{name}" in out for name in ("helper", "other", "third"))


CLASS_LIBRARY = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": """\
        class Thing:
            def __init__(self):
                self.value = 1

            def method(self):
                return self.value
        """,
}


def _demo(body: str) -> dict[str, str]:
    return {"examples/demo.py": "from pkg.mod import Thing\n\n" + body}


class TestMembers:
    def test_method_only_a_test_calls_fails(self, check):
        code, out = check({**CLASS_LIBRARY, **_demo("Thing()\n"), "tests/test_mod.py": """\
            from pkg.mod import Thing

            def test_method():
                assert Thing().method() == 1
            """})
        assert code == 1
        assert out.splitlines() == [
            "unreached outside tests: src/pkg/mod.py:5: pkg.mod.Thing.method"]

    def test_attribute_use_reaches(self, check):
        code, out = check({**CLASS_LIBRARY, **_demo("Thing().method()\n")})
        assert code == 0, out

    def test_local_variable_of_the_same_name_does_not_reach(self, check):
        code, out = check({**CLASS_LIBRARY, **_demo("method = Thing()\nprint(method)\n")})
        assert code == 1
        assert out.splitlines() == [
            "unreached outside tests: src/pkg/mod.py:5: pkg.mod.Thing.method"]

    def test_own_body_does_not_count(self, check):
        code, out = check({
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                class Thing:
                    def method(self, n):
                        return self.method(n - 1) if n else 0
                """,
            **_demo("Thing()\n")})
        assert code == 1 and "pkg.mod.Thing.method" in out

    def test_class_body_alias_reaches(self, check):
        code, out = check({
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """\
                class Thing:
                    def _refuse(self):
                        raise TypeError("read-only")

                    add = _refuse
                """,
            **_demo("Thing().add()\n")})
        assert code == 0, out

    def test_allowlisted_class_covers_its_members(self, check):
        code, out = check(CLASS_LIBRARY, allowlist={"pkg.mod.Thing": "public API"})
        assert code == 0, out

    def test_allowlisted_member_passes(self, check):
        code, out = check({**CLASS_LIBRARY, **_demo("Thing()\n")},
                          allowlist={"pkg.mod.Thing.method": "public API"})
        assert code == 0, out


class TestAllowlist:
    def test_allowlisted_unreached_definition_passes(self, check):
        code, out = check(LIBRARY, allowlist={"pkg.mod.helper": "public API"})
        assert code == 0, out
        assert "1 allowlisted" in out

    def test_allowlisted_but_reached_fails(self, check):
        code, out = check({**LIBRARY, "perfbench/demo.py": "from pkg.mod import helper\n"},
                          allowlist={"pkg.mod.helper": "public API"})
        assert code == 1
        assert out.splitlines() == [
            "allowlisted but reached (drop the entry): src/pkg/mod.py:1: pkg.mod.helper"]

    def test_allowlisted_but_undefined_fails(self, check):
        code, out = check({**LIBRARY, "perfbench/demo.py": "from pkg.mod import helper\n"},
                          allowlist={"pkg.mod.gone": "was public API"})
        assert code == 1
        assert out.splitlines() == ["allowlisted but not defined: pkg.mod.gone"]

    def test_every_entry_names_a_definition_and_gives_a_reason(self):
        module = _load_check_reachability()
        assert module.ALLOWLIST
        for name, reason in module.ALLOWLIST.items():
            assert name.startswith("repro.") and name.count(".") >= 2
            assert isinstance(reason, str) and len(reason.split()) >= 3


#: LIBRARY's helper, called from an example
REACHED = {**LIBRARY, "examples/demo.py": "from pkg.mod import helper\n\nhelper()\n"}


class TestUnusedImports:
    @pytest.mark.parametrize("directory", ["src/pkg", "tests", "benchmarks",
                                           "scripts", "examples"])
    def test_unused_import_fails_in_every_checked_directory(self, check, directory):
        code, out = check({**REACHED,
                           f"{directory}/extra.py": "import os\nimport json as js\n"})
        assert code == 1
        assert out.splitlines() == [f"unused import: {directory}/extra.py:1: os",
                                    f"unused import: {directory}/extra.py:2: js"]

    def test_perfbench_is_not_checked(self, check):
        code, out = check({**REACHED, "perfbench/run.py": "import os\n"})
        assert code == 0, out

    @pytest.mark.parametrize("source", [
        "import os.path\n\nos.getcwd()\n",
        "from os import path as p\n\np.join('a')\n",
        "from __future__ import annotations\n",
        "from os import path\n\n__all__ = ['path']\n",
        "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
        "    from pkg.mod import helper\n\n\ndef run(f: 'helper | None') -> None:\n"
        "    return None\n",
    ])
    def test_uses_that_count(self, check, source):
        code, out = check({**REACHED, "scripts/user.py": source})
        assert code == 0, out

    def test_package_reexports_are_not_checked(self, check):
        code, out = check({**REACHED, "src/pkg/__init__.py": "from pkg.mod import helper\n"})
        assert code == 0, out

    def test_docstring_mention_is_no_use(self, check):
        code, out = check({**LIBRARY, "examples/demo.py": '''\
            """Calls helper, then os."""
            import os

            from pkg.mod import helper

            helper()
            '''})
        assert code == 1
        assert out.splitlines() == ["unused import: examples/demo.py:2: os"]
