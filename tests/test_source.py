"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repmut

PACKAGE = Path(repmut.__file__).parent


def unreferenced_private_helpers(package: Path) -> list[str]:
    """Module-level private functions and classes (``_name``) of the
    package's modules that no code in the package names, outside their own
    definition (a recursive call does not count)."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    helpers = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    named = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and ref != own:
                    named.add(ref)
    return [f"{module}:{name}" for module, name in helpers if name not in named]


def test_every_private_helper_is_referenced():
    assert unreferenced_private_helpers(PACKAGE) == []


def test_guard_sees_a_helper_left_behind(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _left(x):\n    return _left(x - 1) if x else 0\n\n\n"
        "class _Gone:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a._used\n")
    assert unreferenced_private_helpers(tmp_path) == ["a.py:_left", "a.py:_Gone"]


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second of every command's start-up
    code = "import sys, repmut.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_no_module_names_scipy_stats():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "scipy.stats" in path.read_text()] == []
