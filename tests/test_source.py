"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repmut

PACKAGE = Path(repmut.__file__).parent


def names_used(trees) -> set[str]:
    """The names and attributes that the given module trees use, each
    outside its own definition (a recursive call does not count)."""
    named = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and ref != own:
                    named.add(ref)
    return named


def unreferenced_definitions(package: Path) -> list[str]:
    """Module-level functions and classes of the package's modules, public
    or private, that no code in the package names outside their own
    definition.  An export in ``__init__.py`` is not a use: a name that
    only the package's tests call is listed."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    named = names_used(trees.values())
    return [f"{module}:{name}" for module, name in defined if name not in named]


def unused_exports(package: Path) -> list[str]:
    """Names that the package's ``__init__.py`` exports and that no other
    module of the package names, outside their own definition: an export
    that only its own tests call."""
    init = ast.parse((package / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    named = names_used(ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
                       if path.name != "__init__.py")
    return [name for name in exports if name not in named]


def structure_readers(package: Path) -> list[str]:
    """Places in the package's modules other than ``model.py`` that read a
    ``structure`` attribute, directly or through ``getattr``: the declared
    fitness form has one reader, ``FitnessFunction.declared_form``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            direct = isinstance(node, ast.Attribute) and node.attr == "structure"
            by_name = (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                       and len(node.args) > 1
                       and getattr(node.args[1], "value", None) == "structure")
            if direct or by_name:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_private_helper_is_referenced():
    # public functions and classes too, not only the ``_name`` helpers
    assert unreferenced_definitions(PACKAGE) == []


def test_guard_sees_a_helper_left_behind(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _left(x):\n    return _left(x - 1) if x else 0\n\n\n"
        "class _Gone:\n    pass\n\n\n"
        "def public():\n    return _used()\n\n\n"
        "def leftover():\n    return 2\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.public\n")
    (tmp_path / "__init__.py").write_text("from .a import leftover\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:_left", "a.py:_Gone", "a.py:leftover"]


def test_every_export_is_used_by_the_package():
    assert unused_exports(PACKAGE) == []


def test_guard_sees_an_export_only_tests_call(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import used, alone, looped\nfrom .b import run\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def alone():\n    return 2\n\n\n"
        "def looped(x):\n    return looped(x - 1) if x else 0\n")
    (tmp_path / "b.py").write_text("from . import a\n\n\ndef run():\n    return a.used()\n")
    assert unused_exports(tmp_path) == ["alone", "looped", "run"]


def test_only_the_model_reads_the_declared_fitness_structure():
    assert structure_readers(PACKAGE) == []


def test_guard_sees_a_structure_read(tmp_path):
    (tmp_path / "model.py").write_text(
        "class Fitness:\n    def form(self):\n        return self.structure\n")
    (tmp_path / "a.py").write_text("def f(fit):\n    return fit.structure['G']\n")
    (tmp_path / "b.py").write_text("def f(fit):\n    return getattr(fit, 'structure', None)\n")
    (tmp_path / "c.py").write_text(
        "from .model import Fitness\n\nFIT = Fitness(structure={'kind': 'x'})\n")
    assert structure_readers(tmp_path) == ["a.py:2", "b.py:2"]


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second of every command's start-up
    code = "import sys, repmut.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_no_module_names_scipy_stats():
    # scipy.sparse too: the BL model builds its CSC arrays with numpy
    for module in ("scipy.stats", "scipy.sparse"):
        assert [path.name for path in sorted(PACKAGE.glob("*.py"))
                if module in path.read_text()] == [], module
