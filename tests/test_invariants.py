"""Static checks of the package source.

Self-checks raise ``InvariantError``, never ``assert``: ``python -O`` strips
assert statements, and with them the check.  The package keeps only what it,
its demos or the benchmark call: a helper or public name that only tests
call belongs in a test oracle, and no package or test module keeps an
import it does not use."""
import ast
import importlib
import re
from pathlib import Path

from bcsmagic.gf2 import CheckedRecord

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bcsmagic"
MODULES = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


NUMPY_2_NAMES = {"vecdot", "bitwise_count", "unique_values", "unique_counts", "unique_inverse", "unique_all"}


def _numpy_2_uses(source: str) -> set[int]:
    """Lines that name a function numpy 2 added, or pass ``sorted=``, a
    keyword numpy 2 added, to a function named ``unique``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if {getattr(node, key, None) for key in ("id", "attr", "name")} & NUMPY_2_NAMES:
            lines.add(node.lineno)
        func = getattr(node, "func", None)
        if "unique" in {getattr(func, "id", None), getattr(func, "attr", None)}:
            lines.update(node.lineno for keyword in node.keywords if keyword.arg == "sorted")
    return lines


def test_package_uses_no_numpy_2_names():
    """pyproject.toml declares numpy>=1.24, and no test runs on numpy 1, so
    the package may not use what numpy 2 added."""
    planted = "import numpy as np\nfrom numpy import unique_counts\nnp.vecdot(a, b)\nnp.unique(a, sorted=0)\n"
    assert _numpy_2_uses(planted) == {2, 3, 4}
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in sorted(_numpy_2_uses(path.read_text()))]
    assert found == []


def test_private_functions_are_used_in_the_package():
    """Every single-underscore helper is named somewhere in the package.
    Dunder hooks such as a module's ``__getattr__`` are called by the
    interpreter, not named, so they are exempt."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not re.fullmatch(r"__\w+__", node.name)}
    assert private
    used = set()
    for tree in trees:
        for top in tree.body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                # A recursive helper's call to itself does not count.
                if name != getattr(top, "name", None):
                    used.add(name)
    assert sorted(private - used) == []


def _names_used(tree: ast.Module) -> set[str]:
    """Identifiers, attributes, imported names and words of string constants
    in a module, so that ``bench/tracer.py``'s "quantum.measure_batch"
    counts; a top-level definition naming itself does not."""
    used = set()
    for top in tree.body:
        words = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(re.findall(r"\w+", node.value))
        used |= words - {getattr(top, "name", None)}
    return used


def test_public_names_are_used_outside_the_tests():
    """Every public top-level function and class of the package is named
    outside its own definition, in a package module, a demo or a benchmark
    script; ``__init__.py``'s re-exports do not count.  Matching by name cannot judge methods: a
    single-letter one such as a former ``GameBcs.y`` would match any variable
    ``y``, so methods that only tests call have to be found by reading."""
    modules = [ast.parse(path.read_text()) for path in MODULES]
    public = {node.name for tree in modules for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert {"build_game_bcs", "StrategyStack"} <= public
    callers = modules + [ast.parse(path.read_text())
                         for folder in ("demos", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    used = set().union(*map(_names_used, callers))
    assert sorted(public - used) == []


def test_checked_records_share_one_make():
    """A tuple record whose ``__new__`` checks its fields builds through it
    in ``_make`` and ``_replace`` too: each takes ``CheckedRecord``'s
    ``_make``, not the named tuple's ``tuple.__new__`` one.  Named tuple
    classes themselves, which hold ``_fields``, define a ``__new__`` that
    checks nothing."""
    modules = [importlib.import_module(f"bcsmagic.{path.stem}") for path in MODULES]
    checked = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__ and issubclass(obj, tuple)
               and "__new__" in vars(obj) and "_fields" not in vars(obj)}
    assert {"Constraint", "PauliString", "Gf2Matrix", "Gf2System"} <= {cls.__name__ for cls in checked}
    assert sorted(cls.__name__ for cls in checked if cls._make.__func__ is not CheckedRecord._make.__func__) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that its scope never reads.  A module-level
    import's scope is the module, with every function in it; an import
    inside a function is scoped to that function."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        scope = parents[node]
        while not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = parents[scope]
        names = {name.id for name in ast.walk(scope) if isinstance(name, ast.Name)}
        unused += [alias.name for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in names]
    return unused


def test_unused_imports_are_found_in_functions():
    planted = ("import json\nif json:\n    from typing import Any\n"
               "def f():\n    import numpy as np\n    from . import quantum\n    return quantum\n"
               "def g():\n    return np\n")
    assert _unused_imports(ast.parse(planted)) == ["Any", "numpy"]


def test_package_imports_are_used():
    """Imports of the package modules and of the test modules, at module
    level and inside functions."""
    unused = [f"{path.name}:{name}" for path in MODULES + sorted((ROOT / "tests").glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []
