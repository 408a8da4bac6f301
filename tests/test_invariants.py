"""Static checks of the package source.

Self-checks raise ``InvariantError``, never ``assert``: ``python -O`` strips
assert statements, and with them the check.  Private helpers serve the
package: one that only tests call belongs in a test oracle."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bcsmagic"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []



def test_private_functions_are_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
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
