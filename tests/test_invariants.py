"""Self-checks in the package raise ``InvariantError``, never ``assert``:
``python -O`` strips assert statements, and with them the check."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bcsmagic"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []

