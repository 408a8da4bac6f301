"""Every backticked dotted name that starts at a ``bcsmagic`` module, in
README.md and the docstrings of the demos, the library and the tests, names
something that exists, such as ``quantum.measure_batch``, and so does every
bare backticked private name in a library module's docstrings; every
command in the README's command-line block parses; and every bcsmagic name
that the benchmark's scripts in ``bench/`` read exists."""
import ast
import importlib
import pkgutil
import re
import shlex
import tokenize
from pathlib import Path

import bcsmagic
from bcsmagic import cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = {m.name for m in pkgutil.iter_modules(bcsmagic.__path__)}
DOTTED = re.compile(r"`+((?:bcsmagic\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`+")
PRIVATE = re.compile(r"`+(_\w+)`+")


def _docstrings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    nodes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def _comments(path: Path) -> list[str]:
    with path.open() as source:
        return [token.string for token in tokenize.generate_tokens(source.readline)
                if token.type == tokenize.COMMENT]


def _doc_texts() -> dict[str, str]:
    texts = {"README.md": (ROOT / "README.md").read_text()}
    for folder in ("demos", "src/bcsmagic", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            texts[str(path.relative_to(ROOT))] = "\n".join(_docstrings(path))
    return texts


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.removeprefix("bcsmagic.").split(".")
    obj = importlib.import_module(f"bcsmagic.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_doc_references_resolve():
    references = {
        (where, name)
        for where, text in _doc_texts().items()
        for name in DOTTED.findall(text)
        if name.removeprefix("bcsmagic.").split(".")[0] in MODULES
    }
    assert ("README.md", "quantum.measure_batch") in references
    assert ("src/bcsmagic/shallow.py", "quantum.StrategyStack.measure") in references
    assert ("tests/pauli_report_oracle.py", "bcs.check_pauli_constraint") in references
    missing = sorted((where, name) for where, name in references if not _resolves(name))
    assert not missing, f"doc references that name nothing: {missing}"


def test_private_doc_references_resolve():
    """A bare backticked private name in a package module's docstrings or
    ``#`` comments, such as ``_replay``, names a top-level name of that
    module: the dotted check above never sees it."""
    references = {
        (module, name)
        for module in MODULES
        for path in [ROOT / "src/bcsmagic" / f"{module}.py"]
        for name in PRIVATE.findall("\n".join(_docstrings(path) + _comments(path)))
    }
    assert ("bcs", "_sort_parity") in references
    assert ("quantum", "_stack") in references
    assert ("shallow", "_wiring_of") in references  # from a comment only
    missing = sorted((module, name) for module, name in references
                     if not hasattr(importlib.import_module(f"bcsmagic.{module}"), name))
    assert not missing, f"private doc references that name nothing: {missing}"


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("bcsmagic ")]
    assert len(commands) == 10
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def _bench_reads() -> set[tuple[str, str, str]]:
    """(file, module, attribute) for every attribute that ``bench/*.py``
    reads from a name bound to a bcsmagic module, and every name it imports
    from one."""
    reads = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the bcsmagic module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "bcsmagic":
                        bound[alias.asname or "bcsmagic"] = alias.name if alias.asname else "bcsmagic"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bcsmagic":
                for alias in node.names:
                    if node.module == "bcsmagic" and alias.name in MODULES:
                        bound[alias.asname or alias.name] = f"bcsmagic.{alias.name}"
                    else:
                        reads.add((path.name, node.module, alias.name))
        reads.update(
            (path.name, bound[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound
        )
    return reads


def test_bench_reads_only_existing_api():
    """The benchmark drives the program through these names; one that is
    removed fails here rather than in a benchmark run."""
    reads = _bench_reads()
    for known in [("run.py", "bcsmagic.bcs", "Certificate"), ("run.py", "bcsmagic.cli", "main"),
                  ("run.py", "bcsmagic.shallow", "build_strategy_dag")]:
        assert known in reads
    missing = sorted(read for read in reads
                     if not hasattr(importlib.import_module(read[1]), read[2]))
    assert not missing, f"bench reads names that do not exist: {missing}"
