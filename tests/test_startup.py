"""What a fresh process loads: the CLI starts without numpy, the operator
modules, ``dataclasses`` or ``json``, and only the commands that need them
load them.  Each case runs in its own interpreter, since this process has
loaded every module already."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcsmagic
from bcsmagic import bcs

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "bcsmagic.quantum", "bcsmagic.shallow")
# Standard modules the solver path does without: ``dataclasses`` alone costs
# about 9 ms, most of it ``inspect``; ``json`` loads to write a document.
STDLIB = ("dataclasses", "inspect", "json")

# The names the package re-exports, by the module that defines them.
REEXPORTS = {
    "bcs": ["Bcs", "Certificate", "InvariantError", "PauliSolution", "chsh", "classical_solve",
            "eliminate_free_vars", "mermin_peres", "parse_bcs", "pauli_solve", "serialize_bcs",
            "serialize_solution", "verify_certificate", "verify_pauli_solution"],
    "game": ["GameBcs", "GameClass", "build_game_bcs", "classify", "clifford_bound",
             "count_questions", "enumerate_questions"],
    "pauli": ["PauliString", "format_pauli", "parse_pauli", "to_matrix"],
    "quantum": ["StrategyStack", "classical_to_operator", "complete_solution", "correlation",
                "measure_batch", "pauli_to_operator", "permutation_solution", "phi_plus",
                "play_rounds", "verify_operator_solution"],
    "shallow": ["CircuitDag", "Gate", "backward_cone_sizes", "backward_lightcone",
                "build_strategy_dag", "depth_lower_bound", "forward_lightcone",
                "lightcone_disjoint_probability", "run_trials"],
}


def loaded_after(code: str, cwd: Path, watched: tuple[str, ...] = HEAVY) -> list[str]:
    """The ``watched`` modules that running ``code`` loads in a fresh
    interpreter, beyond those loaded before it ran."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = (f"import sys\n_before = set(sys.modules)\n{code}\n"
             f"print(*[m for m in {watched!r} if m in sys.modules and m not in _before])")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                            cwd=cwd, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("argv", [
    None,
    ["solve", "mermin.bcs", "--mode", "pauli"],
    ["solve", "mermin.bcs", "--mode", "classical"],
    ["classify", "--n", "8"],
    ["bound", "--n", "8"],
    ["recipes"],
], ids=["import", "solve-pauli", "solve-classical", "classify", "bound", "recipes"])
def test_solver_commands_load_no_numpy(argv, tmp_path):
    (tmp_path / "mermin.bcs").write_text(bcs.serialize_bcs(bcs.mermin_peres()))
    code = "import bcsmagic.cli" if argv is None else f"from bcsmagic.cli import main\nmain({argv!r})"
    assert loaded_after(code, tmp_path) == []


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["classify", "--n", "8"], []),
    (["bound", "--n", "8"], []),
    (["solve", "mermin.bcs", "--mode", "pauli"], []),
    (["bound", "--n", "8", "--format", "json"], ["json"]),
    (["solve", "chsh.bcs"], ["json"]),
], ids=["import", "classify", "bound", "solve-solution", "bound-json", "solve-certificate"])
def test_cli_loads_json_only_to_write_json(argv, loaded, tmp_path):
    """No command loads ``dataclasses`` or ``inspect``, and ``json`` loads
    only for a JSON document: ``--format json``, or a certificate."""
    (tmp_path / "mermin.bcs").write_text(bcs.serialize_bcs(bcs.mermin_peres()))
    (tmp_path / "chsh.bcs").write_text(bcs.serialize_bcs(bcs.chsh()))
    code = "import bcsmagic.cli" if argv is None else f"from bcsmagic.cli import main\nmain({argv!r})"
    assert loaded_after(code, tmp_path, STDLIB) == loaded
    if argv == ["solve", "chsh.bcs"]:
        assert (tmp_path / "chsh.certificate.json").is_file()


def test_gen_loads_numpy_but_no_operator_module(tmp_path):
    code = "from bcsmagic.cli import main\nmain(['gen', '--n', '6', '--out', 'game6.bcs'])"
    assert loaded_after(code, tmp_path) == ["numpy"]


def test_operator_modules_load_on_first_access(tmp_path):
    assert loaded_after("import bcsmagic", tmp_path) == []
    assert loaded_after("import bcsmagic\nbcsmagic.quantum.StrategyStack", tmp_path) == [
        "numpy", "bcsmagic.quantum"]
    assert loaded_after("from bcsmagic import run_trials", tmp_path) == list(HEAVY)


def test_reexports_are_the_module_attributes():
    listed = dir(bcsmagic)
    for module, names in REEXPORTS.items():
        assert module in listed and getattr(bcsmagic, module).__name__ == f"bcsmagic.{module}"
        for name in names:
            assert name in listed and getattr(bcsmagic, name) is getattr(getattr(bcsmagic, module), name)
    with pytest.raises(AttributeError, match="module 'bcsmagic' has no attribute 'missing'"):
        getattr(bcsmagic, "missing")
