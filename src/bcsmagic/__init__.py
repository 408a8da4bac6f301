"""Binary constraint systems over scalars and Pauli strings, the
complete-graph pseudo-telepathy game family, dense operator strategies, and
shallow-circuit relation problems with lightcone hardness checks.

The solver, game and Pauli names load with the package and need no numpy.
The dense-operator names (``quantum``) and the shallow-circuit names
(``shallow``), and those two modules, load on first access, and with them
numpy."""

import importlib

from .bcs import (
    Bcs,
    Certificate,
    InvariantError,
    PauliSolution,
    chsh,
    classical_solve,
    eliminate_free_vars,
    mermin_peres,
    parse_bcs,
    pauli_solve,
    serialize_bcs,
    serialize_solution,
    verify_certificate,
    verify_pauli_solution,
)
from .game import (
    GameBcs,
    GameClass,
    build_game_bcs,
    classify,
    clifford_bound,
    count_questions,
    enumerate_questions,
)
from .pauli import PauliString, format_pauli, parse_pauli, to_matrix

# Lazily loaded name -> the submodule that holds it; a module maps to itself.
_LAZY = {
    "quantum": "quantum",
    "shallow": "shallow",
    **dict.fromkeys((
        "StrategyStack",
        "classical_to_operator",
        "complete_solution",
        "correlation",
        "measure_batch",
        "pauli_to_operator",
        "permutation_solution",
        "phi_plus",
        "play_rounds",
        "verify_operator_solution",
    ), "quantum"),
    **dict.fromkeys((
        "CircuitDag",
        "Gate",
        "backward_cone_sizes",
        "backward_lightcone",
        "build_strategy_dag",
        "depth_lower_bound",
        "forward_lightcone",
        "lightcone_disjoint_probability",
        "run_trials",
    ), "shallow"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
