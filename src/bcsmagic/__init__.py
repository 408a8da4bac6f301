"""Binary constraint systems over scalars and Pauli strings, the
complete-graph pseudo-telepathy game family, dense operator strategies, and
shallow-circuit relation problems with lightcone hardness checks."""

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
from .quantum import (
    StrategyStack,
    classical_to_operator,
    complete_solution,
    correlation,
    measure_batch,
    pauli_to_operator,
    permutation_solution,
    phi_plus,
    play_rounds,
    verify_operator_solution,
)
from .shallow import (
    CircuitDag,
    Gate,
    backward_cone_sizes,
    backward_lightcone,
    build_strategy_dag,
    depth_lower_bound,
    forward_lightcone,
    lightcone_disjoint_probability,
    run_trials,
)

__version__ = "0.1.0"
