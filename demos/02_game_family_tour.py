"""A tour of the complete-graph game family.

For each size n the script reports the instance dimensions, what kind of
strategy wins perfectly, and, in the magic regime, the cap on magic-free
play.  The classifications are cross-checked by actually running both
solvers on the generated instances.
"""
from bcsmagic import (
    GameClass,
    build_game_bcs,
    Certificate,
    classical_solve,
    classify,
    clifford_bound,
    count_questions,
    pauli_solve,
    verify_certificate,
)

print(f"{'n':>3} {'vars':>6} {'constraints':>12} {'class':>15} {'magic-free cap':>16}")
for n in range(4, 11):
    counts = count_questions(n)
    label = classify(n)
    cap = ""
    if label is GameClass.MAGIC_REQUIRED:
        cap = f"1 - 1/{6 * counts.modified_alice}"
    print(f"{n:>3} {counts.bob:>6} {counts.alice:>12} {label.value:>15} {cap:>16}")

print("\nCross-checking n = 4..8 against the solvers:")
for n in range(4, 9):
    game = build_game_bcs(n)
    has_classical = not isinstance(classical_solve(game.bcs), Certificate)
    operator = pauli_solve(game.bcs)
    if isinstance(operator, Certificate):
        status = f"no Pauli solution (certificate verifies: {verify_certificate(game.bcs, operator)})"
    else:
        status = f"Pauli solution on {operator.qubits} qubit(s)"
    print(f"  n={n}: classical={has_classical}, {status}")

print("\nModified n=8 game:", count_questions(8).modified_alice, "constraints;",
      "magic-free cap", clifford_bound(8))
