"""Perfect strategies in action at every level of the hierarchy.

Odd sizes are won by sharing a scalar assignment; n = 4 by measuring
two-qubit Pauli strings on two EPR pairs; even n >= 6 by the dimension-n
reflection/swap operators, which are not Pauli strings of any size.
"""
import numpy as np

from bcsmagic import (
    StrategyStack,
    build_game_bcs,
    classical_solve,
    classical_to_operator,
    correlation,
    pauli_solve,
    pauli_to_operator,
    permutation_solution,
    play_rounds,
)


def run_rounds(stack, seed, trials=2000):
    # Round t draws from its own stream of the seed; rounds are measured in
    # batches, and each batch comes back as one record of arrays.
    records = play_rounds(stack, seed, trials)
    return sum(int(record.won.sum()) for record in records), trials


for n, describe in ((5, "scalar"), (4, "two-qubit Pauli"), (8, "dimension-8 magic")):
    game = build_game_bcs(n)
    if n % 2:
        sol = classical_to_operator(classical_solve(game.bcs))
    elif n == 4:
        sol = pauli_to_operator(pauli_solve(game.bcs))
    else:
        sol = permutation_solution(game)
    # The stack refuses observables that do not commute, and reports on the rest.
    stack = StrategyStack(game.bcs, sol)
    wins, trials = run_rounds(stack, seed=n)
    print(f"n={n} ({describe}, dim {stack.dim}): verified={stack.report.ok}, wins {wins}/{trials}")

print("\nA closer look at the n=8 operators:")
game = build_game_bcs(8)
sol = permutation_solution(game)
a1 = sol[game.a(1)]
x12 = sol[game.x(1, 2)]
print("a_1  =", np.real(np.diag(a1)), "(basis reflection)")
print("x_12 swaps basis vectors 1 and 2:", np.array_equal(np.real(x12[:2, :2]), [[0, 1], [1, 0]]))

product = np.eye(8, dtype=complex)
for v in range(1, 9):
    product = product @ sol[game.a(v)]
print("product of all a_v is -identity:", np.allclose(product, -np.eye(8)))
print("self-correlation of every observable on the shared state is 1:",
      all(abs(correlation(m, m) - 1) < 1e-12 for m in sol))
