"""Auditing the constant-depth strategy wiring and the hardness bounds.

The swap-and-play wiring keeps its depth as the number of sites grows and
never needs a gate reading more than 14 inputs (an 11-bit question plus 3
qubits).  For any bounded fan-in wiring, backward cones stay within
|O| (K + 1)^D wires, and the probability that two random sites fall outside
each other's cones obeys the 1 - 48 K^D / N bound that drives the depth
lower bound for magic-free circuits.
"""
from bcsmagic import build_strategy_dag, clifford_bound
from bcsmagic.shallow import (
    backward_lightcone,
    depth_lower_bound,
    forward_lightcone,
    lightcone_disjoint_probability,
)

for sites in (8, 64, 256):
    dag = build_strategy_dag(sites)
    print(f"sites={sites:>4}: depth={dag.depth}, max fan-in={dag.max_fan_in}, "
          f"wires={len(dag.wire_kinds)}, gates={dag.n_gates}")

dag = build_strategy_dag(64)
k = 40
cone = backward_lightcone(dag, dag.bob_outputs[k])
touching = [j for j in range(64) if cone.intersection(dag.alice_inputs[j])]
print(f"\nbackward cone of Bob's site-{k} output bits touches Alice inputs at sites {touching}")
print("forward cone of Alice's site-10 input has",
      len(forward_lightcone(dag, dag.alice_inputs[10])), "wires")
print("probability that random question sites are cone-disjoint:",
      lightcone_disjoint_probability(dag))

p_clif = clifford_bound(8)
print(f"\nmagic-free cap for the modified n=8 game: {p_clif}")
threshold = int(96 / (1 - p_clif))
print(f"depth lower bound turns positive above N = {threshold} sites:")
for N in (10 ** 5, 10 ** 6, 10 ** 8):
    bound = depth_lower_bound(N, 14, p_clif)
    print(f"  N={N:>10}: required depth > {bound:6.2f}")
