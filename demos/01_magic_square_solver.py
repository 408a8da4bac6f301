"""Solving small constraint systems classically and over Pauli strings.

The magic-square system has no scalar solution, and the classical solver
says which constraints contradict each other; yet nine two-qubit Pauli
observables satisfy every row.  The CHSH system cannot be satisfied even with
operators, and the solver proves it with a replayable certificate.
"""
from bcsmagic import (
    chsh,
    classical_solve,
    format_pauli,
    mermin_peres,
    pauli_solve,
    serialize_bcs,
    verify_certificate,
    verify_pauli_solution,
)

mp = mermin_peres()
print("The magic-square system:")
print(serialize_bcs(mp))

scalar = classical_solve(mp)
print(f"classical solve: no scalar solution; constraints {list(scalar.constraint_rows)}")
print("  cancel every variable and multiply to -1, so as numbers 1 = -1")

solution = pauli_solve(mp)
print(f"\nPauli solver found a {solution.qubits}-qubit assignment:")
for name, string in solution.assignment(mp).items():
    print(f"  {name} = {format_pauli(string)}")
report = verify_pauli_solution(mp, solution)
print("verification:", "all checks pass" if report.ok else report)

print("\nThe CHSH system (x y = 1 and x y = -1) admits no operator solution:")
certificate = pauli_solve(chsh())
print("certificate:", certificate)
print("replaying the cited constraints gives I = -I:",
      verify_certificate(chsh(), certificate))
