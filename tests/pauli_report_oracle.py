"""Verification of a Pauli solution on ``PauliString`` objects, the
reference for ``bcs.verify_pauli_solution``.

The shipped check works on the (x, z, phase) integers of the strings and
builds no string.  This one multiplies the strings themselves with
``pauli.multiply`` and asks ``pauli.commutes``, so its report is what the
integer check must reproduce field for field.
"""
from __future__ import annotations

from bcsmagic import pauli
from bcsmagic.bcs import Bcs, PauliSolution, PauliVerifyReport


def verify_pauli_solution(bcs: Bcs, solution: PauliSolution) -> PauliVerifyReport:
    """Check Hermiticity, within-constraint commutation, and signed products."""
    report = PauliVerifyReport(True, True, True)
    for v, s in enumerate(solution.strings):
        sq = pauli.multiply(s, s)
        if not s.is_hermitian or not (sq.is_identity_up_to_phase and sq.phase == 0):
            report.hermitian_ok = False
            if report.failing_variable is None:
                report.failing_variable = v
    for j, c in enumerate(bcs.constraints):
        members = sorted(c.support)
        pairwise = all(
            pauli.commutes(solution.strings[a], solution.strings[b])
            for idx, a in enumerate(members)
            for b in members[idx + 1:]
        )
        prod = pauli.multiply_all(
            [solution.strings[v] for v in c.var_indices], solution.qubits
        )
        target_phase = 0 if c.rhs == 1 else 2
        product_ok = prod.is_identity_up_to_phase and prod.phase == target_phase
        if not pairwise:
            report.commutation_ok = False
        if not product_ok:
            report.products_ok = False
        if (not pairwise or not product_ok) and report.failing_constraint is None:
            report.failing_constraint = j
    return report
