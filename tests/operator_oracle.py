"""Operator-solution verification and completion one variable, one pair and
one constraint at a time.

``quantum.verify_operator_solution`` checks a whole (V, d, d) strategy at
once and forms every constraint's product as a gather over padded rows.
This module keeps the plain loops as its reference, reading the strategy
one row at a time, and shares no code with it: each report field is the
largest error over the same matrices, so the two reports agree exactly,
``failing_constraint`` included.

``quantum.complete_solution`` completes a stack in waves of batched
products; the sequential completion here extends a {variable: matrix}
dict, visits the constraints one at a time and completes each single
unknown as soon as it meets it.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from bcsmagic.quantum import OperatorVerifyReport


def verify_operator_solution(bcs, sol, tol: float = 1e-9) -> OperatorVerifyReport:
    """Hermiticity and involution per variable; per constraint, every
    commutator of two members of its support and the signed product of its
    variables in order.  The first constraint that misses ``tol`` fails."""
    eye = np.eye(sol.shape[-1])
    report = OperatorVerifyReport(tol)
    for v in range(bcs.n_vars):
        m = sol[v]
        report.worst_hermitian = max(report.worst_hermitian, float(np.max(np.abs(m - m.conj().T))))
        report.worst_involution = max(report.worst_involution, float(np.max(np.abs(m @ m - eye))))
    for j, c in enumerate(bcs.constraints):
        commutator = 0.0
        for a, b in itertools.combinations(sorted(c.support), 2):
            left, right = sol[a], sol[b]
            commutator = max(commutator, float(np.max(np.abs(left @ right - right @ left))))
        prod = eye
        for v in c.var_indices:
            prod = prod @ sol[v]
        prod_err = float(np.max(np.abs(prod - c.rhs * eye)))
        report.worst_commutator = max(report.worst_commutator, commutator)
        report.worst_product = max(report.worst_product, prod_err)
        if (commutator > tol or prod_err > tol) and report.failing_constraint is None:
            report.failing_constraint = j
    return report


def complete_solution(bcs, partial: dict) -> dict:
    """Fill in every variable that appears as the single unknown of some
    constraint, iterating until the {variable: matrix} dict is total.

    The unknown of ``A_1 .. U .. A_k = c`` is the reversed product of the
    knowns on each side (inverses of involutions), times the sign.  The
    completion keeps the knowns' dtype: real knowns give a real solution.
    """
    assignment = dict(partial)
    dim = len(next(iter(assignment.values())))
    for m in assignment.values():
        if m.shape != (dim, dim):
            raise ValueError("partial assignment has mixed dimensions")
    dtype = np.result_type(float, *assignment.values())
    remaining = set(range(bcs.n_vars)) - set(assignment)
    while remaining:
        progress = False
        for c in bcs.constraints:
            unknowns = [v for v in c.var_indices if v in remaining]
            if len(unknowns) != 1:
                continue
            u = unknowns[0]
            pos = c.var_indices.index(u)
            left = [assignment[v] for v in c.var_indices[:pos]]
            right = [assignment[v] for v in c.var_indices[pos + 1:]]
            sign = c.rhs * np.eye(dim, dtype=dtype)
            assignment[u] = functools.reduce(np.matmul, left[::-1] + [sign] + right[::-1])
            remaining.discard(u)
            progress = True
        if not progress:
            raise ValueError(
                f"stuck completing solution: {len(remaining)} variables have no "
                "constraint with a single unknown"
            )
    return assignment
