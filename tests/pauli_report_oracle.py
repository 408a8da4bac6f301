"""Pauli-string group arithmetic on ``PauliString`` objects, the reference
for the integer checks in ``bcs.check_pauli_constraint`` and
``bcs.verify_pauli_solution``, and the scorer of Pauli strategy pairs.

The shipped checks work on the (x, z, phase) integers of the strings and
build no string.  Here every product is a ``PauliString`` built factor by
factor with ``multiply``, and every commutation test asks ``commutes``, so
each report is what the integer checks must reproduce field for field.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from bcsmagic.bcs import Bcs, PauliSolution, PauliVerifyReport
from bcsmagic.game import GameBcs
from bcsmagic.pauli import PauliString


@dataclass
class CliffordAudit:
    pair_agreements: dict[tuple[int, int], float] = field(default_factory=dict)
    invalid_constraints: list[int] = field(default_factory=list)
    min_pair: float = 1.0
    avg_win: float = 0.0


def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0, 0)


def is_identity_up_to_phase(p: PauliString) -> bool:
    return p.x_bits == 0 and p.z_bits == 0


def sign(p: PauliString) -> int:
    """+1 or -1 for Hermitian strings."""
    if not p.is_hermitian:
        raise ValueError("string has an imaginary phase")
    return 1 if p.phase == 0 else -1


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Group product p * q with exact Z4 phase tracking."""
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit count mismatch")
    # Work in X^x Z^z normal form: letter form differs by i^{#Y}.
    phase = p.phase + (p.x_bits & p.z_bits).bit_count()
    phase += q.phase + (q.x_bits & q.z_bits).bit_count()
    phase += 2 * (p.z_bits & q.x_bits).bit_count()
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    phase -= (x & z).bit_count()
    return PauliString(p.n_qubits, x, z, phase % 4)


def multiply_all(factors: list[PauliString], n_qubits: int | None = None) -> PauliString:
    if not factors:
        if n_qubits is None:
            raise ValueError("empty product needs an explicit qubit count")
        return identity(n_qubits)
    acc = factors[0]
    for f in factors[1:]:
        acc = multiply(acc, f)
    return acc


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic form <p.x, q.z> + <p.z, q.x> vanishes."""
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit count mismatch")
    return (((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) & 1) == 0


def transpose(p: PauliString) -> PauliString:
    """Operator transpose: every Y letter flips sign."""
    flips = (p.x_bits & p.z_bits).bit_count()
    return PauliString(p.n_qubits, p.x_bits, p.z_bits, p.phase + 2 * flips)


def verify_pauli_solution(bcs: Bcs, solution: PauliSolution) -> PauliVerifyReport:
    """Check Hermiticity, within-constraint commutation, and signed products."""
    report = PauliVerifyReport(True, True, True)
    for v, s in enumerate(solution.strings):
        sq = multiply(s, s)
        if not s.is_hermitian or not (is_identity_up_to_phase(sq) and sq.phase == 0):
            report.hermitian_ok = False
            if report.failing_variable is None:
                report.failing_variable = v
    for j, c in enumerate(bcs.constraints):
        members = sorted(c.support)
        pairwise = all(
            commutes(solution.strings[a], solution.strings[b])
            for idx, a in enumerate(members)
            for b in members[idx + 1:]
        )
        prod = multiply_all([solution.strings[v] for v in c.var_indices], solution.qubits)
        target_phase = 0 if c.rhs == 1 else 2
        product_ok = is_identity_up_to_phase(prod) and prod.phase == target_phase
        if not pairwise:
            report.commutation_ok = False
        if not product_ok:
            report.products_ok = False
        if (not pairwise or not product_ok) and report.failing_constraint is None:
            report.failing_constraint = j
    return report


def audit_clifford_strategy(
    game: GameBcs,
    alice: dict[int, dict[int, PauliString]],
    bob: dict[int, PauliString],
) -> CliffordAudit:
    """Score a Pauli strategy pair by multiplying its strings: a constraint
    is lost outright unless its members pairwise commute and multiply to its
    sign; otherwise pair (alpha, beta) agrees with probability (1 + t)/2 for
    A_beta^(alpha) B_beta^T = t I, and t = 0 when that product is not
    proportional to the identity.  Averages are over the uniform question
    distribution.  An imaginary t or mixed qubit counts raise ValueError."""
    qubits = {s.n_qubits for obs in alice.values() for s in obs.values()}
    qubits |= {s.n_qubits for s in bob.values()}
    if len(qubits) > 1:
        raise ValueError(f"mixed qubit counts in strategy: {sorted(qubits)}")
    audit = CliffordAudit()
    total = 0.0
    n_pairs = 0
    for alpha, c in enumerate(game.bcs.constraints):
        obs = alice[alpha]
        members = list(c.var_indices)
        valid = all(
            commutes(obs[a], obs[b])
            for i, a in enumerate(members)
            for b in members[i + 1:]
        )
        if valid:
            prod = multiply_all([obs[v] for v in members])
            target = 0 if c.rhs == 1 else 2
            valid = is_identity_up_to_phase(prod) and prod.phase == target
        if not valid:
            audit.invalid_constraints.append(alpha)
        for beta in members:
            if valid:
                p = multiply(obs[beta], transpose(bob[beta]))
                t = sign(p) if is_identity_up_to_phase(p) else 0
                agreement = (1 + t) / 2
            else:
                agreement = 0.0
            audit.pair_agreements[(alpha, beta)] = agreement
            audit.min_pair = min(audit.min_pair, agreement)
            total += agreement
            n_pairs += 1
    audit.avg_win = total / n_pairs if n_pairs else 0.0
    return audit
