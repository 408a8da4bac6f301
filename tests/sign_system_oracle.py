"""The full sign system of a BCS, and a brute-force judge of it.

``bcs.pauli_solve`` solves only for commutator unknowns: signs come from
back-substitution into the pivot rows of the one incidence reduction.  This
module keeps the direct formulation as the reference.  One row per
constraint (its substituted expressions, bubble-sorted), then one row per
co-occurring variable pair (its commutation requirement), over every sign
unknown and every commutator unknown that occurs.  The system is solvable
exactly when the BCS has a Pauli-string solution; ``satisfiable_brute``
decides that by enumerating every assignment, which is slow and obviously
correct.

It also carries the dict form of the swap bookkeeping as the reference for
``bcs``'s pair masks: ``_inversion_parity`` maps each smaller variable to
a bitmask of its larger partners, and ``_commutation_row`` sorts the
literal expansion A_i A_j A_i A_j block by block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bcsmagic import gf2
from bcsmagic.bcs import Bcs, Elimination, co_occurrence_pairs
from bcsmagic.gf2 import Gf2System, set_bits

SignUnknown = tuple  # ("sign", i) or ("comm", k, l) with k < l
RowTag = tuple  # ("constraint", j) or ("commutation", i, j) with i < j


def _inversion_parity(blocks: list[tuple[int, ...]], n_vars: int) -> dict[int, int]:
    """Swap parity of sorting the concatenation of ascending blocks.

    Returns {smaller var: bitmask of larger partners} for the pairs swapped
    an odd number of times; pairs of equal variables never swap.
    """
    full = (1 << n_vars) - 1
    partners: dict[int, int] = {}
    prefix = 0
    for block in blocks:
        mask = 0
        for b in block:
            hit = prefix & (full ^ ((1 << (b + 1)) - 1))
            if hit:
                partners[b] = partners.get(b, 0) ^ hit
            mask |= 1 << b
        prefix ^= mask
    return {k: v for k, v in partners.items() if v}


def _parity_pairs(parity: dict[int, int]) -> list[tuple[int, int]]:
    return [(k, l) for k in sorted(parity) for l in set_bits(parity[k])]


def _commutation_row(bcs: Bcs, elim: Elimination, i: int, j: int):
    """Pair parity of the formal expansion A_i A_j A_i A_j = I."""
    si = elim.expressions[i].free_support
    sj = elim.expressions[j].free_support
    return _inversion_parity([si, sj, si, sj], bcs.n_vars)


@dataclass
class SignSystem:
    unknowns: list[SignUnknown]
    equations: Gf2System
    tags: list[RowTag]


def _constraint_row(bcs: Bcs, elim: Elimination, j: int):
    """Substituted form of constraint j: sign unknowns, pair parity, rhs bit."""
    c = bcs.constraints[j]
    blocks = [elim.expressions[v].free_support for v in c.var_indices]
    sign_unknowns = [v for v in c.var_indices if elim.expressions[v].sign_unknown is not None]
    cancel = 0
    for block in blocks:
        for b in block:
            cancel ^= 1 << b
    assert cancel == 0, f"free supports failed to cancel in constraint {j}"
    parity = _inversion_parity(blocks, bcs.n_vars)
    return sign_unknowns, parity, 0 if c.rhs == 1 else 1


def build_sign_system(bcs: Bcs, elim: Elimination) -> SignSystem:
    """Assemble the GF(2) system over sign and commutator unknowns.

    One row per constraint (substituted expressions, bubble-sorted), then one
    row per co-occurring variable pair (commutation requirement).  Row tags
    record the origin of each equation.
    """
    constraint_rows = [_constraint_row(bcs, elim, j) for j in range(len(bcs.constraints))]
    pair_list = co_occurrence_pairs(bcs)
    commutation_rows = [_commutation_row(bcs, elim, i, j) for i, j in pair_list]

    comm_pairs: set[tuple[int, int]] = set()
    for _, parity, _ in constraint_rows:
        comm_pairs.update(_parity_pairs(parity))
    for parity in commutation_rows:
        comm_pairs.update(_parity_pairs(parity))

    unknowns: list[SignUnknown] = [("sign", v) for v in elim.dependent]
    unknowns.extend(("comm", k, l) for k, l in sorted(comm_pairs))
    col: dict[SignUnknown, int] = {u: i for i, u in enumerate(unknowns)}

    bits: list[int] = []
    rhs: list[int] = []
    tags: list[RowTag] = []
    for j, (sign_unknowns, parity, rhs_bit) in enumerate(constraint_rows):
        row = 0
        for v in sign_unknowns:
            row ^= 1 << col[("sign", v)]
        for k, l in _parity_pairs(parity):
            row ^= 1 << col[("comm", k, l)]
        bits.append(row)
        rhs.append(rhs_bit)
        tags.append(("constraint", j))
    for (i, j), parity in zip(pair_list, commutation_rows):
        row = 0
        for k, l in _parity_pairs(parity):
            row ^= 1 << col[("comm", k, l)]
        bits.append(row)
        rhs.append(0)
        tags.append(("commutation", i, j))

    matrix = gf2.Gf2Matrix(len(bits), len(unknowns), bits)
    return SignSystem(unknowns, Gf2System(matrix, rhs), tags)


def satisfiable_brute(system: SignSystem) -> bool:
    """Enumerate every assignment of the sign-system unknowns directly."""
    k = system.equations.matrix.cols
    assert k <= 20
    rows = system.equations.matrix.bits
    rhs = system.equations.rhs
    if k == 0:
        return all(b == 0 for b in rhs)
    assigns = np.arange(1 << k, dtype=np.uint32)
    ok = np.ones(assigns.shape, dtype=bool)
    for row, b in zip(rows, rhs):
        parity = np.zeros(assigns.shape, dtype=np.uint32)
        mask = row
        while mask:
            low = mask & -mask
            parity ^= (assigns >> np.uint32(low.bit_length() - 1)) & np.uint32(1)
            mask ^= low
        ok &= parity == np.uint32(b)
        if not ok.any():
            return False
    return bool(ok.any())
