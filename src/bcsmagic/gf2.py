"""Exact linear algebra over GF(2) with row provenance.

Rows are stored as Python integers used as bitsets: bit ``j`` of a row is the
coefficient of column ``j``.  Every reduced row carries a provenance bitset
naming the original rows whose XOR produced it, so an inconsistent system
yields a checkable certificate: the cited original rows XOR to the zero
vector on the left and to 1 on the right.  ``solve`` returns either the
assignment, a list of bits, or that ``Inconsistency``.

Conventions fixed here and relied on elsewhere:

* the reduction is the unique RREF: pivot columns, pivot rows and, on a
  consistent system, their rhs bits are invariant; provenance and the
  kernel basis are not, so a certificate is one valid choice among several;
* free columns are assigned 0 when solving.

The records are named tuples; ``Gf2Matrix`` and ``Gf2System`` check their
fields in ``__new__``, which their _make and _replace call too.
"""
from __future__ import annotations

from typing import NamedTuple


class _Gf2MatrixFields(NamedTuple):
    rows: int
    cols: int
    bits: list[int]


class Gf2Matrix(_Gf2MatrixFields):
    __slots__ = ()

    def __new__(cls, rows: int, cols: int, bits: list[int]) -> Gf2Matrix:
        if len(bits) != rows:
            raise ValueError("row count does not match bit rows")
        if bits and (min(bits) < 0 or max(bits) >> cols):
            raise ValueError("row has bits outside the column range")
        return tuple.__new__(cls, (rows, cols, bits))

    @classmethod
    def _make(cls, fields) -> Gf2Matrix:
        return cls(*fields)


class _Gf2SystemFields(NamedTuple):
    matrix: Gf2Matrix
    rhs: list[int]
    provenance: list[int]


class Gf2System(_Gf2SystemFields):
    __slots__ = ()

    def __new__(cls, matrix: Gf2Matrix, rhs: list[int], provenance: list[int] | None = None) -> Gf2System:
        if len(rhs) != matrix.rows:
            raise ValueError("rhs length does not match row count")
        if not provenance:
            # Untouched rows carry their own index as provenance.
            provenance = [1 << i for i in range(matrix.rows)]
        elif len(provenance) != matrix.rows:
            raise ValueError("provenance length does not match row count")
        return tuple.__new__(cls, (matrix, rhs, provenance))

    @classmethod
    def _make(cls, fields) -> Gf2System:
        return cls(*fields)


class ReducedSystem(NamedTuple):
    system: Gf2System
    pivot_cols: list[int]


class Inconsistency(NamedTuple):
    rows: frozenset[int]


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def row_reduce(system: Gf2System) -> ReducedSystem:
    """Reduce to row-reduced echelon form, tracking provenance.

    Rows enter an XOR basis keyed by lowest set column, widest rows first,
    then each pivot row is cleared of the other pivots, highest first.  Pivot
    rows come first with strictly increasing pivot columns; rows that reduced
    to zero (possibly with rhs 1, i.e. contradictions) follow.
    """
    bits, rhs, prov = list(system.matrix.bits), list(system.rhs), list(system.provenance)
    at: dict[int, int] = {}  # pivot column -> row index
    inserted = sorted(range(len(bits)), key=[-b.bit_length() for b in bits].__getitem__)
    for i in inserted:
        while bits[i] and (j := at.setdefault((bits[i] & -bits[i]).bit_length() - 1, i)) != i:
            bits[i] ^= bits[j]
            rhs[i] ^= rhs[j]
            prov[i] ^= prov[j]
    pivot_cols = sorted(at)
    pivot_mask = sum(1 << c for c in pivot_cols)
    for c in reversed(pivot_cols):
        i = at[c]
        # Higher pivot rows are reduced already: each XOR clears one pivot.
        others = bits[i] & pivot_mask ^ 1 << c
        while others:
            j = at[(others & -others).bit_length() - 1]
            others &= others - 1
            bits[i] ^= bits[j]
            rhs[i] ^= rhs[j]
            prov[i] ^= prov[j]
    order = [at[c] for c in pivot_cols] + [i for i in inserted if not bits[i]]
    matrix = Gf2Matrix(len(bits), system.matrix.cols, [bits[i] for i in order])
    reduced = Gf2System(matrix, [rhs[i] for i in order], [prov[i] for i in order])
    return ReducedSystem(reduced, pivot_cols)


def solve(system: Gf2System) -> list[int] | Inconsistency:
    """One bit per column solving the system, or a certificate that none
    exists.

    The assignment sets every free column to 0.  An inconsistency's row set
    names original rows whose XOR is the all-zero vector with rhs bit 1.
    """
    reduced = row_reduce(system)
    sys_r = reduced.system
    rank = len(reduced.pivot_cols)
    for i in range(rank, sys_r.matrix.rows):
        if sys_r.rhs[i]:
            return Inconsistency(frozenset(set_bits(sys_r.provenance[i])))

    assignment = [0] * sys_r.matrix.cols
    for i, col in enumerate(reduced.pivot_cols):
        assignment[col] = sys_r.rhs[i]
    return assignment
