"""Gauss-Jordan reduction over GF(2), the reference for ``gf2.row_reduce``.

For every column in turn it takes the lowest remaining row with that bit as
the pivot and clears the column from every other row.  That is slow but
obviously an RREF, so its pivot columns, reduced pivot rows and (on
consistent systems) their rhs bits are what the shipped reduction must
reproduce.  Provenance and the kernel basis are not unique, and may differ.
"""
from __future__ import annotations

from bcsmagic.gf2 import Gf2Matrix, Gf2System, ReducedSystem


def row_reduce(system: Gf2System) -> ReducedSystem:
    """Reduce to row-reduced echelon form, tracking provenance.

    Pivot rows come first with strictly increasing pivot columns; rows that
    reduced to zero (possibly with rhs 1, i.e. contradictions) follow.
    """
    bits = list(system.matrix.bits)
    rhs = list(system.rhs)
    prov = list(system.provenance)
    n_rows, n_cols = system.matrix.rows, system.matrix.cols

    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        mask = 1 << col
        pivot = next((i for i in range(r, n_rows) if bits[i] & mask), None)
        if pivot is None:
            continue
        bits[r], bits[pivot] = bits[pivot], bits[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        prov[r], prov[pivot] = prov[pivot], prov[r]
        for i in range(n_rows):
            if i != r and bits[i] & mask:
                bits[i] ^= bits[r]
                rhs[i] ^= rhs[r]
                prov[i] ^= prov[r]
        pivot_cols.append(col)
        r += 1

    reduced = Gf2System(Gf2Matrix(n_rows, n_cols, bits), rhs, prov)
    return ReducedSystem(reduced, pivot_cols)
