"""Signed multi-qubit Pauli strings in symplectic form.

A string on n qubits is encoded as a pair of n-bit integers (x, z) plus a
phase exponent k, the whole operator being

    i^k * P_0 (x) P_1 (x) ... (x) P_{n-1},

where qubit j has letter I, X, Z, Y for (x_j, z_j) = (0,0), (1,0), (0,1),
(1,1).  Qubit 0 is the leftmost letter of the text form and the first factor
of the Kronecker product.  Hermitian strings are exactly those with phase
k in {0, 2}, i.e. an overall sign of +1 or -1; intermediate products of
Hermitian strings can pick up a factor of +/- i, so the full Z4 phase is kept
internally.  The text grammar only admits Hermitian strings: an optional
sign followed by letters from IXYZ, e.g. "-YY" or "IX".

``PauliString`` is a named tuple that hot loops unpack; its ``__new__``,
which gf2's _make and _replace call, checks the bits and reduces the phase.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .gf2 import CheckedRecord

if TYPE_CHECKING:
    import numpy as np

_SINGLE = {
    (0, 0): [[1, 0], [0, 1]],
    (1, 0): [[0, 1], [1, 0]],
    (0, 1): [[1, 0], [0, -1]],
    (1, 1): [[0, -1j], [1j, 0]],
}
_FROM_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# Entry x << 4 | z: the letters of qubits 0..3 for x and z nibbles, filled
# by ``_fill_quads`` on first use so that importing the module stays cheap.
_QUADS: list[str] = []

MATRIX_QUBIT_LIMIT = 12


class _PauliFields(NamedTuple):
    n_qubits: int
    x_bits: int
    z_bits: int
    phase: int


class PauliString(CheckedRecord, _PauliFields):
    __slots__ = ()

    def __new__(cls, n_qubits: int, x_bits: int, z_bits: int, phase: int = 0) -> PauliString:
        mask = (1 << n_qubits) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError("x/z bits outside the qubit range")
        return tuple.__new__(cls, (n_qubits, x_bits, z_bits, phase % 4))

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (0, 2)


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix; guarded to keep test oracles small."""
    import numpy as np

    if p.n_qubits > MATRIX_QUBIT_LIMIT:
        raise ValueError(f"refusing to build a dense matrix on {p.n_qubits} qubits")
    m = np.array([[1]], dtype=complex)
    for qubit in range(p.n_qubits):
        m = np.kron(m, _SINGLE[(p.x_bits >> qubit) & 1, (p.z_bits >> qubit) & 1])
    return (1j ** p.phase) * m


def parse_pauli(text: str) -> PauliString:
    """Parse the text grammar: optional sign, then one letter per qubit."""
    s = text.strip()
    phase = 0
    if s.startswith("+"):
        s = s[1:]
    elif s.startswith("-"):
        phase = 2
        s = s[1:]
    if not s:
        raise ValueError(f"no Pauli letters in {text!r}")
    x = z = 0
    for pos, ch in enumerate(s):
        if ch not in _FROM_LETTER:
            raise ValueError(f"illegal character {ch!r} in {text!r}")
        xb, zb = _FROM_LETTER[ch]
        x |= xb << pos
        z |= zb << pos
    return PauliString(len(s), x, z, phase)


def _fill_quads() -> list[str]:
    letter = "IXZY"
    _QUADS[:] = [letter[x & 1 | z << 1 & 2] + letter[x >> 1 & 1 | z & 2]
                 + letter[x >> 2 & 1 | z >> 1 & 2] + letter[x >> 3 | z >> 2 & 2]
                 for x in range(16) for z in range(16)]
    return _QUADS


def format_pauli(p: PauliString) -> str:
    """Canonical text form, an optional "-" then one letter per qubit;
    rejects non-Hermitian phases.  Letters are read four qubits at a time
    from ``_QUADS`` by the x and z nibbles, and the last group is cut to the
    width."""
    n, x, z, phase = p
    if phase & 1:
        raise ValueError("phase +/- i is not representable in text form")
    quads = _QUADS or _fill_quads()
    letters = quads[(x & 15) << 4 | z & 15]
    for q in range(4, n, 4):
        letters += quads[(x >> q & 15) << 4 | z >> q & 15]
    return ("-" if phase else "") + letters[:n]
