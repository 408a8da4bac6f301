import random

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import assert_record_contract
from hypothesis import strategies as st
from pauli_report_oracle import commutes, identity, multiply, transpose

from bcsmagic.pauli import PauliString, format_pauli, parse_pauli, to_matrix


def random_string(draw, n):
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    phase = draw(st.integers(0, 3))
    return PauliString(n, x, z, phase)


def test_pauli_string_is_a_record():
    assert_record_contract(PauliString, (2, 0b01, 0b11, 2), ("n_qubits", "x_bits", "z_bits", "phase"))
    assert PauliString(1, 1, 0) == PauliString(1, 1, 0, 0) == parse_pauli("X")


def test_pauli_strings_are_set_members_and_dict_keys():
    y = PauliString(1, 1, 1, 6)
    assert y == PauliString(1, 1, 1, 2) != PauliString(1, 1, 1, 0)
    assert {y, PauliString(1, 1, 1, 2), parse_pauli("-X")} == {y, parse_pauli("-X")}
    assert {y: "minus"}[PauliString(1, 1, 1, -2)] == "minus"


def test_pauli_string_checks_on_every_construction():
    """Direct construction, ``_make`` and ``_replace`` all reject bits
    beyond the qubit count and reduce the phase mod 4."""
    assert PauliString(2, 0b11, 0, 7).phase == 3
    p = PauliString(1, 1, 0)
    assert p._replace(phase=5) == PauliString._make((1, 1, 0, 5)) == PauliString(1, 1, 0, 1)
    assert p._replace(phase=5).phase == 1
    for build in (lambda: PauliString(1, 0b10, 0), lambda: PauliString(1, 0, -1),
                  lambda: p._replace(x_bits=0b10), lambda: p._replace(n_qubits=0),
                  lambda: PauliString._make((1, 0, 0b10, 0))):
        with pytest.raises(ValueError, match="outside the qubit range"):
            build()


def test_multiply_involution():
    x = parse_pauli("X")
    assert multiply(x, x) == identity(1)


def test_multiply_x_z_gives_minus_i_y():
    x = parse_pauli("X")
    z = parse_pauli("Z")
    prod = multiply(x, z)
    assert (prod.x_bits, prod.z_bits, prod.phase) == (1, 1, 3)
    np.testing.assert_allclose(to_matrix(prod), to_matrix(x) @ to_matrix(z), atol=1e-12)


def test_multiply_two_qubit_phase_matches_matrices():
    p = parse_pauli("XI")
    q = parse_pauli("ZZ")
    prod = multiply(p, q)
    np.testing.assert_allclose(to_matrix(prod), to_matrix(p) @ to_matrix(q), atol=1e-12)
    assert prod.phase == 3  # (X.Z) (x) Z = -i (Y (x) Z)


def test_commutes_basics():
    assert not commutes(parse_pauli("X"), parse_pauli("Z"))
    assert commutes(parse_pauli("XX"), parse_pauli("ZZ"))
    for text in ("X", "Y", "Z", "I"):
        assert commutes(parse_pauli(text), identity(1))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(parse_pauli("X"), parse_pauli("XX"))
    with pytest.raises(ValueError):
        commutes(parse_pauli("X"), parse_pauli("XX"))


def test_to_matrix_references():
    np.testing.assert_allclose(to_matrix(identity(1)), np.eye(2), atol=0)
    np.testing.assert_allclose(
        to_matrix(parse_pauli("Y")), np.array([[0, -1j], [1j, 0]]), atol=0
    )
    np.testing.assert_allclose(
        to_matrix(parse_pauli("-ZZ")), np.diag([-1, 1, 1, -1]).astype(complex), atol=0
    )


def test_to_matrix_guard():
    with pytest.raises(ValueError):
        to_matrix(identity(13))


def test_parse_format_round_trip():
    for text in ("-YY", "IX", "I", "-ZIX", "XYZI"):
        assert format_pauli(parse_pauli(text)) == text
    assert parse_pauli("+I") == identity(1)
    p = parse_pauli("-YY")
    assert (p.x_bits, p.z_bits, p.phase) == (0b11, 0b11, 2)
    q = parse_pauli("IX")
    assert (q.x_bits, q.z_bits, q.phase) == (0b10, 0, 0)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pauli("XQ")
    with pytest.raises(ValueError):
        parse_pauli("-")
    with pytest.raises(ValueError):
        parse_pauli("")


def test_format_rejects_imaginary_phase():
    with pytest.raises(ValueError):
        format_pauli(PauliString(1, 1, 1, 1))


def letters_oracle(p: PauliString) -> str:
    """``format_pauli``'s reference: one letter per qubit, then the sign."""
    letters = "".join("IXZY"[(p.x_bits >> q & 1) | (p.z_bits >> q & 1) << 1] for q in range(p.n_qubits))
    return ("-" if p.phase == 2 else "") + letters


def test_format_pauli_matches_letter_oracle():
    """The nibble table agrees with the per-qubit letters on 0 to 20 qubits,
    widths that are not a multiple of 4 included, with either sign; odd
    phases are refused at every width."""
    rng = random.Random(7)
    for n in range(21):
        full = (1 << n) - 1
        cases = [(0, 0), (full, 0), (0, full), (full, full), (full, 0b0101 & full)]
        cases += [(rng.getrandbits(n) if n else 0, rng.getrandbits(n) if n else 0) for _ in range(40)]
        for x, z in cases:
            for phase in (0, 2):
                p = PauliString(n, x, z, phase)
                assert format_pauli(p) == letters_oracle(p), p
            for phase in (1, 3):
                with pytest.raises(ValueError):
                    format_pauli(PauliString(n, x, z, phase))


def test_transpose_flips_y():
    assert transpose(parse_pauli("Y")) == parse_pauli("-Y")
    assert transpose(parse_pauli("-YY")) == parse_pauli("-YY")
    p = parse_pauli("XZ")
    np.testing.assert_allclose(to_matrix(transpose(p)), to_matrix(p).T, atol=0)


@settings(max_examples=150)
@given(st.data())
def test_multiply_is_matrix_homomorphism(data):
    n = data.draw(st.integers(1, 3))
    p = random_string(data.draw, n)
    q = random_string(data.draw, n)
    np.testing.assert_allclose(
        to_matrix(multiply(p, q)), to_matrix(p) @ to_matrix(q), atol=1e-12
    )


@settings(max_examples=100)
@given(st.data())
def test_multiply_associative(data):
    n = data.draw(st.integers(1, 3))
    p, q, r = (random_string(data.draw, n) for _ in range(3))
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


@settings(max_examples=150)
@given(st.data())
def test_commutes_matches_matrix_commutator(data):
    n = data.draw(st.integers(1, 3))
    p = random_string(data.draw, n)
    q = random_string(data.draw, n)
    mp, mq = to_matrix(p), to_matrix(q)
    assert commutes(p, q) == np.allclose(mp @ mq - mq @ mp, 0, atol=1e-12)


@settings(max_examples=150)
@given(st.data())
def test_hermitian_group_commutator_is_signed_identity(data):
    n = data.draw(st.integers(1, 3))
    p = random_string(data.draw, n)
    q = random_string(data.draw, n)
    p = PauliString(n, p.x_bits, p.z_bits, p.phase & 2)
    q = PauliString(n, q.x_bits, q.z_bits, q.phase & 2)
    c = multiply(p, multiply(q, multiply(p, q)))
    assert c.x_bits == 0 and c.z_bits == 0
    assert c.phase in (0, 2)
    assert c.phase == (0 if commutes(p, q) else 2)
