import random

import gf2_oracle
import pytest
from helpers import assert_record_contract, gf2_evaluate, gf2_system
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsmagic import gf2
from bcsmagic.bcs import incidence_system
from bcsmagic.game import build_game_bcs
from bcsmagic.gf2 import Gf2Matrix, Gf2System, Inconsistency, ReducedSystem


def brute_force(rows, rhs, n_cols):
    """Enumerate all assignments; return one satisfying vector or None."""
    for bits in range(1 << n_cols):
        ok = all(((row & bits).bit_count() & 1) == b for row, b in zip(rows, rhs))
        if ok:
            return [(bits >> j) & 1 for j in range(n_cols)]
    return None


def free_cols(system):
    pivots = gf2.row_reduce(system).pivot_cols
    return [c for c in range(system.matrix.cols) if c not in pivots]


def test_one_by_one_identity():
    sys1 = gf2_system([[1]], [1])
    red = gf2.row_reduce(sys1)
    assert red.pivot_cols == [0]
    assert gf2.solve(sys1) == [1]


def test_three_rows_consistent_rank_two():
    # x0+x1=1, x1+x2=0, x0+x2=1: rank 2, one free column.
    sys3 = gf2_system([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 0, 1])
    red = gf2.row_reduce(sys3)
    assert red.pivot_cols == [0, 1]
    sol = gf2.solve(sys3)
    assert isinstance(sol, list)
    assert free_cols(sys3) == [2]
    assert sol[2] == 0
    assert gf2_evaluate(sys3, sol) == sys3.rhs
    assert brute_force(sys3.matrix.bits, sys3.rhs, 3) is not None


def test_contradictory_duplicate():
    sysc = gf2_system([[1, 0], [1, 0]], [1, 0])
    out = gf2.solve(sysc)
    assert isinstance(out, Inconsistency)
    assert out.rows == frozenset({0, 1})


def test_matrix_rejects_rows_outside_the_columns():
    gf2.Gf2Matrix(2, 3, [0b111, 0])
    for bits in ([0b1000], [0b1, -1], [-8]):
        with pytest.raises(ValueError, match="outside the column range"):
            gf2.Gf2Matrix(len(bits), 3, bits)


def test_gf2_records():
    matrix = Gf2Matrix(2, 3, [0b101, 0b010])
    assert_record_contract(Gf2Matrix, (2, 3, [0b101, 0b010]), ("rows", "cols", "bits"))
    system = Gf2System(matrix, [1, 0], [0b11, 0b10])
    assert_record_contract(Gf2System, (matrix, [1, 0], [0b11, 0b10]), ("matrix", "rhs", "provenance"))
    assert_record_contract(ReducedSystem, (system, [0, 1]), ("system", "pivot_cols"))
    assert_record_contract(Inconsistency, (frozenset({0, 1}),), ("rows",))


def test_gf2_records_check_on_every_construction():
    """Direct construction, ``_make`` and ``_replace`` all check the row
    count, the column range and the rhs and provenance lengths, and give
    untouched rows their own index as provenance."""
    matrix = Gf2Matrix(2, 3, [0b101, 0b010])
    assert Gf2System(matrix, [1, 0]).provenance == [0b01, 0b10]
    assert Gf2System(matrix, [1, 0], []).provenance == [0b01, 0b10]
    system = Gf2System(matrix, [1, 0], [0b11, 0b10])
    assert system._replace(provenance=[]).provenance == [0b01, 0b10]
    rejected = {
        "row count does not match": [lambda: Gf2Matrix(3, 3, [1, 2]), lambda: matrix._replace(rows=1),
                                      lambda: Gf2Matrix._make((1, 3, [1, 2]))],
        "outside the column range": [lambda: matrix._replace(cols=2), lambda: matrix._replace(bits=[1, -1])],
        "rhs length": [lambda: Gf2System(matrix, [1]), lambda: system._replace(rhs=[0, 1, 1]),
                       lambda: Gf2System._make((matrix, [], [1, 2]))],
        "provenance length": [lambda: Gf2System(matrix, [1, 0], [1]), lambda: system._replace(provenance=[1])],
    }
    for message, builds in rejected.items():
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()


def test_empty_system_all_free():
    empty = gf2_system([], [], cols=2)
    assert gf2.solve(empty) == [0, 0]
    assert free_cols(empty) == [0, 1]


def test_single_equation_free_default():
    sys1 = gf2_system([[1, 1]], [1])
    assert gf2.solve(sys1) == [1, 0]
    assert free_cols(sys1) == [1]


def test_mermin_peres_classical_inconsistent():
    rows = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 1],
    ]
    rhs = [0, 0, 0, 0, 0, 1]
    out = gf2.solve(gf2_system(rows, rhs))
    assert isinstance(out, Inconsistency)
    # Certificate check: cited rows XOR to zero with rhs parity 1.
    acc_row = 0
    acc_rhs = 0
    for i in out.rows:
        acc_row ^= sum(v << j for j, v in enumerate(rows[i]))
        acc_rhs ^= rhs[i]
    assert acc_row == 0 and acc_rhs == 1


def test_provenance_invariant_after_reduction():
    rng = random.Random(7)
    for _ in range(50):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        rhs = [rng.randint(0, 1) for _ in range(n_rows)]
        system = Gf2System(gf2.Gf2Matrix(n_rows, n_cols, rows), rhs)
        red = gf2.row_reduce(system)
        for i in range(n_rows):
            acc_row = acc_rhs = 0
            for j in range(n_rows):
                if (red.system.provenance[i] >> j) & 1:
                    acc_row ^= rows[j]
                    acc_rhs ^= rhs[j]
            assert acc_row == red.system.matrix.bits[i]
            assert acc_rhs == red.system.rhs[i]


def test_row_reduce_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n_cols)] for _ in range(n_rows)]
        rhs = [rng.randint(0, 1) for _ in range(n_rows)]
        once = gf2.row_reduce(gf2_system(rows, rhs))
        twice = gf2.row_reduce(once.system)
        assert once.system.matrix.bits == twice.system.matrix.bits
        assert once.system.rhs == twice.system.rhs
        assert once.pivot_cols == twice.pivot_cols


@settings(max_examples=200)
@given(st.data())
def test_solve_matches_enumeration(data):
    n_cols = data.draw(st.integers(1, 6))
    n_rows = data.draw(st.integers(0, 8))
    rows = [data.draw(st.integers(0, (1 << n_cols) - 1)) for _ in range(n_rows)]
    rhs = [data.draw(st.integers(0, 1)) for _ in range(n_rows)]
    system = Gf2System(gf2.Gf2Matrix(n_rows, n_cols, rows), rhs)

    out = gf2.solve(system)
    witness = brute_force(rows, rhs, n_cols)
    if isinstance(out, list):
        assert witness is not None
        assert gf2_evaluate(system, out) == rhs
    else:
        assert witness is None
        acc_row = acc_rhs = 0
        for i in out.rows:
            acc_row ^= rows[i]
            acc_rhs ^= rhs[i]
        assert acc_row == 0 and acc_rhs == 1


def assert_matches_oracle(system):
    """The RREF invariants agree with Gauss-Jordan; provenance replays."""
    red, ref = gf2.row_reduce(system), gf2_oracle.row_reduce(system)
    rank = len(ref.pivot_cols)
    bits, rhs, prov = red.system.matrix.bits, red.system.rhs, red.system.provenance
    assert red.pivot_cols == ref.pivot_cols
    assert bits[:rank] == ref.system.matrix.bits[:rank]
    consistent = not any(ref.system.rhs[rank:])
    assert consistent == (not any(rhs[rank:]))
    if consistent:
        assert rhs[:rank] == ref.system.rhs[:rank]
    assert len(bits) == system.matrix.rows and not any(bits[rank:])
    for i in range(system.matrix.rows):
        acc_row = acc_rhs = 0
        for j in gf2.set_bits(prov[i]):
            acc_row ^= system.matrix.bits[j]
            acc_rhs ^= system.rhs[j]
        assert (acc_row, acc_rhs) == (bits[i], rhs[i])


@settings(max_examples=300)
@given(st.data())
def test_row_reduce_matches_gauss_jordan_oracle(data):
    n_cols = data.draw(st.integers(0, 12))
    n_rows = data.draw(st.integers(0, 12))
    rows = [data.draw(st.integers(0, (1 << n_cols) - 1)) for _ in range(n_rows)]
    rhs = [data.draw(st.integers(0, 1)) for _ in range(n_rows)]
    assert_matches_oracle(Gf2System(gf2.Gf2Matrix(n_rows, n_cols, rows), rhs))


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("modified", [False, True])
def test_row_reduce_matches_gauss_jordan_oracle_on_games(n, modified):
    assert_matches_oracle(incidence_system(build_game_bcs(n, modified=modified).bcs))
