import json

import game_oracle
import pytest
from helpers import check_classical_assignment

from bcsmagic import bcs
from bcsmagic.cli import main
from bcsmagic.game import (
    GameClass,
    build_game_bcs,
    classify,
    clifford_bound,
    count_questions,
    enumerate_questions,
)


def test_counts_n4():
    g = build_game_bcs(4)
    assert g.bcs.n_vars == 31
    assert len(g.bcs.constraints) == 27
    counts = count_questions(4)
    assert counts.alice == 27
    assert counts.bob == 31


def test_counts_n8():
    g = build_game_bcs(8)
    assert g.bcs.n_vars == 722
    assert len(g.bcs.constraints) == 1037
    counts = count_questions(8)
    assert (counts.alice, counts.bob, counts.modified_alice) == (1037, 722, 1042)


def test_modified_counts_n8():
    g = build_game_bcs(8, modified=True)
    assert len(g.bcs.constraints) == 1042
    assert g.bcs.n_vars == 722 + 5


@pytest.mark.parametrize("n", range(4, 13))
def test_closed_forms_match_enumeration(n):
    g = build_game_bcs(n)
    counts = count_questions(n)
    assert len(g.bcs.constraints) == counts.alice
    assert g.bcs.n_vars == counts.bob
    gm = build_game_bcs(n, modified=True)
    assert len(gm.bcs.constraints) == counts.modified_alice


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("n", range(4, 11))
def test_offset_builder_equals_name_lookup_oracle(n, modified):
    """Offsets give the variables, constraints and index that formatting and
    looking up every member's name gives, as plain ints."""
    g, oracle = build_game_bcs(n, modified), game_oracle.build_game_bcs(n, modified)
    assert g.bcs.variables == oracle.bcs.variables
    assert ([(c.var_indices, c.rhs, c.support) for c in g.bcs.constraints]
            == [(c.var_indices, c.rhs, c.support) for c in oracle.bcs.constraints])
    assert {type(v) for c in g.bcs.constraints for v in c.var_indices} == {int}
    assert g.var_index == oracle.var_index
    assert bcs.serialize_bcs(g.bcs) == bcs.serialize_bcs(oracle.bcs)


def test_gen_writes_the_oracle_bytes(tmp_path):
    out = tmp_path / "m8.bcs"
    assert main(["gen", "--n", "8", "--modified", "--out", str(out)]) == 0
    oracle = game_oracle.build_game_bcs(8, modified=True)
    assert out.read_bytes() == bcs.serialize_bcs(oracle.bcs).encode()
    names = {"n": 8, "modified": True, "variables": oracle.var_index}
    assert (tmp_path / "m8.bcs.names.json").read_bytes() == (json.dumps(names, indent=1) + "\n").encode()


def test_structure_invariants():
    g = build_game_bcs(6)
    sizes = sorted(len(c.var_indices) for c in g.bcs.constraints)
    assert sizes[-1] == 6 and sizes[-2] == 3  # one product constraint, rest triples
    assert sum(1 for c in g.bcs.constraints if c.rhs == -1) == 1
    gm = build_game_bcs(6, modified=True)
    assert all(len(c.var_indices) == 3 for c in gm.bcs.constraints)
    assert sum(1 for c in gm.bcs.constraints if c.rhs == -1) == 1


def test_variable_symmetries():
    """One b variable per unordered pair of disjoint edges, two c variables
    per pair (one per order), and every edge named with its ends ascending."""
    g = build_game_bcs(5)
    index = g.var_index
    assert "b1_2|3_4" in index and "b3_4|1_2" not in index
    assert index["c1_2|3_4"] != index["c3_4|1_2"]
    assert not {"b2_1|4_3", "c2_1|4_3", "x2_1"} & index.keys()
    assert g.x(2, 1) == g.x(1, 2)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_game_bcs(3)
    with pytest.raises(ValueError):
        count_questions(3)
    with pytest.raises(ValueError):
        classify(2)


def test_clifford_bound_values():
    assert clifford_bound(8) == 1 - 1 / 6252
    assert clifford_bound(6) == 1 - 1 / 1464  # |Q^A| = 2*15 + 14*15 + 4 = 244
    assert clifford_bound(10) == 1 - 1 / 18228
    for n in (4, 5, 7):
        with pytest.raises(ValueError):
            clifford_bound(n)


def test_classify_values():
    assert classify(4) is GameClass.CLIFFORD_ONLY
    assert classify(5) is GameClass.CLASSICAL
    assert classify(7) is GameClass.CLASSICAL
    assert classify(6) is GameClass.MAGIC_REQUIRED
    assert classify(8) is GameClass.MAGIC_REQUIRED


@pytest.mark.parametrize("n", range(4, 9))
def test_classify_agrees_with_solvers(n):
    g = build_game_bcs(n)
    classical = bcs.classical_solve(g.bcs)
    operator = bcs.pauli_solve(g.bcs)
    label = classify(n)
    if label is GameClass.CLASSICAL:
        assert isinstance(classical, list)
        assert check_classical_assignment(g.bcs, classical)
        assert isinstance(operator, bcs.PauliSolution)
    elif label is GameClass.CLIFFORD_ONLY:
        assert isinstance(classical, bcs.Certificate)
        assert isinstance(operator, bcs.PauliSolution)
    else:
        assert isinstance(classical, bcs.Certificate)
        assert isinstance(operator, bcs.Certificate)
        assert bcs.verify_certificate(g.bcs, operator)


def test_odd_n_all_minus_a_assignment_satisfies():
    g = build_game_bcs(5)
    signs = [1] * g.bcs.n_vars
    for v in range(1, 6):
        signs[g.a(v)] = -1
    assert check_classical_assignment(g.bcs, signs)


def test_question_space_sizes():
    gm = build_game_bcs(8, modified=True)
    assert len(enumerate_questions(gm)) == 3 * 1042 == 3126
    g4 = build_game_bcs(4)
    assert len(enumerate_questions(g4)) == 26 * 3 + 4 == 82


def test_question_pairs_are_members():
    g = build_game_bcs(5)
    for alpha, beta in enumerate_questions(g):
        assert beta in g.bcs.constraints[alpha].var_indices
