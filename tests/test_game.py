import pytest
from helpers import check_classical_assignment

from bcsmagic import bcs, game
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


def test_structure_invariants():
    g = build_game_bcs(6)
    sizes = sorted(len(c.var_indices) for c in g.bcs.constraints)
    assert sizes[-1] == 6 and sizes[-2] == 3  # one product constraint, rest triples
    assert sum(1 for c in g.bcs.constraints if c.rhs == -1) == 1
    gm = build_game_bcs(6, modified=True)
    assert all(len(c.var_indices) == 3 for c in gm.bcs.constraints)
    assert sum(1 for c in gm.bcs.constraints if c.rhs == -1) == 1


def test_variable_symmetries():
    g = build_game_bcs(5)
    assert g.b((1, 2), (3, 4)) == g.b((3, 4), (1, 2))
    assert g.b((2, 1), (4, 3)) == g.b((1, 2), (3, 4))
    assert g.c((1, 2), (3, 4)) == g.c((2, 1), (4, 3))
    assert g.c((1, 2), (3, 4)) != g.c((3, 4), (1, 2))
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
