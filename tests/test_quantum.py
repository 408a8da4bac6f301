import itertools

import numpy as np
import pytest
from helpers import enumerate_distribution, table_operator_solution, table_pauli_solution

from bcsmagic import bcs, game, pauli, quantum
from bcsmagic.bcs import mermin_peres, pauli_solve, verify_pauli_solution
from bcsmagic.game import build_game_bcs, enumerate_questions
from bcsmagic.pauli import parse_pauli, to_matrix
from bcsmagic.quantum import (
    OperatorSolution,
    classical_to_operator,
    complete_solution,
    correlation,
    make_rng,
    measure_batch,
    measure_commuting,
    operator_solution_from_json,
    pauli_to_operator,
    permutation_solution,
    phi_plus,
    play_round,
    play_rounds,
    verify_operator_solution,
)


# ---------------------------------------------------------------------------
# permutation solution
# ---------------------------------------------------------------------------

def test_generators_match_formulas():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    np.testing.assert_allclose(sol.assignment[g.a(1)], np.diag([-1] + [1] * 7), atol=0)
    x12 = np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]]
    np.testing.assert_allclose(sol.assignment[g.x(1, 2)], x12, atol=0)
    y78 = sol.assignment[g.y(7, 8)]
    np.testing.assert_allclose(y78, np.diag([1] * 6 + [-1, -1]), atol=0)


@pytest.mark.parametrize("n", (6, 8, 10))
def test_permutation_solution_verifies(n):
    g = build_game_bcs(n)
    sol = permutation_solution(g)
    assert sol.dim == n
    assert verify_operator_solution(g.bcs, sol, 1e-9).ok


def test_modified_game_solution_verifies():
    g = build_game_bcs(8, modified=True)
    sol = permutation_solution(g)
    assert verify_operator_solution(g.bcs, sol, 1e-9).ok


@pytest.mark.parametrize("n", (6, 8, 10))
def test_vertex_product_sign_law(n):
    g = build_game_bcs(n)
    sol = permutation_solution(g)
    prod = np.eye(n, dtype=complex)
    for v in range(1, n + 1):
        prod = prod @ sol.assignment[g.a(v)]
    np.testing.assert_allclose(prod, -np.eye(n), atol=0)


def test_table_n4_as_matrices_verifies():
    g = build_game_bcs(4)
    assert verify_operator_solution(g.bcs, table_operator_solution(g), 1e-9).ok
    assert verify_pauli_solution(g.bcs, table_pauli_solution(g)).ok


def test_negated_vertex_fails_product_row():
    g = build_game_bcs(6)
    sol = permutation_solution(g)
    sol.assignment[g.a(1)] = -sol.assignment[g.a(1)]
    report = verify_operator_solution(g.bcs, sol, 1e-9)
    assert not report.products_ok
    product_row = len(g.bcs.constraints) - 1
    bad_rows = [
        j for j, c in enumerate(g.bcs.constraints)
        if abs(np.max(np.abs(
            np.linalg.multi_dot([sol.assignment[v] for v in c.var_indices])
            - c.rhs * np.eye(6)))) > 1e-9
    ]
    assert product_row in bad_rows


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_complete_mermin_peres_from_free_rows():
    mp = mermin_peres()
    psol = pauli_solve(mp)
    partial = OperatorSolution(
        4, {v: to_matrix(psol.strings[v]) for v in (4, 5, 7, 8)}
    )
    full = complete_solution(mp, partial)
    assert verify_operator_solution(mp, full, 1e-9).ok


def test_completion_stuck_without_generators():
    g = build_game_bcs(4)
    n = g.n
    partial = OperatorSolution(
        n,
        {g.a(v): np.diag([1.0 + 0j if i != v - 1 else -1 for i in range(n)]) for v in range(1, n + 1)},
    )
    with pytest.raises(ValueError, match="stuck"):
        complete_solution(g.bcs, partial)


def test_completion_unknown_in_middle_position():
    from bcsmagic.bcs import Bcs, make_constraint

    b = Bcs(["p", "q", "r"], [make_constraint([0, 1, 2], -1)])
    p = to_matrix(parse_pauli("XZ"))
    r = to_matrix(parse_pauli("ZY"))
    full = complete_solution(b, OperatorSolution(4, {0: p, 2: r}))
    np.testing.assert_allclose(full.assignment[1], p @ (-1 * np.eye(4)) @ r, atol=1e-12)
    np.testing.assert_allclose(
        full.assignment[0] @ full.assignment[1] @ full.assignment[2], -np.eye(4), atol=1e-12
    )


def test_completion_rejects_mixed_dims():
    mp = mermin_peres()
    with pytest.raises(ValueError):
        complete_solution(mp, OperatorSolution(4, {4: np.eye(2, dtype=complex)}))


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_correlation_involution_self():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    for v in range(g.bcs.n_vars):
        assert correlation(sol.assignment[v], sol.assignment[v]) == pytest.approx(1.0, abs=1e-12)


def test_correlation_x_z_and_sign_flip():
    x = to_matrix(parse_pauli("X"))
    z = to_matrix(parse_pauli("Z"))
    assert correlation(x, z) == pytest.approx(0.0, abs=1e-12)
    assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        correlation(x, np.eye(4))


def test_correlation_trace_linearity():
    rng = make_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))
    c = rng.normal(size=(6, 6))
    assert correlation(a, b + c) == pytest.approx(correlation(a, b) + correlation(a, c), abs=1e-12)
    assert correlation(a, b.T.T) == pytest.approx(correlation(a, b), abs=1e-15)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_reflection_probability_eighth():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    dist = enumerate_distribution(phi_plus(8), [("A", sol.assignment[g.a(1)])])
    assert dist[(-1,)] == pytest.approx(1 / 8, abs=1e-12)
    assert dist[(1,)] == pytest.approx(7 / 8, abs=1e-12)


def test_measure_repeatability():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    rng = make_rng(11)
    for _ in range(50):
        state = phi_plus(8)
        obs = sol.assignment[g.x(2, 5)]
        first, state = measure_commuting(state, "A", [obs], rng)
        second, state = measure_commuting(state, "A", [obs], rng)
        assert first == second


def test_alice_bob_transpose_always_agree():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    rng = make_rng(13)
    for name in (g.a(3), g.x(1, 4), g.z(2, 6)):
        obs = sol.assignment[name]
        for _ in range(40):
            state = phi_plus(8)
            a_out, state = measure_commuting(state, "A", [obs], rng)
            b_out, state = measure_commuting(state, "B", [obs.T], rng)
            assert a_out == b_out


def test_measurement_order_invariance():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    c = g.bcs.constraints[0]
    obs = [sol.assignment[v] for v in c.var_indices]
    base = enumerate_distribution(phi_plus(8), [("A", o) for o in obs])
    perm = [2, 0, 1]
    reordered = enumerate_distribution(phi_plus(8), [("A", obs[p]) for p in perm])
    remapped = {}
    for outcome, prob in reordered.items():
        orig = tuple(outcome[perm.index(i)] for i in range(3))
        remapped[orig] = remapped.get(orig, 0.0) + prob
    assert set(base) == set(remapped)
    for key in base:
        assert base[key] == pytest.approx(remapped[key], abs=1e-12)


def test_noncommuting_rejected():
    x = to_matrix(parse_pauli("X"))
    z = to_matrix(parse_pauli("Z"))
    with pytest.raises(ValueError, match="commute"):
        measure_commuting(phi_plus(2), "A", [x, z], make_rng(0))


def test_worst_commutators_equal_a_pair_loop(monkeypatch):
    """The batched commutator of every group against a loop over its pairs,
    across block boundaries; the diagonal operators 5..8 commute exactly."""
    gen = np.random.default_rng(3)
    ops = gen.normal(size=(9, 4, 4)) + 1j * gen.normal(size=(9, 4, 4))
    ops[5:] = [np.diag(d) for d in gen.normal(size=(4, 4))]
    groups = [range(9), (1, 3, 5), (5, 6, 7, 8), (2,), ()]
    expected = [
        max((np.abs(ops[a] @ ops[b] - ops[b] @ ops[a]).max() for a, b in itertools.combinations(g, 2)),
            default=0.0)
        for g in groups
    ]
    monkeypatch.setattr(quantum, "CHUNK", 5)
    worst = quantum._worst_commutators(ops, groups)
    np.testing.assert_allclose(worst, expected, rtol=0, atol=1e-12)
    assert worst[2] == 0 and worst[0] > 1


# Uniforms that force a step onto its +1 branch (0) or its -1 branch (the
# largest double below 1), whenever that branch is possible.
_FORCE = (0.0, 1 - 2.0 ** -53)


def _forced_distribution(amplitudes, plan):
    """Every outcome tuple ``measure_batch`` reaches by forcing each step
    onto each branch, with the product of the chosen branches' weights.

    A step that collapses M to M' keeps weight |<M', M>|^2, read off the
    engine's own states; a forced branch the engine rejects as having zero
    probability is skipped.
    """
    dist = {}

    def recurse(m, prefix, weight):
        if len(prefix) == len(plan):
            dist[prefix] = weight
            return
        side, obs = plan[len(prefix)]
        reached = set()
        for u in _FORCE:
            try:
                out, after = measure_batch(m[None], [(side, obs[None])], [[u]])
            except bcs.InvariantError:
                continue
            outcome = int(out[0, 0])
            if outcome not in reached:
                reached.add(outcome)
                recurse(after[0], prefix + (outcome,), weight * abs(np.vdot(after[0], m)) ** 2)

    recurse(amplitudes, (), 1.0)
    return dist


@pytest.mark.parametrize("n,strategy", [
    (4, "permutation"), (4, "pauli_table"), (8, "permutation"),
])
def test_measure_batch_matches_branch_enumeration(n, strategy):
    """Every constraint and every member beta: the forced outcome tuples and
    their weights equal the exact distribution, and no zero-probability
    tuple is ever produced."""
    g = build_game_bcs(n)
    sol = permutation_solution(g) if strategy == "permutation" else table_operator_solution(g)
    phi = phi_plus(sol.dim)
    for c in g.bcs.constraints:
        alice = [("A", sol.assignment[v]) for v in c.var_indices]
        for beta in c.var_indices:
            plan = alice + [("B", sol.assignment[beta].T)]
            expected = enumerate_distribution(phi, plan)
            forced = _forced_distribution(phi.amplitudes, plan)
            assert set(forced) == set(expected)
            for outcome, p in expected.items():
                assert abs(forced[outcome] - p) <= 1e-12


def test_measure_batch_rejects_a_zero_probability_branch_in_any_row():
    z = to_matrix(parse_pauli("Z"))
    stack = np.stack([phi_plus(2).amplitudes] * 3)
    steps = [("A", np.stack([z] * 3)), ("B", np.stack([z] * 3))]
    # Alice's Z fixes Bob's; a uniform above every probability makes row 1
    # take the opposite, impossible outcome.
    uniforms = [[0.0, 0.0], [0.0, 1.5], [_FORCE[1], 0.0]]
    with pytest.raises(bcs.InvariantError, match="zero-probability"):
        measure_batch(stack, steps, uniforms)
    # Uniform 0 on a +1 branch of probability exactly 0 takes the -1 branch.
    outcomes, _ = measure_batch(stack, steps, [uniforms[0], uniforms[0], uniforms[2]])
    assert outcomes.tolist() == [[1, 1], [1, 1], [-1, -1]]


def test_measure_batch_identity_steps_are_no_ops():
    g = build_game_bcs(8)
    obs = permutation_solution(g).assignment[g.x(1, 2)]
    eye = np.eye(8, dtype=complex)
    plain, plain_state = measure_batch(phi_plus(8).amplitudes[None], [("A", obs[None])], [[0.3]])
    padded, padded_state = measure_batch(
        phi_plus(8).amplitudes[None], [("A", obs[None]), ("A", eye[None]), ("B", eye[None])],
        [[0.3, 0.0, 0.0]],
    )
    assert padded.tolist() == [[plain[0, 0], 1, 1]]
    np.testing.assert_allclose(padded_state, plain_state, atol=1e-15)


def test_measure_batch_needs_one_uniform_per_step():
    x = to_matrix(parse_pauli("X"))
    with pytest.raises(ValueError, match="uniforms"):
        measure_batch(phi_plus(2).amplitudes[None], [("A", x[None])], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="side"):
        measure_batch(phi_plus(2).amplitudes[None], [("C", x[None])], [[0.1]])


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------

def test_play_round_perfect_n8():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    rng = make_rng(2024)
    pairs = enumerate_questions(g).pairs
    for _ in range(300):
        q = pairs[int(rng.integers(len(pairs)))]
        assert play_round(g, sol, q, rng).won


def test_play_round_classical_embedding_odd_n():
    g = build_game_bcs(5)
    sol = classical_to_operator(bcs.classical_solve(g.bcs))
    rng = make_rng(77)
    pairs = enumerate_questions(g).pairs
    for _ in range(200):
        q = pairs[int(rng.integers(len(pairs)))]
        assert play_round(g, sol, q, rng).won


def test_play_round_flipped_operator_loses():
    g = build_game_bcs(6)
    sol = permutation_solution(g)
    sol.assignment[g.a(2)] = -sol.assignment[g.a(2)]
    rng = make_rng(5)
    product_row = len(g.bcs.constraints) - 1
    results = [
        play_round(g, sol, (product_row, g.a(1)), rng).won for _ in range(20)
    ]
    assert not any(results)


def test_play_round_rejects_foreign_variable():
    g = build_game_bcs(4)
    sol = permutation_solution(g)
    with pytest.raises(ValueError):
        play_round(g, sol, (0, g.bcs.n_vars - 1), make_rng(0))


def _conjugated(sol, seed):
    """The strategy U A U^dagger for a random unitary U: still perfect, and
    no longer made of symmetric matrices, so Bob's transpose matters."""
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.normal(size=(sol.dim, sol.dim)) + 1j * gen.normal(size=(sol.dim, sol.dim)))
    return OperatorSolution(sol.dim, {v: u @ m @ u.conj().T for v, m in sol.assignment.items()})


def test_strategy_stack_matches_one_trial_measurements():
    """Random states and a batch mixing the width-8 product constraint with
    width-3 ones: every row equals measure_commuting on Alice's observables,
    then on Bob's transpose, with the same generator, padded with +1."""
    g = build_game_bcs(8)
    sol = _conjugated(permutation_solution(g), 5)
    gen = np.random.default_rng(6)
    pairs = enumerate_questions(g).pairs
    product_row = len(g.bcs.constraints) - 1
    questions = [pairs[i] for i in gen.integers(len(pairs), size=30)]
    questions += [(product_row, v) for v in g.bcs.constraints[product_row].var_indices[:3]]
    states = gen.normal(size=(len(questions), 8, 8)) + 1j * gen.normal(size=(len(questions), 8, 8))
    states /= np.linalg.norm(states, axis=(1, 2))[:, None, None]
    stack = quantum.StrategyStack(g.bcs, sol)
    draws = [stack.draw(alpha, make_rng(100 + t)) for t, (alpha, _) in enumerate(questions)]
    rows = stack.measure(states, questions, draws)
    for t, ((alpha, beta), row) in enumerate(zip(questions, rows)):
        rng = make_rng(100 + t)
        members = g.bcs.constraints[alpha].var_indices
        alice = [sol.assignment[v] for v in members]
        a_out, state = measure_commuting(quantum.SharedState(states[t].copy()), "A", alice, rng)
        b_out, _ = measure_commuting(state, "B", [sol.assignment[beta].T], rng)
        assert row == a_out + [1] * (8 - len(members)) + b_out


@pytest.mark.parametrize("n,conjugate", [(8, False), (8, True), (4, True), (5, False)])
def test_play_rounds_equal_a_loop_of_play_round(n, conjugate, monkeypatch):
    """One shared generator: the batched rounds draw and measure exactly as
    a loop of play_round calls, across several batch boundaries."""
    g = build_game_bcs(n)
    sol = (classical_to_operator(bcs.classical_solve(g.bcs)) if n % 2
           else permutation_solution(g))
    if conjugate:
        sol = _conjugated(sol, n)
    pairs = enumerate_questions(g).pairs
    rng = make_rng(90 + n)
    expected = [play_round(g, sol, pairs[int(rng.integers(len(pairs)))], rng) for _ in range(300)]
    monkeypatch.setattr(quantum, "CHUNK", 37)
    batched = list(play_rounds(g, sol, itertools.repeat(make_rng(90 + n), 300)))
    assert batched == expected
    assert all(r.won for r in batched)


def test_play_rounds_check_commutation_once_per_constraint():
    g = build_game_bcs(4)
    sol = permutation_solution(g)
    c = g.bcs.constraints[0]
    sol.assignment[c.var_indices[0]] = to_matrix(parse_pauli("XI"))
    sol.assignment[c.var_indices[1]] = to_matrix(parse_pauli("ZI"))
    with pytest.raises(ValueError, match="commute"):
        list(play_rounds(g, sol, (make_rng(t) for t in range(200))))
    # Checked when the stack is built, before any round draws the constraint.
    with pytest.raises(ValueError, match="constraint 0 do not commute"):
        quantum.StrategyStack(g.bcs, sol)
    with pytest.raises(ValueError, match="commute"):
        list(play_rounds(g, sol, []))
    report = quantum.verify_operator_solution(g.bcs, sol)
    assert (report.worst_commutator, report.failing_constraint) == (2.0, 0)
    assert not report.commutation_ok


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_table_strategy_is_perfect():
    g = build_game_bcs(4)
    psol = table_pauli_solution(g)
    alice = {
        alpha: {v: psol.strings[v] for v in c.var_indices}
        for alpha, c in enumerate(g.bcs.constraints)
    }
    bob = {v: pauli.transpose(psol.strings[v]) for v in range(g.bcs.n_vars)}
    audit = quantum.audit_clifford_strategy(g, alice, bob)
    assert audit.min_pair == 1.0
    assert audit.avg_win == 1.0
    assert not audit.invalid_constraints


def _per_constraint_strategy(g):
    """Constraint-local identities: always satisfies its row, never coordinated."""
    alice = {}
    for alpha, c in enumerate(g.bcs.constraints):
        obs = {v: pauli.identity(1) for v in c.var_indices}
        last = c.var_indices[-1]
        if c.rhs == -1:
            obs[last] = parse_pauli("-I")
        alice[alpha] = obs
    return alice


def test_audit_magic_game_pauli_strategies_capped():
    g = build_game_bcs(8)
    alice = _per_constraint_strategy(g)
    bob = {v: pauli.identity(1) for v in range(g.bcs.n_vars)}
    audit = quantum.audit_clifford_strategy(g, alice, bob)
    assert not audit.invalid_constraints
    assert audit.min_pair <= 0.5
    assert set(audit.pair_agreements.values()) <= {0.0, 0.5, 1.0}
    assert audit.avg_win < 1.0

    bob_x = {v: parse_pauli("X") for v in range(g.bcs.n_vars)}
    audit_x = quantum.audit_clifford_strategy(g, alice, bob_x)
    assert audit_x.min_pair <= 0.5


def test_audit_rejects_mixed_qubit_counts():
    g = build_game_bcs(4)
    alice = _per_constraint_strategy(g)
    bob = {v: pauli.identity(2) for v in range(g.bcs.n_vars)}
    with pytest.raises(ValueError):
        quantum.audit_clifford_strategy(g, alice, bob)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_operator_solution_json_round_trip():
    g = build_game_bcs(4)
    sol = permutation_solution(g)
    text = sol.to_json(g.bcs)
    back = operator_solution_from_json(g.bcs, text)
    assert back.dim == sol.dim
    for v in sol.assignment:
        np.testing.assert_allclose(back.assignment[v], sol.assignment[v], atol=0)


def test_pauli_lift_round_trip():
    mp = mermin_peres()
    lifted = pauli_to_operator(pauli_solve(mp))
    assert lifted.dim == 4
    assert verify_operator_solution(mp, lifted, 1e-9).ok
