import itertools
import random
import re

import numpy as np
import operator_oracle
import pauli_report_oracle
import pytest
import stream_oracle
from helpers import (enumerate_distribution, philox_rng, split_variable, table_operator_solution,
                     table_pauli_solution)
from pauli_report_oracle import identity, transpose
from trial_oracle import RoundResult, measure_commuting, play_round, rows, wins

from bcsmagic import bcs, pauli, quantum
from bcsmagic.bcs import mermin_peres, pauli_solve, verify_pauli_solution
from bcsmagic.game import build_game_bcs, enumerate_questions
from bcsmagic.pauli import parse_pauli, to_matrix
from bcsmagic.quantum import (
    classical_to_operator,
    complete_solution,
    correlation,
    measure_batch,
    pauli_to_operator,
    permutation_solution,
    phi_plus,
    play_rounds,
    verify_operator_solution,
)


# ---------------------------------------------------------------------------
# permutation solution
# ---------------------------------------------------------------------------

def test_generators_match_formulas():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    np.testing.assert_allclose(sol[g.a(1)], np.diag([-1] + [1] * 7), atol=0)
    x12 = np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]]
    np.testing.assert_allclose(sol[g.x(1, 2)], x12, atol=0)
    y78 = sol[g.var_index["y7_8"]]
    np.testing.assert_allclose(y78, np.diag([1] * 6 + [-1, -1]), atol=0)


@pytest.mark.parametrize("n", (6, 8, 10))
def test_permutation_solution_verifies(n):
    g = build_game_bcs(n)
    sol = permutation_solution(g)
    assert sol.shape[-1] == n
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
        prod = prod @ sol[g.a(v)]
    np.testing.assert_allclose(prod, -np.eye(n), atol=0)


def test_table_n4_as_matrices_verifies():
    g = build_game_bcs(4)
    assert verify_operator_solution(g.bcs, table_operator_solution(g), 1e-9).ok
    assert verify_pauli_solution(g.bcs, table_pauli_solution(g)).ok


def test_negated_vertex_fails_product_row():
    g = build_game_bcs(6)
    sol = permutation_solution(g)
    sol[g.a(1)] = -sol[g.a(1)]
    report = verify_operator_solution(g.bcs, sol, 1e-9)
    assert not report.products_ok
    product_row = len(g.bcs.constraints) - 1
    bad_rows = [
        j for j, c in enumerate(g.bcs.constraints)
        if abs(np.max(np.abs(
            np.linalg.multi_dot([sol[v] for v in c.var_indices])
            - c.rhs * np.eye(6)))) > 1e-9
    ]
    assert product_row in bad_rows


def _reflections_and_swaps(dim):
    """Every basis reflection and basis swap of dimension ``dim``: real
    Hermitian involutions with small integer entries."""
    for k in range(dim):
        m = np.eye(dim)
        m[k, k] = -1
        yield m
    for k, l in itertools.combinations(range(dim), 2):
        m = np.eye(dim)
        m[[k, l]] = m[[l, k]]
        yield m


def _corrupted(strategy, n, fault, seed):
    """A perfect strategy of the n-vertex game with one kind of fault
    planted at seeded places, and the system to check it against."""
    g = build_game_bcs(n)
    system = g.bcs
    sol = permutation_solution(g) if strategy == "permutation" else table_operator_solution(g)
    rng = random.Random(seed)
    v = rng.randrange(system.n_vars)
    if fault == "hermitian":
        sol[v, 0, -1] += 0.5
    elif fault == "involution":
        sol[v] *= 2
    elif fault == "commutation":
        c = rng.choice([c for c in system.constraints if len(c.var_indices) >= 2])
        other = sol[c.var_indices[1]]
        sol[c.var_indices[0]] = next(
            m for m in _reflections_and_swaps(sol.shape[-1]) if np.abs(m @ other - other @ m).max() > 0)
    else:  # two constraint signs flipped
        flipped = rng.sample(range(len(system.constraints)), 2)
        system = bcs.Bcs(system.variables, [
            bcs.Constraint(c.var_indices, -c.rhs if j in flipped else c.rhs, c.support)
            for j, c in enumerate(system.constraints)])
    return system, sol


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("fault", ("hermitian", "involution", "commutation", "sign"))
@pytest.mark.parametrize("strategy,n", [("permutation", 4), ("permutation", 6), ("table", 4)])
def test_batched_verification_equals_loop_oracle(strategy, n, fault, seed):
    """Every report field of the batched check, failing_constraint included,
    equals the one-at-a-time loop's on a corrupted real or complex strategy."""
    system, sol = _corrupted(strategy, n, fault, seed)
    report = verify_operator_solution(system, sol, 1e-9)
    assert vars(report) == vars(operator_oracle.verify_operator_solution(system, sol, 1e-9))
    assert not report.ok and report.failing_constraint is not None
    # A stack reports from its commutation check; a stack rejects non-commuting observables.
    if not report.commutation_ok:
        with pytest.raises(ValueError, match="do not commute"):
            quantum.StrategyStack(system, sol)
    else:
        assert vars(quantum.StrategyStack(system, sol).report) == vars(report)
    failed = {"hermitian": report.worst_hermitian, "involution": report.worst_involution,
              "commutation": report.worst_commutator, "sign": report.worst_product}
    assert failed[fault] > 1e-9
    if fault == "sign":
        assert report.hermitian_ok and report.commutation_ok
        flipped = [j for j, (a, b) in enumerate(zip(system.constraints, build_game_bcs(n).bcs.constraints))
                   if a.rhs != b.rhs]
        assert report.failing_constraint == flipped[0]


@pytest.mark.parametrize("seed", range(6))
def test_batched_verification_equals_loop_oracle_on_random_matrices(seed):
    """On unstructured real and complex matrices, where every check fails
    and product order matters, the reports still agree field for field."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    dim = rng.choice((2, 3, 5, 8))
    constraints = [bcs.make_constraint(rng.sample(range(7), rng.randint(1, 4)), rng.choice((1, -1)))
                   for _ in range(6)]
    system = bcs.Bcs([f"v{i}" for i in range(7)], constraints)
    mats = gen.normal(size=(7, dim, dim)) + (1j * gen.normal(size=(7, dim, dim)) if seed % 2 else 0)
    report = verify_operator_solution(system, mats)
    assert vars(report) == vars(operator_oracle.verify_operator_solution(system, mats))
    assert report.failing_constraint == 0


def test_cancelled_support_variables_must_commute():
    """A variable that cancels out of a constraint's product still belongs
    to its support: the report and the stack both check its commutators."""
    system = bcs.Bcs(["a", "b"], [bcs.make_constraint([0, 1, 1], 1)])
    sol = np.array([to_matrix(parse_pauli("X")), to_matrix(parse_pauli("Z"))])
    report = verify_operator_solution(system, sol)
    assert vars(report) == vars(operator_oracle.verify_operator_solution(system, sol))
    assert (report.worst_commutator, report.failing_constraint) == (2.0, 0)
    with pytest.raises(ValueError, match="constraint 0 do not commute"):
        quantum.StrategyStack(system, sol)


def test_verify_empty_system_is_ok():
    empty = bcs.parse_bcs("vars:\n")
    sol = np.empty((0, 2, 2))
    report = verify_operator_solution(empty, sol)
    assert report.ok and report.failing_constraint is None
    assert vars(report) == vars(operator_oracle.verify_operator_solution(empty, sol))


def test_verify_and_stack_reject_a_strategy_of_the_wrong_shape():
    """A strategy for V variables is one (V, d, d) array: too few rows,
    non-square rows and the wrong rank are refused, by name of both shapes."""
    mp = mermin_peres()
    sol = pauli_to_operator(pauli_solve(mp))
    for bad in (sol[:-1], sol[:, :, :2], sol[None]):
        message = re.escape(f"expected a strategy of shape (9, d, d), got {bad.shape}")
        for check in (verify_operator_solution, quantum.StrategyStack):
            with pytest.raises(ValueError, match=message):
                check(mp, bad)


def test_real_strategies_stay_real_and_pauli_lifts_with_y_complex():
    """Permutation, classical and completed real strategies are float64 and
    stack as float64; a Pauli lift with a Y stacks as complex."""
    g8, g5, g4 = build_game_bcs(8), build_game_bcs(5), build_game_bcs(4)
    for g, sol in ((g8, permutation_solution(g8)), (g5, classical_to_operator(bcs.classical_solve(g5.bcs)))):
        assert sol.dtype == np.float64
        assert quantum.StrategyStack(g.bcs, sol).ops.dtype == np.float64
    assert phi_plus(8).dtype == np.float64
    assert any(s.x_bits & s.z_bits for s in table_pauli_solution(g4).strings)
    lifted = pauli_to_operator(table_pauli_solution(g4))
    assert quantum.StrategyStack(g4.bcs, lifted).ops.dtype == np.complex128
    partial = {v: lifted[v] for v in range(g4.bcs.n_vars) if v != 0}
    assert complete_solution(g4.bcs, partial).dtype == np.complex128


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_complete_mermin_peres_from_free_rows():
    mp = mermin_peres()
    psol = pauli_solve(mp)
    partial = {v: to_matrix(psol.strings[v]) for v in (4, 5, 7, 8)}
    full = complete_solution(mp, partial)
    assert verify_operator_solution(mp, full, 1e-9).ok


def test_completion_stuck_without_generators():
    g = build_game_bcs(4)
    n = g.n
    partial = {g.a(v): np.diag([1.0 + 0j if i != v - 1 else -1 for i in range(n)]) for v in range(1, n + 1)}
    with pytest.raises(ValueError, match="stuck"):
        complete_solution(g.bcs, partial)


def test_completion_unknown_in_middle_position():
    from bcsmagic.bcs import Bcs, make_constraint

    b = Bcs(["p", "q", "r"], [make_constraint([0, 1, 2], -1)])
    p = to_matrix(parse_pauli("XZ"))
    r = to_matrix(parse_pauli("ZY"))
    full = complete_solution(b, {0: p, 2: r})
    np.testing.assert_allclose(full[1], p @ (-1 * np.eye(4)) @ r, atol=1e-12)
    np.testing.assert_allclose(
        full[0] @ full[1] @ full[2], -np.eye(4), atol=1e-12
    )


def test_completion_rejects_mixed_dims():
    mp = mermin_peres()
    with pytest.raises(ValueError, match="mixed dimensions"):
        complete_solution(mp, {4: np.eye(2, dtype=complex), 5: np.eye(4)})


def test_completion_rejects_an_empty_partial():
    """A partial's matrices set the dimension, so it needs at least one."""
    with pytest.raises(ValueError, match="empty partial"):
        complete_solution(mermin_peres(), {})


def test_completion_rejects_keys_outside_the_bcs():
    """A key that is not one of the system's variables is named, not kept."""
    mp = mermin_peres()
    full = pauli_to_operator(pauli_solve(mp))
    for key in (-1, 99, 9, 0.5, "v1"):
        with pytest.raises(ValueError, match=f"assignment key {key!r} is not a variable of the 9-variable BCS"):
            complete_solution(mp, {**dict(enumerate(full)), key: np.eye(4)})


def _assert_completion_matches_oracle(system, partial):
    """The wave completion's stack equals the sequential oracle's dict, row
    for matrix and bit for bit, over every variable, in the dtype the
    oracle's matrices share."""
    full, oracle = complete_solution(system, partial), operator_oracle.complete_solution(system, partial)
    assert sorted(oracle) == list(range(system.n_vars)) == list(range(len(full)))
    for v, m in oracle.items():
        assert np.array_equal(full[v], m), v
    assert full.dtype == np.result_type(float, *oracle.values())


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("n", range(4, 11))
def test_wave_completion_equals_sequential_oracle_on_permutation_generators(n, modified):
    g = build_game_bcs(n, modified)
    generators = [g.a(v) for v in range(1, n + 1)]
    generators += [g.x(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)]
    full = permutation_solution(g)
    _assert_completion_matches_oracle(g.bcs, {v: full[v] for v in generators})


def test_wave_completion_equals_sequential_oracle_without_each_variable():
    """n = 4 Pauli lifts, complex with a Y and real without, each with one
    variable removed in turn, and the magic square from its free rows."""
    g4 = build_game_bcs(4)
    for lifted in (pauli_to_operator(table_pauli_solution(g4)), pauli_to_operator(pauli_solve(g4.bcs))):
        for missing in range(g4.bcs.n_vars):
            known = {v: m for v, m in enumerate(lifted) if v != missing}
            _assert_completion_matches_oracle(g4.bcs, known)
    mp = mermin_peres()
    psol = pauli_solve(mp)
    _assert_completion_matches_oracle(mp, {v: to_matrix(psol.strings[v]) for v in (4, 5, 7, 8)})


@pytest.mark.parametrize("seed", range(6))
def test_wave_completion_equals_sequential_oracle_on_random_matrices(seed):
    """On unstructured real and complex matrices, where product order and
    the sign's place matter to rounding, each unknown has one defining
    constraint, and a sign-flipped copy of one of them comes later: both
    completions use the first and agree bit for bit."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    dim, n_known, n_new = rng.choice((2, 3, 5, 8)), 4, 8
    label = rng.sample(range(n_known + n_new), n_known + n_new)  # shuffles each unknown's position
    rows = [[n_known + j] + rng.sample(range(n_known + j), rng.randint(1, 3)) for j in range(n_new)]
    rows.append(rows[rng.randrange(n_new)])
    signs = [rng.choice((1, -1)) for _ in rows]
    signs[-1] = -signs[rows.index(rows[-1])]
    system = bcs.Bcs([f"v{i}" for i in range(n_known + n_new)],
                     [bcs.make_constraint([label[v] for v in row], sign) for row, sign in zip(rows, signs)])
    mats = gen.normal(size=(n_known, dim, dim)) + (1j * gen.normal(size=(n_known, dim, dim)) if seed % 2 else 0)
    _assert_completion_matches_oracle(system, {label[v]: mats[v] for v in range(n_known)})


def test_wave_and_sequential_completion_fail_alike():
    """Stuck after a wave of progress, both give the same remaining count;
    mixed dimensions raise in both."""
    g = build_game_bcs(4)
    reflections = {g.a(v): np.diag([-1.0 if i == v - 1 else 1.0 for i in range(4)]) for v in range(1, 5)}
    messages = []
    for complete in (complete_solution, operator_oracle.complete_solution):
        with pytest.raises(ValueError, match="stuck completing solution") as info:
            complete(g.bcs, reflections)
        messages.append(str(info.value))
        with pytest.raises(ValueError, match="mixed dimensions"):
            complete(mermin_peres(), {4: np.eye(2, dtype=complex), 5: np.eye(4)})
    assert messages[0] == messages[1] == ("stuck completing solution: 21 variables have no "
                                          "constraint with a single unknown")


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_correlation_involution_self():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    for v in range(g.bcs.n_vars):
        assert correlation(sol[v], sol[v]) == pytest.approx(1.0, abs=1e-12)


def test_correlation_x_z_and_sign_flip():
    x = to_matrix(parse_pauli("X"))
    z = to_matrix(parse_pauli("Z"))
    assert correlation(x, z) == pytest.approx(0.0, abs=1e-12)
    assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        correlation(x, np.eye(4))


def test_correlation_trace_linearity():
    rng = philox_rng(5)
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
    dist = enumerate_distribution(phi_plus(8), [("A", sol[g.a(1)])])
    assert dist[(-1,)] == pytest.approx(1 / 8, abs=1e-12)
    assert dist[(1,)] == pytest.approx(7 / 8, abs=1e-12)


def _repeat(a, trials):
    return np.broadcast_to(a, (trials,) + a.shape)


def test_measure_repeatability():
    g = build_game_bcs(8)
    obs = _repeat(permutation_solution(g)[g.x(2, 5)], 50)
    outcomes, _ = measure_batch(_repeat(phi_plus(8), 50), [("A", obs), ("A", obs)],
                                philox_rng(11).random((50, 2)))
    assert np.all(outcomes[:, 0] == outcomes[:, 1])
    assert set(outcomes[:, 0]) == {1, -1}


def test_alice_bob_transpose_always_agree():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    rng = philox_rng(13)
    for name in (g.a(3), g.x(1, 4), g.var_index["z2_6"]):
        obs = _repeat(sol[name], 40)
        outcomes, _ = measure_batch(_repeat(phi_plus(8), 40), [("A", obs), ("B", obs.swapaxes(1, 2))],
                                    rng.random((40, 2)))
        assert np.all(outcomes[:, 0] == outcomes[:, 1])


def test_measurement_order_invariance():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    c = g.bcs.constraints[0]
    obs = [sol[v] for v in c.var_indices]
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
        measure_commuting(phi_plus(2), "A", [x, z], philox_rng(0))


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
    phi = phi_plus(sol.shape[-1])
    for c in g.bcs.constraints:
        alice = [("A", sol[v]) for v in c.var_indices]
        for beta in c.var_indices:
            plan = alice + [("B", sol[beta].T)]
            expected = enumerate_distribution(phi, plan)
            forced = _forced_distribution(phi, plan)
            assert set(forced) == set(expected)
            for outcome, p in expected.items():
                assert abs(forced[outcome] - p) <= 1e-12


def test_measure_batch_rejects_a_zero_probability_branch_in_any_row():
    z = to_matrix(parse_pauli("Z"))
    stack = np.stack([phi_plus(2)] * 3)
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
    obs = permutation_solution(g)[g.x(1, 2)]
    eye = np.eye(8, dtype=complex)
    plain, plain_state = measure_batch(phi_plus(8)[None], [("A", obs[None])], [[0.3]])
    padded, padded_state = measure_batch(
        phi_plus(8)[None], [("A", obs[None]), ("A", eye[None]), ("B", eye[None])],
        [[0.3, 0.0, 0.0]],
    )
    assert padded.tolist() == [[plain[0, 0], 1, 1]]
    np.testing.assert_allclose(padded_state, plain_state, atol=1e-15)


def test_measure_batch_needs_one_uniform_per_step():
    x = to_matrix(parse_pauli("X"))
    with pytest.raises(ValueError, match="uniforms"):
        measure_batch(phi_plus(2)[None], [("A", x[None])], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="side"):
        measure_batch(phi_plus(2)[None], [("C", x[None])], [[0.1]])


def _random_involution(gen, d):
    """U diag(+-1) U^dagger for a random unitary U, with both signs present."""
    u, _ = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    signs = np.where(np.arange(d) < gen.integers(1, d), 1.0, -1.0)
    return (u * signs) @ u.conj().T


@pytest.mark.parametrize("d", [2, 4, 8])
def test_measure_batch_matches_enumeration_for_random_involutions(d):
    """Complex Hermitian involutions that need not commute, on both sides,
    on the real |Phi+> and on a random complex state: the forced outcome
    tuples and their weights equal the exact distribution."""
    gen = np.random.default_rng(d)
    state = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    for amplitudes in (phi_plus(d), state / np.linalg.norm(state)):
        plan = [(side, _random_involution(gen, d)) for side in "ABAB"]
        expected = enumerate_distribution(amplitudes, plan)
        forced = _forced_distribution(amplitudes, plan)
        assert set(forced) == set(expected) and len(expected) == 16
        for outcome, p in expected.items():
            assert abs(forced[outcome] - p) <= 1e-12


def test_measure_batch_measures_a_real_state_with_complex_observables():
    """The real |Phi+> meets a Pauli Y: the state becomes complex, and the
    outcomes are the ones a complex copy of the state gives."""
    y = to_matrix(parse_pauli("YI"))
    steps = [("A", _repeat(y, 64)), ("B", _repeat(y.T, 64))]
    u = philox_rng(3).random((64, 2))
    outcomes, state = measure_batch(_repeat(phi_plus(4), 64), steps, u)
    copied, copied_state = measure_batch(_repeat(phi_plus(4).astype(complex), 64), steps, u)
    assert state.dtype == complex and set(outcomes[:, 0]) == {1, -1}
    assert np.array_equal(outcomes, copied) and np.array_equal(state, copied_state)
    assert np.all(outcomes[:, 0] == outcomes[:, 1])


def test_measure_batch_reads_broadcast_states_as_their_copies():
    """A stride-0 stack of one state measures as trial-by-trial calls."""
    gen = np.random.default_rng(4)
    obs = np.stack([_random_involution(gen, 4) for _ in range(10)])
    u = gen.random((10, 1))
    outcomes, state = measure_batch(_repeat(phi_plus(4), 10), [("B", obs)], u)
    for t in range(10):
        alone, alone_state = measure_batch(phi_plus(4)[None], [("B", obs[t:t + 1])], u[t:t + 1])
        assert alone[0, 0] == outcomes[t, 0]
        np.testing.assert_allclose(alone_state[0], state[t], rtol=0, atol=1e-15)


def test_measure_batch_returns_unit_states_after_padded_steps():
    """Nine steps, every third an identity pad at uniform 0: each returned
    state has unit norm, and every pad step gives +1."""
    gen = np.random.default_rng(5)
    trials, eye = 50, np.eye(8)
    steps, u = [], gen.random((trials, 9))
    for s in range(9):
        if s % 3 == 2:
            steps.append(("AB"[s % 2], _repeat(eye, trials)))
            u[:, s] = 0.0
        else:
            steps.append(("AB"[s % 2], np.stack([_random_involution(gen, 8) for _ in range(trials)])))
    outcomes, state = measure_batch(np.stack([phi_plus(8)] * trials), steps, u)
    np.testing.assert_allclose(np.linalg.norm(state, axis=(1, 2)), 1.0, rtol=0, atol=1e-12)
    assert np.all(outcomes[:, 2::3] == 1) and set(outcomes[:, 0]) == {1, -1}


def test_measure_batch_names_the_expected_shapes():
    """A 1-D uniforms, a uniforms row count that is not T, and a stack that
    is not (T, d, d) raise ValueError naming both shapes."""
    x = _repeat(to_matrix(parse_pauli("X")), 3)
    phi = _repeat(phi_plus(2), 3)
    with pytest.raises(ValueError, match=r"uniforms of shape \(3, S\), got \(3,\)"):
        measure_batch(phi, [("A", x)], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=r"uniforms of shape \(3, S\), got \(2, 1\)"):
        measure_batch(phi, [("A", x)], [[0.1], [0.2]])
    with pytest.raises(ValueError, match=r"amplitudes of shape \(T, d, d\), got \(2, 2\)"):
        measure_batch(phi_plus(2), [("A", x[0])], [[0.1]])
    with pytest.raises(ValueError, match="positive norm"):
        measure_batch(np.zeros((1, 2, 2)), [("A", x[:1])], [[0.1]])


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------

def test_play_round_perfect_n8():
    g = build_game_bcs(8)
    sol = permutation_solution(g)
    rng = philox_rng(2024)
    pairs = enumerate_questions(g)
    for _ in range(300):
        q = pairs[int(rng.integers(len(pairs)))]
        assert play_round(g, sol, q, rng).won


def test_play_round_classical_embedding_odd_n():
    g = build_game_bcs(5)
    sol = classical_to_operator(bcs.classical_solve(g.bcs))
    rng = philox_rng(77)
    pairs = enumerate_questions(g)
    for _ in range(200):
        q = pairs[int(rng.integers(len(pairs)))]
        assert play_round(g, sol, q, rng).won


def test_play_round_flipped_operator_loses():
    g = build_game_bcs(6)
    sol = permutation_solution(g)
    sol[g.a(2)] = -sol[g.a(2)]
    rng = philox_rng(5)
    product_row = len(g.bcs.constraints) - 1
    results = [
        play_round(g, sol, (product_row, g.a(1)), rng).won for _ in range(20)
    ]
    assert not any(results)


def _conjugated(sol, seed):
    """The strategy U A U^dagger for a random unitary U: still perfect, and
    no longer made of symmetric matrices, so Bob's transpose matters."""
    gen = np.random.default_rng(seed)
    d = sol.shape[-1]
    u, _ = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return u @ sol @ u.conj().T


class _Uniforms:
    """A generator stand-in that returns the given uniforms in turn."""

    def __init__(self, values) -> None:
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


def test_strategy_stack_matches_one_trial_measurements():
    """Random states and a batch mixing the width-8 product constraint with
    width-3 ones: every round's outcomes equal measure_commuting on Alice's
    observables, then on Bob's transpose, with the same uniforms, and the
    round is won as the oracle's rule judges it."""
    g = build_game_bcs(8)
    sol = _conjugated(permutation_solution(g), 5)
    gen = np.random.default_rng(6)
    pairs = enumerate_questions(g)
    product_row = len(g.bcs.constraints) - 1
    questions = [pairs[i] for i in gen.integers(len(pairs), size=30)]
    questions += [(product_row, v) for v in g.bcs.constraints[product_row].var_indices[:3]]
    states = gen.normal(size=(len(questions), 8, 8)) + 1j * gen.normal(size=(len(questions), 8, 8))
    states /= np.linalg.norm(states, axis=(1, 2))[:, None, None]
    stack = quantum.StrategyStack(g.bcs, sol)
    alphas, betas = np.array(questions).T
    u = gen.random((len(questions), 9))
    results = stack.measure(states, alphas, betas, u[:, :8], u[:, 8])
    assert results.outcomes.shape == (len(questions), 9)
    assert (results.alphas.tolist(), results.betas.tolist()) == (alphas.tolist(), betas.tolist())
    for t, ((alpha, beta), r) in enumerate(zip(questions, rows(results), strict=True)):
        c = g.bcs.constraints[alpha]
        rng = _Uniforms([*u[t, :len(c.var_indices)], u[t, 8]])
        alice = [sol[v] for v in c.var_indices]
        a_out, state = measure_commuting(states[t], "A", alice, rng)
        (b_out,), _ = measure_commuting(state, "B", [sol[beta].T], rng)
        assert r == RoundResult(alpha, tuple(a_out), b_out, wins(c, beta, a_out, b_out))
    assert set(results.won.tolist()) == {True, False}


@pytest.mark.parametrize("n,conjugate", [(8, False), (8, True), (4, True), (5, False)])
def test_play_rounds_equal_a_loop_of_play_round(n, conjugate, monkeypatch):
    """Each round replayed alone from the scalar stream oracle: the batched
    rounds draw and measure exactly as a loop of play_round calls, across
    several batch boundaries."""
    g = build_game_bcs(n)
    sol = (classical_to_operator(bcs.classical_solve(g.bcs)) if n % 2
           else permutation_solution(g))
    if conjugate:
        sol = _conjugated(sol, n)
    pairs = enumerate_questions(g)
    seed = 90 + n
    expected, questions = [], []
    for t in range(300):
        alpha, beta = stream_oracle.play_question(pairs, seed, t)
        draws = stream_oracle.play_draws(seed, t, len(g.bcs.constraints[alpha].var_indices))
        expected.append(play_round(g, sol, (alpha, beta), draws))
        questions.append((alpha, beta))
    monkeypatch.setattr(quantum, "CHUNK", 37)
    records = list(play_rounds(quantum.StrategyStack(g.bcs, sol), seed, 300))
    assert [len(r.won) for r in records] == [37] * 8 + [4]
    batched = [r for record in records for r in rows(record)]
    assert batched == expected
    assert [(a, b) for r in records for a, b in zip(r.alphas.tolist(), r.betas.tolist())] == questions
    assert all(r.won for r in batched)


def test_play_rounds_check_commutation_once_per_constraint():
    g = build_game_bcs(4)
    sol = permutation_solution(g)
    c = g.bcs.constraints[0]
    sol[c.var_indices[0]] = to_matrix(parse_pauli("XI")).real
    sol[c.var_indices[1]] = to_matrix(parse_pauli("ZI")).real
    # Checked when the stack is built, before any round draws the constraint.
    with pytest.raises(ValueError, match="constraint 0 do not commute"):
        quantum.StrategyStack(g.bcs, sol)
    report = quantum.verify_operator_solution(g.bcs, sol)
    assert (report.worst_commutator, report.failing_constraint) == (2.0, 0)
    assert not report.commutation_ok


def test_play_rounds_validate_when_called():
    """A bad seed or trial count raises when play_rounds is called, before
    the first round is asked for."""
    g = build_game_bcs(4)
    stack = quantum.StrategyStack(g.bcs, permutation_solution(g))
    with pytest.raises(ValueError, match="seed"):
        play_rounds(stack, -1, 5)
    with pytest.raises(ValueError, match="trials"):
        play_rounds(stack, 7, -1)
    assert list(play_rounds(stack, 2 ** 70, 0)) == []


def test_play_rounds_reject_observables_that_are_not_hermitian_involutions():
    """Scaled by i, the n = 4 strategy still commutes but squares to -I:
    the call refuses it, since measure_batch's branches need involutions."""
    g = build_game_bcs(4)
    stack = quantum.StrategyStack(g.bcs, 1j * permutation_solution(g))
    assert not stack.report.hermitian_ok
    with pytest.raises(ValueError, match="Hermitian involutions"):
        play_rounds(stack, 1, 3)


def test_play_rounds_reject_a_game_without_questions_when_called():
    """A stack of a BCS with no constraints has no question to draw: the
    call refuses it, before the first round, unless no round is asked for."""
    stack = quantum.StrategyStack(bcs.parse_bcs("vars: a\n"), np.ones((1, 1, 1)))
    with pytest.raises(ValueError, match="no questions"):
        play_rounds(stack, 1, 3)
    assert list(play_rounds(stack, 1, 0)) == []


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("n", range(4, 9))
def test_stack_questions_are_the_games_questions(n, modified):
    """The question table play_rounds draws from, read off the stack's
    members, is enumerate_questions of the game the stack was built for."""
    g = build_game_bcs(n, modified=modified)
    ones = np.ones((g.bcs.n_vars, 1, 1))
    questions = quantum.StrategyStack(g.bcs, ones).questions
    assert questions.shape == (len(enumerate_questions(g)), 2)
    assert list(map(tuple, questions.tolist())) == enumerate_questions(g)


# ---------------------------------------------------------------------------
# trial streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, 2 ** 70])
def test_trial_words_equal_the_scalar_oracle(seed):
    """Words of trials on both sides of a chunk boundary, computed together
    and as one-trial chunks, equal the oracle's Python-integer words."""
    stream = quantum.TrialStream(seed)
    trials = np.arange(quantum.CHUNK - 3, quantum.CHUNK + 3)
    slots = np.arange(-1, 20)
    expected = [[stream_oracle.word(seed, int(t), int(s)) for s in slots] for t in trials]
    assert stream.words(trials[:, None], slots).tolist() == expected
    for t, row in zip(trials, expected):
        assert stream.words(np.array([[t]]), slots).tolist() == [row]
    assert quantum.uniforms(stream.words(trials, 0)).tolist() == [
        stream_oracle.uniform(row[1]) for row in expected
    ]


def test_trial_stream_rejects_negative_seeds_and_keeps_large_ones_apart():
    with pytest.raises(ValueError, match="non-negative"):
        quantum.TrialStream(-1)
    keys = {int(quantum.TrialStream(seed).key[0]) for seed in (0, 1, 2 ** 64, 2 ** 64 + 1, 2 ** 128)}
    assert len(keys) == 5


@pytest.mark.parametrize("n", [1, 2, 722, 1042, 2 ** 31])
def test_integer_draws_fall_in_their_range(n):
    words = quantum.TrialStream(3).words(np.arange(20_000), 0)
    draws = quantum.below(words, n)
    assert draws.min() >= 0 and draws.max() < n
    assert draws.tolist() == [stream_oracle.below(int(w), n) for w in words]
    if n <= 722:
        assert len(set(draws.tolist())) == n


def test_play_question_index_is_uniform():
    """Chi-square of the n = 8 game's question index over 311,600 rounds of
    seed 7, 100 expected per question: within 5 standard deviations of its
    mean, the degrees of freedom."""
    cells = len(enumerate_questions(build_game_bcs(8)))
    rounds = 100 * cells
    words = quantum.TrialStream(7).words(np.arange(rounds), 0)
    counts = np.bincount(quantum.below(words, cells), minlength=cells)
    chi2 = float(((counts - 100) ** 2).sum() / 100)
    dof = cells - 1
    assert abs(chi2 - dof) < 5 * np.sqrt(2 * dof)


# ---------------------------------------------------------------------------
# Pauli strategy scoring (the oracle's scorer)
# ---------------------------------------------------------------------------

def _table_strategy(g):
    psol = table_pauli_solution(g)
    alice = {
        alpha: {v: psol.strings[v] for v in c.var_indices}
        for alpha, c in enumerate(g.bcs.constraints)
    }
    return alice, {v: transpose(psol.strings[v]) for v in range(g.bcs.n_vars)}


def test_audit_table_strategy_is_perfect():
    g = build_game_bcs(4)
    audit = pauli_report_oracle.audit_clifford_strategy(g, *_table_strategy(g))
    assert audit.min_pair == 1.0
    assert audit.avg_win == 1.0
    assert not audit.invalid_constraints


def test_audit_loses_constraints_that_anticommute_or_miss_their_sign():
    """Constraint 0 (a1 a2 y1_2) gets XI, ZI and i*YI: they multiply to +I,
    its sign, but X and Z anticommute.  Constraint 1 (a1 a3 y1_3) keeps
    commuting strings with a3 negated, so its product is -I against +1.
    Both are lost outright; every other pair still agrees."""
    g = build_game_bcs(4)
    alice, bob = _table_strategy(g)
    a1, a2, a3, y12 = g.a(1), g.a(2), g.a(3), g.var_index["y1_2"]
    alice[0] = {a1: parse_pauli("XI"), a2: parse_pauli("ZI"), y12: pauli.PauliString(2, 1, 1, 1)}
    alice[1][a3] = parse_pauli("-ZI")
    audit = pauli_report_oracle.audit_clifford_strategy(g, alice, bob)
    assert audit.invalid_constraints == [0, 1]
    lost = {(alpha, beta) for alpha in (0, 1) for beta in g.bcs.constraints[alpha].var_indices}
    assert {p for p, a in audit.pair_agreements.items() if a != 1.0} == lost
    assert all(audit.pair_agreements[p] == 0.0 for p in lost)
    assert len(audit.pair_agreements) == 82
    assert audit.min_pair == 0.0
    assert audit.avg_win == 1 - 6 / 82


def test_audit_rejects_an_imaginary_agreement_product():
    g = build_game_bcs(4)
    alice, bob = _table_strategy(g)
    s = bob[g.a(3)]
    bob[g.a(3)] = pauli.PauliString(s.n_qubits, s.x_bits, s.z_bits, s.phase + 1)
    with pytest.raises(ValueError, match="imaginary"):
        pauli_report_oracle.audit_clifford_strategy(g, alice, bob)


def _per_constraint_strategy(g):
    """Constraint-local identities: always satisfies its row, never coordinated."""
    alice = {}
    for alpha, c in enumerate(g.bcs.constraints):
        obs = {v: identity(1) for v in c.var_indices}
        last = c.var_indices[-1]
        if c.rhs == -1:
            obs[last] = parse_pauli("-I")
        alice[alpha] = obs
    return alice


def test_audit_magic_game_pauli_strategies_capped():
    g = build_game_bcs(8)
    alice = _per_constraint_strategy(g)
    bob = {v: identity(1) for v in range(g.bcs.n_vars)}
    audit = pauli_report_oracle.audit_clifford_strategy(g, alice, bob)
    assert not audit.invalid_constraints
    assert audit.min_pair <= 0.5
    assert set(audit.pair_agreements.values()) <= {0.0, 0.5, 1.0}
    assert audit.avg_win < 1.0

    bob_x = {v: parse_pauli("X") for v in range(g.bcs.n_vars)}
    audit_x = pauli_report_oracle.audit_clifford_strategy(g, alice, bob_x)
    assert audit_x.min_pair <= 0.5


def test_audit_rejects_mixed_qubit_counts():
    g = build_game_bcs(4)
    alice = _per_constraint_strategy(g)
    bob = {v: identity(2) for v in range(g.bcs.n_vars)}
    with pytest.raises(ValueError):
        pauli_report_oracle.audit_clifford_strategy(g, alice, bob)


def test_split_search_n6_solves_only_negated_splits():
    """A Pauli strategy on |Phi+> that loses only half of one pair needs a
    Pauli solution of the modified game with v replaced by a fresh variable
    in one constraint alpha, the fresh one not +/-v.  Of the 732 splits at
    n = 6, pauli_solve solves 12, all on zero qubits with fresh = -v, so
    such a strategy loses a whole pair."""
    gm = build_game_bcs(6, modified=True)
    splits = enumerate_questions(gm)
    assert len(splits) == 732
    solved = []
    for alpha, v in splits:
        out = pauli_solve(split_variable(gm.bcs, alpha, v))
        if isinstance(out, bcs.PauliSolution):
            solved.append((alpha, v))
            fresh, s = out.strings[-1], out.strings[v]
            assert out.qubits == 0
            assert (fresh.x_bits, fresh.z_bits, fresh.phase) == (s.x_bits, s.z_bits, s.phase ^ 2)
    assert len(solved) == 12
    assert {alpha for alpha, _ in solved} == set(range(len(gm.bcs.constraints) - 4, len(gm.bcs.constraints)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pauli_lift_round_trip():
    mp = mermin_peres()
    lifted = pauli_to_operator(pauli_solve(mp))
    assert lifted.shape[-1] == 4
    assert verify_operator_solution(mp, lifted, 1e-9).ok
