"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""
import random
import time

import numpy as np
import trial_oracle
from helpers import check_classical_assignment, philox_rng, split_variable, table_pauli_solution
from pauli_report_oracle import audit_clifford_strategy, identity, transpose
from sign_system_oracle import build_sign_system, satisfiable_brute
from swap_oracle import enumerate_swap_branches

from bcsmagic import bcs, game, gf2, pauli, quantum, shallow
from test_bcs import random_bcs


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_01_counts():
    t0 = time.perf_counter()
    g = game.build_game_bcs(8)
    gm = game.build_game_bcs(8, modified=True)
    counts = game.count_questions(8)
    denom = 6 * counts.modified_alice
    checks = {
        "constraints": len(g.bcs.constraints) == 1037,
        "variables": g.bcs.n_vars == 722,
        "modified": len(gm.bcs.constraints) == 1042 and counts.modified_alice == 1042,
        "bound": f"1 - 1/{denom}" == "1 - 1/6252"
        and game.clifford_bound(8) == 1 - 1 / 6252,
    }
    elapsed = time.perf_counter() - t0
    checks["runtime<1s"] = elapsed < 1.0
    _report(1, "counts", all(checks.values()), f"{checks}, {elapsed:.2f}s")


def test_criterion_02_solver_classification():
    t0 = time.perf_counter()
    results = {}

    g4 = game.build_game_bcs(4)
    out4 = bcs.pauli_solve(g4.bcs)
    results["n4_pauli"] = isinstance(out4, bcs.PauliSolution)
    results["n4_table"] = bcs.verify_pauli_solution(g4.bcs, table_pauli_solution(g4)).ok

    for n in (5, 7):
        signs = bcs.classical_solve(game.build_game_bcs(n).bcs)
        results[f"n{n}_classical"] = isinstance(signs, list) and check_classical_assignment(
            game.build_game_bcs(n).bcs, signs
        )

    for n in (6, 8):
        gn = game.build_game_bcs(n)
        t_n = time.perf_counter()
        out = bcs.pauli_solve(gn.bcs)
        solve_time = time.perf_counter() - t_n
        results[f"n{n}_no_classical"] = isinstance(bcs.classical_solve(gn.bcs), bcs.Certificate)
        results[f"n{n}_certificate"] = isinstance(out, bcs.Certificate) and bcs.verify_certificate(gn.bcs, out)
        if n == 8:
            results["n8_under_30s"] = solve_time < 30.0

    g12 = game.build_game_bcs(12)
    t_12 = time.perf_counter()
    out12 = bcs.pauli_solve(g12.bcs)
    results["n12_certificate"] = isinstance(out12, bcs.Certificate) and bcs.verify_certificate(g12.bcs, out12)
    results["n12_under_5s"] = time.perf_counter() - t_12 < 5.0

    elapsed = time.perf_counter() - t0
    _report(2, "solver classification", all(results.values()), f"{results}, {elapsed:.1f}s")


def test_criterion_03_mermin_peres_pipeline():
    t0 = time.perf_counter()
    mp = bcs.mermin_peres()
    elim = bcs.eliminate_free_vars(mp)
    system = build_sign_system(mp, elim)
    solved = gf2.solve(system.equations)
    anti = {
        system.unknowns[i]
        for i in range(len(system.unknowns))
        if system.unknowns[i][0] == "comm" and solved[i]
    }
    out = bcs.pauli_solve(mp)
    elapsed = time.perf_counter() - t0
    checks = {
        # variables v5, v6, v8, v9
        "free_set": [v for v in range(mp.n_vars) if v not in elim.reduced.pivot_cols] == [4, 5, 7, 8],
        "anti_pairs": anti == {("comm", 4, 8), ("comm", 5, 7)},  # (5,9) and (6,8)
        "two_qubits": isinstance(out, bcs.PauliSolution) and out.qubits == 2,
        "verifies": bcs.verify_pauli_solution(mp, out).ok,
        "runtime<100ms": elapsed < 0.1,
    }
    _report(3, "magic-square pipeline", all(checks.values()), f"{checks}, {elapsed * 1000:.0f}ms")


def test_criterion_04_magic_strategy():
    g = game.build_game_bcs(8)
    sol = quantum.permutation_solution(g)
    report = quantum.verify_operator_solution(g.bcs, sol, 1e-9)
    corr_ok = all(
        abs(quantum.correlation(m, m) - 1.0) <= 1e-9 for m in sol
    )
    prod = np.eye(8, dtype=complex)
    for v in range(1, 9):
        prod = prod @ sol[g.a(v)]
    sign_law = float(np.max(np.abs(prod + np.eye(8)))) <= 1e-9
    checks = {"verify": report.ok, "correlation": corr_ok, "sign_law": sign_law}
    _report(4, "magic strategy", all(checks.values()), str(checks))


def test_criterion_05_perfect_play():
    t0 = time.perf_counter()
    g = game.build_game_bcs(8)
    sol = quantum.permutation_solution(g)
    trials = 10 ** 4
    rounds = quantum.play_rounds(quantum.StrategyStack(g.bcs, sol), 20240907, trials)
    wins = sum(int(record.won.sum()) for record in rounds)
    elapsed = time.perf_counter() - t0
    checks = {"all_won": wins == trials, "runtime<5s": elapsed < 5.0}
    _report(5, "perfect play", all(checks.values()), f"wins {wins}/{trials}, {elapsed:.1f}s")


def test_criterion_06_relation_problem():
    t0 = time.perf_counter()
    g = game.build_game_bcs(8, modified=True)
    sol = quantum.permutation_solution(g)
    trials = 10 ** 4
    # Recounted from the outcomes by the oracle's rule, not read from ``won``.
    satisfied = sum(
        trial_oracle.wins(g.bcs.constraints[r.constraint], beta, r.alice_outcomes, r.bob_outcome)
        for record in shallow.run_trials(quantum.StrategyStack(g.bcs, sol), (2, 1001), 61803, trials)
        for r, beta in zip(trial_oracle.rows(record), record.betas.tolist(), strict=True)
    )

    oracle_ok = True
    for m in (2, 3):  # every (j, k) choice on N <= 3 sites
        for outcomes, prob, end_index in enumerate_swap_branches(m):
            z = sum(a for a, _ in outcomes) % 2
            x = sum(b for _, b in outcomes) % 2
            oracle_ok &= abs(prob - 4.0 ** -(m - 1)) <= 1e-12
            oracle_ok &= end_index == (z, x)
    elapsed = time.perf_counter() - t0
    checks = {"all_satisfied": satisfied == trials, "oracle_match": oracle_ok,
              "runtime<5s": elapsed < 5.0}
    _report(6, "relation problem", all(checks.values()),
            f"{satisfied}/{trials} satisfied, {elapsed:.1f}s")


def test_criterion_07_sampling_variant():
    t0 = time.perf_counter()
    g = game.build_game_bcs(8, modified=True)
    sol = quantum.permutation_solution(g)
    trials = 10 ** 5
    cases = {"case1": 0, "case2": 0, "invalid": 0}
    for record in shallow.run_trials(quantum.StrategyStack(g.bcs, sol), 50, 271828, trials, "sampling"):
        for r, beta, clean in zip(trial_oracle.rows(record), record.betas.tolist(), record.clean.tolist(),
                                  strict=True):
            won = trial_oracle.wins(g.bcs.constraints[r.constraint], beta, r.alice_outcomes, r.bob_outcome)
            cases[("case1" if won else "invalid") if clean else "case2"] += 1
    elapsed = time.perf_counter() - t0
    p = 1 / 64
    sigma = (trials * p * (1 - p)) ** 0.5
    checks = {
        "case1_within_5_sigma": abs(cases["case1"] - trials * p) <= 5 * sigma,
        "no_invalid": cases["invalid"] == 0,
        "split": cases["case1"] + cases["case2"] == trials,
        "runtime<5s": elapsed < 5.0,
    }
    _report(7, "sampling variant", all(checks.values()), f"{cases}, {elapsed:.1f}s")


def test_criterion_08_lightcones():
    from test_shallow import random_local_dag

    strategy_small = shallow.build_strategy_dag(8)
    strategy_large = shallow.build_strategy_dag(128)
    checks = {
        "fan_in_14": strategy_small.max_fan_in == 14 and strategy_large.max_fan_in == 14,
        "depth_constant": strategy_small.depth == strategy_large.depth,
    }
    rng = philox_rng(31415)
    bounds_ok = True
    backward_ok = True
    for dag, n_sites in (
        (strategy_large, 128),
        (random_local_dag(10 ** 4, K=3, D=4, rng=rng), 10 ** 4),
        (random_local_dag(512, K=4, D=3, rng=rng), 512),
    ):
        K, D = dag.max_fan_in, dag.depth
        prob = shallow.lightcone_disjoint_probability(dag)
        bounds_ok &= prob >= 1 - 48 * K ** D / n_sites
        for s in range(0, n_sites, max(1, n_sites // 13)):
            for group in (dag.alice_outputs[s], dag.bob_outputs[s]):
                backward_ok &= len(shallow.backward_lightcone(dag, group)) <= len(group) * K ** D
    checks["ec_bound"] = bounds_ok
    checks["backward_bound"] = backward_ok
    _report(8, "lightcones", all(checks.values()), str(checks))


def test_criterion_09_depth_bound_ingredients():
    p_clif = game.clifford_bound(8)
    threshold = 96 / (1 - p_clif)
    bound_above = shallow.depth_lower_bound(int(threshold * 10), 14, p_clif)
    bound_below = shallow.depth_lower_bound(int(threshold / 10), 14, p_clif)

    g = game.build_game_bcs(8)
    alice = {}
    for alpha, c in enumerate(g.bcs.constraints):
        obs = {v: identity(1) for v in c.var_indices}
        if c.rhs == -1:
            obs[c.var_indices[-1]] = pauli.parse_pauli("-I")
        alice[alpha] = obs
    audits = [
        audit_clifford_strategy(g, alice, {v: identity(1) for v in range(g.bcs.n_vars)}),
        audit_clifford_strategy(g, alice, {v: pauli.parse_pauli("Z") for v in range(g.bcs.n_vars)}),
    ]
    # Witness on the modified game: split v out of the last chain
    # constraint; its Pauli solution has fresh = -v, so Alice answers -v
    # there and loses exactly that one pair against Bob's transpose of v.
    gm = game.build_game_bcs(8, modified=True)
    last = len(gm.bcs.constraints) - 1
    v = gm.bcs.constraints[last].var_indices[0]
    split = bcs.pauli_solve(split_variable(gm.bcs, last, v))
    witness = {alpha: {u: split.strings[u] for u in c.var_indices}
               for alpha, c in enumerate(gm.bcs.constraints)}
    witness[last][v] = split.strings[-1]
    audit = audit_clifford_strategy(
        gm, witness, {u: transpose(split.strings[u]) for u in range(gm.bcs.n_vars)})
    q_alice = game.count_questions(8).modified_alice
    checks = {
        "bound_positive_above": bound_above > 0,
        "bound_negative_below": bound_below < 0,
        "threshold": abs(threshold - 96 * 6252) < 1e-6,
        "audit_min_pair": all(a.min_pair <= 0.5 for a in audits),
        "audit_capped": all(a.avg_win <= p_clif for a in audits),
        "witness_qubits": split.qubits == 0 and not audit.invalid_constraints,
        "witness_win": audit.avg_win == 1 - 1 / (3 * q_alice) <= p_clif,
        "witness_lost_pair": audit.min_pair == 0.0
        and [p for p, a in audit.pair_agreements.items() if a != 1.0] == [(last, v)],
    }
    _report(9, "depth bound ingredients", all(checks.values()), str(checks))


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(135791)
    checked = agreements = 0
    while checked < 500:
        instance = random_bcs(rng)
        system = build_sign_system(instance, bcs.eliminate_free_vars(instance))
        if system.equations.matrix.cols > 20:
            continue
        checked += 1
        decision = isinstance(bcs.pauli_solve(instance), bcs.PauliSolution)
        agreements += decision == satisfiable_brute(system)
    elapsed = time.perf_counter() - t0
    checks = {"agreement": agreements == checked, "runtime<120s": elapsed < 120.0}
    _report(10, "oracle equivalence", all(checks.values()),
            f"{agreements}/{checked} agree, {elapsed:.1f}s")
