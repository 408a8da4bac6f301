import hashlib
import itertools
import json
import re
import tracemalloc
from dataclasses import replace

import lightcone_oracle as oracle
import numpy as np
import pytest
import stream_oracle
from helpers import philox_rng
from hypothesis import given, settings
from hypothesis import strategies as st
from swap_oracle import bell_vector, enumerate_swap_branches
from trial_oracle import (RelationInstance, clean, compute_syndrome, frame_key, rows, run_round1, run_round2,
                          run_sampling_trial, trial_rows)

from bcsmagic import pauli, quantum, shallow
from bcsmagic.bcs import InvariantError, parse_bcs
from bcsmagic.cli import main
from bcsmagic.game import build_game_bcs, enumerate_questions
from bcsmagic.quantum import permutation_solution, phi_plus
from bcsmagic.shallow import (
    CircuitDag,
    Gate,
    backward_cone_sizes,
    backward_lightcone,
    build_strategy_dag,
    dag_from_json,
    depth_lower_bound,
    forward_lightcone,
    frame_tables,
    lightcone_disjoint_probability,
    run_trials,
)


class _ZeroRng:
    """Stand-in rng that always reports bit 0 (sign +1)."""

    def integers(self, low, high=None, size=None):
        return np.zeros(size, dtype=int)

    def random(self):
        return 0.0


def syndrome_key(p_a, p_b) -> int:
    """The frame key a syndrome calls for: z_l when p^A_l is -1, x_l when
    p^B_l is -1."""
    return frame_key([(int(a < 0), int(b < 0)) for a, b in zip(p_a, p_b)])


@pytest.fixture(scope="module")
def game8():
    return build_game_bcs(8, modified=True)


@pytest.fixture(scope="module")
def sol8(game8):
    return permutation_solution(game8)


@pytest.fixture(scope="module")
def stack8(game8, sol8):
    return quantum.StrategyStack(game8.bcs, sol8)


# ---------------------------------------------------------------------------
# round 1 and the swap oracle
# ---------------------------------------------------------------------------

def test_round1_all_plus_gives_identity_frame():
    inst = RelationInstance(N=4, n=8, j=1, k=4, alpha=0, beta=0)
    transcript = run_round1(inst, _ZeroRng())
    assert transcript.pauli_frame == ((0, 0), (0, 0), (0, 0))
    assert np.all(transcript.r_alice == 1) and np.all(transcript.r_bob == 1)
    state = frame_tables()[0][frame_key(transcript.pauli_frame)]
    np.testing.assert_allclose(state, np.eye(8) / np.sqrt(8), atol=0)


def test_instance_validation():
    with pytest.raises(ValueError):
        RelationInstance(N=4, n=8, j=3, k=3, alpha=0, beta=0)
    with pytest.raises(ValueError):
        RelationInstance(N=4, n=8, j=0, k=2, alpha=0, beta=0)


@pytest.mark.parametrize("m", (2, 3))
def test_swap_oracle_matches_analytic_frames(m):
    """All N <= 3 chains: every branch is uniform and its end pair sits in
    the Bell state named by the parity of the outcome bits."""
    branches = enumerate_swap_branches(m)
    expected_p = 4.0 ** -(m - 1)
    tv = 0.0
    for outcomes, prob, end_index in branches:
        assert abs(prob - expected_p) < 1e-12
        z_total = sum(z for z, _ in outcomes) % 2
        x_total = sum(x for _, x in outcomes) % 2
        assert end_index == (z_total, x_total)
        tv += abs(prob - expected_p) / 2
    assert tv <= 1e-12
    assert len(branches) == 4 ** (m - 1)


def test_correction_table_restores_epr():
    """Every syndrome's correction applied to its frame state gives |Phi+>;
    the frame states are the swap oracle's Bell pairs, layer by layer."""
    states, corrections = frame_tables()
    phi = phi_plus(8).reshape(-1)
    for frame in itertools.product(itertools.product((0, 1), repeat=2), repeat=3):
        key = frame_key(frame)
        pairs = [bell_vector(z, x).reshape(2, 2) for z, x in frame]
        np.testing.assert_allclose(states[key], np.kron(np.kron(pairs[0], pairs[1]), pairs[2]),
                                   atol=1e-15)
        syndrome = tuple(1 - 2 * z for z, _ in frame), tuple(1 - 2 * x for _, x in frame)
        fixed = corrections[syndrome_key(*syndrome)] @ states[key]
        assert abs(np.vdot(phi, fixed.reshape(-1))) > 1 - 1e-12


def test_frame_tables_are_read_only():
    states, corrections = frame_tables()
    with pytest.raises(ValueError):
        states[0, 0, 0] = 0
    with pytest.raises(ValueError):
        corrections[0, 0, 0] = 0
    assert frame_tables() is frame_tables()
    assert states.dtype == corrections.dtype == np.float64


def test_frame_tables_reject_an_imaginary_entry(monkeypatch):
    """A table built with one correction times i, Y in place of X Z = -iY,
    is caught by the exact check before anything is stored as real."""
    to_matrix = pauli.to_matrix

    def tampered(s):
        return 1j * to_matrix(s) if (s.x_bits, s.z_bits, s.phase) == (1, 1, 3) else to_matrix(s)

    frame_tables.cache_clear()
    monkeypatch.setattr(pauli, "to_matrix", tampered)
    try:
        with pytest.raises(InvariantError, match="not real"):
            frame_tables()
    finally:
        frame_tables.cache_clear()


def test_frame_distribution_uniform_over_layers():
    inst = RelationInstance(N=20, n=8, j=3, k=11, alpha=0, beta=0)
    rng = philox_rng(99)
    counts = {}
    trials = 20000
    for _ in range(trials):
        frame = run_round1(inst, rng).pauli_frame
        counts[frame[0]] = counts.get(frame[0], 0) + 1
    for key in itertools.product((0, 1), repeat=2):
        assert abs(counts[key] / trials - 0.25) < 0.02


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------

def test_syndrome_all_plus():
    inst = RelationInstance(N=5, n=8, j=2, k=5, alpha=0, beta=0)
    transcript = run_round1(inst, _ZeroRng())
    assert compute_syndrome(transcript) == ((1, 1, 1), (1, 1, 1))


def test_syndrome_single_flip():
    inst = RelationInstance(N=5, n=8, j=2, k=5, alpha=0, beta=0)
    transcript = run_round1(inst, _ZeroRng())
    transcript.r_bob[0, 1] = -1  # r^B_j(2)
    p_a, p_b = compute_syndrome(transcript)
    assert p_a == (1, 1, 1)
    assert p_b == (1, -1, 1)


def test_syndrome_matches_direct_products(game8):
    """The syndrome names the frame's own key on 2,400 trial streams over
    chains of 2 to 1000 sites: the fact that lets corrected rounds start
    from |Phi+> and sampling trials be clean exactly at key 0."""
    keys = set()
    for t in range(2400):
        inst = stream_oracle.instance(game8, (2, 3, 9, 40, 1000)[t % 5], 4, t)
        transcript = run_round1(inst, stream_oracle.trial_draws(4, t, 0))
        p_a, p_b = compute_syndrome(transcript)
        for l in range(3):
            assert p_a[l] == np.prod(transcript.r_alice[:, l])
            assert p_b[l] == np.prod(transcript.r_bob[:, l])
        assert syndrome_key(p_a, p_b) == frame_key(transcript.pauli_frame)
        keys.add(frame_key(transcript.pauli_frame))
    assert keys == set(range(64))


# ---------------------------------------------------------------------------
# round 2
# ---------------------------------------------------------------------------

def _oracle_trial(game, sites, seed, t):
    """Trial t's instance and its draws, from the scalar stream oracle."""
    inst = stream_oracle.instance(game, sites, seed, t)
    width = len(game.bcs.constraints[inst.alpha].var_indices)
    return inst, stream_oracle.trial_draws(seed, t, width)


def test_round2_relation_always_holds(game8, sol8):
    for t in range(200):
        inst, draws = _oracle_trial(game8, 40, 123, t)
        transcript = run_round1(inst, draws)
        assert run_round2(game8, inst, transcript, sol8, draws).won


def test_round2_without_correction_violates_sometimes(game8, sol8):
    # The agreement clause only bites when beta belongs to the constraint,
    # so sample questions from the game's own pair set.
    rng = philox_rng(321)
    violations = 0
    trials = 0
    while trials < 200:
        alpha = int(rng.integers(len(game8.bcs.constraints)))
        beta = int(rng.choice(game8.bcs.constraints[alpha].var_indices))
        inst = RelationInstance(N=30, n=8, j=2, k=17, alpha=alpha, beta=beta)
        transcript = run_round1(inst, rng)
        if all(f == (0, 0) for f in transcript.pauli_frame):
            continue
        trials += 1
        violations += not run_round2(game8, inst, transcript, sol8, rng, apply_correction=False).won
    assert violations > 0


def test_round2_identity_frame_without_correction(game8, sol8):
    for t in range(20):
        inst, draws = _oracle_trial(game8, 10, 5, t)
        transcript = run_round1(inst, _ZeroRng())
        assert run_round2(game8, inst, transcript, sol8, draws, apply_correction=False).won


def test_check_relation_foreign_beta_vacuous(game8, sol8):
    """With beta outside constraint alpha, Bob's outcome does not matter:
    the round is won on every draw, whichever sign Bob reads, and lost on
    every draw once one of Alice's observables is negated."""
    c = game8.bcs.constraints[0]
    beta = next(v for v in range(game8.bcs.n_vars) if v not in c.var_indices)
    v = c.var_indices[0]
    flipped = sol8.copy()
    flipped[v] *= -1
    phi = np.broadcast_to(phi_plus(8), (40, 8, 8))
    u = philox_rng(0).random((40, 4))
    for sol, won in ((sol8, True), (flipped, False)):
        stack = quantum.StrategyStack(game8.bcs, sol)
        results = stack.measure(phi, np.zeros(40, dtype=int), np.full(40, beta), u, u[:, 3])
        assert set(results.won.tolist()) == {won}
        assert set(results.outcomes[:, -1].tolist()) == {1, -1}


def test_real_and_complex_stacks_measure_alike(game8, sol8):
    """The real strategy and the same strategy cast to complex, measured on
    the same frame states with shared uniforms, give the same rounds."""
    cast = sol8.astype(complex)
    real, complex_ = quantum.StrategyStack(game8.bcs, sol8), quantum.StrategyStack(game8.bcs, cast)
    assert (real.ops.dtype, complex_.ops.dtype) == (np.float64, np.complex128)
    questions = np.array(enumerate_questions(game8))
    rng = philox_rng(16)
    for _ in range(3):
        states = frame_tables()[0][rng.integers(64, size=128)]
        alphas, betas = questions[rng.integers(len(questions), size=128)].T
        u = rng.random((128, 4))
        results = real.measure(states, alphas, betas, u, u[:, 3])
        cast_results = complex_.measure(states.astype(complex), alphas, betas, u, u[:, 3])
        assert rows(results) == rows(cast_results)
        for name, column in vars(results).items():
            np.testing.assert_array_equal(column, getattr(cast_results, name), strict=True)
        assert set(results.won.tolist()) == {True, False}


# ---------------------------------------------------------------------------
# sampling variant
# ---------------------------------------------------------------------------

def test_sampling_split_and_case1_rate(game8, sol8):
    trials = 6000
    cases = {"case1": 0, "case2": 0, "invalid": 0}
    for t in range(trials):
        inst, draws = _oracle_trial(game8, 12, 777, t)
        result, is_clean = run_sampling_trial(game8, inst, sol8, draws)
        cases[("case1" if result.won else "invalid") if is_clean else "case2"] += 1
    assert cases["invalid"] == 0
    assert cases["case1"] + cases["case2"] == trials
    p = 1 / 64
    sigma = np.sqrt(trials * p * (1 - p))
    assert abs(cases["case1"] - trials * p) < 5 * sigma


def test_sampling_forced_clean_bits_is_case1(game8, sol8):
    rng = philox_rng(31337)

    class _CleanRound1Rng:
        def integers(self, low, high=None, size=None):
            return np.zeros(size, dtype=int)

        def random(self):
            return float(rng.random())

    inst = RelationInstance(N=6, n=8, j=2, k=5, alpha=3, beta=game8.bcs.constraints[3].var_indices[0])
    result, is_clean = run_sampling_trial(game8, inst, sol8, _CleanRound1Rng())
    assert is_clean and result.won


# ---------------------------------------------------------------------------
# batched trials
# ---------------------------------------------------------------------------

def test_run_trials_relation_equals_a_loop(game8, sol8, stack8, monkeypatch):
    """A chain length drawn per trial, up to 400 sites so that round 1 spans
    several Bell words: each trial replayed alone from the scalar stream
    oracle equals the batched one, across several batch boundaries."""
    expected = []
    for t in range(150):
        inst, draws = _oracle_trial(game8, (2, 400), 2718, t)
        transcript = run_round1(inst, draws)
        expected.append((inst, run_round2(game8, inst, transcript, sol8, draws), clean(transcript)))
    monkeypatch.setattr(quantum, "CHUNK", 16)
    records = list(run_trials(stack8, (2, 400), 2718, 150))
    assert [r.trials.tolist() for r in records] == [list(range(t, min(t + 16, 150))) for t in range(0, 150, 16)]
    batched = [row for record in records for row in trial_rows(record, 8)]
    assert batched == expected
    assert all(result.won for _, result, _ in batched)
    assert max(inst.k - inst.j for inst, _, _ in batched) > 128


def test_run_trials_sampling_equals_a_loop(game8, sol8, stack8, monkeypatch):
    expected = []
    for t in range(300):
        inst, draws = _oracle_trial(game8, 6, 1414, t)
        expected.append((inst, *run_sampling_trial(game8, inst, sol8, draws)))
    monkeypatch.setattr(quantum, "CHUNK", 45)
    records = list(run_trials(stack8, 6, 1414, 300, "sampling"))
    assert [r.trials.tolist() for r in records] == [list(range(t, min(t + 45, 300))) for t in range(0, 300, 45)]
    batched = [row for record in records for row in trial_rows(record, 8)]
    assert batched == expected
    assert {is_clean for _, _, is_clean in batched} == {True, False}
    assert all(result.won for _, result, is_clean in batched if is_clean)


def test_frame_keys_span_bell_words(game8):
    """Chains of 1 to 999 junctions, around every 64-junction word edge:
    the packed frame keys equal the frame of the oracle's Bell bits."""
    junctions = np.array([1, 2, 63, 64, 65, 127, 128, 129, 500, 999])
    trials = np.arange(len(junctions)) + 1000
    keys = shallow._frame_keys(quantum.TrialStream(11), trials, junctions)
    for t, m, key in zip(trials.tolist(), junctions.tolist(), keys.tolist()):
        inst = RelationInstance(N=m + 1, n=8, j=1, k=m + 1, alpha=0, beta=0)
        assert key == frame_key(run_round1(inst, stream_oracle.trial_draws(11, t, 0)).pauli_frame)
    assert len(set(keys.tolist())) > 5


@pytest.mark.parametrize("key_blocks", [1, 2, 3])
def test_frame_keys_do_not_depend_on_key_blocks(key_blocks, monkeypatch):
    """Folded a few 64-junction blocks at a time, the frame keys of chains
    up to 999 junctions equal the keys of the one-pass fold."""
    junctions = np.array([1, 64, 65, 128, 129, 191, 192, 193, 500, 999, 3])
    trials = np.arange(len(junctions)) + 50
    whole = shallow._frame_keys(quantum.TrialStream(11), trials, junctions)
    monkeypatch.setattr(shallow, "KEY_BLOCKS", key_blocks)
    assert np.array_equal(shallow._frame_keys(quantum.TrialStream(11), trials, junctions), whole)


def test_run_trials_checks_every_trials_fidelity(stack8, monkeypatch):
    """Corrected trials start from |Phi+> because frame_tables checks every
    key's correction once: a table built with one wrong correction (the
    identity for the frame with a Y on layer 0) fails that check, so no
    trial of either mode runs on it."""
    to_matrix = pauli.to_matrix

    def tampered(s):
        if (s.x_bits, s.z_bits, s.phase) == (1, 1, 3):  # the correction X Z = -iY
            return np.eye(8, dtype=complex)
        return to_matrix(s)

    frame_tables.cache_clear()
    monkeypatch.setattr(pauli, "to_matrix", tampered)
    try:
        for mode in ("relation", "sampling"):
            with pytest.raises(InvariantError, match="fidelity"):
                list(run_trials(stack8, 40, 0, 4, mode))
    finally:
        frame_tables.cache_clear()


def test_run_trials_rejects_bad_mode_and_dimension(game8, sol8, stack8):
    """Every check runs when run_trials is called, before the first trial
    is asked for.  Site draws are exact up to 2^32 + 1 sites, so longer
    chains are refused; the longest allowed ones are only called here, since
    a trial on them draws a Bell word per 64 junctions."""
    with pytest.raises(ValueError, match="mode"):
        run_trials(stack8, 5, 0, 1, "both")
    bad = np.broadcast_to(np.eye(4, dtype=complex), (len(sol8), 4, 4))
    with pytest.raises(ValueError, match="dimension"):
        run_trials(quantum.StrategyStack(game8.bcs, bad), 5, 0, 1)
    # The unmodified game's product constraint has eight variables.
    wide = build_game_bcs(8)
    with pytest.raises(ValueError, match="three variables"):
        run_trials(quantum.StrategyStack(wide.bcs, permutation_solution(wide)), 5, 0, 1)
    # So does one constraint of four, on signed identities that satisfy it.
    four = quantum.StrategyStack(parse_bcs("a b c d = 1\n"), np.array([1, -1, -1, 1])[:, None, None] * np.eye(8))
    assert four.report.ok
    with pytest.raises(ValueError, match="at most three variables"):
        run_trials(four, 5, 0, 1)
    for sites in (1, (1, 5), (4, 4)):
        with pytest.raises(ValueError, match="two sites"):
            run_trials(stack8, sites, 0, 1)
    for sites in (2 ** 32 + 2, (2, 2 ** 32 + 3), 2 ** 64):
        with pytest.raises(ValueError, match=r"at most 2\^32 \+ 1, got"):
            run_trials(stack8, sites, 0, 1)
    run_trials(stack8, 2 ** 32 + 1, 0, 1)
    run_trials(stack8, (2, 2 ** 32 + 2), 0, 1)
    with pytest.raises(ValueError, match="trials"):
        run_trials(stack8, 5, 0, -1)
    with pytest.raises(ValueError, match="seed"):
        run_trials(stack8, 5, -3, 1)


def test_run_trials_rejects_observables_that_are_not_hermitian_involutions(game8, sol8):
    """Doubled, the dimension-8 strategy still commutes but is no
    involution: the call refuses it, since measure_batch's branches need one."""
    stack = quantum.StrategyStack(game8.bcs, 2 * sol8)
    assert not stack.report.hermitian_ok
    with pytest.raises(ValueError, match="Hermitian involutions"):
        run_trials(stack, 5, 0, 1)


def test_run_trials_rejects_a_bcs_without_constraints_when_called():
    """A dimension-8 stack of a BCS with no constraints has no question to
    draw: the call refuses it, before the first trial, unless no trial is
    asked for."""
    stack = quantum.StrategyStack(parse_bcs("vars: a\n"), np.eye(8)[None])
    with pytest.raises(ValueError, match="no constraints"):
        run_trials(stack, 5, 0, 3)
    assert list(run_trials(stack, 5, 0, 0)) == []


# ---------------------------------------------------------------------------
# circuit wirings
# ---------------------------------------------------------------------------

def test_strategy_dag_arities():
    dag = build_strategy_dag(8)
    by_kind = {}
    for g in dag.gates:
        by_kind.setdefault(g.kind, set()).add(len(g.inputs))
    assert by_kind["epr_prep"] == {2}
    assert by_kind["bsm"] == {3}
    assert by_kind["correction"] == {3}
    assert by_kind["game_measure"] == {14}
    assert dag.max_fan_in == 14
    assert max(len(g.inputs) for g in dag.gates if g.kind == "game_measure") == 14


def test_strategy_dag_constant_depth():
    assert build_strategy_dag(4).depth == build_strategy_dag(64).depth


def test_strategy_dag_json_round_trip():
    """The strategy wiring's arrays, laid out from its role rows, equal
    those of its JSON, parsed into arrays: index, output owners and flat
    site groups, dtypes included."""
    for sites in (2, 3, 16):
        dag = build_strategy_dag(sites)
        back = dag_from_json(dag.to_json())
        for name in ("_index", "_output_sites", "_inputs", "_outputs"):
            _assert_same_arrays(getattr(back, name), getattr(dag, name))
        assert back.wire_kinds == dag.wire_kinds
        assert (back.max_fan_in, back.depth, back.n_gates) == (dag.max_fan_in, dag.depth, dag.n_gates)
        assert back.alice_inputs == dag.alice_inputs
        assert back.gates == dag.gates


def test_strategy_dag_backward_cone_excludes_far_questions():
    dag = build_strategy_dag(10)
    k = 7
    cone = backward_lightcone(dag, dag.bob_outputs[k])
    for j in (0, 2, 4):
        assert not cone.intersection(dag.alice_inputs[j])
    assert len(cone) <= 3 * 14 ** dag.depth


def test_strategy_dag_lightcones_always_disjoint():
    dag = build_strategy_dag(12)
    assert lightcone_disjoint_probability(dag) == 1.0


def test_single_gate_backward_bound():
    dag = CircuitDag(list("cccc"), [Gate(1, (0, 1), (2, 3), "g")])
    assert backward_lightcone(dag, 2) <= {0, 1, 2}
    assert len(backward_lightcone(dag, 2)) <= 2 + 1


def test_chain_dag_backward_bound():
    # Binary tree of XORs: K=2, D=3, |backward(o)| <= 8 inputs.
    kinds = ["c"] * 15
    gates = [
        Gate(1, (0, 1), (8,)), Gate(1, (2, 3), (9,)),
        Gate(1, (4, 5), (10,)), Gate(1, (6, 7), (11,)),
        Gate(2, (8, 9), (12,)), Gate(2, (10, 11), (13,)),
        Gate(3, (12, 13), (14,)),
    ]
    dag = CircuitDag(kinds, gates)
    cone = backward_lightcone(dag, 14)
    assert set(range(8)) <= cone
    assert len(cone.intersection(range(8))) <= 2 ** 3


def test_forward_lightcone_unknown_wire():
    dag = CircuitDag(["c"], [])
    with pytest.raises(ValueError):
        forward_lightcone(dag, 5)


def test_backward_lightcone_unknown_wire():
    dag = CircuitDag(["c"], [])
    with pytest.raises(ValueError):
        backward_lightcone(dag, [0, -1])


def test_dag_index_follows_edits():
    dag = CircuitDag(list("ccc"), [Gate(1, (0,), (1,))])
    assert dag.depth == 1
    dag.gates.append(Gate(3, (1,), (2,)))
    dag.__post_init__()
    assert dag.depth == 3
    assert forward_lightcone(dag, 0) == {0, 1, 2}
    assert backward_lightcone(dag, 2) == {0, 1, 2}
    # Alice's input at site 0 reaches Bob's output at site 1, until that
    # output wire moves to Bob's site 0, where it crosses no pair.
    dag = _disconnected_dag(3)
    moved = dag.bob_outputs[1][0]
    dag.gates.append(Gate(1, tuple(dag.alice_inputs[0]), (moved,)))
    dag.__post_init__()
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag) == 1 - 1 / 3
    dag.bob_outputs[1].remove(moved)
    dag.bob_outputs[0].append(moved)
    dag.__post_init__()
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag) == 1.0


def test_rejected_edit_keeps_the_last_valid_wiring():
    """A call to __post_init__ that fails a check changes nothing: depth,
    fan-in, gate count, index and cone answers stay those of the last valid
    wiring.  A strategy wiring, built from arrays, names its first offender
    as the loop oracle does, before its gate list is ever read too."""
    dag = build_strategy_dag(3)

    def state():
        return (dag.depth, dag.max_fan_in, dag.n_gates, len(dag._index),
                backward_cone_sizes(dag, dag.alice_outputs + dag.bob_outputs),
                lightcone_disjoint_probability(dag), forward_lightcone(dag, dag.alice_inputs[0]))

    before = state()
    assert before[:3] == (5, 14, 54)
    parts = _strategy_parts(3)
    parts[0].pop()
    dag.wire_kinds.pop()  # the last wire, Bob's last output bit, is now unknown
    with pytest.raises(ValueError, match=re.escape(_outcome(lambda: oracle.validate(*parts)))):
        dag.__post_init__()
    dag.wire_kinds.append("c")  # the cone sweeps read the wire count live
    assert state() == before
    dag.gates.append(Gate(9, (0,), (10 ** 6,)))
    with pytest.raises(ValueError, match="gate writes unknown wire 1000000"):
        dag.__post_init__()
    assert state() == before
    # Valid gates, but a site group missing: the group checks come last.
    dag.gates[-1] = Gate(9, (0,), (len(dag.wire_kinds) - 1,))
    group = dag.bob_inputs.pop()
    with pytest.raises(ValueError, match="one group per site"):
        dag.__post_init__()
    assert state() == before
    dag.bob_inputs.append(group)
    dag.__post_init__()
    assert (dag.depth, dag.n_gates) == (9, 55)


@pytest.mark.parametrize("dropped", [1, 40])
def test_rejected_strategy_wiring_builds_no_gate_list(dropped):
    """Wires past the last kind are named from the arrays, as the loop
    oracle names them, without the gate list ever being made; 40 dropped
    kinds leave wire ids read and written well past the wire count."""
    dag = build_strategy_dag(3)
    parts = _strategy_parts(3)
    del parts[0][-dropped:], dag.wire_kinds[-dropped:]
    with pytest.raises(ValueError, match=re.escape(_outcome(lambda: oracle.validate(*parts)))):
        dag.__post_init__()
    assert "gates" not in vars(dag)


def test_loaded_wiring_names_an_unknown_wire_without_gates(monkeypatch):
    wiring = json.loads(build_strategy_dag(3).to_json())
    wiring["gates"][0]["inputs"] = [0.5]

    def no_gate(*args):
        raise AssertionError("a Gate was built")

    monkeypatch.setattr(shallow, "Gate", no_gate)
    with pytest.raises(ValueError, match=re.escape("gate reads unknown wire 0.5")):
        dag_from_json(json.dumps(wiring))


def test_strategy_wiring_memory():
    """The strategy wiring is laid out and indexed as arrays, with no gate
    list until one is read: at 2,000 sites the tracemalloc peak of the
    build was 23.5 MB with a ``Gate`` per gate, and is 17.2 MB as arrays,
    the site groups handed over flat included."""
    tracemalloc.start()
    try:
        build_strategy_dag(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("change, message", [
    (lambda d: d.wire_kinds.__setitem__(0, "x"), "kind"),
    (lambda d: d.wire_kinds.__setitem__(0, 7), "kind"),
    (lambda d: d.gates.append(Gate(1.5, (0,), (1,))), "layers"),
    (lambda d: d.gates.append(Gate(True, (0,), (1,))), "layers"),
    (lambda d: d.gates.append(Gate(1, (0.5,), (1,))), "reads unknown wire"),
    (lambda d: d.gates.append(Gate(1, (0,), (True,))), "writes unknown wire"),
    (lambda d: d.gates.extend([Gate(2, (0,), (2,)), Gate(2, (1,), (2,))]), "written twice"),
    (lambda d: d.gates.extend([Gate(1, (0,), (1,)), Gate(2, (1,), (2,), None)]), "gate 1 has kind None, not a string"),
    (lambda d: d.bob_inputs[1].append(99), "site group"),
    (lambda d: d.alice_outputs.append([4]), "one group per site"),
    (lambda d: d.alice_outputs[1].append(d.alice_outputs[0][0]), "output groups of sites 0 and 1"),
    # Two shared wires: the first in site-then-group order is named, not the lowest id.
    (lambda d: (d.alice_outputs[1].append(d.alice_outputs[2][0]),
                d.alice_outputs[2].append(d.alice_outputs[0][0])),
     "wire 18 is in Alice's output groups of sites 1 and 2"),
])
def test_dag_rejects_malformed_wiring(change, message):
    dag = _disconnected_dag(3)
    change(dag)
    with pytest.raises(ValueError, match=message):
        dag.__post_init__()


def test_dag_reads_within_a_layer_in_list_order():
    # Wire 1 is read, then overwritten, in layer 1: valid in this order...
    CircuitDag(list("ccc"), [Gate(1, (1,), (2,)), Gate(1, (0,), (1,))])
    # ...but read after a same-layer gate produced it in the other.
    with pytest.raises(ValueError, match="wire 1 read at layer 1 before it is produced"):
        CircuitDag(list("ccc"), [Gate(1, (0,), (1,)), Gate(1, (1,), (2,))])


def test_dag_allows_a_wire_in_one_output_group_per_side():
    dag = _disconnected_dag(3)
    dag.bob_outputs[2].append(dag.alice_outputs[0][0])
    dag.alice_outputs[1].append(dag.alice_outputs[1][0])
    dag.__post_init__()
    assert lightcone_disjoint_probability(dag) == 1.0


def _disconnected_dag(n_sites):
    kinds = []
    a_in, b_in, a_out, b_out = [], [], [], []
    for _ in range(n_sites):
        base = len(kinds)
        kinds.extend("c" * 8)
        a_in.append([base])
        b_in.append([base + 1])
        a_out.append([base + 2, base + 3, base + 4])
        b_out.append([base + 5, base + 6, base + 7])
    return CircuitDag(kinds, [], a_in, b_in, a_out, b_out)


def test_disconnected_dag_probability_one():
    assert lightcone_disjoint_probability(_disconnected_dag(6)) == 1.0


def test_all_to_one_dag_probability_zero():
    dag = _disconnected_dag(5)
    all_inputs = tuple(w for g in dag.alice_inputs + dag.bob_inputs for w in g)
    all_outputs = tuple(w for g in dag.alice_outputs + dag.bob_outputs for w in g)
    dag.gates.append(Gate(1, all_inputs, all_outputs, "global"))
    dag.__post_init__()
    prob = lightcone_disjoint_probability(dag)
    assert prob == 0.0
    bound = 1 - 48 * dag.max_fan_in ** dag.depth / dag.n_sites
    assert prob >= bound  # vacuous: the bound is negative


def random_local_dag(n_sites, K, D, rng):
    """Layered random mixing with neighbour-local gates and 3-bit outputs."""
    kinds = []

    def wires(count):
        base = len(kinds)
        kinds.extend("c" * count)
        return list(range(base, base + count))

    a_in = [wires(1) for _ in range(n_sites)]
    b_in = [wires(1) for _ in range(n_sites)]
    mix = {(i, 0): a_in[i] + b_in[i] for i in range(n_sites)}
    gates = []
    for t in range(1, D):
        for i in range(n_sites):
            out = wires(1)
            mix[(i, t)] = out
            pool = []
            for nb in (i - 1, i, i + 1):
                if 0 <= nb < n_sites:
                    pool.extend(mix[(nb, t - 1)])
            chosen = [pool[int(x)] for x in rng.choice(len(pool), size=min(K, len(pool)), replace=False)]
            gates.append(Gate(t, tuple(chosen), tuple(out)))
    a_out, b_out = [], []
    for i in range(n_sites):
        outs_a, outs_b = wires(3), wires(3)
        a_out.append(outs_a)
        b_out.append(outs_b)
        pool = []
        for nb in (i - 1, i, i + 1):
            if 0 <= nb < n_sites:
                pool.extend(mix[(nb, D - 1)])
        gates.append(Gate(D, tuple(pool[:K]), tuple(outs_a)))
        gates.append(Gate(D, tuple(pool[:K]), tuple(outs_b)))
    return CircuitDag(kinds, gates, a_in, b_in, a_out, b_out)


def test_random_local_dags_meet_hardness_bound():
    rng = philox_rng(2718)
    for n_sites in (64, 256):
        dag = random_local_dag(n_sites, K=3, D=4, rng=rng)
        assert dag.max_fan_in <= 3 and dag.depth == 4
        prob = lightcone_disjoint_probability(dag)
        assert prob >= 1 - 48 * 3 ** 4 / n_sites
        for s in range(0, n_sites, 17):
            cone = backward_lightcone(dag, dag.alice_outputs[s])
            assert len(cone) <= 3 * 3 ** 4


@st.composite
def wiring_parts(draw):
    """The constructor's arguments for small random wirings that it accepts.

    Gates are drawn layer by layer under the constructor's rules: a layer
    writes each wire at most once, and once a gate writes a wire it does not
    read, later gates of that layer may not read it.  Transform gates (a wire
    both read and written) and gates that write a wire an earlier gate of the
    same layer read are both common; the latter chain gates within one
    layer, a chain that the cones must not follow.  The layers are then
    interleaved in the gate list, keeping each layer's own order.
    """
    def some(pool, most, unique=False):
        return draw(st.lists(st.sampled_from(pool), max_size=most, unique=unique)) if pool else []

    n_wires = draw(st.integers(2, 12))
    first_written: dict[int, int] = {}
    by_layer = []
    for layer in range(1, draw(st.integers(1, 4)) + 1):
        gates, written = [], set()
        for _ in range(draw(st.integers(0, 5))):
            readable = [w for w in range(n_wires) if first_written.get(w) != layer]
            unwritten = [w for w in range(n_wires) if w not in written]
            inputs = some(readable, 4)
            outputs = some(unwritten, 3, unique=True)
            if outputs and draw(st.booleans()):
                inputs.append(outputs[0])
            for w in outputs:
                written.add(w)
                if w not in inputs:
                    first_written.setdefault(w, layer)
            gates.append(Gate(layer, tuple(inputs), tuple(outputs)))
        by_layer.append(gates)
    labels = draw(st.permutations([g.layer for gates in by_layer for g in gates]))
    queues = [iter(gates) for gates in by_layer]
    gate_list = [next(queues[layer - 1]) for layer in labels]

    n_sites = draw(st.integers(2, 4))
    wire = st.integers(0, n_wires - 1)

    def input_groups():
        return [draw(st.lists(wire, max_size=3)) for _ in range(n_sites)]

    def output_groups():
        owners = draw(st.lists(st.integers(-1, n_sites - 1), min_size=n_wires, max_size=n_wires))
        return [[w for w in range(n_wires) if owners[w] == s] for s in range(n_sites)]

    kinds = draw(st.lists(st.sampled_from("cq"), min_size=n_wires, max_size=n_wires))
    return kinds, gate_list, input_groups(), input_groups(), output_groups(), output_groups()


def valid_wirings():
    return wiring_parts().map(lambda parts: CircuitDag(*parts))


def _strategy_parts(sites):
    dag = build_strategy_dag(sites)
    return (list(dag.wire_kinds), list(dag.gates), *(
        [list(group) for group in groups]
        for groups in (dag.alice_inputs, dag.bob_inputs, dag.alice_outputs, dag.bob_outputs)))


_BAD_KINDS = ["x", 7, None, "", "cq", ["c"]]
_BAD_GATE_KINDS = [None, 7, ["gate"], {"kind": "gate"}]
_BAD_LAYERS = [0, -1, True, False, 1.0, 2.5, "1", None]
_BAD_WIRES = [-1, True, False, 0.0, 0.5, 10 ** 400, "0"]


@st.composite
def planted_wirings(draw):
    """A random wiring or a small strategy wiring, its layers relabelled by
    an increasing map that may skip layers and reach 10^400, with up to
    three planted faults: bad wire kinds; bool, float, negative and
    out-of-range layers and wires; a same-layer read after a write, the
    writer sometimes a transform; duplicate writes; shared output wires;
    bad or missing site groups; and gate kinds that are not strings."""
    kinds, gates, *groups = draw(st.one_of(wiring_parts(), st.integers(2, 3).map(_strategy_parts)))
    labels = sorted(draw(st.sets(st.sampled_from([1, 2, 3, 4, 5, 9, 2 ** 63, 10 ** 400]), min_size=5, max_size=5)))
    gates = [Gate(labels[g.layer - 1], g.inputs, g.outputs, g.kind) for g in gates]

    def pick(items):
        return draw(st.integers(0, len(items) - 1))

    faults = ["none", "kind", "layer", "wire", "wire", "read", "read", "write", "share", "share", "group", "gate kind"]
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=3)):
        if fault == "kind":
            kinds[pick(kinds)] = draw(st.sampled_from(_BAD_KINDS))
        elif fault == "group":
            side = groups[pick(groups)]
            if draw(st.booleans()) or not side:
                side.append([])
            else:
                side[pick(side)].append(draw(st.sampled_from([*_BAD_WIRES, len(kinds)])))
        elif fault == "share":
            side = groups[draw(st.sampled_from([2, 3]))]
            wires = [w for group in side for w in group]
            if wires:
                side[pick(side)].append(draw(st.sampled_from(wires)))
        elif fault == "read":
            # A read after a write of the lowest layer, a fault unless the writer is a transform.
            w = pick(kinds)
            j = draw(st.integers(0, len(gates)))
            gates.insert(j, Gate(labels[0], (w,) if draw(st.booleans()) else (), (w,)))
            gates.insert(draw(st.integers(j + 1, len(gates))), Gate(labels[0], (w,), ()))
        elif not gates:
            continue
        elif fault == "gate kind":
            i = pick(gates)
            gates[i] = replace(gates[i], kind=draw(st.sampled_from(_BAD_GATE_KINDS)))
        elif fault == "layer":
            i = pick(gates)
            gates[i] = replace(gates[i], layer=draw(st.sampled_from(_BAD_LAYERS)))
        elif fault == "wire":
            i, side = pick(gates), draw(st.sampled_from(["inputs", "outputs"]))
            wires = list(getattr(gates[i], side))
            wires[pick(wires) if wires else 0:1] = [draw(st.sampled_from([*_BAD_WIRES, len(kinds)]))]
            gates[i] = replace(gates[i], **{side: tuple(wires)})
        elif fault == "write":  # a second write of a gate's output, by it or another of its layer
            writers = [i for i, g in enumerate(gates) if g.outputs]
            if not writers:
                continue
            i = draw(st.sampled_from(writers))
            g = gates[i]
            w = draw(st.sampled_from(g.outputs))
            if draw(st.booleans()):
                gates[i] = replace(g, outputs=(*g.outputs, w))
            else:
                gates.insert(draw(st.integers(0, len(gates))), Gate(g.layer, (), (w,)))
    return kinds, gates, *groups


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(planted_wirings())
def test_validation_matches_the_loop_oracle(parts):
    """The array checks accept exactly the wirings that the loop accepts,
    and a rejected one names the loop's first offender."""
    dag = _outcome(lambda: CircuitDag(*parts))
    got = dag if isinstance(dag, str) else (dag.depth, dag.max_fan_in)
    assert got == _outcome(lambda: oracle.validate(*parts))


def _wiring_text(kinds, gates, *groups) -> str:
    """A wiring's JSON as ``CircuitDag.to_json`` writes it, from constructor
    arguments that it may reject."""
    return json.dumps({
        "wires": [{"id": i, "kind": k} for i, k in enumerate(kinds)],
        "gates": [{"layer": g.layer, "inputs": list(g.inputs), "outputs": list(g.outputs), "kind": g.kind}
                  for g in gates],
        **dict(zip(("alice_inputs", "bob_inputs", "alice_outputs", "bob_outputs"), groups)),
    })


def _assert_same_arrays(got, expected):
    """Equal nested tuples and lists of arrays, dtypes included."""
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    else:
        assert type(got) is type(expected) and len(got) == len(expected)
        for a, b in zip(got, expected):
            _assert_same_arrays(a, b)


@settings(max_examples=300, deadline=None)
@given(st.one_of(wiring_parts(), planted_wirings()))
def test_loaded_wiring_matches_the_gate_list(parts):
    """``dag_from_json`` lays the JSON out as arrays with no ``Gate``, and
    rejects what the ``Gate`` list constructor rejects with the same
    message; an accepted wiring has the same index, output owners, flat
    site groups, sizes and JSON bytes, and the gate list it makes when read
    is the original one."""
    text = _wiring_text(*parts)
    built, loaded = _outcome(lambda: CircuitDag(*parts)), _outcome(lambda: dag_from_json(text))
    if isinstance(built, str):
        assert loaded == built
        return
    assert "gates" not in vars(loaded)
    for name in ("_index", "_output_sites", "_inputs", "_outputs"):
        _assert_same_arrays(getattr(loaded, name), getattr(built, name))
    assert (loaded.depth, loaded.max_fan_in, loaded.n_gates) == (built.depth, built.max_fan_in, built.n_gates)
    assert loaded.to_json() == built.to_json() == text
    assert loaded.gates == built.gates == parts[1]


def test_loaded_wiring_memory():
    """A loaded wiring's gates go straight from the JSON lists to arrays: at
    2,000 sites (22,000 wires, 10,000 gates) the tracemalloc peak of
    ``dag_from_json`` was 16.8 MB with a ``Gate`` per gate, and is 15.0 MB."""
    text = random_local_dag(2000, K=3, D=4, rng=philox_rng(2718)).to_json()
    tracemalloc.start()
    try:
        dag_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@settings(max_examples=300, deadline=None)
@given(valid_wirings())
def test_sweep_matches_per_seed_oracle(dag):
    seeds = [[w] for w in range(len(dag.wire_kinds))] + dag.alice_inputs + dag.bob_inputs
    for seed in seeds:
        assert forward_lightcone(dag, seed) == oracle.forward_lightcone(dag, seed)
    out_groups = seeds + dag.alice_outputs + dag.bob_outputs
    expected = oracle.backward_lightcones(dag, out_groups)
    for group, cone in zip(out_groups, expected):
        assert backward_lightcone(dag, group) == cone
    assert backward_cone_sizes(dag, out_groups) == [len(cone) for cone in expected]
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag)


@settings(max_examples=300, deadline=None)
@given(valid_wirings())
def test_forward_and_backward_cones_are_dual(dag):
    wires = range(len(dag.wire_kinds))
    forward = [forward_lightcone(dag, w) for w in wires]
    backward = [backward_lightcone(dag, w) for w in wires]
    for i, o in itertools.product(wires, wires):
        assert (o in forward[i]) == (i in backward[o])


@settings(max_examples=500, deadline=None)
@given(valid_wirings())
def test_backward_cones_meet_the_fan_in_bound(dag):
    groups = [[w] for w in range(len(dag.wire_kinds))] + dag.alice_outputs + dag.bob_outputs
    cap = (dag.max_fan_in + 1) ** dag.depth
    for group, size in zip(groups, backward_cone_sizes(dag, groups)):
        assert size <= len(group) * cap


def test_strategy_dag_cones_match_oracle():
    dag = build_strategy_dag(24)
    for s in (0, 11, 23):
        for group in (dag.alice_inputs[s], dag.bob_inputs[s]):
            assert forward_lightcone(dag, group) == oracle.forward_lightcone(dag, group)
    out_groups = dag.alice_outputs + dag.bob_outputs
    assert backward_cone_sizes(dag, out_groups) == [
        len(cone) for cone in oracle.backward_lightcones(dag, out_groups)
    ]
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag)


# SHA-256 of `lightcone` stdout, recorded from the per-wire bitset sweep
# that the sparse (wire, seed) sweep replaced: the bytes must not move.
_LIGHTCONE_SHA256 = {
    ("16", "json"): "a7917a9568d1b519062c83136bef1ebf6dfe26ac5f1dcdacac1efde68db65154",
    ("64", "json"): "008e7efd355a9de89bece7359c93c136c48282394c8756855b29f388d3481e12",
    ("512", "json"): "f1987f575b81b319c54e3f559813f507688f1eb298bc124735640b4b75118869",
    ("512", "text"): "6a1109516aeb24462db85bb4fcc1e24fdefb5cd52161d465fb52f5b4d6befd9b",
    ("2000", "json"): "b08cf60d9bc0cc56f93804dc030cda1050a8e01cdc91366371b28bdc4296871c",
    ("8000", "json"): "5030bbfe1fb408dbec0854fd87e82d6210fbd096b35cd8c812d5b29661237695",
    ("local", "json"): "47ddc9af4c06f12c1ca72d93ebd38cbb34ff8726c2186dc0f82fdc1564a0fa22",
    ("local", "text"): "afc6c9c52cca367b1b58028cf4f7b3e5a5d916528655a5704cb69340f6281c86",
}


@pytest.mark.parametrize("wiring, fmt", list(_LIGHTCONE_SHA256))
def test_lightcone_output_bytes(wiring, fmt, tmp_path, capsys):
    """The strategy wiring by --sites, and a seeded neighbour-local wiring
    (256 sites, K = 3, D = 4) loaded with --dag."""
    if wiring == "local":
        path = tmp_path / "local.json"
        path.write_text(random_local_dag(256, K=3, D=4, rng=philox_rng(2718)).to_json())
        argv = ["lightcone", "--dag", str(path), "--format", fmt]
    else:
        argv = ["lightcone", "--sites", wiring, "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _LIGHTCONE_SHA256[wiring, fmt]


# SHA-256 of `lightcone --dag` stdout on a seeded neighbour-local wiring of
# 2,000 sites (K = 3, D = 4), recorded while the loader still built a
# ``Gate`` per gate: laying the JSON out as arrays must not move a byte.
_LOADED_LIGHTCONE_SHA256 = {
    "json": "da41fc114f4aa680740a48ebda7c42ac597d7505c3b29bca6fabeaf4a5c119a2",
    "text": "f9e5cfab02554d3a2457a0d03997cbea7f7fcde5387b0108e1966ce1682dda0f",
}


@pytest.mark.parametrize("fmt", list(_LOADED_LIGHTCONE_SHA256))
def test_loaded_lightcone_output_bytes(fmt, tmp_path, capsys):
    path = tmp_path / "local.json"
    path.write_text(random_local_dag(2000, K=3, D=4, rng=philox_rng(2718)).to_json())
    assert main(["lightcone", "--dag", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _LOADED_LIGHTCONE_SHA256[fmt]


# SHA-256 of the strategy wiring's JSON, wire ids included: the role layout
# of ``build_strategy_dag`` must number every wire as it did.
_STRATEGY_DAG_SHA256 = {
    2: "8ef451091ca688e872d69e05edfbef8ea5273b7137d8e7d0d0cc620c68988935",
    3: "e8adacaf4450c2caf27d34d789eb27222f135e3dcaf1d97796feff76231ce0a2",
    16: "e7980a44d93b6951d2dd8c203b2ec3d35441ee9139f2d411b77fe94ef9f6cefd",
    512: "1f195159b76ad271e2014eb94b086c76640936badd24f4d5f554478a02dd5009",
}


@pytest.mark.parametrize("sites", list(_STRATEGY_DAG_SHA256))
def test_strategy_dag_json_bytes(sites):
    text = build_strategy_dag(sites).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _STRATEGY_DAG_SHA256[sites]


def _cone_peak(sites: int) -> int:
    dag = build_strategy_dag(sites)
    tracemalloc.start()
    try:
        backward_cone_sizes(dag, dag.alice_outputs + dag.bob_outputs)
        lightcone_disjoint_probability(dag)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cone_memory_is_linear_in_sites():
    """The strategy wiring's cones have constant size, so twice the sites
    may take about twice the memory, not four times."""
    assert _cone_peak(4000) <= 2.5 * _cone_peak(2000)


def _chain_dag():
    """Wires 0 -> 1 -> 2 -> 3 through one gate a layer, and a loose wire 4."""
    gates = [Gate(layer, (layer - 1,), (layer,)) for layer in (1, 2, 3)]
    return CircuitDag(list("ccccc"), gates, [[0], [4]], [[4], []], [[3], []], [[], [2]])


def test_cone_sizes_of_empty_and_repeated_groups():
    dag = _chain_dag()
    assert backward_cone_sizes(dag, []) == []
    groups = [[], [3], [3, 3, 3], [2, 3, 2], [4]]
    sizes = backward_cone_sizes(dag, groups)
    assert sizes == [0, 4, 4, 4, 1]
    assert sizes == [len(cone) for cone in oracle.backward_lightcones(dag, groups)]


def test_cones_of_a_gateless_dag():
    dag = _disconnected_dag(3)
    groups = dag.alice_outputs + dag.bob_outputs + [[0, 1, 0]]
    assert backward_cone_sizes(dag, groups) == [3] * 6 + [2]
    assert forward_lightcone(dag, [0, 1]) == oracle.forward_lightcone(dag, [0, 1]) == {0, 1}
    assert backward_lightcone(dag, 7) == {7}
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag) == 1.0


@pytest.mark.parametrize("wire", [True, 0.5, -1, 5, np.int64(0)])
@pytest.mark.parametrize("entry", [
    lambda dag, wire: forward_lightcone(dag, [0, wire]),
    lambda dag, wire: backward_lightcone(dag, [wire, 0]),
    lambda dag, wire: backward_cone_sizes(dag, [[0], [], [1, wire]]),
])
def test_cone_seeds_name_the_unknown_wire(entry, wire):
    with pytest.raises(ValueError, match=re.escape(f"unknown wire {wire!r}")):
        entry(_chain_dag(), wire)


def test_cone_sizes_refuse_keys_past_int64():
    """(wire, seed) pairs pack into one int64 key, wire << bits | seed, with
    2^bits >= groups; a wiring with too many wires for its seed groups is
    refused, not wrapped."""

    class ManyGroups:
        def __len__(self):
            return 2 ** 62

        def __iter__(self):
            return iter([[0]])

    with pytest.raises(ValueError, match="int64"):
        backward_cone_sizes(_chain_dag(), ManyGroups())


def test_depth_lower_bound_threshold():
    p_clif = 1 - 1 / 6252
    assert depth_lower_bound(10 ** 7, 14, p_clif) > 0
    assert depth_lower_bound(10 ** 5, 14, p_clif) < 0
    assert depth_lower_bound(2 * 10 ** 6, 14, p_clif) > depth_lower_bound(10 ** 6, 14, p_clif)
    with pytest.raises(ValueError):
        depth_lower_bound(100, 1, p_clif)
