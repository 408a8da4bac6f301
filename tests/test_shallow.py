import itertools

import lightcone_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from swap_oracle import bell_vector, enumerate_swap_branches

from bcsmagic import pauli, quantum
from bcsmagic.bcs import InvariantError
from bcsmagic.cli import trial_rng
from bcsmagic.game import build_game_bcs
from bcsmagic.quantum import make_rng, permutation_solution, phi_plus
from bcsmagic.shallow import (
    CircuitDag,
    Gate,
    RelationInstance,
    Round1Transcript,
    Round2Result,
    backward_cone_sizes,
    backward_lightcone,
    build_strategy_dag,
    check_relation,
    compute_syndrome,
    dag_from_json,
    depth_lower_bound,
    forward_lightcone,
    frame_key,
    frame_tables,
    lightcone_disjoint_probability,
    random_instance,
    run_round1,
    run_round2,
    run_sampling_trial,
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
    phi = phi_plus(8).vector
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


def test_frame_distribution_uniform_over_layers():
    inst = RelationInstance(N=20, n=8, j=3, k=11, alpha=0, beta=0)
    rng = make_rng(99)
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
    assert compute_syndrome(transcript, 2, 5) == ((1, 1, 1), (1, 1, 1))


def test_syndrome_single_flip():
    inst = RelationInstance(N=5, n=8, j=2, k=5, alpha=0, beta=0)
    transcript = run_round1(inst, _ZeroRng())
    transcript.r_bob[0, 1] = -1  # r^B_j(2)
    p_a, p_b = compute_syndrome(transcript, 2, 5)
    assert p_a == (1, 1, 1)
    assert p_b == (1, -1, 1)


def test_syndrome_matches_direct_products(game8):
    """The syndrome names the frame's own key on 2,400 trial streams over
    chains of 2 to 1000 sites: the fact that lets corrected rounds start
    from |Phi+> and sampling trials be clean exactly at key 0."""
    keys = set()
    for t in range(2400):
        rng = trial_rng(4, t)
        inst = random_instance(game8, (2, 3, 9, 40, 1000)[t % 5], rng)
        transcript = run_round1(inst, rng)
        p_a, p_b = compute_syndrome(transcript, inst.j, inst.k)
        for l in range(3):
            assert p_a[l] == np.prod(transcript.r_alice[:, l])
            assert p_b[l] == np.prod(transcript.r_bob[:, l])
        assert syndrome_key(p_a, p_b) == frame_key(transcript.pauli_frame)
        keys.add(frame_key(transcript.pauli_frame))
    assert keys == set(range(64))


def test_syndrome_range_mismatch():
    inst = RelationInstance(N=5, n=8, j=2, k=5, alpha=0, beta=0)
    transcript = run_round1(inst, make_rng(0))
    with pytest.raises(ValueError):
        compute_syndrome(transcript, 1, 5)


# ---------------------------------------------------------------------------
# round 2
# ---------------------------------------------------------------------------

def test_round2_relation_always_holds(game8, sol8):
    rng = make_rng(123)
    for _ in range(200):
        inst = random_instance(game8, N=40, rng=rng)
        transcript = run_round1(inst, rng)
        outputs = run_round2(game8, inst, transcript, sol8, rng)
        assert check_relation(inst, outputs, game8)


def test_round2_without_correction_violates_sometimes(game8, sol8):
    # The agreement clause only bites when beta belongs to the constraint,
    # so sample questions from the game's own pair set.
    rng = make_rng(321)
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
        outputs = run_round2(game8, inst, transcript, sol8, rng, apply_correction=False)
        violations += not check_relation(inst, outputs, game8)
    assert violations > 0


def test_round2_identity_frame_without_correction(game8, sol8):
    rng = make_rng(5)
    for _ in range(20):
        inst = random_instance(game8, N=10, rng=rng)
        transcript = run_round1(inst, _ZeroRng())
        outputs = run_round2(game8, inst, transcript, sol8, rng, apply_correction=False)
        assert check_relation(inst, outputs, game8)


def test_round2_rejects_wrong_dimension(game8, sol8):
    from bcsmagic.quantum import OperatorSolution

    inst = RelationInstance(N=4, n=8, j=1, k=2, alpha=0, beta=0)
    transcript = run_round1(inst, make_rng(0))
    bad = OperatorSolution(4, {v: np.eye(4, dtype=complex) for v in sol8.assignment})
    with pytest.raises(ValueError):
        run_round2(game8, inst, transcript, bad, make_rng(0))


def test_check_relation_foreign_beta_vacuous(game8):
    c = game8.bcs.constraints[0]
    beta = next(v for v in range(game8.bcs.n_vars) if v not in c.var_indices)
    inst = RelationInstance(N=4, n=8, j=1, k=2, alpha=0, beta=beta)
    good = Round2Result((1, 1, 1) if c.rhs == 1 else (-1, 1, 1), (-1, 1, 1))
    assert check_relation(inst, good, game8)
    bad = Round2Result((-1,) * 3 if c.rhs == 1 else (1, -1, -1), (1, 1, 1))
    assert not check_relation(inst, bad, game8)


def test_check_relation_unknown_ids(game8):
    inst = RelationInstance(N=4, n=8, j=1, k=2, alpha=10 ** 6, beta=0)
    with pytest.raises(ValueError):
        check_relation(inst, Round2Result((1, 1, 1), (1, 1, 1)), game8)


# ---------------------------------------------------------------------------
# sampling variant
# ---------------------------------------------------------------------------

def test_sampling_split_and_case1_rate(game8, sol8):
    rng = make_rng(777)
    trials = 6000
    cases = {"case1": 0, "case2": 0, "invalid": 0}
    for _ in range(trials):
        inst = random_instance(game8, N=12, rng=rng)
        trial = run_sampling_trial(game8, inst, sol8, rng)
        cases[trial.case] += 1
    assert cases["invalid"] == 0
    assert cases["case1"] + cases["case2"] == trials
    p = 1 / 64
    sigma = np.sqrt(trials * p * (1 - p))
    assert abs(cases["case1"] - trials * p) < 5 * sigma


def test_sampling_forced_clean_bits_is_case1(game8, sol8):
    rng = make_rng(31337)

    class _CleanRound1Rng:
        def integers(self, low, high=None, size=None):
            return np.zeros(size, dtype=int)

        def random(self):
            return float(rng.random())

    inst = RelationInstance(N=6, n=8, j=2, k=5, alpha=3, beta=game8.bcs.constraints[3].var_indices[0])
    trial = run_sampling_trial(game8, inst, sol8, _CleanRound1Rng())
    assert trial.case == "case1"
    assert trial.parities_ok


# ---------------------------------------------------------------------------
# batched trials
# ---------------------------------------------------------------------------

def _draw_sites(rng):
    return int(rng.integers(2, 60))


def test_run_trials_relation_equals_a_loop(game8, sol8, monkeypatch):
    """One shared generator, a chain length drawn per trial: the batched
    relation trials equal a loop of run_round1 and run_round2 calls."""
    rng = make_rng(2718)
    expected = []
    for _ in range(150):
        inst = random_instance(game8, _draw_sites(rng), rng)
        expected.append((inst, run_round2(game8, inst, run_round1(inst, rng), sol8, rng)))
    monkeypatch.setattr(quantum, "CHUNK", 16)
    batched = list(run_trials(game8, sol8, _draw_sites, itertools.repeat(make_rng(2718), 150)))
    assert batched == expected
    assert all(check_relation(inst, outputs, game8) for inst, outputs in batched)


def test_run_trials_sampling_equals_a_loop(game8, sol8, monkeypatch):
    rng = make_rng(1414)
    expected = []
    for _ in range(300):
        inst = random_instance(game8, 6, rng)
        expected.append((inst, run_sampling_trial(game8, inst, sol8, rng)))
    monkeypatch.setattr(quantum, "CHUNK", 45)
    batched = list(run_trials(game8, sol8, 6, itertools.repeat(make_rng(1414), 300), "sampling"))
    assert batched == expected
    assert {trial.case for _, trial in batched} == {"case1", "case2"}


def test_run_trials_checks_every_trials_fidelity(game8, sol8, monkeypatch):
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
                list(run_trials(game8, sol8, 40, (make_rng(t) for t in range(4)), mode))
    finally:
        frame_tables.cache_clear()


def test_run_trials_rejects_bad_mode_and_dimension(game8, sol8):
    from bcsmagic.quantum import OperatorSolution

    with pytest.raises(ValueError, match="mode"):
        next(run_trials(game8, sol8, 5, [make_rng(0)], "both"))
    bad = OperatorSolution(4, {v: np.eye(4, dtype=complex) for v in sol8.assignment})
    with pytest.raises(ValueError, match="dimension"):
        next(run_trials(game8, bad, 5, [make_rng(0)]))


# ---------------------------------------------------------------------------
# circuit wirings
# ---------------------------------------------------------------------------

def test_strategy_dag_arities():
    dag = build_strategy_dag(8)
    by_kind = {}
    for g in dag.gates:
        by_kind.setdefault(g.kind, set()).add(g.fan_in)
    assert by_kind["epr_prep"] == {2}
    assert by_kind["bsm"] == {3}
    assert by_kind["correction"] == {3}
    assert by_kind["game_measure"] == {14}
    assert dag.max_fan_in == 14
    assert max(g.fan_in for g in dag.gates if g.kind == "game_measure") == 14


def test_strategy_dag_constant_depth():
    assert build_strategy_dag(4).depth == build_strategy_dag(64).depth


def test_strategy_dag_json_round_trip():
    dag = build_strategy_dag(3)
    back = dag_from_json(dag.to_json())
    assert back.wire_kinds == dag.wire_kinds
    assert back.max_fan_in == dag.max_fan_in
    assert back.depth == dag.depth
    assert back.alice_inputs == dag.alice_inputs
    assert len(back.gates) == len(dag.gates)


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


@pytest.mark.parametrize("change, message", [
    (lambda d: d.wire_kinds.__setitem__(0, "x"), "kind"),
    (lambda d: d.wire_kinds.__setitem__(0, 7), "kind"),
    (lambda d: d.gates.append(Gate(1.5, (0,), (1,))), "layers"),
    (lambda d: d.gates.append(Gate(True, (0,), (1,))), "layers"),
    (lambda d: d.gates.append(Gate(1, (0.5,), (1,))), "reads unknown wire"),
    (lambda d: d.gates.append(Gate(1, (0,), (True,))), "writes unknown wire"),
    (lambda d: d.bob_inputs[1].append(99), "site group"),
    (lambda d: d.alice_outputs.append([4]), "one group per site"),
    (lambda d: d.alice_outputs[1].append(d.alice_outputs[0][0]), "output groups of sites 0 and 1"),
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
    rng = make_rng(2718)
    for n_sites in (64, 256):
        dag = random_local_dag(n_sites, K=3, D=4, rng=rng)
        assert dag.max_fan_in <= 3 and dag.depth == 4
        prob = lightcone_disjoint_probability(dag)
        assert prob >= 1 - 48 * 3 ** 4 / n_sites
        for s in range(0, n_sites, 17):
            cone = backward_lightcone(dag, dag.alice_outputs[s])
            assert len(cone) <= 3 * 3 ** 4


@st.composite
def valid_wirings(draw):
    """Small random wirings that the constructor accepts.

    Gates are drawn layer by layer under the constructor's rules: a layer
    writes each wire at most once, and once a gate writes a wire it does not
    read, later gates of that layer may not read it.  Transform gates (a wire
    both read and written) and gates that write a wire an earlier gate of the
    same layer read are both common, which is where the forward rule (start
    of layer) and the backward rule (gate by gate) part ways.  The layers
    are then interleaved in the gate list, keeping each layer's own order.
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
    return CircuitDag(kinds, gate_list, input_groups(), input_groups(), output_groups(), output_groups())


@settings(max_examples=300, deadline=None)
@given(valid_wirings())
def test_sweep_matches_per_seed_oracle(dag):
    seeds = [[w] for w in range(len(dag.wire_kinds))] + dag.alice_inputs + dag.bob_inputs
    for seed in seeds:
        assert forward_lightcone(dag, seed) == oracle.forward_lightcone(dag, seed)
    out_groups = seeds + dag.alice_outputs + dag.bob_outputs
    for group in out_groups:
        assert backward_lightcone(dag, group) == oracle.backward_lightcone(dag, group)
    assert backward_cone_sizes(dag, out_groups) == [
        len(oracle.backward_lightcone(dag, group)) for group in out_groups
    ]
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag)


def test_strategy_dag_cones_match_oracle():
    dag = build_strategy_dag(24)
    for s in (0, 11, 23):
        for group in (dag.alice_inputs[s], dag.bob_inputs[s]):
            assert forward_lightcone(dag, group) == oracle.forward_lightcone(dag, group)
    out_groups = dag.alice_outputs + dag.bob_outputs
    assert backward_cone_sizes(dag, out_groups) == [
        len(oracle.backward_lightcone(dag, group)) for group in out_groups
    ]
    assert lightcone_disjoint_probability(dag) == oracle.lightcone_disjoint_probability(dag)


def test_depth_lower_bound_threshold():
    p_clif = 1 - 1 / 6252
    assert depth_lower_bound(10 ** 7, 14, p_clif) > 0
    assert depth_lower_bound(10 ** 5, 14, p_clif) < 0
    assert depth_lower_bound(2 * 10 ** 6, 14, p_clif) > depth_lower_bound(10 ** 6, 14, p_clif)
    with pytest.raises(ValueError):
        depth_lower_bound(100, 1, p_clif)
