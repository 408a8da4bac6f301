"""Two-round relation problem, its one-round sampling variant, and lightcone
analysis of bounded fan-in circuit wirings.

Sites 1..N each hold three qubit layers on both the Alice and Bob side, with
an EPR pair across every site.  Round 1 swaps entanglement along the chain
between the two selected sites j < k: one Bell measurement per junction and
layer.  Bell outcomes are two bits per measurement; the bit reported at
Bob's qubit of junction i is the X-parity bit r_i^B, the bit at Alice's
qubit of junction i+1 is the Z-parity bit r_{i+1}^A, and logical bit 0 maps
to sign +1 throughout.  The end-to-end pair of layer l is then, up to a
global phase, (Z^za X^xb (x) I) |Phi+> on Alice's side with

    za(l) = parity of r^A_{j+1..k}(l),   xb(l) = parity of r^B_{j..k-1}(l),

so the syndrome products determine the Pauli frame exactly, and Alice's
correction X^xb Z^za restores |Phi+>.  Swapping is simulated analytically
(independent uniform Bell outcomes, frames by parity); the state-vector
oracle in the test suite checks both facts exactly on short chains.

Round 2 plays the complete-graph game on the corrected three-pair state,
which is |Phi+> itself: the 64 frame states and Alice's 64 corrections are
tabulated from Pauli strings on first use, keyed by the six frame bits, and
every correction is checked there, once, to restore its frame state.  The
sampling variant plays on the uncorrected frame state and succeeds outright
when every parity is +1, that is at frame key 0, with probability 1/64.  One
routine builds every round-2 starting state: for ``run_round2`` as a batch
of one, and for ``run_trials``, which measures many trials per
``quantum.measure_batch`` call.

Circuit wirings are layered gate lists over persistent classical/quantum
wires, validated and indexed by layer once, when the wiring is built.
Lightcones are support propagation, bit-sliced: one layered sweep carries
one integer bitset per wire, bit q marking membership in the cone of seed
set q, so every site's cone comes out of a single pass.  The disjointness
probability counts every crossing (j, k) site pair exactly from two such
sweeps.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import pauli
from .bcs import InvariantError
from .game import GameBcs
from .pauli import PauliString
from .quantum import OperatorSolution, SharedState, StrategyStack, batches, measure_commuting, phi_plus


# ---------------------------------------------------------------------------
# Relation problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationInstance:
    N: int
    n: int
    j: int
    k: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if not 1 <= self.j < self.k <= self.N:
            raise ValueError(f"need 1 <= j < k <= N, got j={self.j}, k={self.k}, N={self.N}")


@dataclass
class Round1Transcript:
    j: int
    k: int
    r_alice: np.ndarray  # signs, shape (k-j, 3); row i-(j+1) is r^A_i for i in j+1..k
    r_bob: np.ndarray  # signs, shape (k-j, 3); row i-j is r^B_i for i in j..k-1
    pauli_frame: tuple[tuple[int, int], ...]  # per layer, (z bit, x bit)


@dataclass
class Round2Result:
    r_a: tuple[int, int, int]
    r_b: tuple[int, int, int]


def random_instance(game: GameBcs, N: int, rng: np.random.Generator) -> RelationInstance:
    """Uniform (j, k, alpha, beta); beta ranges over every variable, whether
    or not it belongs to constraint alpha."""
    if N < 2:
        raise ValueError("need at least two sites")
    j = int(rng.integers(1, N))
    k = int(rng.integers(j + 1, N + 1))
    alpha = int(rng.integers(len(game.bcs.constraints)))
    beta = int(rng.integers(game.bcs.n_vars))
    return RelationInstance(N, game.n, j, k, alpha, beta)


def run_round1(instance: RelationInstance, rng: np.random.Generator) -> Round1Transcript:
    """Analytic entanglement swapping along the j..k chain.

    Each junction and layer yields two independent uniform bits; the frame
    is their running parity per layer.
    """
    span = instance.k - instance.j
    bits = rng.integers(0, 2, size=(span, 3, 2))
    z_bits, x_bits = bits[:, :, 0], bits[:, :, 1]
    frame = tuple(map(tuple, (bits.sum(axis=0) & 1).tolist()))
    return Round1Transcript(
        instance.j,
        instance.k,
        1 - 2 * z_bits,
        1 - 2 * x_bits,
        frame,
    )


def compute_syndrome(transcript: Round1Transcript, j: int, k: int):
    """Per-layer parity products of the round-1 outcomes."""
    if (j, k) != (transcript.j, transcript.k):
        raise ValueError(f"transcript covers ({transcript.j}, {transcript.k}), not ({j}, {k})")
    p_a = tuple(np.prod(transcript.r_alice, axis=0).tolist())
    p_b = tuple(np.prod(transcript.r_bob, axis=0).tolist())
    return p_a, p_b


def frame_key(frame: tuple[tuple[int, int], ...]) -> int:
    """Index of a per-layer (z, x) frame: bit 2l is layer l's z bit, bit
    2l + 1 its x bit."""
    return sum((z | x << 1) << 2 * l for l, (z, x) in enumerate(frame))


@functools.cache
def frame_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 64 frame states and Alice's 64 corrections, by frame key.

    State key is Z^z X^x on every layer's Alice qubit applied to |Phi+> of
    dimension 8, and correction key is X^x Z^z on the same qubits, the
    recovery for the syndrome of that frame.  Both come from Pauli strings
    (Z X = iY and X Z = -iY per layer).  Each correction applied to its own
    frame state is checked to give |Phi+>, all 64 at once.
    """
    phi = phi_plus(8).amplitudes
    states = np.empty((64, 8, 8), dtype=complex)
    corrections = np.empty_like(states)
    for key in range(64):
        z = sum(((key >> 2 * l) & 1) << l for l in range(3))
        x = sum(((key >> 2 * l + 1) & 1) << l for l in range(3))
        ys = (x & z).bit_count()
        states[key] = pauli.to_matrix(PauliString(3, x, z, ys)) @ phi
        corrections[key] = pauli.to_matrix(PauliString(3, x, z, -ys))
    _check_fidelity(corrections @ states)
    states.flags.writeable = False
    corrections.flags.writeable = False
    return states, corrections


def _check_fidelity(amplitudes: np.ndarray) -> None:
    """Every state of the stack must be |Phi+> of dimension 8, norm included."""
    fidelity = np.abs(np.trace(amplitudes, axis1=1, axis2=2)) ** 2 / 8
    off = np.abs(fidelity - 1) > 1e-9
    if np.any(off):
        raise InvariantError(f"correction left fidelity {fidelity[off][0]}")


def _round2_states(keys: list[int], correct: bool) -> np.ndarray:
    """Round-2 starting states by frame key, shape (T, 8, 8): |Phi+> for
    every trial when ``correct`` (``frame_tables`` checks that each key's
    correction restores it), else each key's frame state."""
    states, _ = frame_tables()
    if correct:
        phi = phi_plus(8).amplitudes
        return np.broadcast_to(phi, (len(keys),) + phi.shape)
    return states[keys]


def _round2_result(width: int, row: list[int]) -> Round2Result:
    """Alice's first ``width`` outcomes padded to three bits with +1; Bob's
    meaningful bit is position 1."""
    return Round2Result(tuple(row[:width]) + (1,) * (3 - width), (row[-1], 1, 1))


def run_round2(
    game: GameBcs,
    instance: RelationInstance,
    transcript: Round1Transcript,
    sol: OperatorSolution,
    rng: np.random.Generator,
    apply_correction: bool = True,
) -> Round2Result:
    """Correct the swapped state, then play the game.

    Alice measures the observables of constraint alpha in ascending variable
    order (outputs padded to three bits with +1); Bob's meaningful bit is
    position 1.  A corrected round starts from |Phi+> of dimension 8 (see
    ``frame_tables``), an uncorrected one from the transcript's frame state.
    """
    if sol.dim != 8:
        raise ValueError("round 2 expects the dimension-8 strategy")
    state = SharedState(_round2_states([frame_key(transcript.pauli_frame)], apply_correction)[0])
    constraint = game.bcs.constraints[instance.alpha]
    alice_obs = [sol.assignment[v] for v in constraint.var_indices]
    a_out, state = measure_commuting(state, "A", alice_obs, rng)
    b_out, _ = measure_commuting(state, "B", [sol.assignment[instance.beta].T], rng)
    return _round2_result(len(a_out), a_out + b_out)


def check_relation(instance: RelationInstance, outputs: Round2Result, game: GameBcs) -> bool:
    """Alice's bits must satisfy her constraint; when beta belongs to it,
    Bob's first bit must match Alice's bit for that variable."""
    if not 0 <= instance.alpha < len(game.bcs.constraints):
        raise ValueError(f"unknown constraint id {instance.alpha}")
    if not 0 <= instance.beta < game.bcs.n_vars:
        raise ValueError(f"unknown variable id {instance.beta}")
    constraint = game.bcs.constraints[instance.alpha]
    members = constraint.var_indices
    prod = 1
    for pos in range(len(members)):
        prod *= outputs.r_a[pos]
    if prod != constraint.rhs:
        return False
    if instance.beta in members:
        return outputs.r_b[0] == outputs.r_a[members.index(instance.beta)]
    return True


@dataclass
class SamplingTrial:
    outputs: Round2Result
    parities_ok: bool
    case: str  # "case1", "case2", or "invalid"


def _sampling_trial(game: GameBcs, instance: RelationInstance, key: int,
                    outputs: Round2Result) -> SamplingTrial:
    """Classify a played trial: clean, every syndrome parity +1, at frame key 0."""
    if key:
        case = "case2"
    elif check_relation(instance, outputs, game):
        case = "case1"
    else:
        case = "invalid"
    return SamplingTrial(outputs, key == 0, case)


def run_sampling_trial(
    game: GameBcs,
    instance: RelationInstance,
    sol: OperatorSolution,
    rng: np.random.Generator,
) -> SamplingTrial:
    """One-round variant: play on the uncorrected swapped state.

    case1: every parity is +1 and the relation holds; case2: some parity is
    -1 (any outputs accepted); invalid: clean parities but a violated
    relation, which the exact strategy never produces.
    """
    transcript = run_round1(instance, rng)
    outputs = run_round2(game, instance, transcript, sol, rng, apply_correction=False)
    return _sampling_trial(game, instance, frame_key(transcript.pauli_frame), outputs)


def run_trials(
    game: GameBcs,
    sol: OperatorSolution,
    sites: int | Callable[[np.random.Generator], int],
    rngs: Iterable[np.random.Generator],
    mode: str = "relation",
) -> Iterator[tuple[RelationInstance, Round2Result | SamplingTrial]]:
    """Relation or sampling trials, one per generator, measured in batches.

    Each trial draws from its own generator in the one-trial order:
    ``random_instance`` on ``sites`` sites (a chain length, or a function
    drawing it from the generator first), round 1's bits as ``run_round1``
    draws them, then Alice's uniforms and Bob's.  Of round 1 only the frame
    key is kept, read off the parity of its bits.  So the trials equal
    ``run_round2`` or ``run_sampling_trial`` one for one, whatever the batch
    size, and passing one generator n times reproduces a loop of n trials on
    it.  Yields (instance, Round2Result) for
    ``mode="relation"`` and (instance, SamplingTrial) for ``"sampling"``.
    """
    if mode not in ("relation", "sampling"):
        raise ValueError(f"unknown trial mode {mode!r}")
    if sol.dim != 8:
        raise ValueError("round 2 expects the dimension-8 strategy")
    stack = StrategyStack(game.bcs, sol)
    for chunk in batches(rngs):
        instances, keys, draws = [], [], []
        for rng in chunk:
            n_sites = sites(rng) if callable(sites) else sites
            instance = random_instance(game, n_sites, rng)
            instances.append(instance)
            bits = rng.integers(0, 2, size=(instance.k - instance.j, 3, 2))
            keys.append(frame_key((bits.sum(axis=0) & 1).tolist()))
            draws.append(stack.draw(instance.alpha, rng))
        amplitudes = _round2_states(keys, mode == "relation")
        questions = [(i.alpha, i.beta) for i in instances]
        rows = stack.measure(amplitudes, questions, draws)
        for instance, key, row in zip(instances, keys, rows):
            outputs = _round2_result(len(game.bcs.constraints[instance.alpha].var_indices), row)
            if mode == "relation":
                yield instance, outputs
            else:
                yield instance, _sampling_trial(game, instance, key, outputs)


# ---------------------------------------------------------------------------
# Circuit wirings and lightcones
# ---------------------------------------------------------------------------

@dataclass
class Gate:
    layer: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    kind: str = "gate"

    @property
    def fan_in(self) -> int:
        return len(self.inputs)


@dataclass
class CircuitDag:
    wire_kinds: list[str]  # "c" or "q" per wire id
    gates: list[Gate]
    alice_inputs: list[list[int]] = field(default_factory=list)
    bob_inputs: list[list[int]] = field(default_factory=list)
    alice_outputs: list[list[int]] = field(default_factory=list)
    bob_outputs: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Validate the wiring, then index its gates by layer.

        Layers and wire ids must be plain ``int`` (not bool or float).  Call
        again after editing ``gates`` or the site groups in place.

        Within a layer, gates are read in list order: a gate may not read a
        wire that an earlier gate of the same layer produced, unless that
        gate also read it (a transform).  So ``[Gate(1, (1,), (2,)),
        Gate(1, (0,), (1,))]`` is valid, and the same two gates in the other
        order are not.  Backward cones grow in the same list order.
        """
        n_wires = len(self.wire_kinds)
        for w, kind in enumerate(self.wire_kinds):
            if kind not in ("c", "q"):
                raise ValueError(f"wire {w} has kind {kind!r}, not 'c' or 'q'")
        for g in self.gates:
            if type(g.layer) is not int or g.layer < 1:
                raise ValueError(f"gate layers are integers from 1, got {g.layer!r}")
        first_written: dict[int, int] = {}
        written_at: set[tuple[int, int]] = set()
        for g in sorted(self.gates, key=lambda g: g.layer):
            for w in g.inputs:
                if type(w) is not int or not 0 <= w < n_wires:
                    raise ValueError(f"gate reads unknown wire {w!r}")
                if w in first_written and first_written[w] >= g.layer:
                    raise ValueError(f"wire {w} read at layer {g.layer} before it is produced")
            for w in g.outputs:
                if type(w) is not int or not 0 <= w < n_wires:
                    raise ValueError(f"gate writes unknown wire {w!r}")
                if (g.layer, w) in written_at:
                    raise ValueError(f"wire {w} written twice in layer {g.layer}")
                written_at.add((g.layer, w))
                # reads of w in the same or later layers stay legal when w is
                # also an input of this gate (transform style)
                if w not in g.inputs:
                    first_written.setdefault(w, g.layer)

        sides = (self.alice_inputs, self.bob_inputs, self.alice_outputs, self.bob_outputs)
        if len({len(groups) for groups in sides}) > 1:
            raise ValueError("Alice's and Bob's input and output lists need one group per site")
        for groups in sides:
            for group in groups:
                for w in group:
                    if type(w) is not int or not 0 <= w < n_wires:
                        raise ValueError(f"site group names unknown wire {w!r}")
        # A shared output wire would credit a crossing to two sites at once.
        for side, groups in (("Alice", self.alice_outputs), ("Bob", self.bob_outputs)):
            owner: dict[int, int] = {}
            for s, group in enumerate(groups):
                for w in group:
                    if owner.setdefault(w, s) != s:
                        raise ValueError(
                            f"wire {w} is in {side}'s output groups of sites {owner[w]} and {s}"
                        )

        self.depth = max((g.layer for g in self.gates), default=0)
        # The gates of each non-empty layer, in list order, layers ascending.
        by_layer: dict[int, list[Gate]] = {}
        for g in self.gates:
            by_layer.setdefault(g.layer, []).append(g)
        self._layers: list[list[Gate]] = [by_layer[layer] for layer in sorted(by_layer)]

    @property
    def max_fan_in(self) -> int:
        return max((g.fan_in for g in self.gates), default=0)

    @property
    def n_sites(self) -> int:
        return len(self.alice_inputs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "wires": [{"id": i, "kind": k} for i, k in enumerate(self.wire_kinds)],
                "gates": [
                    {"layer": g.layer, "inputs": list(g.inputs), "outputs": list(g.outputs), "kind": g.kind}
                    for g in self.gates
                ],
                "alice_inputs": self.alice_inputs,
                "bob_inputs": self.bob_inputs,
                "alice_outputs": self.alice_outputs,
                "bob_outputs": self.bob_outputs,
            }
        )


def _json_object(value, what: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict) or not all(key in value for key in keys):
        raise ValueError(f"{what} must be a JSON object with {', '.join(keys)}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def dag_from_json(text: str) -> CircuitDag:
    """Parse a wiring; malformed or inconsistent input raises ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("the wiring JSON nests too deeply") from None
    payload = _json_object(payload, "a wiring", ("wires", "gates"))
    wires = [
        _json_object(w, "each wire", ("id", "kind")) for w in _json_list(payload["wires"], "wires")
    ]
    ids = [w["id"] for w in wires]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
        raise ValueError("wire ids must be the integers 0..n-1, each once")
    kinds = [""] * len(wires)
    for w in wires:
        kinds[w["id"]] = w["kind"]
    gates = []
    for g in _json_list(payload["gates"], "gates"):
        g = _json_object(g, "each gate", ("layer", "inputs", "outputs"))
        inputs = tuple(_json_list(g["inputs"], "gate inputs"))
        outputs = tuple(_json_list(g["outputs"], "gate outputs"))
        gates.append(Gate(g["layer"], inputs, outputs, g.get("kind", "gate")))
    groups = {
        name: [_json_list(group, f"each group of {name}")
               for group in _json_list(payload.get(name, []), name)]
        for name in ("alice_inputs", "bob_inputs", "alice_outputs", "bob_outputs")
    }
    return CircuitDag(kinds, gates, **groups)


def _sweep(dag: CircuitDag, seeds, forward: bool) -> list[int]:
    """Bit-sliced cone propagation: bit q of entry w is set when wire w lies
    in the cone of the wire set ``seeds[q]``.

    Forward, every gate of a layer fires on the cones as they stood at the
    start of that layer and adds its outputs.  Backward, layers run from the
    deepest down, and within a layer the cones grow gate by gate in list
    order: a gate whose outputs meet a cone adds its inputs to it.
    """
    n_wires = len(dag.wire_kinds)
    bits = [0] * n_wires
    for q, group in enumerate(seeds):
        for w in group:
            if type(w) is not int or not 0 <= w < n_wires:
                raise ValueError(f"unknown wire {w!r}")
            bits[w] |= 1 << q
    if forward:
        for layer in dag._layers:
            fired = []
            for g in layer:
                mask = 0
                for w in g.inputs:
                    mask |= bits[w]
                if mask:
                    fired.append((g.outputs, mask))
            for outputs, mask in fired:
                for w in outputs:
                    bits[w] |= mask
    else:
        for layer in reversed(dag._layers):
            for g in layer:
                mask = 0
                for w in g.outputs:
                    mask |= bits[w]
                if mask:
                    for w in g.inputs:
                        bits[w] |= mask
    return bits


def _bit_positions(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    position = -1
    while mask:
        step = (mask & -mask).bit_length()
        position += step
        mask >>= step
        yield position


def _one_cone(dag: CircuitDag, wires, forward: bool) -> set[int]:
    seed = [wires] if isinstance(wires, int) else list(wires)
    return {w for w, bits in enumerate(_sweep(dag, [seed], forward)) if bits}


def forward_lightcone(dag: CircuitDag, wires) -> set[int]:
    """Wires that the seed set can influence, by layerwise support growth;
    a gate fires on the cone as it stood at the start of its layer."""
    return _one_cone(dag, wires, forward=True)


def backward_lightcone(dag: CircuitDag, wires) -> set[int]:
    """Wires the outputs may depend on; at most |O| K^D of them."""
    return _one_cone(dag, wires, forward=False)


def backward_cone_sizes(dag: CircuitDag, groups) -> list[int]:
    """Size of the backward lightcone of every wire group, from one sweep."""
    sizes = [0] * len(groups)
    for bits in _sweep(dag, groups, forward=False):
        for q in _bit_positions(bits):
            sizes[q] += 1
    return sizes


def _reach(dag: CircuitDag, inputs, outputs) -> list[int]:
    """Per output group, the bitset of input groups whose forward cone meets it."""
    bits = _sweep(dag, inputs, forward=True)
    reach = []
    for group in outputs:
        mask = 0
        for w in group:
            mask |= bits[w]
        reach.append(mask)
    return reach


def lightcone_disjoint_probability(dag: CircuitDag) -> float:
    """Exact probability over uniform site pairs j < k that neither selected
    input's forward cone reaches the other side's selected output bits."""
    sites = dag.n_sites
    if sites < 2:
        raise ValueError("need at least two sites")

    # crossing[k] has bit j set when the pair (j, k), j < k, crosses.
    from_alice = _reach(dag, dag.alice_inputs, dag.bob_outputs)
    crossing = [reach & ((1 << k) - 1) for k, reach in enumerate(from_alice)]
    from_bob = _reach(dag, dag.bob_inputs, dag.alice_outputs)
    for j, reach in enumerate(from_bob):
        for i in _bit_positions(reach >> (j + 1)):
            crossing[j + 1 + i] |= 1 << j
    bad = sum(mask.bit_count() for mask in crossing)
    total = sites * (sites - 1) // 2
    return 1.0 - bad / total


def depth_lower_bound(N: int, K: int, p_clif: float) -> float:
    """Depth any bounded fan-in magic-free circuit needs before its success
    probability on the relation problem can exceed (1 + p_clif)/2."""
    if K < 2:
        raise ValueError("fan-in bound must be at least 2")
    return (math.log(N) + math.log((1 - p_clif) / 96)) / math.log(K)


# ---------------------------------------------------------------------------
# The constant-depth strategy wiring
# ---------------------------------------------------------------------------

QUESTION_BITS = 11  # enough to index the modified game's constraints, or its variables, plus a null marker


def build_strategy_dag(N: int) -> CircuitDag:
    """Abstract wiring of the swap-and-play strategy on N site pairs, laid
    out for the dimension-8 strategy.

    Gate arities follow the strategy's needs: EPR preparation touches 2
    qubits; a Bell measurement reads one null-input flag and 2 qubits; the
    frame correction reads 2 syndrome bits and 1 qubit; the game measurement
    reads an 11-bit question and 3 qubits, which is the maximal fan-in, 14.
    Question decoding and output selection are constant-size classical
    gates.  The depth never depends on N.
    """
    if N < 2:
        raise ValueError("need at least two sites")

    kinds: list[str] = []

    def new_wires(count: int, kind: str) -> list[int]:
        start = len(kinds)
        kinds.extend(kind * count)
        return list(range(start, start + count))

    syndrome = [new_wires(6, "c") for _ in range(N)]
    alice_q_in = [new_wires(QUESTION_BITS, "c") for _ in range(N)]
    bob_q_in = [new_wires(QUESTION_BITS, "c") for _ in range(N)]
    qa = [new_wires(3, "q") for _ in range(N)]
    qb = [new_wires(3, "q") for _ in range(N)]
    flag_a = [new_wires(1, "c")[0] for _ in range(N)]
    flag_b = [new_wires(1, "c")[0] for _ in range(N)]
    bsm_b = [new_wires(3, "c") for _ in range(N)]  # r^B at junction site i
    bsm_a = [new_wires(3, "c") for _ in range(N)]  # r^A at site i+1, stored at i+1
    game_a = [new_wires(3, "c") for _ in range(N)]
    game_b = [new_wires(3, "c") for _ in range(N)]
    out_a = [new_wires(3, "c") for _ in range(N)]
    out_b = [new_wires(3, "c") for _ in range(N)]

    gates: list[Gate] = []
    for i in range(N):
        gates.append(Gate(1, tuple(alice_q_in[i]), (flag_a[i],), "decode"))
        gates.append(Gate(1, tuple(bob_q_in[i]), (flag_b[i],), "decode"))
        for l in range(3):
            gates.append(Gate(1, (qa[i][l], qb[i][l]), (qa[i][l], qb[i][l]), "epr_prep"))
    for i in range(N - 1):
        for l in range(3):
            gates.append(
                Gate(2, (flag_b[i], qb[i][l], qa[i + 1][l]), (bsm_b[i][l], bsm_a[i + 1][l]), "bsm")
            )
    for i in range(N):
        for l in range(3):
            gates.append(
                Gate(3, (syndrome[i][2 * l], syndrome[i][2 * l + 1], qa[i][l]), (qa[i][l],), "correction")
            )
    for i in range(N):
        gates.append(Gate(4, tuple(alice_q_in[i]) + tuple(qa[i]), tuple(game_a[i]), "game_measure"))
        gates.append(Gate(4, tuple(bob_q_in[i]) + tuple(qb[i]), tuple(game_b[i]), "game_measure"))
    for i in range(N):
        for l in range(3):
            a_in = (flag_a[i], game_a[i][l]) + ((bsm_a[i][l],) if i > 0 else ())
            gates.append(Gate(5, a_in, (out_a[i][l],), "select"))
            b_in = (flag_b[i], game_b[i][l]) + ((bsm_b[i][l],) if i < N - 1 else ())
            gates.append(Gate(5, b_in, (out_b[i][l],), "select"))

    return CircuitDag(
        kinds,
        gates,
        alice_inputs=[syndrome[i] + alice_q_in[i] for i in range(N)],
        bob_inputs=bob_q_in,
        alice_outputs=out_a,
        bob_outputs=out_b,
    )
