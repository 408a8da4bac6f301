"""One game round and one relation or sampling trial at a time, with its
own projector arithmetic.

``quantum.play_rounds`` and ``shallow.run_trials`` measure many trials per
``quantum.measure_batch`` call and return each chunk as one record of
arrays.  This module keeps the protocol one trial at a time as their
reference, a round as a ``RoundResult`` and an instance as a
``RelationInstance``, and shares no measurement code with them; ``rows``
reads a record's rows as ``RoundResult``s, and ``log_record`` is the trial
log's record as ``simulate --out`` writes it.
A step draws one uniform, projects the named side onto (I + O)/2 and
(I - O)/2, takes the +1 branch iff the uniform falls below its squared
norm, and renormalises the branch it took.  Round 2 starts from the frame
state built from the two-by-two X and Z matrices, and a corrected round
applies the correction that the round-1 syndrome names.  Rounds are judged
by this module's own reading of the game's win rule, ``wins``.

Each function draws from its generator in the order the batched drivers
promise, so a loop over one generator reproduces their results exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from bcsmagic.bcs import InvariantError

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class RoundResult:
    """One judged round: Alice's outcomes for her constraint's variables in
    ascending order, Bob's outcome, and whether the round is won."""
    constraint: int
    alice_outcomes: tuple[int, ...]
    bob_outcome: int
    won: bool


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


def rows(record) -> list[RoundResult]:
    """A ``quantum.Rounds`` record's rows, Alice's outcomes cut to each
    constraint's width.  Her padded steps must read +1."""
    outcomes = record.outcomes.tolist()
    for row, width in zip(outcomes, record.widths.tolist()):
        if row[width:-1] != [1] * (len(row) - 1 - width):
            raise AssertionError(f"a padded step read {row[width:-1]}")
    return [RoundResult(alpha, tuple(row[:width]), row[-1], won)
            for alpha, width, row, won in zip(record.alphas.tolist(), record.widths.tolist(), outcomes,
                                              record.won.tolist())]


def trial_rows(record, n) -> list[tuple[RelationInstance, RoundResult, bool]]:
    """A ``shallow.Trials`` record's rows as (instance, round, clean), for
    the game of n vertices; each instance is checked as it is built."""
    fields = zip(record.N.tolist(), record.j.tolist(), record.k.tolist(), record.alphas.tolist(),
                 record.betas.tolist())
    return [(RelationInstance(N, n, j, k, alpha, beta), result, is_clean)
            for (N, j, k, alpha, beta), result, is_clean in zip(fields, rows(record), record.clean.tolist())]


def log_record(mode, seed, t, instance, result, is_clean) -> dict:
    """Trial t's ``simulate --out`` record: ``r_a`` Alice's outcomes padded
    with +1 to three, ``r_b`` Bob's padded to three, then ``ok`` for a
    relation trial or the case for a sampling trial."""
    record = {
        "N": instance.N, "n": instance.n, "j": instance.j, "k": instance.k,
        "alpha": instance.alpha, "beta": instance.beta, "seed": seed, "trial": t,
        "r_a": list(result.alice_outcomes) + [1] * (3 - len(result.alice_outcomes)),
        "r_b": [result.bob_outcome, 1, 1],
    }
    if mode == "relation":
        return {**record, "ok": result.won}
    return {**record, "case": ("case1" if result.won else "invalid") if is_clean else "case2"}


def measure_commuting(amplitudes, side, observables, rng):
    """Measure pairwise commuting involutions one after another on the
    named side ("A" or "B") of a (d, d) amplitude matrix.  Returns the
    outcomes and the collapsed state; rejects non-commuting observables."""
    for a, b in itertools.combinations(observables, 2):
        if np.abs(a @ b - b @ a).max() > 1e-9:
            raise ValueError("observables do not commute")
    eye = np.eye(len(amplitudes))
    m = amplitudes
    outcomes = []
    for obs in observables:
        u = rng.random()
        branches = {}
        for outcome in (1, -1):
            proj = (eye + outcome * obs) / 2
            branches[outcome] = proj @ m if side == "A" else m @ proj.T
        outcome = 1 if u < np.linalg.norm(branches[1]) ** 2 else -1
        p = np.linalg.norm(branches[outcome]) ** 2
        if p <= 1e-12:
            raise InvariantError("sampled a zero-probability branch")
        m = branches[outcome] / np.sqrt(p)
        outcomes.append(outcome)
    return outcomes, m


def wins(constraint, beta, alice_outcomes, bob_outcome) -> bool:
    """Alice's outcomes multiply to the constraint's sign, and every one of
    her outcomes for a variable equal to beta agrees with Bob's: there is
    none when beta lies outside the constraint."""
    agree = all(
        a == bob_outcome for v, a in zip(constraint.var_indices, alice_outcomes) if v == beta
    )
    return bool(np.prod(alice_outcomes) == constraint.rhs) and agree


def play_round(game, sol, question, rng) -> RoundResult:
    """One round of question (alpha, beta) on a fresh maximally entangled
    state: Alice measures alpha's observables in ascending variable order,
    then Bob the transpose of beta's."""
    alpha, beta = question
    c = game.bcs.constraints[alpha]
    phi = np.eye(sol.shape[-1], dtype=complex) / np.sqrt(sol.shape[-1])
    a_out, m = measure_commuting(phi, "A", [sol[v] for v in c.var_indices], rng)
    (b_out,), _ = measure_commuting(m, "B", [sol[beta].T], rng)
    return RoundResult(alpha, tuple(a_out), b_out, wins(c, beta, a_out, b_out))


@dataclass
class Round1Transcript:
    r_alice: np.ndarray  # signs, shape (k-j, 3); row i-(j+1) is r^A_i for i in j+1..k
    r_bob: np.ndarray  # signs, shape (k-j, 3); row i-j is r^B_i for i in j..k-1
    pauli_frame: tuple[tuple[int, int], ...]  # per layer, (z bit, x bit)


def run_round1(instance, rng) -> Round1Transcript:
    """Analytic entanglement swapping along the j..k chain: two independent
    uniform bits per junction and layer, the frame their running parity."""
    bits = rng.integers(0, 2, size=(instance.k - instance.j, 3, 2))
    frame = tuple(map(tuple, (bits.sum(axis=0) & 1).tolist()))
    return Round1Transcript(1 - 2 * bits[:, :, 0], 1 - 2 * bits[:, :, 1], frame)


def frame_key(frame) -> int:
    """Index of a per-layer (z, x) frame in ``shallow.frame_tables``: bit 2l
    is layer l's z bit, bit 2l + 1 its x bit."""
    return sum((z | x << 1) << 2 * l for l, (z, x) in enumerate(frame))


def compute_syndrome(transcript: Round1Transcript):
    """Per-layer parity products (p^A, p^B) of the round-1 outcomes."""
    p_a = tuple(np.prod(transcript.r_alice, axis=0).tolist())
    p_b = tuple(np.prod(transcript.r_bob, axis=0).tolist())
    return p_a, p_b


def _on_layers(ops) -> np.ndarray:
    """Alice's operator with one 2 x 2 factor per layer, layer 0 first."""
    return reduce(np.kron, ops)


def frame_state(frame) -> np.ndarray:
    """Z^z X^x on each layer's Alice qubit, applied to |Phi+> of dimension 8."""
    ops = [(_Z if z else _I) @ (_X if x else _I) for z, x in frame]
    return _on_layers(ops) @ (np.eye(8, dtype=complex) / np.sqrt(8))


def correction(p_a, p_b) -> np.ndarray:
    """Alice's X^xb Z^za per layer, with za set where p^A is -1 and xb where
    p^B is -1."""
    return _on_layers([
        (_X if b < 0 else _I) @ (_Z if a < 0 else _I) for a, b in zip(p_a, p_b)
    ])


def clean(transcript) -> bool:
    """Every syndrome parity is +1."""
    p_a, p_b = compute_syndrome(transcript)
    return all(p == 1 for p in p_a + p_b)


def run_round2(game, instance, transcript, sol, rng, apply_correction=True) -> RoundResult:
    """Round 2 on the swapped state, corrected by the syndrome unless
    ``apply_correction`` is false, judged by ``wins``."""
    state = frame_state(transcript.pauli_frame)
    if apply_correction:
        state = correction(*compute_syndrome(transcript)) @ state
    c = game.bcs.constraints[instance.alpha]
    a_out, state = measure_commuting(state, "A", [sol[v] for v in c.var_indices], rng)
    (b_out,), _ = measure_commuting(state, "B", [sol[instance.beta].T], rng)
    return RoundResult(instance.alpha, tuple(a_out), b_out, wins(c, instance.beta, a_out, b_out))


def run_sampling_trial(game, instance, sol, rng) -> tuple[RoundResult, bool]:
    """Round 1, then round 2 on the uncorrected state; the round and
    whether the trial is clean.  Case 1 is clean and won, case 2 not clean,
    and invalid clean but lost."""
    transcript = run_round1(instance, rng)
    result = run_round2(game, instance, transcript, sol, rng, apply_correction=False)
    return result, clean(transcript)
