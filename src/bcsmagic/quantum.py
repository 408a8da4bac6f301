"""Dense-operator game strategies and simulated measurement.

Operators are plain complex numpy arrays.  A strategy assigns one involution
per BCS variable; the two players share the maximally entangled state of the
operator dimension, Alice measures the observables of her constraint, and
Bob measures the transpose of his variable's observable.  Shared states are
kept as d x d amplitude matrices M with ``M[i, j] = <i|_A <j|_B psi``, so the
maximally entangled state is the identity over sqrt(d), Alice-side operators
act by left multiplication, and Bob-side operators act by M A^T.

Every projective measurement runs through ``measure_batch``, which measures
a stack of T such states, shape (T, d, d), one step at a time: each step
gathers one (T, d, d) stack of observables, and each trial keeps the +1
branch iff its own uniform falls below that branch's probability.  Trials
draw their uniforms from their own generators before a batch is measured,
in the order a one-trial loop would, so results never depend on how trials
are grouped; ``measure_commuting`` and ``play_round`` are batches of one,
and ``play_rounds`` plays many rounds CHUNK at a time.

The permutation-flavoured solution for the complete-graph game lives in
dimension n: vertex operators flip one basis sign, edge operators swap two
basis vectors, and everything else follows by completing constraints with
single unknowns.  Its measurements are not Pauli strings for even n >= 6,
which is exactly why those games need magic.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import pauli
from .bcs import Bcs, InvariantError, PauliSolution
from .game import GameBcs, enumerate_questions
from .pauli import PauliString

# Trials measured together by the batched drivers.  No output depends on it.
CHUNK = 64


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; every stochastic routine takes one of these."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Operator solutions
# ---------------------------------------------------------------------------

@dataclass
class OperatorSolution:
    dim: int
    assignment: dict[int, np.ndarray]

    def to_json(self, bcs: Bcs) -> str:
        payload = {
            "dim": self.dim,
            "variables": {
                bcs.variables[v]: {
                    "re": np.real(m).tolist(),
                    "im": np.imag(m).tolist(),
                }
                for v, m in sorted(self.assignment.items())
            },
        }
        return json.dumps(payload, indent=1)


def operator_solution_from_json(bcs: Bcs, text: str) -> OperatorSolution:
    payload = json.loads(text)
    assignment = {
        bcs.index(name): np.array(entry["re"], dtype=complex) + 1j * np.array(entry["im"])
        for name, entry in payload["variables"].items()
    }
    return OperatorSolution(payload["dim"], assignment)


def classical_to_operator(signs: list[int]) -> OperatorSolution:
    """Embed a scalar solution as one-dimensional operators."""
    return OperatorSolution(1, {v: np.array([[s]], dtype=complex) for v, s in enumerate(signs)})


def pauli_to_operator(solution: PauliSolution) -> OperatorSolution:
    qubits = max(solution.qubits, 1)
    lifted = [
        PauliString(qubits, s.x_bits, s.z_bits, s.phase) for s in solution.strings
    ]
    return OperatorSolution(2 ** qubits, {v: pauli.to_matrix(s) for v, s in enumerate(lifted)})


def permutation_solution(game: GameBcs) -> OperatorSolution:
    """n-dimensional solution of the complete-graph game.

    Vertex v gets the reflection I - 2 e_vv, edge (u, v) gets the basis swap,
    and every remaining variable is completed from those generators.  The
    product of all vertex reflections is -I, which is what realizes the
    minus sign of the product constraint in every dimension-n instance.
    """
    n = game.n
    assignment: dict[int, np.ndarray] = {}
    for v in range(1, n + 1):
        m = np.eye(n, dtype=complex)
        m[v - 1, v - 1] = -1
        assignment[game.a(v)] = m
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            m = np.eye(n, dtype=complex)
            m[[u - 1, v - 1]] = m[[v - 1, u - 1]]
            assignment[game.x(u, v)] = m
    return complete_solution(game.bcs, OperatorSolution(n, assignment))


def complete_solution(bcs: Bcs, partial: OperatorSolution) -> OperatorSolution:
    """Fill in every variable that appears as the single unknown of some
    constraint, iterating until the assignment is total.

    The unknown of ``A_1 .. U .. A_k = c`` is the reversed product of the
    knowns on each side (inverses of involutions), times the sign.
    """
    dim = partial.dim
    assignment = dict(partial.assignment)
    for m in assignment.values():
        if m.shape != (dim, dim):
            raise ValueError("partial assignment has mixed dimensions")
    remaining = set(range(bcs.n_vars)) - set(assignment)
    while remaining:
        progress = False
        for c in bcs.constraints:
            unknowns = [v for v in c.var_indices if v in remaining]
            if len(unknowns) != 1:
                continue
            u = unknowns[0]
            pos = c.var_indices.index(u)
            left = [assignment[v] for v in c.var_indices[:pos]]
            right = [assignment[v] for v in c.var_indices[pos + 1:]]
            m = np.eye(dim, dtype=complex)
            for f in reversed(left):
                m = m @ f
            m = m * c.rhs
            for f in reversed(right):
                m = m @ f
            assignment[u] = m
            remaining.discard(u)
            progress = True
        if not progress:
            raise ValueError(
                f"stuck completing solution: {len(remaining)} variables have no "
                "constraint with a single unknown"
            )
    return OperatorSolution(dim, assignment)


@dataclass
class OperatorVerifyReport:
    tol: float
    worst_hermitian: float = 0.0
    worst_involution: float = 0.0
    worst_commutator: float = 0.0
    worst_product: float = 0.0
    failing_constraint: int | None = None

    @property
    def hermitian_ok(self) -> bool:
        return self.worst_hermitian <= self.tol and self.worst_involution <= self.tol

    @property
    def commutation_ok(self) -> bool:
        return self.worst_commutator <= self.tol

    @property
    def products_ok(self) -> bool:
        return self.worst_product <= self.tol

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.commutation_ok and self.products_ok


def verify_operator_solution(bcs: Bcs, sol: OperatorSolution, tol: float = 1e-9) -> OperatorVerifyReport:
    """Max-norm checks of Hermiticity, involution, within-constraint
    commutation, and signed constraint products."""
    dim = sol.dim
    eye = np.eye(dim)
    report = OperatorVerifyReport(tol)
    for v in range(bcs.n_vars):
        m = sol.assignment[v]
        if m.shape != (dim, dim):
            raise ValueError(f"variable {v} has dimension {m.shape}, expected {dim}")
        report.worst_hermitian = max(report.worst_hermitian, float(np.max(np.abs(m - m.conj().T))))
        report.worst_involution = max(report.worst_involution, float(np.max(np.abs(m @ m - eye))))
    ops = np.stack([sol.assignment[v] for v in range(bcs.n_vars)])
    commutators = _worst_commutators(ops, [sorted(c.support) for c in bcs.constraints])
    for j, c in enumerate(bcs.constraints):
        worst_here = float(commutators[j])
        prod = np.eye(dim, dtype=complex)
        for v in c.var_indices:
            prod = prod @ sol.assignment[v]
        prod_err = float(np.max(np.abs(prod - c.rhs * eye)))
        report.worst_commutator = max(report.worst_commutator, worst_here)
        report.worst_product = max(report.worst_product, prod_err)
        if (worst_here > tol or prod_err > tol) and report.failing_constraint is None:
            report.failing_constraint = j
    return report


def correlation(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B^T)/d: the agreement bias of measuring A and B on the
    maximally entangled state."""
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("operators must be square and of equal dimension")
    d = a.shape[0]
    return float(np.real(np.trace(a @ b.T))) / d


# ---------------------------------------------------------------------------
# Shared states and projective measurement
# ---------------------------------------------------------------------------

@dataclass
class SharedState:
    amplitudes: np.ndarray  # (d, d) matrix, rows Alice, columns Bob

    def __post_init__(self) -> None:
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[0] != self.amplitudes.shape[1]:
            raise ValueError("shared state must be a square amplitude matrix")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)


def phi_plus(dim: int) -> SharedState:
    return SharedState(np.eye(dim, dtype=complex) / np.sqrt(dim))


def measure_batch(
    amplitudes: np.ndarray,
    steps: Iterable[tuple[str, np.ndarray]],
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential projective measurement of a stack of shared states.

    ``amplitudes`` has shape (T, d, d).  ``steps`` yields ``(side,
    observables)`` pairs, observables of shape (T, d, d), and is read one
    step at a time; ``uniforms`` has shape (T, S), one column per step.
    Step s applies the projector (I + O)/2 to the named side of every trial
    and keeps trial t on the +1 branch iff ``uniforms[t, s]`` is below that
    branch's probability; the -1 branch is M minus the +1 branch.  Returns
    the (T, S) outcomes and the collapsed stack.  An identity observable at
    uniform 0 gives +1 and leaves the state as it was, up to rounding, which
    is how batches pad narrower constraints.  Commutation is the caller's
    check.
    """
    m = amplitudes
    uniforms = np.asarray(uniforms, dtype=float)
    outcomes = np.ones(uniforms.shape, dtype=int)
    eye = np.eye(m.shape[-1])
    n_steps = 0
    for s, (side, observables) in enumerate(steps):
        if s == uniforms.shape[1]:
            raise ValueError(f"more steps than the {s} uniforms per trial")
        plus = (eye + observables) / 2
        if side == "A":
            projected = plus @ m
        elif side == "B":
            projected = m @ plus.swapaxes(1, 2)
        else:
            raise ValueError("side must be 'A' or 'B'")
        flat = projected.reshape(len(m), -1).view(float)
        p_plus = np.einsum("ti,ti->t", flat, flat)
        keep = uniforms[:, s] < p_plus
        weight = np.where(keep, p_plus, 1.0 - p_plus)
        if np.any(weight <= 1e-12):
            raise InvariantError("sampled a zero-probability branch")
        branch = m - projected
        branch[keep] = projected[keep]
        branch /= np.sqrt(weight)[:, None, None]
        m = branch
        outcomes[~keep, s] = -1
        n_steps += 1
    if n_steps != uniforms.shape[1]:
        raise ValueError(f"{uniforms.shape[1]} uniforms per trial for {n_steps} steps")
    return outcomes, m


def _worst_commutators(ops: np.ndarray, groups) -> np.ndarray:
    """Per group of row indices into the (V, d, d) stack ``ops``, the largest
    entry of any commutator of two of its operators (0 below two), from
    batched products over the pairs of every group, CHUNK pairs at a time
    so that memory stays small."""
    worst = np.zeros(len(groups))
    pairs = ((g, a, b) for g, group in enumerate(groups) for a, b in itertools.combinations(group, 2))
    for block in batches(pairs):
        owner, a, b = np.array(block).T
        left, right = ops[a], ops[b]
        np.maximum.at(worst, owner, np.abs(left @ right - right @ left).max(axis=(1, 2)))
    return worst


def _check_commuting(observables: list[np.ndarray]) -> None:
    """Raise ValueError unless the observables commute pairwise within 1e-9."""
    if _worst_commutators(np.asarray(observables), [range(len(observables))])[0] > 1e-9:
        raise ValueError("observables do not commute")


def _draw_uniforms(rng: np.random.Generator, count: int) -> list[float]:
    """The next ``count`` uniforms of a trial's stream, one per step."""
    return [rng.random() for _ in range(count)]


def measure_commuting(
    state: SharedState,
    side: str,
    observables: list[np.ndarray],
    rng: np.random.Generator,
) -> tuple[list[int], SharedState]:
    """Sequential projective measurement of pairwise commuting involutions.

    Projectors are (I +/- O)/2 applied to the named side; outcome
    probabilities are squared projected norms and the state collapses after
    each step.  Rejects non-commuting observable sets.  A batch of one for
    ``measure_batch``.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    _check_commuting(observables)
    uniforms = [_draw_uniforms(rng, len(observables))]
    outcomes, stack = measure_batch(
        state.amplitudes[None], [(side, obs[None]) for obs in observables], uniforms
    )
    state.amplitudes = stack[0]
    return outcomes[0].tolist(), state


def batches(items: Iterable) -> Iterator[list]:
    """Consecutive lists of up to CHUNK items."""
    it = iter(items)
    while chunk := list(itertools.islice(it, CHUNK)):
        yield chunk


class StrategyStack:
    """A strategy's observables stacked for batched rounds.

    Row v of ``ops`` is variable v's observable and the last row is the
    identity, which pads constraints narrower than the widest in a batch, so
    a measurement step of a batch is one gather.  Every constraint's
    observables are checked to commute once, when the stack is built.
    """

    def __init__(self, bcs: Bcs, sol: OperatorSolution) -> None:
        self.bcs = bcs
        self.pad = bcs.n_vars
        self.ops = np.stack(
            [sol.assignment[v] for v in range(bcs.n_vars)] + [np.eye(sol.dim, dtype=complex)]
        )
        worst = _worst_commutators(self.ops, [c.var_indices for c in bcs.constraints])
        if np.any(worst > 1e-9):
            raise ValueError(f"observables of constraint {int(np.argmax(worst > 1e-9))} do not commute")

    def draw(self, alpha: int, rng: np.random.Generator) -> list[float]:
        """Alice's uniforms for constraint alpha, one per variable, then Bob's."""
        return _draw_uniforms(rng, len(self.bcs.constraints[alpha].var_indices) + 1)

    def measure(
        self, amplitudes: np.ndarray, questions: list[tuple[int, int]], draws: list[list[float]]
    ) -> list[list[int]]:
        """Measure trial t's question (alpha, beta) on ``amplitudes[t]`` with
        the uniforms ``draws[t]``; each row holds Alice's outcomes, padded
        with +1 to the batch's widest constraint, then Bob's."""
        width = max(len(d) for d in draws) - 1
        uniforms = [d[:-1] + [0.0] * (width + 1 - len(d)) + d[-1:] for d in draws]
        rows = [self.bcs.constraints[alpha].var_indices for alpha, _ in questions]
        members = np.array([row + (self.pad,) * (width - len(row)) for row in rows])
        betas = [beta for _, beta in questions]

        def steps():
            for s in range(width):
                yield "A", self.ops[members[:, s]]
            yield "B", self.ops[betas].swapaxes(1, 2)

        outcomes, _ = measure_batch(amplitudes, steps(), uniforms)
        return outcomes.tolist()


@dataclass
class RoundResult:
    constraint: int
    variables: tuple[int, ...]
    alice_outcomes: tuple[int, ...]
    bob_outcome: int
    won: bool


def _round_result(game: GameBcs, question: tuple[int, int], row: list[int]) -> RoundResult:
    alpha, beta = question
    c = game.bcs.constraints[alpha]
    a_out = row[:len(c.var_indices)]
    prod = 1
    for o in a_out:
        prod *= o
    agree = a_out[c.var_indices.index(beta)] == row[-1]
    return RoundResult(alpha, c.var_indices, tuple(a_out), row[-1], prod == c.rhs and agree)


def play_round(
    game: GameBcs,
    sol: OperatorSolution,
    question: tuple[int, int],
    rng: np.random.Generator,
) -> RoundResult:
    """One game round on a fresh maximally entangled state.

    Alice measures the observables of constraint alpha in ascending variable
    order; Bob measures the transpose of the beta observable.  The round is
    won iff Alice's outcomes multiply to the constraint sign and her value
    for beta matches Bob's.
    """
    alpha, beta = question
    c = game.bcs.constraints[alpha]
    if beta not in c.var_indices:
        raise ValueError(f"variable {beta} is not part of constraint {alpha}")
    alice_obs = [sol.assignment[v] for v in c.var_indices]
    a_out, state = measure_commuting(phi_plus(sol.dim), "A", alice_obs, rng)
    b_out, _ = measure_commuting(state, "B", [sol.assignment[beta].T], rng)
    return _round_result(game, question, a_out + b_out)


def play_rounds(
    game: GameBcs, sol: OperatorSolution, rngs: Iterable[np.random.Generator]
) -> Iterator[RoundResult]:
    """One ``play_round`` per generator, on a uniform (constraint, member)
    question drawn from it first, measured CHUNK rounds at a time.

    Each round draws from its generator exactly as ``play_round`` would, so
    passing one generator n times reproduces a loop of n rounds on it.
    """
    pairs = enumerate_questions(game).pairs
    stack = StrategyStack(game.bcs, sol)
    phi = phi_plus(sol.dim).amplitudes
    for chunk in batches(rngs):
        questions, draws = [], []
        for rng in chunk:
            question = pairs[int(rng.integers(len(pairs)))]
            draws.append(stack.draw(question[0], rng))
            questions.append(question)
        amplitudes = np.broadcast_to(phi, (len(chunk),) + phi.shape)
        for question, row in zip(questions, stack.measure(amplitudes, questions, draws)):
            yield _round_result(game, question, row)


# ---------------------------------------------------------------------------
# Pauli strategy audit
# ---------------------------------------------------------------------------

@dataclass
class CliffordAudit:
    pair_agreements: dict[tuple[int, int], float] = field(default_factory=dict)
    invalid_constraints: list[int] = field(default_factory=list)
    min_pair: float = 1.0
    avg_win: float = 0.0


def audit_clifford_strategy(
    game: GameBcs,
    alice: dict[int, dict[int, PauliString]],
    bob: dict[int, PauliString],
) -> CliffordAudit:
    """Score a Pauli (stabilizer-measurement) strategy pair.

    Alice may choose per-constraint observables; a constraint whose set
    fails to commute or to multiply to its sign is lost outright.  For the
    rest, the agreement on (alpha, beta) is (1 + t)/2 where t is the
    normalized trace of A_beta^(alpha) B_beta^T, always 0 or +/-1 for Pauli
    strings.  Averages are over the uniform question distribution.
    """
    qubits = {s.n_qubits for obs in alice.values() for s in obs.values()}
    qubits |= {s.n_qubits for s in bob.values()}
    if len(qubits) > 1:
        raise ValueError(f"mixed qubit counts in strategy: {sorted(qubits)}")
    audit = CliffordAudit()
    total = 0.0
    n_pairs = 0
    for alpha, c in enumerate(game.bcs.constraints):
        obs = alice[alpha]
        members = list(c.var_indices)
        valid = all(
            pauli.commutes(obs[a], obs[b])
            for i, a in enumerate(members)
            for b in members[i + 1:]
        )
        if valid:
            prod = pauli.multiply_all([obs[v] for v in members])
            target = 0 if c.rhs == 1 else 2
            valid = prod.is_identity_up_to_phase and prod.phase == target
        if not valid:
            audit.invalid_constraints.append(alpha)
        for beta in members:
            if valid:
                p = pauli.multiply(obs[beta], pauli.transpose(bob[beta]))
                t = p.sign if p.is_identity_up_to_phase else 0
                agreement = (1 + t) / 2
            else:
                agreement = 0.0
            audit.pair_agreements[(alpha, beta)] = agreement
            audit.min_pair = min(audit.min_pair, agreement)
            total += agreement
            n_pairs += 1
    audit.avg_win = total / n_pairs if n_pairs else 0.0
    return audit
