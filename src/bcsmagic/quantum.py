"""Dense-operator game strategies and simulated measurement.

Operators are float64 arrays wherever they are real, as the permutation and
classical strategies and the shared states are, and complex only where they
must be, as Pauli lifts with a Y are; a stack is complex iff a member is.
A strategy is one (V, d, d) array, row v variable v's involution; players share
the maximally entangled state of the operator dimension, Alice measures the
observables of her constraint, and Bob measures the transpose of his
variable's observable.  Shared states are kept as d x d amplitude matrices
M with ``M[i, j] = <i|_A <j|_B psi``, so the maximally entangled state is
the identity over sqrt(d), Alice-side operators act by left multiplication,
and Bob-side operators act by M A^T.

Every projective measurement runs through ``measure_batch``, which measures
a stack of T such states, shape (T, d, d), one step at a time: each step
gathers one (T, d, d) stack of observables, and each trial keeps the +1
branch iff its own uniform falls below that branch's probability.  For a
Hermitian involution O, which the drivers require, OM has the norm of M,
so an unnormalised M of squared norm n has +1 probability
(1 + Re<M, OM>/n)/2, and a step is one matmul and one inner product.  Trial
t reads each number from a fixed slot of its own ``TrialStream``, a pure
function of (seed, t, slot), so results never depend on how trials are
grouped; ``play_rounds`` plays many rounds CHUNK at a time.
``StrategyStack.measure`` judges a chunk of game rounds or trials by the
game's win rule, the library's only one, and returns one ``Rounds`` record
of arrays, a row per round.

The permutation-flavoured solution for the complete-graph game lives in
dimension n: vertex operators flip one basis sign, edge operators swap two
basis vectors, and everything else follows by completion in waves, each
one array pass that finds every constraint with a single unknown and
batches their products.  Its measurements are not Pauli strings for even
n >= 6, which is exactly why those games need magic.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import pauli
from .bcs import Bcs, InvariantError, PauliSolution
from .game import GameBcs
from .pauli import PauliString

# Trials measured together by the batched drivers; no output depends on it.
# On the simulate commands 64 ran ~10% slower, 256 or 512 no faster.
CHUNK = 128
# The largest error the strategy checks forgive, commutators' and reports' alike.
TOL = 1e-9


# ---------------------------------------------------------------------------
# Trial streams
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment, 2^64 / golden ratio


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection of uint64 words.  Array arithmetic
    wraps silently; a numpy scalar would warn on overflow."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class TrialStream:
    """Counter-based random words for numbered trials, after Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3" (SC 2011).  A seed, any
    non-negative integer, folds into a key 64 bits at a time, low bits
    first (key = mix(key ^ bits), from gamma).  Trial t has its own
    SplitMix64 sequence: its key is mix(seed key + (t + 1) gamma), and its
    word in slot s is mix(trial key + (s + 1) gamma), a pure function of
    (seed, t, s) whichever trials are computed together."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.key = np.full(1, _GAMMA)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            self.key = _mix(self.key ^ np.uint64(seed >> shift & 0xFFFF_FFFF_FFFF_FFFF))

    def words(self, trials, slots) -> np.ndarray:
        """Trial ``trials[i]``'s word in slot ``slots[i]``, arrays broadcast."""
        keys = _mix(self.key + (np.asarray(trials, dtype=np.uint64) + np.uint64(1)) * _GAMMA)
        return _mix(keys + (np.asarray(slots).astype(np.uint64) + np.uint64(1)) * _GAMMA)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1), the top 53 bits of each word times 2^-53."""
    return (words >> np.uint64(11)).astype(float) * 2.0 ** -53


def below(words: np.ndarray, n) -> np.ndarray:
    """Integers in [0, n), 1 <= n <= 2^32, by multiply-shift on each word's
    top 32 bits: each value has 2^32 / n of them, rounded, a bias <= n / 2^32."""
    return ((words >> np.uint64(32)) * np.asarray(n, dtype=np.uint64) >> np.uint64(32)).astype(int)


# ---------------------------------------------------------------------------
# Operator solutions
# ---------------------------------------------------------------------------

def classical_to_operator(signs: list[int]) -> np.ndarray:
    """Embed a scalar solution as one-dimensional operators."""
    return np.array(signs, float).reshape(-1, 1, 1)


def pauli_to_operator(solution: PauliSolution) -> np.ndarray:
    qubits = max(solution.qubits, 1)
    lifted = [PauliString(qubits, s.x_bits, s.z_bits, s.phase) for s in solution.strings]
    return np.array([pauli.to_matrix(s) for s in lifted], complex).reshape(-1, 2 ** qubits, 2 ** qubits)


def permutation_solution(game: GameBcs) -> np.ndarray:
    """n-dimensional solution of the complete-graph game.

    Vertex v gets the reflection I - 2 e_vv, edge (u, v) gets the basis swap,
    and every remaining variable is completed from those generators.  The
    product of all vertex reflections is -I, which is what realizes the
    minus sign of the product constraint in every dimension-n instance.
    """
    n, eye = game.n, np.eye(game.n)
    partial = {game.a(v + 1): eye - 2 * np.outer(eye[v], eye[v]) for v in range(n)}
    partial |= {game.x(u + 1, v + 1): eye - np.outer(eye[u] - eye[v], eye[u] - eye[v])
                for u, v in itertools.combinations(range(n), 2)}
    return complete_solution(game.bcs, partial)


def complete_solution(bcs: Bcs, partial: dict[int, np.ndarray]) -> np.ndarray:
    """The (V, d, d) stack extending ``partial``, a {variable: matrix} dict:
    in waves, every variable that is the single unknown of some constraint
    is filled in until the stack is total.  A wave is one pass over the
    padded members table: the first constraint with a given variable as its
    only unknown defines it as the reversed product of the knowns on each
    side (inverses of involutions), times the sign.  Knowns are cast into
    the stack's dtype, so real knowns give a real stack.  An empty partial,
    a key that is not a variable, mixed dimensions, or a wave that finds
    nothing raises ValueError."""
    if not partial:
        raise ValueError("an empty partial assignment has no dimension")
    dim, n_vars = len(next(iter(partial.values()))), bcs.n_vars
    ops = np.empty((n_vars, dim, dim), np.result_type(float, *partial.values()))
    for v, m in partial.items():
        if not isinstance(v, (int, np.integer)) or v not in range(n_vars):
            raise ValueError(f"assignment key {v!r} is not a variable of the {n_vars}-variable BCS")
        if m.shape != (dim, dim):
            raise ValueError("partial assignment has mixed dimensions")
        ops[int(v)] = m
    known = np.isin(np.arange(n_vars + 1), [*partial, n_vars])
    members = _padded([c.var_indices for c in bcs.constraints], n_vars)
    rhs = np.array([c.rhs for c in bcs.constraints], dtype=int)
    while not known.all():
        unknown = ~known[members]
        single = np.flatnonzero(unknown.sum(axis=1) == 1)
        if not len(single):
            raise ValueError(f"stuck completing solution: {np.sum(~known)} variables have no "
                             "constraint with a single unknown")
        pos = unknown[single].argmax(axis=1)
        targets, first = np.unique(members[single, pos], return_index=True)
        single, pos = single[first], pos[first]
        w = np.sum(members[single] != n_vars, axis=1)
        # Knowns left of the unknown reversed, then those right of it reversed.
        order = (pos[:, None] - 1 - np.arange(members.shape[1] - 1)) % w[:, None]
        for block, products in _products(ops, members[single[:, None], order], w - 1):
            ops[targets[block]] = products * rhs[single[block], None, None]
        known[targets] = True
    return ops


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


def verify_operator_solution(bcs: Bcs, ops: np.ndarray, tol: float = TOL) -> OperatorVerifyReport:
    """Max-norm checks of Hermiticity, involution, within-constraint
    commutation, and signed constraint products, over the whole ``_stack``
    at once, products as gathers of its padded member rows.
    ``failing_constraint`` is the first whose commutators or product fail."""
    return _verify(*_stack(bcs, ops), tol)


def _verify(ops, members, rhs, commutators, tol: float) -> OperatorVerifyReport:
    """The report on a ``_stack`` layout."""
    eye = np.eye(ops.shape[-1])
    hermitian = float(np.abs(ops - ops.conj().swapaxes(1, 2)).max())
    involution = float(np.abs(ops @ ops - eye).max())
    errors = np.zeros(len(members))
    for block, products in _products(ops, members, np.sum(members != len(ops) - 1, axis=1)):
        errors[block] = np.abs(products - rhs[block, None, None] * eye).max(axis=(1, 2), initial=0.0)
    failing = np.flatnonzero((commutators > tol) | (errors > tol))
    return OperatorVerifyReport(tol, hermitian, involution, float(commutators.max(initial=0.0)),
                                float(errors.max(initial=0.0)), int(failing[0]) if len(failing) else None)


def _products(ops: np.ndarray, rows: np.ndarray, widths: np.ndarray) -> Iterator[tuple[list, np.ndarray]]:
    """(row numbers, products) for up to CHUNK rows of one width at a time:
    row i's product, left to right, of ``ops`` over its first ``widths[i]``
    indices, so no row multiplies padding; an empty product is one (d, d) identity."""
    for width in np.unique(widths):
        for block in batches(np.flatnonzero(widths == width)):
            columns = rows[block, :width].T
            products = ops[columns[0]] if width else np.eye(ops.shape[-1], dtype=ops.dtype)
            for column in columns[1:]:
                products = products @ ops[column]
            yield block, products


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

def phi_plus(dim: int) -> np.ndarray:
    """The maximally entangled state of dimension ``dim`` as its amplitude
    matrix, the identity over sqrt(dim)."""
    return np.eye(dim) / np.sqrt(dim)


def measure_batch(
    amplitudes: np.ndarray,
    steps: Iterable[tuple[str, np.ndarray]],
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential projective measurement of a stack of shared states.

    ``amplitudes`` has shape (T, d, d), states of positive norm, and
    ``uniforms`` (T, S), one column per step; else ValueError.  ``steps`` yields
    ``(side, observables)`` pairs, observables of shape (T, d, d), and is
    read one step at a time.  Step s keeps trial t on the +1 branch of
    (I + O)/2 iff ``uniforms[t, s]`` is below that branch's probability.
    Returns the (T, S) outcomes and the collapsed unit states.  An identity
    observable at uniform 0 gives +1 and leaves the state as it was, up to
    rounding, which is how batches pad narrower constraints.

    Observables must be Hermitian involutions that commute where they must;
    both are the caller's checks.  Then OM, O M on Alice's side or M O^T on
    Bob's, has the norm of M, so M of squared norm n has +1 probability
    (1 + Re<M, OM>/n)/2 and branches M +- OM of squared norm 4n times their
    probability: each step is one matmul and one inner product, the branch
    is built in OM's buffer, n is carried, and states are normalised once,
    at the end.  A real state takes complex observables' dtype.
    """
    m, uniforms = np.asarray(amplitudes), np.asarray(uniforms, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected amplitudes of shape (T, d, d), got {m.shape}")
    if uniforms.ndim != 2 or len(uniforms) != len(m):
        raise ValueError(f"expected uniforms of shape ({len(m)}, S), got {uniforms.shape}")
    # A C-ordered copy, so that a broadcast state views as floats too.
    m = np.ascontiguousarray(m, dtype=np.result_type(float, m))
    norms = _real_dot(m, m)
    if not np.all(norms > 0):
        raise ValueError("every state needs a positive norm")
    kept = np.zeros(uniforms.shape, dtype=bool)
    n_steps = 0
    for s, (side, observables) in enumerate(steps):
        if s == uniforms.shape[1]:
            raise ValueError(f"more steps than the {s} uniforms per trial")
        if side == "A":
            om = observables @ m
        elif side == "B":
            om = m @ observables.swapaxes(1, 2)
        else:
            raise ValueError("side must be 'A' or 'B'")
        if m.dtype != om.dtype:  # a real state meets complex observables
            m = m.astype(om.dtype)
        p_plus = 0.5 * (1.0 + _real_dot(m, om) / norms)
        keep = uniforms[:, s] < p_plus
        weight = np.where(keep, p_plus, 1.0 - p_plus)
        if (weight <= 1e-12).any():
            raise InvariantError("sampled a zero-probability branch")
        om *= np.where(keep, 1.0, -1.0)[:, None, None]
        om += m
        m = om
        norms *= 4.0 * weight
        kept[:, s] = keep
        n_steps += 1
    if n_steps != uniforms.shape[1]:
        raise ValueError(f"{uniforms.shape[1]} uniforms per trial for {n_steps} steps")
    return np.where(kept, 1, -1), m / np.sqrt(norms)[:, None, None]


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a[t], b[t]> per row of two C-ordered stacks of one dtype."""
    return np.einsum("ti,ti->t", a.reshape(len(a), -1).view(float), b.reshape(len(b), -1).view(float))


def _worst_commutators(ops: np.ndarray, groups) -> np.ndarray:
    """Per group of row indices into the (V, d, d) stack ``ops``, in any
    order, the largest entry of any commutator of two of its operators (0
    below two), over the position pairs of the groups' padded table that
    hold no padding, CHUNK pairs at a time so that memory stays small."""
    table = _padded(groups, -1)
    first, second = np.triu_indices(table.shape[1], 1)
    owner, pair = np.nonzero(table[:, second] >= 0)
    a, b = table[owner, first[pair]], table[owner, second[pair]]
    worst = np.zeros(len(groups))
    for block in batches(range(len(owner))):
        left, right = ops[a[block]], ops[b[block]]
        np.maximum.at(worst, owner[block], np.abs(left @ right - right @ left).max(axis=(1, 2)))
    return worst


def batches(items: Iterable) -> Iterator[list]:
    """Consecutive lists of up to CHUNK items."""
    it = iter(items)
    while chunk := list(itertools.islice(it, CHUNK)):
        yield chunk


@dataclass
class Rounds:
    """Judged rounds as arrays, row t one round: question (``alphas[t]``,
    ``betas[t]``) of ``widths[t]`` variables, Alice's outcomes in ascending
    variable order, +1 on her padded steps, then Bob's, in ``outcomes[t]``,
    and ``won[t]`` by the game's win rule."""
    alphas: np.ndarray
    betas: np.ndarray
    widths: np.ndarray
    outcomes: np.ndarray
    won: np.ndarray


def _padded(rows, pad: int) -> np.ndarray:
    """Rows of indices as one int table, each padded with ``pad`` to the widest."""
    widths = np.fromiter(map(len, rows), int, len(rows))
    table = np.full((len(rows), widths.max(initial=0)), pad)
    table[np.arange(table.shape[1]) < widths[:, None]] = np.fromiter(itertools.chain(*rows), int, widths.sum())
    return table


def _stack(bcs: Bcs, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (V, d, d) strategy ``ops`` with the real identity appended as row
    V, which pads each constraint's row to the widest; the constraints'
    members as rows of indices into it, their signs, and their worst
    commutators over their supports, cancelled variables included.  A
    strategy of any shape but (V, d, d) raises ValueError."""
    if ops.ndim != 3 or ops.shape[0] != bcs.n_vars or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"expected a strategy of shape ({bcs.n_vars}, d, d), got {ops.shape}")
    ops = np.concatenate([ops, np.eye(ops.shape[-1])[None]])
    members = _padded([c.var_indices for c in bcs.constraints], bcs.n_vars)
    rhs = np.array([c.rhs for c in bcs.constraints], dtype=int)
    return ops, members, rhs, _worst_commutators(ops, [c.support for c in bcs.constraints])


class StrategyStack:
    """A (V, d, d) strategy laid out by ``_stack`` for ``bcs``'s batched
    rounds, so that a batch's step is one gather of ``ops`` rows, row ``pad``
    the identity, and its (alpha, beta) ``questions``, row-major over members
    that are not padding, as ``game.enumerate_questions`` lists them.  Each
    constraint's support is checked to commute once, here, and a ValueError
    refuses the strategy if not; ``report`` is ``verify_operator_solution``'s
    at ``TOL``.
    """

    def __init__(self, bcs: Bcs, ops: np.ndarray) -> None:
        self.ops, self.members, self.rhs, commutators = _stack(bcs, ops)
        self.dim, self.pad = ops.shape[-1], bcs.n_vars
        self.widths = np.sum(self.members != self.pad, axis=1)
        alphas, slots = np.nonzero(self.members != self.pad)
        self.questions = np.column_stack([alphas, self.members[alphas, slots]])
        if np.any(commutators > TOL):
            raise ValueError(f"observables of constraint {np.argmax(commutators > TOL)} do not commute")
        self.report = _verify(self.ops, self.members, self.rhs, commutators, TOL)

    def measure(self, amplitudes: np.ndarray, alphas: np.ndarray, betas: np.ndarray,
                alice_uniforms: np.ndarray, bob_uniforms: np.ndarray) -> Rounds:
        """Measure trial t's question (alphas[t], betas[t]) on ``amplitudes[t]``,
        Alice's step i at ``alice_uniforms[t, i]`` (uniform 0 where it pads a
        narrower constraint) and Bob's at ``bob_uniforms[t]``, and judge it by
        the win rule: Alice's outcomes multiply to the constraint sign, and
        agree with Bob's wherever beta is one of alpha's variables."""
        widths = self.widths[alphas]
        members = self.members[alphas, :widths.max()]
        uniforms = np.column_stack([
            np.where(members == self.pad, 0.0, alice_uniforms[:, :members.shape[1]]), bob_uniforms])

        def steps():
            for s in range(members.shape[1]):
                yield "A", self.ops[members[:, s]]
            yield "B", self.ops[betas].swapaxes(1, 2)

        outcomes, _ = measure_batch(amplitudes, steps(), uniforms)
        alice, bob = outcomes[:, :-1], outcomes[:, -1:]
        agree = np.all((members != betas[:, None]) | (alice == bob), axis=1)
        won = (alice.prod(axis=1) == self.rhs[alphas]) & agree
        return Rounds(alphas, betas, widths, outcomes, won)


def check_playable(stack: StrategyStack, trials: int, table: np.ndarray, empty: str) -> None:
    """The guards of ``play_rounds`` and ``shallow.run_trials``, in order: a
    non-negative trial count, a non-empty ``table`` to draw from when any
    trial is asked for (``empty`` is the error), and a strategy of Hermitian
    involutions.  Each failure raises ValueError."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials and not len(table):
        raise ValueError(empty)
    if not stack.report.hermitian_ok:
        raise ValueError("measure_batch needs Hermitian involutions, and the strategy's are not")


def play_rounds(stack: StrategyStack, seed: int, trials: int) -> Iterator[Rounds]:
    """``trials`` game rounds of ``stack``'s strategy, a ``Rounds`` per CHUNK.

    Round t's ``TrialStream`` slot 0 picks a uniform question from
    ``stack.questions``, and slots 1, 2, ... are its steps' uniforms.  On a
    fresh maximally entangled state Alice measures alpha's observables in
    ascending variable order, then Bob the transpose of beta's, through
    ``measure_batch``; ``StrategyStack.measure`` judges each round.  Seed,
    trial count and question table are checked when this is called.
    """
    check_playable(stack, trials, stack.questions, "the strategy's game has no questions")
    stream = TrialStream(seed)
    slots = range(2 + stack.members.shape[1])

    def rounds() -> Iterator[Rounds]:
        for chunk in batches(range(trials)):
            words = stream.words(np.array(chunk)[:, None], slots)
            alphas, betas = stack.questions[below(words[:, 0], len(stack.questions))].T
            u = uniforms(words[:, 1:])
            phi = np.broadcast_to(phi_plus(stack.dim), (len(chunk), stack.dim, stack.dim))
            # Bob's step follows Alice's, so it reads slot 1 + width.
            yield stack.measure(phi, alphas, betas, u, u[np.arange(len(chunk)), stack.widths[alphas]])

    return rounds()

