"""Binary constraint systems and their solvers.

A BCS is a list of named +/-1 variables and parity constraints: each
constraint requires the product of a subset of variables to equal a fixed
sign.  Two solvers live here, and each returns either a solution or a
``Certificate``, a set of cited constraints whose formal product collapses
to I = -I.  ``classical_solve`` looks for a scalar assignment by GF(2)
elimination; its certificates cite no commutation facts.  ``pauli_solve``
decides whether signed Pauli strings can satisfy the system when scalars
cannot; its certificates may also cite commutation facts, and
``verify_certificate`` replays them.

The operator solver works in three steps:

1. eliminate the variables over GF(2) once.  The pivot rows express every
   dependent variable as a sign times an ascending product of free
   variables, and the elimination returns the free variables ascending
   with every variable's free support as a mask over their ranks (bit r
   for the r-th free variable); the zero rows' provenance spans the left
   kernel, the sets of constraints whose product cancels every variable.
   When every kernel vector's rhs is 0 the scalar solution is the answer,
   on zero qubits, and the remaining steps are skipped;
2. substitute those expressions into the constraints and into the
   commutation requirements of co-occurring pairs.  One sort,
   ``_sort_parity``, bubbles a list of free supports into ascending order
   while recording, for every swap of distinct free variables of ranks
   k < l, the commutator unknown of the pair; equal neighbours cancel
   because every variable squares to the identity.  A product's swap
   parities are a set of positions k*f + l, one per pair of ranks k < l of
   f free variables swapped an odd number of times.  A_i A_j A_i A_j sorts
   as A_i^2 A_j^2 [A_i, A_j], so the commutation row of (i, j) is the sort
   of [d, d], d the XOR of the two supports: every pair inside d.  The
   constraints of a kernel vector multiply to swaps alone, so each gives
   one equation: its constraints' position sets XOR to its rhs bit;
3. solve that GF(2) system over the commutator unknowns that occur, in
   pair order, with a row per kernel vector and per distinct d among the
   co-occurring pairs (the first pair with each d) but for the empty rows
   with rhs 0, which never pivot and are never cited (swaps that cancel
   with sign +1; d of fewer than two free variables).  A solution lifts
   to Pauli strings with one qubit per anticommuting pair, and dependent
   variables' signs follow by back-substitution into their pivot rows; an
   inconsistency cites the kernel vectors' constraints and the commutation
   facts involved, whose formal product reduces to -1.

Constraints are canonicalized at parse time: variable lists are sorted
ascending and repeats are cancelled in pairs.  The set of distinct variables
seen before cancellation is kept as the constraint's support, because joint
measurability (hence commutation) is required of everything that appeared
together, including variables that cancelled.

The records are named tuples; ``Constraint`` checks its rhs in ``__new__``,
which its _make and _replace call too.  ``PauliVerifyReport`` is mutable.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import reduce
from itertools import combinations
from operator import xor
from types import SimpleNamespace
from typing import NamedTuple

from . import gf2, pauli
from .gf2 import Gf2System, Inconsistency, set_bits
from .pauli import PauliString

# (x, z, phase) parts of Pauli strings, indexed by variable.
Bits = Sequence[int]

# The strings that are a sign on zero qubits, shared: they are frozen.
_SCALARS = {(0, phase): PauliString(0, 0, 0, phase) for phase in range(4)}


class InvariantError(Exception):
    """A self-check of an exact computation failed: a bug, not bad input.

    Not a ``ValueError``, so the command line reports it as an internal
    failure (exit 1) rather than as malformed input (exit 2).
    """


class _ConstraintFields(NamedTuple):
    var_indices: tuple[int, ...]
    rhs: int
    support: frozenset[int]


class Constraint(_ConstraintFields):
    """The support defaults to the variables kept."""
    __slots__ = ()

    def __new__(cls, var_indices: tuple[int, ...], rhs: int, support: frozenset[int] = frozenset()) -> Constraint:
        if rhs not in (1, -1):
            raise ValueError("constraint rhs must be +1 or -1")
        return tuple.__new__(cls, (var_indices, rhs, support or frozenset(var_indices)))

    @classmethod
    def _make(cls, fields) -> Constraint:
        return cls(*fields)


class Bcs(NamedTuple):
    variables: list[str]
    constraints: list[Constraint]

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def make_constraint(var_indices: list[int], rhs: int) -> Constraint:
    """Canonicalize: ascending order, repeats cancelled mod 2."""
    support = frozenset(var_indices)
    if len(support) < len(var_indices):
        var_indices = [v for v, count in Counter(var_indices).items() if count % 2]
    return Constraint(tuple(sorted(var_indices)), rhs, support)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_RHS = {"1": 1, "-1": -1}


def parse_bcs(text: str) -> Bcs:
    """Parse the BCS text format.

    Lines: ``#`` comments, an optional ``vars:`` header naming the variables,
    then one constraint per line, ``name ... name = 1`` or ``= -1``.  Without
    a header, variables are registered in order of first appearance.
    """
    index: dict[str, int] = {}  # the variables in order, by name
    declared = False
    constraints: list[Constraint] = []

    def lookup(tok: str) -> int:
        if tok not in index:
            if declared:
                raise ValueError(f"unknown variable name {tok!r}")
            index[tok] = len(index)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if declared or constraints:
                raise ValueError(f"line {lineno}: vars: header must come first")
            for tok in line[len("vars:"):].split():
                if "=" in tok:
                    raise ValueError(f"line {lineno}: variable name {tok!r} contains '='")
                if tok in index:
                    raise ValueError(f"line {lineno}: duplicate variable {tok!r}")
                index[tok] = len(index)
            declared = True
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: missing '='")
        lhs, _, rhs_text = line.partition("=")
        rhs_text = rhs_text.strip()
        if rhs_text not in _RHS:
            raise ValueError(f"line {lineno}: malformed rhs {rhs_text!r}")
        toks = lhs.split()
        ids = list(map(index.get, toks))
        if None in ids:  # a name to register, or an unknown one
            ids = [lookup(t) for t in toks]
        constraints.append(make_constraint(ids, _RHS[rhs_text]))

    if not declared and not constraints:
        raise ValueError("empty BCS file")
    return Bcs(list(index), constraints)


def serialize_bcs(bcs: Bcs) -> str:
    """The text format, read back by ``parse_bcs`` as the same system: each
    cancelled support variable is written twice after the kept ones, so
    its commutation requirement survives the round trip."""
    names = bcs.variables
    lines = ["vars: " + " ".join(names)]
    for var_indices, rhs, support in bcs.constraints:
        cancelled = sorted(support.difference(var_indices))
        lhs = " ".join(names[v] for v in list(var_indices) + cancelled * 2)
        lines.append(f"{lhs} = {rhs}".lstrip())
    return "\n".join(lines) + "\n"


def mermin_peres() -> Bcs:
    """The 3x3 magic-square system: nine variables, six parity constraints."""
    return parse_bcs(
        "vars: v1 v2 v3 v4 v5 v6 v7 v8 v9\n"
        "v1 v2 v3 = 1\n"
        "v4 v5 v6 = 1\n"
        "v7 v8 v9 = 1\n"
        "v1 v4 v7 = 1\n"
        "v2 v5 v8 = 1\n"
        "v3 v6 v9 = -1\n"
    )


def chsh() -> Bcs:
    """Two variables constrained to agree and to disagree."""
    return parse_bcs("vars: v1 v2\nv1 v2 = 1\nv1 v2 = -1\n")


# ---------------------------------------------------------------------------
# Classical solving
# ---------------------------------------------------------------------------

class Certificate(NamedTuple):
    constraint_rows: tuple[int, ...]
    commutation_rows: tuple[tuple[int, int], ...]
    derived_relation: tuple[int, ...]


def _certificate(bcs: Bcs, rows: Sequence[int], pairs: Sequence[tuple[int, int]] = ()) -> Certificate:
    """The certificate citing constraints ``rows`` and commutation facts
    ``pairs``; its derived relation is the cited constraints' variables,
    concatenated in cited order."""
    relation = tuple(v for j in rows for v in bcs.constraints[j].var_indices)
    return Certificate(tuple(rows), tuple(pairs), relation)


def incidence_system(bcs: Bcs) -> Gf2System:
    rows = [sum(1 << v for v in c.var_indices) for c in bcs.constraints]
    rhs = [0 if c.rhs == 1 else 1 for c in bcs.constraints]
    matrix = gf2.Gf2Matrix(len(rows), bcs.n_vars, rows)
    return Gf2System(matrix, rhs)


def classical_solve(bcs: Bcs) -> list[int] | Certificate:
    """A satisfying +/-1 assignment, free variables +1, or a certificate
    citing constraints, ascending, whose product cancels every variable and
    has sign -1; it cites no commutation facts.  The certificate is the
    provenance of the first reduced zero row with rhs 1, and the pivot rows'
    rhs bits give the dependent variables."""
    reduced = eliminate_free_vars(bcs).reduced
    rank, system = len(reduced.pivot_cols), reduced.system
    for rhs, provenance in zip(system.rhs[rank:], system.provenance[rank:]):
        if rhs:
            return _certificate(bcs, set_bits(provenance))
    signs = [1] * bcs.n_vars
    for col, rhs in zip(reduced.pivot_cols, system.rhs):
        signs[col] = 1 - 2 * rhs
    return signs


# ---------------------------------------------------------------------------
# Free-variable elimination
# ---------------------------------------------------------------------------

class Elimination(NamedTuple):
    free: list[int]
    supports: list[int]
    reduced: gf2.ReducedSystem


def eliminate_free_vars(bcs: Bcs) -> Elimination:
    """Express each variable over a free set by GF(2) elimination.

    Pivot columns are those of the unique RREF, so the free set is the
    lexicographically latest choice; ``free`` lists it ascending.
    ``supports[v]`` is the product of free variables that fixes v up to a
    sign, as a mask over their ranks: bit r stands for ``free[r]``.  A free
    variable's is its own rank bit, and a dependent variable's is its pivot
    row without the pivot bit, since an RREF pivot row holds no other pivot
    column.  Pair positions over ranks run below f^2 for f free variables,
    not n^2 for n variables, and ranks keep the order of the free
    variables, so pairs keep their order too.  The reduction is kept: pivot
    row i belongs to the dependent variable ``reduced.pivot_cols[i]``, and
    the zero rows after them carry a (not canonical) basis of the left
    kernel in their provenance.
    """
    reduced = gf2.row_reduce(incidence_system(bcs))
    free = sorted(set(range(bcs.n_vars)).difference(reduced.pivot_cols))
    supports = [0] * bcs.n_vars
    for r, v in enumerate(free):
        supports[v] = 1 << r
    for row, col in zip(reduced.system.matrix.bits, reduced.pivot_cols):
        row ^= 1 << col
        while row:
            supports[col] |= supports[(row & -row).bit_length() - 1]
            row &= row - 1
    return Elimination(free, supports, reduced)


# ---------------------------------------------------------------------------
# Swap bookkeeping
# ---------------------------------------------------------------------------

def _sort_parity(blocks: Sequence[int], width: int) -> tuple[set[int], int]:
    """Swap parity of sorting the concatenation of ascending blocks, each
    given as a mask over ``width`` ranks.

    Returns (positions, leftover): positions holds ``k * width + l`` for
    each pair of ranks k < l swapped an odd number of times, and leftover
    is the XOR of the blocks.  Pairs of equal ranks never swap.  Rank k's
    partners l > k are XORed into one mask over ``width`` ranks, so no
    integer ``width``^2 bits wide is built.  Appending [d, d] toggles every
    pair inside d: the terms against the blocks before them cancel.
    """
    partners: dict[int, int] = {}
    prefix = 0
    for block in blocks:
        if prefix:
            for k in set_bits(block):
                partners[k] = partners.get(k, 0) ^ prefix >> k + 1
        prefix ^= block
    positions = set()
    for k, later in partners.items():
        base = k * width + k
        while later:
            positions.add(base + (later & -later).bit_length())
            later &= later - 1
    return positions, prefix


def _constraint_parity(bcs: Bcs, supports: Sequence[int], width: int, j: int) -> set[int]:
    """Pair positions of constraint j with every variable substituted by
    its free support over ``width`` ranks."""
    swaps, leftover = _sort_parity([supports[v] for v in bcs.constraints[j].var_indices], width)
    if leftover:
        raise InvariantError(f"free supports failed to cancel in constraint {j}")
    return swaps


# ---------------------------------------------------------------------------
# Pauli solving
# ---------------------------------------------------------------------------

class PauliSolution(NamedTuple):
    qubits: int
    strings: list[PauliString]

    def assignment(self, bcs: Bcs) -> dict[str, PauliString]:
        return dict(zip(bcs.variables, self.strings))


class PauliVerifyReport(SimpleNamespace):
    """The verdicts of ``verify_pauli_solution`` and the first failing
    variable and constraint; mutable, since the checks fill it in."""

    def __init__(self, hermitian_ok: bool, commutation_ok: bool, products_ok: bool,
                 failing_variable: int | None = None, failing_constraint: int | None = None) -> None:
        super().__init__(hermitian_ok=hermitian_ok, commutation_ok=commutation_ok, products_ok=products_ok,
                         failing_variable=failing_variable, failing_constraint=failing_constraint)

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.commutation_ok and self.products_ok


def pauli_solve(bcs: Bcs) -> PauliSolution | Certificate:
    """Decide Pauli-string solvability; total on every well-formed BCS.

    When every kernel vector's constraints multiply to sign +1, the scalar
    solution is the answer: every string is a sign on zero qubits, free
    variables +1.  Otherwise, on success, anticommuting free pairs each get
    a qubit (sigma_x on the smaller variable, sigma_z on the larger),
    remaining free variables are identities, and dependent variables are
    signed ordered products; unconstrained commutators default to
    "commute".  On failure, the cited kernel vectors' constraints and the
    cited commutation pairs form the certificate.  A solution or certificate
    failing ``verify_pauli_solution`` or ``_replay`` raises InvariantError.
    """
    elim = eliminate_free_vars(bcs)
    reduced, pivots = elim.reduced.system, elim.reduced.pivot_cols
    n = bcs.n_vars
    kernel = range(len(pivots), reduced.matrix.rows)
    xs, zs, phases = [0] * n, [0] * n, [0] * n
    n_qubits = flip = 0
    # With every kernel rhs 0 the commutator system is homogeneous, its
    # solution is all-commute, and the lift is the scalar one.
    if any(reduced.rhs[len(pivots):]):
        free, supports = elim.free, elim.supports
        f = len(free)
        swaps = [_constraint_parity(bcs, supports, f, j) for j in range(len(bcs.constraints))]
        swapping = sum(1 << j for j, mask in enumerate(swaps) if mask)

        # The live rows of step 3: kernel vectors, then the first co-occurring
        # pair per support difference d, every position k*f + l, k < l, in d.
        # Columns are the positions that occur, in pair order.
        kernel_rows = ((i, reduce(xor, (swaps[j] for j in set_bits(reduced.provenance[i] & swapping)), frozenset()))
                       for i in kernel)
        live = {i: row for i, row in kernel_rows if row or reduced.rhs[i]}
        first: dict[int, tuple[int, int]] = {}
        for a, b in sorted({(a, b) for c in bcs.constraints for a, b in combinations(sorted(c.support), 2)
                            if (supports[a] ^ supports[b]).bit_count() > 1}):
            first.setdefault(supports[a] ^ supports[b], (a, b))
        positions = [*live.values(), *([k * f + l for k, l in combinations(set_bits(d), 2)] for d in first)]
        comm = sorted(set().union(*positions))
        col = {p: c for c, p in enumerate(comm)}
        bits = [sum(1 << col[p] for p in ps) for ps in positions]
        rhs = [reduced.rhs[i] for i in live] + [0] * len(first)
        out = gf2.solve(Gf2System(gf2.Gf2Matrix(len(bits), len(comm), bits), rhs))

        if isinstance(out, Inconsistency):
            # Cited rows map back through the live kernel vectors and pairs.
            kept = list(live)
            cited = reduce(xor, (reduced.provenance[kept[r]] for r in out.rows if r < len(kept)), 0)
            pairs = [p for r, p in enumerate(first.values(), len(kept)) if r in out.rows]
            cert = _certificate(bcs, set_bits(cited), pairs)
            if not _replay(bcs, cert, elim):
                raise InvariantError("internal solver error: constructed certificate failed its replay")
            return cert

        anti_pairs = [p for p, value in zip(comm, out) if value]
        anti = frozenset(anti_pairs)
        # Bit j: whether constraint j's swaps pick up an odd number of signs.
        flip = sum(1 << j for j, mask in enumerate(swaps) if len(mask & anti) & 1)
        n_qubits = len(anti_pairs)
        for q, p in enumerate(anti_pairs):
            k, l = divmod(p, f)
            xs[free[k]] |= 1 << q
            zs[free[l]] |= 1 << q
        # Free strings carry no Y and no phase, so their normal-form phase is 0.
        for v in pivots:
            x, z, phase = _product([free[r] for r in set_bits(supports[v])], xs, zs, phases)
            xs[v], zs[v], phases[v] = x, z, phase - (x & z).bit_count()
    for v, rhs_bit, provenance in zip(pivots, reduced.rhs, reduced.provenance):
        phases[v] += 2 * (rhs_bit ^ ((provenance & flip).bit_count() & 1))

    strings = ([PauliString(n_qubits, xs[v], zs[v], phases[v]) for v in range(n)] if n_qubits
               else [_SCALARS[0, phase % 4] for phase in phases])
    solution = PauliSolution(n_qubits, strings)
    report = verify_pauli_solution(bcs, solution)
    if not report.ok:
        raise InvariantError(f"internal solver error: constructed solution failed {report}")
    return solution


def _product(factors: Sequence[int], xs: Bits, zs: Bits, phases: Bits) -> tuple[int, int, int]:
    """Ordered product of the strings i^phases[f] X^xs[f] Z^zs[f] as
    (x, z, phase) in the same normal form.  Letter form i^k P has normal-form
    phase k + #Y(P); moving Z^z past X^x costs (-1)^popcount(z & x)."""
    x = z = phase = 0
    for f in factors:
        phase += phases[f] + 2 * (z & xs[f]).bit_count()
        x ^= xs[f]
        z ^= zs[f]
    return x, z, phase


def check_pauli_constraint(c: Constraint, xs: Bits, zs: Bits, nf: Bits) -> tuple[bool, bool]:
    """(pairwise, product_ok) for constraint c over the strings
    i^nf[v] X^xs[v] Z^zs[v] (normal form): every pair of its support
    commutes, and its members multiply to its sign times the identity.
    The product is ``_product``'s, inlined; each member is tested against
    the members before it, stopping at the first anticommuting pair."""
    var_indices, rhs, support = c
    x = z = phase = 0
    for v in var_indices:
        xv = xs[v]
        phase += nf[v] + 2 * (z & xv).bit_count()
        x ^= xv
        z ^= zs[v]
    product_ok = not (x | z) and phase % 4 == 1 - rhs
    seen = []
    for a in support:
        xa, za = xs[a], zs[a]
        for xb, zb in seen:
            if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                return False, product_ok
        seen.append((xa, za))
    return True, product_ok


def verify_pauli_solution(bcs: Bcs, solution: PauliSolution) -> PauliVerifyReport:
    """Check Hermiticity (s s = +I, i.e. an even phase), within-constraint
    commutation and signed products.  One pass over the strings reads their
    qubit counts, x and z bits, normal-form phases and the first odd phase;
    ``check_pauli_constraint`` then judges each constraint, but for a
    solution of scalar strings, whose products are their signs alone.  A
    string count other than the variable count, or mixed qubit counts,
    raise ValueError."""
    strings, qubits = solution.strings, solution.qubits
    if len(strings) != bcs.n_vars:
        raise ValueError(f"string count mismatch: {len(strings)} strings for {bcs.n_vars} variables")
    xs, zs, nf = [], [], []
    odd = None
    for v, (n_q, x, z, phase) in enumerate(strings):
        if n_q != qubits:
            raise ValueError("qubit count mismatch")
        if phase & 1 and odd is None:
            odd = v
        xs.append(x)
        zs.append(z)
        nf.append(phase + (x & z).bit_count())
    report = PauliVerifyReport(odd is None, True, True, odd)
    scalar = not any(xs) and not any(zs)
    for j, c in enumerate(bcs.constraints):
        pairwise, product_ok = ((True, sum([nf[v] for v in c.var_indices]) % 4 == 1 - c.rhs) if scalar
                                else check_pauli_constraint(c, xs, zs, nf))
        if not (pairwise and product_ok):
            report.commutation_ok &= pairwise
            report.products_ok &= product_ok
            if report.failing_constraint is None:
                report.failing_constraint = j
    return report


def verify_certificate(bcs: Bcs, cert: Certificate) -> bool:
    """Replay a contradiction certificate against the BCS.

    The derived relation must be the cited constraints' variables in cited
    order, that formal product must cancel every variable, its swap
    bookkeeping must be exactly discharged by the cited commutation facts,
    and the accumulated right-hand side must be -1.  Cited commutation pairs
    must actually co-occur somewhere in the system, which is what makes them
    axioms rather than assumptions.
    """
    m = len(bcs.constraints)
    for j in cert.constraint_rows:
        if not 0 <= j < m:
            raise IndexError(f"certificate cites constraint {j} of {m}")
    for i, j in cert.commutation_rows:
        if not (0 <= i < bcs.n_vars and 0 <= j < bcs.n_vars and i < j):
            raise IndexError(f"certificate cites bad commutation pair {(i, j)}")
    return _replay(bcs, cert, eliminate_free_vars(bcs))


def _replay(bcs: Bcs, cert: Certificate, elim: Elimination) -> bool:
    """``verify_certificate``'s checks, over the free ranks of ``elim``."""
    relation = _certificate(bcs, cert.constraint_rows).derived_relation
    if tuple(cert.derived_relation) != relation:
        return False
    if not all(any({i, j} <= c.support for c in bcs.constraints) for i, j in cert.commutation_rows):
        return False

    # Every variable must cancel in the concatenated product.
    if reduce(xor, (1 << v for v in relation), 0):
        return False

    # The accumulated sign must be the contradiction I = -I.
    if sum(bcs.constraints[j].rhs == -1 for j in cert.constraint_rows) % 2 != 1:
        return False

    # Swap bookkeeping of the whole product, at the free-variable level,
    # must be exactly discharged by the cited commutation facts: one sort of
    # the constraints' blocks, with [d, d] appended for each cited pair.
    supports = elim.supports
    blocks = [supports[v] for v in relation]
    for i, j in cert.commutation_rows:
        blocks += [supports[i] ^ supports[j]] * 2
    return _sort_parity(blocks, len(elim.free)) == (set(), 0)


def serialize_solution(bcs: Bcs, solution: PauliSolution) -> str:
    """One ``name = pauli`` line per variable.

    A zero-qubit (scalar) solution is written as ``I`` or ``-I``, its sign
    on one identity qubit, so the text stays inside the Pauli grammar; an
    odd phase raises ValueError there, as ``pauli.format_pauli`` does.  A
    string count other than the variable count, or a string on other than
    ``solution.qubits`` qubits, raises ValueError, as in
    ``verify_pauli_solution``.
    """
    strings, qubits = solution.strings, solution.qubits
    if len(strings) != bcs.n_vars:
        raise ValueError(f"string count mismatch: {len(strings)} strings for {bcs.n_vars} variables")
    if any(s.n_qubits != qubits for s in strings):
        raise ValueError("qubit count mismatch")
    if qubits:
        texts = map(pauli.format_pauli, strings)
    elif any(s.phase & 1 for s in strings):
        raise ValueError("phase +/- i is not representable in text form")
    else:
        texts = ("-I" if s.phase else "I" for s in strings)
    return "\n".join([f"{name} = {text}" for name, text in zip(bcs.variables, texts)]) + "\n"
