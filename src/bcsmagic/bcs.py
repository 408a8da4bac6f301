"""Binary constraint systems and their solvers.

A BCS is a list of named +/-1 variables and parity constraints: each
constraint requires the product of a subset of variables to equal a fixed
sign.  Two solvers live here.  ``classical_solve`` looks for a scalar
assignment by GF(2) elimination.  ``pauli_solve`` decides whether signed
Pauli strings can satisfy the system when scalars cannot, and returns either
an explicit assignment or a replayable contradiction certificate.

The operator solver works in three steps:

1. eliminate the variables over GF(2) once.  The pivot rows express every
   dependent variable as a sign times an ascending product of free
   variables; the zero rows' provenance spans the left kernel, the sets of
   constraints whose product cancels every variable;
2. substitute those expressions into the constraints and into the
   commutation requirements of co-occurring pairs, bubbling products into
   ascending order while recording, for every swap of distinct free
   variables k < l, the commutator unknown of the pair (k, l); equal
   neighbours cancel because every variable squares to the identity.  A
   product's swap parities are one integer, its pair mask, with bit k*n + l
   for the pair (k, l) of n variables.  A_i A_j A_i A_j sorts as A_i^2 A_j^2
   [A_i, A_j]; it swaps the pairs inside the XOR of the two supports.  The
   constraints of a kernel vector multiply to a product of swaps alone, so
   each kernel vector gives one equation over commutator unknowns: the XOR
   of its constraints' pair masks equals its accumulated rhs bit;
3. solve that GF(2) system, one row per kernel vector and one per
   co-occurring pair, over the commutator unknowns that occur, in pair
   order.  A solution lifts to Pauli strings with one qubit per
   anticommuting pair, and each dependent variable's sign follows by
   back-substitution into its pivot row; an inconsistency cites the
   constraints of the kernel vectors involved, plus the commutation facts,
   whose formal product reduces to -1.

Constraints are canonicalized at parse time: variable lists are sorted
ascending and repeats are cancelled in pairs.  The set of distinct variables
seen before cancellation is kept as the constraint's support, because joint
measurability (hence commutation) is required of everything that appeared
together, including variables that cancelled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import gf2, pauli
from .gf2 import Gf2System, Inconsistency, set_bits
from .pauli import PauliString


class InvariantError(Exception):
    """A self-check of an exact computation failed: a bug, not bad input.

    Not a ``ValueError``, so the command line reports it as an internal
    failure (exit 1) rather than as malformed input (exit 2).
    """


@dataclass(frozen=True)
class Constraint:
    var_indices: tuple[int, ...]
    rhs: int
    support: frozenset[int] = field(default=frozenset())

    def __post_init__(self) -> None:
        if self.rhs not in (1, -1):
            raise ValueError("constraint rhs must be +1 or -1")
        if not self.support:
            object.__setattr__(self, "support", frozenset(self.var_indices))


@dataclass
class Bcs:
    variables: list[str]
    constraints: list[Constraint]

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        return self.variables.index(name)


def make_constraint(var_indices: list[int], rhs: int) -> Constraint:
    """Canonicalize: ascending order, repeats cancelled mod 2."""
    counts: dict[int, int] = {}
    for v in var_indices:
        counts[v] = counts.get(v, 0) + 1
    kept = tuple(sorted(v for v, c in counts.items() if c % 2))
    return Constraint(kept, rhs, frozenset(counts))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_bcs(text: str) -> Bcs:
    """Parse the BCS text format.

    Lines: ``#`` comments, an optional ``vars:`` header naming the variables,
    then one constraint per line, ``name ... name = 1`` or ``= -1``.  Without
    a header, variables are registered in order of first appearance.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    declared = False
    constraints: list[Constraint] = []

    def lookup(tok: str) -> int:
        if tok in index:
            return index[tok]
        if declared:
            raise ValueError(f"unknown variable name {tok!r}")
        index[tok] = len(names)
        names.append(tok)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if declared or constraints:
                raise ValueError(f"line {lineno}: vars: header must come first")
            for tok in line[len("vars:"):].split():
                if tok in index:
                    raise ValueError(f"line {lineno}: duplicate variable {tok!r}")
                index[tok] = len(names)
                names.append(tok)
            declared = True
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: missing '='")
        lhs, _, rhs_text = line.partition("=")
        rhs_text = rhs_text.strip()
        if rhs_text == "1":
            rhs = 1
        elif rhs_text == "-1":
            rhs = -1
        else:
            raise ValueError(f"line {lineno}: malformed rhs {rhs_text!r}")
        toks = lhs.split()
        constraints.append(make_constraint([lookup(t) for t in toks], rhs))

    if not names and not constraints:
        raise ValueError("empty BCS file")
    return Bcs(names, constraints)


def serialize_bcs(bcs: Bcs) -> str:
    lines = ["vars: " + " ".join(bcs.variables)]
    for c in bcs.constraints:
        lhs = " ".join(bcs.variables[v] for v in c.var_indices)
        lines.append(f"{lhs} = {c.rhs}".lstrip())
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

def incidence_system(bcs: Bcs) -> Gf2System:
    rows = [sum(1 << v for v in c.var_indices) for c in bcs.constraints]
    rhs = [0 if c.rhs == 1 else 1 for c in bcs.constraints]
    matrix = gf2.Gf2Matrix(len(rows), bcs.n_vars, rows)
    return Gf2System(matrix, rhs)


def classical_solve(bcs: Bcs) -> list[int] | None:
    """Return a satisfying +/-1 assignment, or None if the GF(2) system is
    inconsistent.  Free variables default to +1."""
    out = gf2.solve(incidence_system(bcs))
    if isinstance(out, Inconsistency):
        return None
    return [1 - 2 * b for b in out.assignment]


def check_classical_assignment(bcs: Bcs, signs: list[int]) -> bool:
    for c in bcs.constraints:
        prod = 1
        for v in c.var_indices:
            prod *= signs[v]
        if prod != c.rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Free-variable elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeVarExpression:
    var: int
    sign_unknown: int | None
    free_support: tuple[int, ...]


@dataclass
class Elimination:
    free: list[int]
    dependent: list[int]
    expressions: list[FreeVarExpression]
    reduced: gf2.ReducedSystem


def eliminate_free_vars(bcs: Bcs) -> Elimination:
    """Express each variable over a free set by GF(2) elimination.

    Pivot columns are those of the unique RREF, so the free set is the
    lexicographically latest choice.  A dependent variable's expression is
    the ascending list of free variables in its reduced row; each gets a sign
    unknown.  Free variables stand for themselves.  The reduction is kept:
    pivot row i belongs to ``dependent[i]``, and the zero rows after them
    carry a (not canonical) basis of the left kernel in their provenance.
    """
    reduced = gf2.row_reduce(incidence_system(bcs))
    pivot_cols = reduced.pivot_cols
    pivot_set = set(pivot_cols)
    free = [v for v in range(bcs.n_vars) if v not in pivot_set]
    expressions: list[FreeVarExpression] = [
        FreeVarExpression(v, None, (v,)) for v in range(bcs.n_vars)
    ]
    for row_i, col in enumerate(pivot_cols):
        row = reduced.system.matrix.bits[row_i]
        support = tuple(v for v in free if (row >> v) & 1)
        expressions[col] = FreeVarExpression(col, col, support)
    return Elimination(free, sorted(pivot_cols), expressions, reduced)


# ---------------------------------------------------------------------------
# Swap bookkeeping
# ---------------------------------------------------------------------------

def _inversion_parity(blocks: list[tuple[int, ...]], n_vars: int) -> int:
    """Swap parity of sorting the concatenation of ascending blocks.

    Returns a pair mask: bit ``k * n_vars + l`` is set for each pair k < l
    swapped an odd number of times.  Pairs of equal variables never swap.
    """
    out = prefix = 0
    for block in blocks:
        mask = 0
        for b in block:
            out ^= (prefix >> (b + 1)) << (b * n_vars + b + 1)
            mask |= 1 << b
        prefix ^= mask
    return out


def co_occurrence_pairs(bcs: Bcs) -> list[tuple[int, int]]:
    """Distinct unordered pairs appearing together in some constraint."""
    return sorted({p for c in bcs.constraints for p in combinations(sorted(c.support), 2)})


def _constraint_parity(bcs: Bcs, elim: Elimination, j: int) -> int:
    """Pair mask of constraint j with every variable substituted."""
    blocks = [elim.expressions[v].free_support for v in bcs.constraints[j].var_indices]
    cancel = 0
    for block in blocks:
        for b in block:
            cancel ^= 1 << b
    if cancel:
        raise InvariantError(f"free supports failed to cancel in constraint {j}")
    return _inversion_parity(blocks, bcs.n_vars)


def _commutation_row(d: int, n_vars: int) -> int:
    """Pair mask of the formal expansion A_i A_j A_i A_j = I, where d is
    the XOR of the free-support masks of A_i and A_j.

    The expansion sorts as A_i^2 A_j^2 [A_i, A_j]: each square swaps the
    pairs inside its support, the commutator the pairs across the two.  So
    a < b swaps (#supports holding a) * (#supports holding b) times, and
    the row is every pair inside d.
    """
    out = 0
    for a in set_bits(d):
        out ^= (d >> (a + 1)) << (a * n_vars + a + 1)
    return out


# ---------------------------------------------------------------------------
# Pauli solving
# ---------------------------------------------------------------------------

@dataclass
class PauliSolution:
    qubits: int
    strings: list[PauliString]

    def assignment(self, bcs: Bcs) -> dict[str, PauliString]:
        return dict(zip(bcs.variables, self.strings))


@dataclass
class Certificate:
    constraint_rows: tuple[int, ...]
    commutation_rows: tuple[tuple[int, int], ...]
    derived_relation: tuple[int, ...]


@dataclass
class PauliVerifyReport:
    hermitian_ok: bool
    commutation_ok: bool
    products_ok: bool
    failing_variable: int | None = None
    failing_constraint: int | None = None

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.commutation_ok and self.products_ok


def pauli_solve(bcs: Bcs) -> PauliSolution | Certificate:
    """Decide Pauli-string solvability; total on every well-formed BCS.

    On success, anticommuting free pairs each get a qubit (sigma_x on the
    smaller variable, sigma_z on the larger), remaining free variables are
    identities, and dependent variables are signed ordered products.
    Unconstrained commutators default to "commute", which keeps the qubit
    count minimal.  On failure, the cited kernel vectors' constraints and
    the cited commutation pairs form the certificate.
    """
    elim = eliminate_free_vars(bcs)
    reduced = elim.reduced.system
    n = bcs.n_vars
    rank = len(elim.dependent)
    kernel = range(rank, reduced.matrix.rows)
    swaps = [_constraint_parity(bcs, elim, j) for j in range(len(bcs.constraints))]
    swapping = sum(1 << j for j, mask in enumerate(swaps) if mask)

    # One row per kernel vector, then one per co-occurring pair, over the
    # commutator unknowns that occur in some row.  Pair bit k*n + l maps to
    # its rank among those bits, so columns keep the order of the pairs.
    rows: list[int] = []
    for i in kernel:
        acc = 0
        for j in set_bits(reduced.provenance[i] & swapping):
            acc ^= swaps[j]
        rows.append(acc)
    pair_list = co_occurrence_pairs(bcs)
    masks = [sum(1 << f for f in e.free_support) for e in elim.expressions]
    rows.extend(_commutation_row(masks[i] ^ masks[j], n) for i, j in pair_list)
    used = 0
    for row in rows:
        used |= row
    comm = set_bits(used)
    col = {p: c for c, p in enumerate(comm)}
    bits = [sum(1 << col[p] for p in set_bits(row)) if row else 0 for row in rows]
    rhs = [reduced.rhs[i] for i in kernel] + [0] * len(pair_list)
    out = gf2.solve(Gf2System(gf2.Gf2Matrix(len(bits), len(comm), bits), rhs))

    if isinstance(out, Inconsistency):
        cited = 0
        commutation_rows: list[tuple[int, int]] = []
        for row in sorted(out.rows):
            if row < len(kernel):
                cited ^= reduced.provenance[kernel[row]]
            else:
                commutation_rows.append(pair_list[row - len(kernel)])
        constraint_rows = tuple(set_bits(cited))
        relation = tuple(v for j in constraint_rows for v in bcs.constraints[j].var_indices)
        return Certificate(constraint_rows, tuple(commutation_rows), relation)

    anti = sum(1 << p for p, value in zip(comm, out.assignment) if value)
    # Bit j: whether constraint j's swaps pick up an odd number of signs.
    flip = sum(1 << j for j, mask in enumerate(swaps) if (mask & anti).bit_count() & 1)
    n_qubits = anti.bit_count()
    xs, zs, phases = [0] * n, [0] * n, [0] * n
    for q, p in enumerate(set_bits(anti)):
        k, l = divmod(p, n)
        xs[k] |= 1 << q
        zs[l] |= 1 << q
    # Free strings carry no Y and no phase, so their normal-form phase is 0.
    for i, v in enumerate(elim.dependent):
        x, z, phase = _product(elim.expressions[v].free_support, xs, zs, phases)
        sign = reduced.rhs[i] ^ ((reduced.provenance[i] & flip).bit_count() & 1)
        xs[v], zs[v], phases[v] = x, z, phase - (x & z).bit_count() + 2 * sign

    strings = [PauliString(n_qubits, xs[v], zs[v], phases[v]) for v in range(n)]
    solution = PauliSolution(n_qubits, strings)
    report = verify_pauli_solution(bcs, solution)
    if not report.ok:
        raise InvariantError(f"internal solver error: constructed solution failed {report}")
    return solution


def _product(factors: tuple[int, ...], xs: list[int], zs: list[int],
             phases: list[int]) -> tuple[int, int, int]:
    """Ordered product of the strings i^phases[f] X^xs[f] Z^zs[f] as
    (x, z, phase) in the same normal form.  Letter form i^k P has normal-form
    phase k + #Y(P); moving Z^z past X^x costs (-1)^popcount(z & x)."""
    x = z = phase = 0
    for f in factors:
        phase += phases[f] + 2 * (z & xs[f]).bit_count()
        x ^= xs[f]
        z ^= zs[f]
    return x, z, phase


def verify_pauli_solution(bcs: Bcs, solution: PauliSolution) -> PauliVerifyReport:
    """Check Hermiticity (s s = +I, i.e. an even phase), within-constraint
    commutation and signed products.  Mixed qubit counts raise ValueError."""
    strings = solution.strings
    if any(s.n_qubits != solution.qubits for s in strings):
        raise ValueError("qubit count mismatch")
    xs = [s.x_bits for s in strings]
    zs = [s.z_bits for s in strings]
    nf = [s.phase + (s.x_bits & s.z_bits).bit_count() for s in strings]
    odd = [v for v, s in enumerate(strings) if s.phase & 1]
    report = PauliVerifyReport(not odd, True, True, odd[0] if odd else None)
    for j, c in enumerate(bcs.constraints):
        pairwise = not any(((xs[a] & zs[b]) ^ (zs[a] & xs[b])).bit_count() & 1
                           for a, b in combinations(sorted(c.support), 2))
        x, z, phase = _product(c.var_indices, xs, zs, nf)
        product_ok = not (x | z) and phase % 4 == (0 if c.rhs == 1 else 2)
        report.commutation_ok &= pairwise
        report.products_ok &= product_ok
        if not (pairwise and product_ok) and report.failing_constraint is None:
            report.failing_constraint = j
    return report


def verify_certificate(bcs: Bcs, cert: Certificate) -> bool:
    """Replay a contradiction certificate against the BCS.

    The formal product of the cited constraints must cancel every variable,
    its swap bookkeeping must be exactly discharged by the cited commutation
    facts, and the accumulated right-hand side must be -1.  Cited commutation
    pairs must actually co-occur somewhere in the system, which is what makes
    them axioms rather than assumptions.
    """
    m = len(bcs.constraints)
    for j in cert.constraint_rows:
        if not 0 <= j < m:
            raise IndexError(f"certificate cites constraint {j} of {m}")
    for i, j in cert.commutation_rows:
        if not (0 <= i < bcs.n_vars and 0 <= j < bcs.n_vars and i < j):
            raise IndexError(f"certificate cites bad commutation pair {(i, j)}")

    legal_pairs = set(co_occurrence_pairs(bcs))
    if any(p not in legal_pairs for p in cert.commutation_rows):
        return False

    # Every variable must cancel in the concatenated product.
    var_parity = 0
    for j in cert.constraint_rows:
        for v in bcs.constraints[j].var_indices:
            var_parity ^= 1 << v
    if var_parity:
        return False

    # The accumulated sign must be the contradiction I = -I.
    if sum(bcs.constraints[j].rhs == -1 for j in cert.constraint_rows) % 2 != 1:
        return False

    # Swap bookkeeping of the whole product, at the free-variable level,
    # must match the XOR of the cited commutation facts.
    elim = eliminate_free_vars(bcs)
    blocks: list[tuple[int, ...]] = []
    for j in cert.constraint_rows:
        blocks.extend(elim.expressions[v].free_support for v in bcs.constraints[j].var_indices)
    accumulated = _inversion_parity(blocks, bcs.n_vars)
    masks = [sum(1 << f for f in e.free_support) for e in elim.expressions]
    for i, j in cert.commutation_rows:
        accumulated ^= _commutation_row(masks[i] ^ masks[j], bcs.n_vars)
    return accumulated == 0


def serialize_solution(bcs: Bcs, solution: PauliSolution) -> str:
    """One ``name = pauli`` line per variable.

    Zero-qubit (scalar) solutions are padded with an identity qubit so the
    text stays inside the Pauli grammar.
    """
    strings = solution.strings
    if solution.qubits == 0:
        strings = [PauliString(1, 0, 0, s.phase) for s in strings]
    lines = [
        f"{name} = {pauli.format_pauli(s)}" for name, s in zip(bcs.variables, strings)
    ]
    return "\n".join(lines) + "\n"
