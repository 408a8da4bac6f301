import hashlib
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations
from operator import xor

import gf2_oracle
import pauli_report_oracle
import pytest
import sign_system_oracle
from helpers import assert_record_contract, check_classical_assignment
from hypothesis import given, settings
from hypothesis import strategies as st
from pauli_report_oracle import commutes
from sign_system_oracle import build_sign_system, satisfiable_brute

from bcsmagic import bcs, gf2, pauli
from bcsmagic.bcs import (
    Bcs,
    Certificate,
    Constraint,
    Elimination,
    InvariantError,
    PauliSolution,
    PauliVerifyReport,
    chsh,
    classical_solve,
    eliminate_free_vars,
    make_constraint,
    mermin_peres,
    parse_bcs,
    pauli_solve,
    serialize_bcs,
    serialize_solution,
    verify_certificate,
    verify_pauli_solution,
)
from bcsmagic.game import GameBcs, QuestionCounts, build_game_bcs
from bcsmagic.gf2 import set_bits
from bcsmagic.pauli import PauliString, parse_pauli


def solution_from_text(system, table):
    return PauliSolution(
        qubits=parse_pauli(next(iter(table.values()))).n_qubits,
        strings=[parse_pauli(table[name]) for name in system.variables],
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_simple_line():
    b = parse_bcs("v1 v2 v3 = 1\n")
    assert b.variables == ["v1", "v2", "v3"]
    assert b.constraints[0].var_indices == (0, 1, 2)
    assert b.constraints[0].rhs == 1


def test_parse_mermin_peres_shape():
    mp = mermin_peres()
    assert mp.n_vars == 9
    assert len(mp.constraints) == 6
    assert mp.constraints[-1].rhs == -1


def test_parse_chsh_shape():
    b = chsh()
    assert b.n_vars == 2
    assert [c.rhs for c in b.constraints] == [1, -1]


def test_parse_round_trip_on_canonical_form():
    """A serialized system parses back to the same constraints, supports
    included.  ``v5 v9 v5 v9 = 1`` keeps no variable but still makes v5 and
    v9 commute, which leaves the magic square no Pauli solution."""
    extended = parse_bcs(
        serialize_bcs(mermin_peres()) + "v5 v9 v5 v9 = 1\nv1 v6 v1 = 1\nv2 v7 v4 v7 = -1\n"
    )
    for original in (Bcs([], []), mermin_peres(), extended):
        text = serialize_bcs(original)
        again = parse_bcs(text)
        assert serialize_bcs(again) == text
        assert [(c.var_indices, c.rhs, c.support) for c in again.constraints] == [
            (c.var_indices, c.rhs, c.support) for c in original.constraints
        ]
        assert type(pauli_solve(again)) is type(pauli_solve(original))
    assert isinstance(pauli_solve(again), Certificate)


@settings(max_examples=200)
@given(st.data())
def test_serialize_parse_round_trip_property(data):
    """Systems of up to six variables and six constraints, the empty system
    and repeated (cancelled) support variables included, read back alike."""
    n = data.draw(st.integers(0, 6))
    members = st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])
    cons = [make_constraint(m, data.draw(st.sampled_from([1, -1])))
            for m in data.draw(st.lists(members, max_size=6))]
    original = Bcs([f"v{i}" for i in range(n)], cons)
    again = parse_bcs(serialize_bcs(original))
    assert again.variables == original.variables
    assert [(c.var_indices, c.rhs, c.support) for c in again.constraints] == [
        (c.var_indices, c.rhs, c.support) for c in original.constraints
    ]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bcs("")
    with pytest.raises(ValueError):
        parse_bcs("vars: a b\na c = 1\n")
    with pytest.raises(ValueError):
        parse_bcs("a b = 2\n")
    with pytest.raises(ValueError):
        parse_bcs("a b\n")
    # A constraint typed on the header line is not four variable names.
    with pytest.raises(ValueError, match="line 2: variable name '='"):
        parse_bcs("# header\nvars: a b = 1\n")


def test_parse_rejects_a_duplicate_header_name():
    # Without the check, the second "a" would get index 1 past the one name.
    with pytest.raises(ValueError, match="line 1: duplicate variable 'a'"):
        parse_bcs("vars: a a\na = 1\n")


def test_parse_comments_and_repeats():
    b = parse_bcs("# header\nvars: a b\na a b = 1  # repeat cancels\n")
    assert b.constraints[0].var_indices == (1,)
    assert b.constraints[0].support == {0, 1}


def test_empty_constraint_canonicalization():
    c = make_constraint([3, 3], -1)
    assert c.var_indices == ()
    assert c.support == {3}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_solver_records():
    x = parse_pauli("X")
    system = parse_bcs("vars: a b\na b = -1\n")
    reduced = eliminate_free_vars(system).reduced
    records = [
        (Constraint, ((0, 2), -1, frozenset({0, 1, 2})), ("var_indices", "rhs", "support")),
        (Bcs, (["a", "b"], system.constraints), ("variables", "constraints")),
        (Certificate, ((0, 1), ((0, 1),), (0, 1, 0, 1)), ("constraint_rows", "commutation_rows", "derived_relation")),
        (Elimination, ([1], [1, 1], reduced), ("free", "supports", "reduced")),
        (PauliSolution, (1, [x, x]), ("qubits", "strings")),
        (GameBcs, (4, False, system, {"a": 0, "b": 1}), ("n", "modified", "bcs", "var_index")),
        (QuestionCounts, (37, 30, 38), ("alice", "bob", "modified_alice")),
    ]
    for cls, values, fields in records:
        assert_record_contract(cls, values, fields)
    assert system.n_vars == 2 and system.constraints == [Constraint((0, 1), -1)]


def test_constraints_are_set_members_and_dict_keys():
    c = make_constraint([2, 0, 2, 1], -1)
    assert c == Constraint((0, 1), -1, frozenset({0, 1, 2})) != Constraint((0, 1), 1, frozenset({0, 1, 2}))
    assert c != Constraint((0, 1), -1)
    assert {c, make_constraint([0, 1, 2, 2], -1), Constraint((0, 1), -1)} == {c, Constraint((0, 1), -1)}
    assert {c: "cited"}[Constraint((0, 1), -1, frozenset({2, 1, 0}))] == "cited"


def test_constraint_checks_on_every_construction():
    """Direct construction, ``_make`` and ``_replace`` all reject an rhs
    other than +/-1 and default an empty support to the variables kept."""
    assert Constraint((0, 3), 1).support == {0, 3}
    assert Constraint((0, 3), 1, frozenset())._replace(rhs=-1) == Constraint((0, 3), -1, frozenset({0, 3}))
    assert Constraint._make(((), -1, frozenset())).support == frozenset()
    c = Constraint((0,), 1)
    for build in (lambda: Constraint((0,), 0), lambda: Constraint((0,), 2, frozenset({0})),
                  lambda: c._replace(rhs=0), lambda: Constraint._make(((0,), -2, frozenset()))):
        with pytest.raises(ValueError, match="rhs must be"):
            build()


def test_pauli_verify_report_is_mutable_and_compares_by_fields():
    report = PauliVerifyReport(True, True, True)
    assert report == PauliVerifyReport(True, True, True, None, None) and report.ok
    assert repr(report) == ("PauliVerifyReport(hermitian_ok=True, commutation_ok=True, products_ok=True, "
                            "failing_variable=None, failing_constraint=None)")
    report.products_ok, report.failing_constraint = False, 4
    assert not report.ok
    assert report == PauliVerifyReport(True, True, False, failing_constraint=4)
    assert report != PauliVerifyReport(True, True, False, failing_constraint=5)


# ---------------------------------------------------------------------------
# classical solving
# ---------------------------------------------------------------------------

def test_classical_mermin_peres_certificate():
    rows_then_columns = (0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 6, 1, 4, 7, 2, 5, 8)
    assert classical_solve(mermin_peres()) == Certificate((0, 1, 2, 3, 4, 5), (), rows_then_columns)


def test_classical_all_plus_rhs():
    b = parse_bcs("a b = 1\nb c = 1\na c = 1\n")
    signs = classical_solve(b)
    assert signs == [1, 1, 1]


def test_classical_solution_satisfies():
    b = parse_bcs("a b = -1\nb c = 1\n")
    signs = classical_solve(b)
    assert isinstance(signs, list)
    assert check_classical_assignment(b, signs)


def classical_corpus():
    """Random systems, the game family n = 4..8 (plain and modified), CHSH
    and the magic square."""
    rng = random.Random(20261018)
    yield from (random_bcs(rng) for _ in range(500))
    yield from (build_game_bcs(n, modified=m).bcs for n in range(4, 9) for m in (False, True))
    yield from (chsh(), mermin_peres())


def test_classical_results_are_judged():
    """Signs satisfy every constraint.  A certificate cites strictly
    ascending rows whose variables cancel and whose signs hold an odd number
    of -1, cites no commutation fact, and derives the cited rows' variables
    concatenated in cited order."""
    kinds = set()
    for b in classical_corpus():
        out = classical_solve(b)
        kinds.add(type(out))
        if not isinstance(out, Certificate):
            assert len(out) == b.n_vars and set(out) <= {1, -1}
            assert check_classical_assignment(b, out)
            continue
        rows = out.constraint_rows
        assert all(i < j for i, j in zip(rows, rows[1:]))
        cited = [b.constraints[j] for j in rows]
        assert reduce(xor, (1 << v for c in cited for v in c.var_indices), 0) == 0
        assert sum(c.rhs == -1 for c in cited) % 2 == 1
        assert out.commutation_rows == ()
        assert out.derived_relation == tuple(v for c in cited for v in c.var_indices)
    assert kinds == {list, Certificate}


# ---------------------------------------------------------------------------
# elimination and the sign system (magic-square worked example)
# ---------------------------------------------------------------------------

def free_support(elim, v: int) -> list[int]:
    """The free variables of v's support, read through the ranks."""
    return [elim.free[r] for r in gf2.set_bits(elim.supports[v])]


def test_mermin_peres_free_set_and_expressions():
    elim = eliminate_free_vars(mermin_peres())
    assert elim.free == [4, 5, 7, 8]
    assert elim.reduced.pivot_cols == [0, 1, 2, 3, 6]
    assert free_support(elim, 1) == [4, 7]
    assert free_support(elim, 0) == [4, 5, 7, 8]
    for r, v in enumerate(elim.free):
        assert elim.supports[v] == 1 << r


def test_single_constraint_elimination():
    b = parse_bcs("a1 a2 = -1\n")
    elim = eliminate_free_vars(b)
    assert elim.free == [1]
    assert elim.reduced.pivot_cols == [0]
    assert free_support(elim, 0) == [1]
    assert elim.supports == [1 << 0, 1 << 0]


def test_disjoint_blocks_do_not_mix():
    b = parse_bcs("a b = 1\nc d = -1\n")
    elim = eliminate_free_vars(b)
    red = gf2.row_reduce(bcs.incidence_system(b))
    assert red.pivot_cols == [0, 2]
    assert elim.free == [1, 3]
    assert free_support(elim, 0) == [1]
    assert free_support(elim, 2) == [3]
    assert elim.supports == [1 << 0, 1 << 0, 1 << 1, 1 << 1]


def test_mermin_peres_substitution_row():
    mp = mermin_peres()
    elim = eliminate_free_vars(mp)
    system = build_sign_system(mp, elim)
    row, rhs = system.equations.matrix.bits[0], system.equations.rhs[0]
    names = {system.unknowns[j] for j in range(len(system.unknowns)) if (row >> j) & 1}
    assert names == {
        ("sign", 0), ("sign", 1), ("sign", 2),
        ("comm", 4, 8), ("comm", 4, 5), ("comm", 4, 7),
        ("comm", 5, 8), ("comm", 7, 8),
    }
    assert rhs == 0


def test_mermin_peres_commutation_row():
    mp = mermin_peres()
    system = build_sign_system(mp, eliminate_free_vars(mp))
    i = system.tags.index(("commutation", 0, 1))
    row = system.equations.matrix.bits[i]
    names = {system.unknowns[j] for j in range(len(system.unknowns)) if (row >> j) & 1}
    assert names == {("comm", 5, 8)}
    assert system.equations.rhs[i] == 0


def test_sorted_constraint_has_no_swap_terms():
    # Substituted blocks already ascending and disjoint: no commutator terms.
    b = parse_bcs("a b = 1\nc d = -1\n")
    system = build_sign_system(b, eliminate_free_vars(b))
    for row in system.equations.matrix.bits[:2]:
        names = {system.unknowns[j] for j in range(len(system.unknowns)) if (row >> j) & 1}
        assert all(u[0] == "sign" for u in names)


# ---------------------------------------------------------------------------
# pauli_solve
# ---------------------------------------------------------------------------

def test_mermin_peres_pauli_solution():
    mp = mermin_peres()
    out = pauli_solve(mp)
    assert isinstance(out, PauliSolution)
    assert out.qubits == 2
    got = {name: pauli.format_pauli(s) for name, s in out.assignment(mp).items()}
    assert got == {
        "v1": "-YY", "v2": "XZ", "v3": "-ZX", "v4": "XX", "v5": "XI",
        "v6": "IX", "v7": "ZZ", "v8": "IZ", "v9": "ZI",
    }
    # Anticommuting free pairs, 1-indexed: (5,9) and (6,8).
    assert not commutes(out.strings[4], out.strings[8])
    assert not commutes(out.strings[5], out.strings[7])
    assert commutes(out.strings[4], out.strings[7])


def test_mermin_peres_textbook_solution_verifies():
    mp = mermin_peres()
    table = {
        "v1": "ZI", "v2": "IZ", "v3": "ZZ",
        "v4": "IX", "v5": "XI", "v6": "XX",
        "v7": "ZX", "v8": "XZ", "v9": "YY",
    }
    report = verify_pauli_solution(mp, solution_from_text(mp, table))
    assert report.ok


def test_perturbed_solution_fails_at_named_constraint():
    mp = mermin_peres()
    out = pauli_solve(mp)
    flipped = list(out.strings)
    s = flipped[8]
    flipped[8] = pauli.PauliString(s.n_qubits, s.x_bits, s.z_bits, s.phase + 2)
    report = verify_pauli_solution(mp, PauliSolution(out.qubits, flipped))
    assert not report.products_ok
    assert report.failing_constraint == 2  # v7 v8 v9 = 1 breaks first


def test_chsh_certificate():
    b = chsh()
    out = pauli_solve(b)
    assert isinstance(out, Certificate)
    assert out.constraint_rows == (0, 1)
    assert verify_certificate(b, out)


def test_certificate_with_dropped_row_fails():
    b = chsh()
    out = pauli_solve(b)
    broken = Certificate(out.constraint_rows[:1], out.commutation_rows, out.derived_relation)
    assert not verify_certificate(b, broken)


def test_certificate_citing_commutation_rows():
    # Magic square plus a constraint making the anticommuting free pair
    # co-occur: the contradiction must lean on a commutation fact.
    mp = mermin_peres()
    b = Bcs(mp.variables + ["w"], mp.constraints + [make_constraint([4, 8, 9], 1)])
    out = pauli_solve(b)
    assert isinstance(out, Certificate)
    assert out.commutation_rows
    assert verify_certificate(b, out)
    dropped = Certificate(out.constraint_rows, out.commutation_rows[:-1], out.derived_relation)
    assert not verify_certificate(b, dropped)
    padded = Certificate(out.constraint_rows, out.commutation_rows + ((0, 3),), out.derived_relation)
    assert not verify_certificate(b, padded)
    # v1 and v5 share no constraint: citing them twice cancels in the swap
    # bookkeeping, but the pair is no axiom.
    twice = Certificate(out.constraint_rows, out.commutation_rows + ((0, 4), (0, 4)), out.derived_relation)
    for verify in (verify_certificate, sign_system_oracle.verify_certificate):
        assert not verify(b, twice)
        assert verify(b, out)


def test_certificate_with_wrong_relation_fails():
    b = chsh()
    assert verify_certificate(b, Certificate((0, 1), (), (0, 1, 0, 1)))
    for relation in ((7, 7, 7), (), (0, 0, 1, 1), (0, 1, 0, 1, 0, 1)):
        assert not verify_certificate(b, Certificate((0, 1), (), relation))


def test_certificate_with_even_sign_fails():
    # The rows cancel every variable and need no commutation fact, but their
    # signs multiply to +1: I = I is no contradiction.
    b = parse_bcs("vars: v1 v2\nv1 v2 = 1\nv1 v2 = 1\n")
    assert not verify_certificate(b, Certificate((0, 1), (), (0, 1, 0, 1)))


def test_certificate_that_leaves_a_variable_fails():
    # The sign is -1 and there is no swap to discharge, but v1 does not
    # cancel: the satisfiable v1 = -1 holds no contradiction.
    b = parse_bcs("vars: v1\nv1 = -1\n")
    assert not verify_certificate(b, Certificate((0,), (), (0,)))


def test_certificate_dangling_index_raises():
    b = chsh()
    with pytest.raises(IndexError):
        verify_certificate(b, Certificate((0, 7), (), ()))
    with pytest.raises(IndexError):
        verify_certificate(b, Certificate((0, 1), ((0, 9),), ()))


def test_certificate_citing_a_variable_with_itself_raises():
    # A pair (i, i) appends [0, 0] to the replay's sort and changes nothing,
    # so only the pair bound stops a valid certificate from citing one.
    b = chsh()
    cert = pauli_solve(b)
    assert verify_certificate(b, cert)
    with pytest.raises(IndexError, match="bad commutation pair"):
        verify_certificate(b, Certificate(cert.constraint_rows, ((0, 0),), cert.derived_relation))


def test_empty_minus_constraint_certificate():
    b = Bcs(["a"], [make_constraint([0, 0], -1)])
    out = pauli_solve(b)
    assert isinstance(out, Certificate)
    assert out.constraint_rows == (0,)
    assert verify_certificate(b, out)


def test_scalar_solution_zero_qubits():
    b = parse_bcs("a b = -1\nb c = 1\n")
    out = pauli_solve(b)
    assert isinstance(out, PauliSolution)
    assert out.qubits == 0
    text = serialize_solution(b, out)
    assert "a = -I" in text or "a = I" in text


def test_serialize_zero_qubit_matches_padded_path():
    """A scalar solution's lines are its signs formatted on one identity
    qubit, as they were before the direct ``I``/``-I`` lines; an odd phase
    is refused there too."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        system = parse_bcs("vars: " + " ".join(f"v{i}" for i in range(n)) + "\n")
        strings = [bcs._SCALARS[0, rng.choice((0, 2))] for _ in range(n)]
        padded = [f"{name} = {pauli.format_pauli(PauliString(1, 0, 0, s.phase))}"
                  for name, s in zip(system.variables, strings)]
        assert serialize_solution(system, PauliSolution(0, strings)) == "\n".join(padded) + "\n"
        for odd in (1, 3):
            strings[rng.randrange(n)] = bcs._SCALARS[0, odd]
            with pytest.raises(ValueError, match="not representable"):
                serialize_solution(system, PauliSolution(0, strings))
    b = parse_bcs("a b = -1\nb c = 1\n")
    assert serialize_solution(b, pauli_solve(b)) == "a = -I\nb = I\nc = I\n"


@pytest.mark.parametrize("count", [5, 11])
def test_string_count_other_than_variable_count_raises(count):
    """The magic square's nine variables with 5 or 11 strings: both the
    check and the text writer name both counts, where they used to raise a
    bare IndexError or report ok, and write 5 lines."""
    mp = mermin_peres()
    out = pauli_solve(mp)
    strings = (out.strings * 2)[:count]
    for call in (verify_pauli_solution, serialize_solution):
        with pytest.raises(ValueError, match=f"{count} strings for 9 variables"):
            call(mp, PauliSolution(out.qubits, strings))


@pytest.mark.parametrize("qubits, texts", [(0, ["X", "X"]), (1, ["XX", "X"])], ids=["scalar", "mixed"])
def test_strings_on_other_qubit_counts_raise(qubits, texts):
    """On ``vars: a b``, X X claimed as a zero-qubit solution used to be
    written as I and I, and XX X claimed on one qubit as XX and X; both the
    check and the text writer refuse them."""
    system = parse_bcs("vars: a b\n")
    solution = PauliSolution(qubits, [parse_pauli(t) for t in texts])
    for call in (verify_pauli_solution, serialize_solution):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            call(system, solution)


def test_solution_text_round_trip_mermin():
    mp = mermin_peres()
    out = pauli_solve(mp)
    text = serialize_solution(mp, out)
    lines = dict(line.split(" = ") for line in text.strip().splitlines())
    rebuilt = solution_from_text(mp, lines)
    assert verify_pauli_solution(mp, rebuilt).ok


def test_determinism_byte_identical():
    text = serialize_bcs(mermin_peres())
    a = serialize_solution(parse_bcs(text), pauli_solve(parse_bcs(text)))
    b = serialize_solution(parse_bcs(text), pauli_solve(parse_bcs(text)))
    assert a == b
    c1 = pauli_solve(chsh())
    c2 = pauli_solve(chsh())
    assert c1 == c2


def test_pauli_solve_reduces_the_incidence_system_once(monkeypatch):
    # The n = 10 game has no commutator unknown, so the second reduction,
    # of the commutator system, has no column.  The n = 9 game's kernel
    # signs are all +1, so it builds no commutator system at all.
    widths = []
    row_reduce = gf2.row_reduce

    def recording(reduced):
        widths.append(reduced.matrix.cols)
        return row_reduce(reduced)

    monkeypatch.setattr(gf2, "row_reduce", recording)
    system = build_game_bcs(10).bcs
    assert isinstance(pauli_solve(system), Certificate)
    assert sorted(widths) == [0, system.n_vars]
    widths.clear()
    system = build_game_bcs(9).bcs
    assert pauli_solve(system).qubits == 0
    assert widths == [system.n_vars]


# ---------------------------------------------------------------------------
# randomized soundness and oracle agreement
# ---------------------------------------------------------------------------

def random_bcs(rng: random.Random) -> Bcs:
    n_vars = rng.randint(1, 8)
    n_cons = rng.randint(1, 8)
    names = [f"w{i}" for i in range(n_vars)]
    cons = []
    for _ in range(n_cons):
        size = rng.randint(1, min(4, n_vars))
        members = [rng.randrange(n_vars) for _ in range(size)]
        cons.append(make_constraint(members, rng.choice([1, -1])))
    return Bcs(names, cons)


def anticommuting_free_pairs(solution, free):
    return [(k, l) for i, k in enumerate(free) for l in free[i + 1:]
            if not commutes(solution.strings[k], solution.strings[l])]


def test_random_instances_sound_and_oracle_agree():
    rng = random.Random(20240917)
    checked = 0
    solved = 0
    while checked < 500:
        b = random_bcs(rng)
        system = build_sign_system(b, eliminate_free_vars(b))
        if system.equations.matrix.cols > 20:
            continue
        checked += 1
        out = pauli_solve(b)
        expect = satisfiable_brute(system)
        if isinstance(out, PauliSolution):
            solved += 1
            assert expect
            assert verify_pauli_solution(b, out).ok
            # The oracle's least solution anticommutes exactly the pairs
            # that got a qubit.
            oracle = gf2.solve(system.equations)
            anti = [u[1:] for u, bit in zip(system.unknowns, oracle)
                    if u[0] == "comm" and bit]
            assert out.qubits == len(anti)
            assert anticommuting_free_pairs(out, eliminate_free_vars(b).free) == anti
            cls = classical_solve(b)
            if not isinstance(cls, Certificate):
                assert check_classical_assignment(b, cls)
        else:
            assert not expect
            assert verify_certificate(b, out)
            assert isinstance(classical_solve(b), Certificate)  # monotonicity, contrapositive
    assert solved > 0 and solved < checked


def planted_bcs(rng: random.Random) -> Bcs:
    """One or two relabelled magic squares plus up to three random parity
    constraints, constraints shuffled: Pauli solutions on 2-4 qubits, or
    certificates when the extra constraints clash with the squares."""
    squares = rng.randint(1, 2)
    n_vars = 9 * squares + rng.randint(0, 4)
    label = rng.sample(range(n_vars), n_vars)
    cons = [make_constraint([label[9 * k + v] for v in c.var_indices], c.rhs)
            for k in range(squares) for c in mermin_peres().constraints]
    for _ in range(rng.randint(0, 3)):
        cons.append(make_constraint(rng.sample(range(n_vars), 3), rng.choice([1, -1])))
    rng.shuffle(cons)
    return Bcs([f"w{i}" for i in range(n_vars)], cons)


def shuffled_squares(rng: random.Random, count: int) -> Bcs:
    """``count`` relabelled magic squares and nothing else, constraints
    shuffled: a Pauli solution with many anticommuting free pairs."""
    n_vars = 9 * count
    label = rng.sample(range(n_vars), n_vars)
    cons = [make_constraint([label[9 * k + v] for v in c.var_indices], c.rhs)
            for k in range(count) for c in mermin_peres().constraints]
    rng.shuffle(cons)
    return Bcs([f"w{i}" for i in range(n_vars)], cons)


def test_many_squares_solve_in_rank_pair_masks():
    # Pair masks are indexed over free-variable ranks: 200 squares have
    # 1,800 variables but 800 free ones, so a mask is 640,000 bits wide
    # rather than 3.24 million.  Indexed by variable, 100 squares peaked
    # at 125 MB traced and 200 squares took 3.4 s or more.
    rng = random.Random(19)
    hundred = shuffled_squares(rng, 100)
    tracemalloc.start()
    try:
        assert isinstance(pauli_solve(hundred), PauliSolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    squares = shuffled_squares(rng, 200)
    start = time.perf_counter()
    out = pauli_solve(squares)
    assert time.perf_counter() - start < 2
    assert verify_pauli_solution(squares, out).ok


def test_thousand_squares_solve_and_verify_in_two_seconds():
    # 1,000 squares have 4,000 free variables.  Swaps built as one integer
    # per constraint, 16 million bits wide, and split bit by bit took 8.6 to
    # 17 s on a 2-vCPU VM; as sets of pair positions, about 0.3 s.
    squares = shuffled_squares(random.Random(23), 1000)
    start = time.perf_counter()
    out = pauli_solve(squares)
    assert verify_pauli_solution(squares, out).ok
    assert time.perf_counter() - start < 2


def test_supports_that_fail_to_cancel_raise(monkeypatch):
    # A constraint's free supports XOR to zero by construction; a wrong
    # support from the elimination must stop the solver, not mislead it.
    eliminate = bcs.eliminate_free_vars

    def corrupted(system):
        elim = eliminate(system)
        elim.supports[elim.reduced.pivot_cols[0]] ^= 1
        return elim

    monkeypatch.setattr(bcs, "eliminate_free_vars", corrupted)
    with pytest.raises(InvariantError, match="free supports failed to cancel in constraint"):
        pauli_solve(mermin_peres())


def traced_peak(system: Bcs) -> int:
    tracemalloc.start()
    try:
        pauli_solve(system)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutator_system_keeps_only_live_rows_in_memory():
    # All but one of the n = 12 game's 23,586 commutator rows are empty with
    # rhs 0, as are 1,600 of the 3,800 rows of 200 squares.  With those rows
    # built, each with a 1 << i provenance, and every constraint's swaps
    # kept as an f^2-bit mask, the two peaked at 50.7 and 44.7 MB traced;
    # with live rows and position sets alone, at 15.7 and 3.1 MB.
    assert traced_peak(build_game_bcs(12).bcs) < 30 * 2**20
    assert traced_peak(shuffled_squares(random.Random(19), 200)) < 10 * 2**20


def test_empty_kernel_rows_with_sign_minus_are_kept():
    # A kernel vector whose swaps cancel but whose signs multiply to -1 is
    # an empty row with rhs 1: the contradiction itself, never a dead row.
    for b in (chsh(), Bcs(["a"], [make_constraint([0, 0], -1)]), build_game_bcs(10).bcs):
        out = pauli_solve(b)
        assert isinstance(out, Certificate)
        assert out.commutation_rows == ()
        assert verify_certificate(b, out)


def test_cited_pairs_map_back_past_dead_pairs():
    # The magic square on v1..v9 (indices 2..10) plus a constraint making
    # v5 and v9 co-occur, as in test_certificate_citing_commutation_rows,
    # with a constraint a b = 1 first: a and b share their free support, so
    # the dead pair (0, 1) sorts before the cited one and has no row.
    mp = mermin_peres()
    cons = [make_constraint([0, 1], 1), make_constraint([6, 10, 11], 1)]
    cons += [make_constraint([v + 2 for v in c.var_indices], c.rhs) for c in mp.constraints]
    b = Bcs(["a", "b"] + mp.variables + ["w"], cons)
    supports = eliminate_free_vars(b).supports
    assert supports[0] == supports[1]
    out = pauli_solve(b)
    assert isinstance(out, Certificate)
    assert out.commutation_rows == ((3, 4),)
    assert verify_certificate(b, out)


@pytest.fixture(scope="module")
def corpus_results():
    """Random and planted systems, the game family n = 4..10 (plain and
    modified), CHSH and the magic square, each with its pauli_solve result."""
    rng = random.Random(20241018)
    corpus = [random_bcs(rng) for _ in range(3000)]
    corpus += [planted_bcs(rng) for _ in range(300)]
    corpus += [build_game_bcs(n, modified=m).bcs for n in range(4, 11) for m in (False, True)]
    corpus += [chsh(), mermin_peres()]
    return [(b, pauli_solve(b)) for b in corpus]


def result_text(b: Bcs, out) -> str:
    if isinstance(out, PauliSolution):
        return serialize_solution(b, out)
    return repr((out.constraint_rows, out.commutation_rows, out.derived_relation)) + "\n"


def test_solutions_invariant_under_gauss_jordan_oracle(corpus_results, monkeypatch):
    # Only provenance and the kernel basis depend on the reduction, and a
    # kernel vector pins the signs it could change, so solutions must be
    # byte-identical; certificates may cite other rows but must replay.
    monkeypatch.setattr(gf2, "row_reduce", gf2_oracle.row_reduce)
    reference = [pauli_solve(b) for b, _ in corpus_results]
    monkeypatch.undo()
    for (b, out), ref in zip(corpus_results, reference):
        assert type(out) is type(ref)
        if isinstance(out, PauliSolution):
            assert serialize_solution(b, out) == serialize_solution(b, ref)
        else:
            assert verify_certificate(b, out) and verify_certificate(b, ref)


# sha256 of the corpus results' text, recorded with the dict-form swap
# bookkeeping and the PauliString-object checks that the oracles keep.  It
# pins solution and certificate bytes, which verification alone does not.
CORPUS_SHA256 = "9f006bdb3971850bd43bfbc4781c33e7c31d2e2aba10e233dd57c9efa73ab82b"


def test_corpus_results_match_recorded_hash(corpus_results):
    digest = hashlib.sha256()
    for b, out in corpus_results:
        digest.update(result_text(b, out).encode())
    assert digest.hexdigest() == CORPUS_SHA256
    kinds = [(type(out), getattr(out, "qubits", 0) > 0) for _, out in corpus_results]
    assert (PauliSolution, True) in kinds and (Certificate, False) in kinds


def test_cited_pairs_differ_in_two_free_variables(corpus_results):
    # A pair whose free supports differ in fewer than two variables has an
    # empty commutation row, so no certificate needs to cite it.
    cited = 0
    for b, out in corpus_results:
        if isinstance(out, Certificate) and out.commutation_rows:
            supports = eliminate_free_vars(b).supports
            for i, j in out.commutation_rows:
                assert (supports[i] ^ supports[j]).bit_count() >= 2
                cited += 1
    assert cited


def single_edits(b: Bcs, cert: Certificate, rng: random.Random):
    """Each cited pair dropped, one legal uncited pair added, each cited
    constraint row dropped, and the derived relation with its last entry
    dropped, an entry appended, or two unequal entries swapped."""
    rows, pairs, relation = cert.constraint_rows, cert.commutation_rows, cert.derived_relation
    for k in range(len(pairs)):
        yield Certificate(rows, pairs[:k] + pairs[k + 1:], relation)
    uncited = [p for p in sign_system_oracle.co_occurrence_pairs(b) if p not in pairs]
    if uncited:
        added = tuple(sorted(pairs + (rng.choice(uncited),)))
        yield Certificate(rows, added, relation)
    for k in range(len(rows)):
        yield Certificate(rows[:k] + rows[k + 1:], pairs, relation)
    yield Certificate(rows, pairs, relation[:-1])
    yield Certificate(rows, pairs, relation + (relation[0],))
    k = next(k for k in range(1, len(relation)) if relation[k] != relation[0])
    yield Certificate(rows, pairs, (relation[k],) + relation[1:k] + (relation[0],) + relation[k + 1:])


def test_certificate_replay_matches_oracle(corpus_results):
    certs = [(b, out) for b, out in corpus_results if isinstance(out, Certificate)]
    for b, cert in certs:
        assert verify_certificate(b, cert)
        assert sign_system_oracle.verify_certificate(b, cert)
    rng = random.Random(12)
    verdicts = set()
    citing = [(b, cert) for b, cert in certs if cert.commutation_rows]
    assert citing
    for b, cert in citing:
        for edited in single_edits(b, cert, rng):
            verdict = verify_certificate(b, edited)
            assert verdict == sign_system_oracle.verify_certificate(b, edited), edited
            verdicts.add(verdict)
    assert verdicts == {True, False}
    # CHSH's cited rows with a relation that is not theirs.
    chsh_cert = Certificate((0, 1), (), (7, 7, 7))
    assert not verify_certificate(bcs.chsh(), chsh_cert)
    assert not sign_system_oracle.verify_certificate(bcs.chsh(), chsh_cert)


def test_monotonicity_classical_implies_pauli():
    # A scalar solution makes every kernel sign +1, so pauli_solve returns
    # the scalar solution itself, on zero qubits.
    rng = random.Random(55)
    games = [build_game_bcs(n).bcs for n in (5, 7, 9)]
    consistent = 0
    for b in [random_bcs(rng) for _ in range(200)] + games:
        signs = classical_solve(b)
        if not isinstance(signs, Certificate):
            consistent += 1
            out = pauli_solve(b)
            assert isinstance(out, PauliSolution)
            assert out.qubits == 0
            assert [1 - s.phase for s in out.strings] == signs
    # The odd games are scalar, and so are some random systems.
    assert consistent > len(games)
    assert all(not isinstance(classical_solve(b), Certificate) for b in games)


# ---------------------------------------------------------------------------
# pair positions and integer Pauli checks against the oracles
# ---------------------------------------------------------------------------

def to_positions(parity: dict[int, int], n: int) -> set[int]:
    """The oracle's {smaller var: partners} as pair positions k*n + l."""
    return {k * n + l for k, partners in parity.items() for l in set_bits(partners)}


def to_rank_positions(parity: dict[int, int], free: list[int]) -> set[int]:
    """The oracle's {smaller var: partners}, over free variables, as pair
    positions over their ranks: r_k*f + r_l, r the index in ``free``."""
    rank = {v: r for r, v in enumerate(free)}
    return {rank[k] * len(free) + rank[l] for k, partners in parity.items() for l in set_bits(partners)}


def support_mask(support) -> int:
    return sum(1 << v for v in support)


def blocks_of(n: int):
    """Lists of ascending blocks over n variables, as tuples."""
    ascending = st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
    return st.lists(ascending, max_size=6)


def support_pair(data, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two supports that share variables on purpose: a shared variable
    swaps with nothing only once the squares A_i^2 and A_j^2 of the
    expansion A_i A_j A_i A_j count."""
    var = st.integers(0, n - 1)
    shared = data.draw(st.sets(var))
    si = tuple(sorted(shared | data.draw(st.sets(var))))
    sj = tuple(sorted(shared | data.draw(st.sets(var))))
    return si, sj


@settings(max_examples=300)
@given(st.data())
def test_inversion_parity_mask_matches_dict_oracle(data):
    n = data.draw(st.integers(1, 12))
    blocks = data.draw(blocks_of(n))
    masks = [support_mask(block) for block in blocks]
    assert bcs._sort_parity(masks, n) == (
        to_positions(sign_system_oracle._inversion_parity(blocks, n), n), reduce(xor, masks, 0))


@settings(max_examples=300)
@given(st.data())
def test_commutation_row_mask_matches_dict_oracle(data):
    n = data.draw(st.integers(1, 12))
    si, sj = support_pair(data, n)
    d = support_mask(si) ^ support_mask(sj)
    expect = sign_system_oracle._inversion_parity([si, sj, si, sj], n)
    assert bcs._sort_parity([d, d], n) == (to_positions(expect, n), 0)


@settings(max_examples=300)
@given(st.data())
def test_sort_parity_appended_pair_xors_its_row(data):
    # The certificate replay sorts the cited constraints' blocks with
    # [d, d] appended per cited pair: that must XOR exactly the pair's row
    # into the pair positions and leave the leftover alone.
    n = data.draw(st.integers(1, 12))
    masks = [support_mask(block) for block in data.draw(blocks_of(n))]
    si, sj = support_pair(data, n)
    d = support_mask(si) ^ support_mask(sj)
    row = to_positions(sign_system_oracle._inversion_parity([si, sj, si, sj], n), n)
    positions, leftover = bcs._sort_parity(masks, n)
    assert bcs._sort_parity(masks + [d, d], n) == (positions ^ row, leftover)
    assert leftover == reduce(xor, masks, 0)


def test_pair_masks_match_dict_oracle_on_systems():
    rng = random.Random(8)
    systems = [random_bcs(rng) for _ in range(200)] + [planted_bcs(rng) for _ in range(50)]
    for b in systems + [mermin_peres(), build_game_bcs(4).bcs]:
        elim = eliminate_free_vars(b)
        free, supports = elim.free, elim.supports
        assert free == sorted(set(range(b.n_vars)) - set(elim.reduced.pivot_cols))
        for v in range(b.n_vars):
            assert free_support(elim, v) == list(sign_system_oracle._block(elim, v))
        f = len(free)
        for j in range(len(b.constraints)):
            _, parity, _ = sign_system_oracle._constraint_row(b, elim, j)
            assert bcs._constraint_parity(b, supports, f, j) == to_rank_positions(parity, free)
        for i, j in sign_system_oracle.co_occurrence_pairs(b):
            expect = sign_system_oracle._commutation_row(b, elim, i, j)
            d = supports[i] ^ supports[j]
            assert bcs._sort_parity([d, d], f)[0] == to_rank_positions(expect, free)
            # pauli_solve's pair row: every pair inside d, none below two bits.
            assert {k * f + l for k, l in combinations(set_bits(d), 2)} == to_rank_positions(expect, free)


def solved_pool():
    rng = random.Random(31)
    pool = [(mermin_peres(), pauli_solve(mermin_peres()))]
    while len(pool) < 40:
        b = planted_bcs(rng) if len(pool) % 4 else random_bcs(rng)
        out = pauli_solve(b)
        if isinstance(out, PauliSolution):
            pool.append((b, out))
    return pool


POOL = solved_pool()
CORRUPTIONS = ("none", "sign", "odd phase", "x bit", "z bit", "swap")


@settings(max_examples=400)
@given(st.data())
def test_verify_report_matches_object_oracle(data):
    b, sol = data.draw(st.sampled_from(POOL))
    strings = list(sol.strings)
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    v = data.draw(st.integers(0, len(strings) - 1))
    s = strings[v]
    if kind == "sign":
        strings[v] = PauliString(s.n_qubits, s.x_bits, s.z_bits, s.phase + 2)
    elif kind == "odd phase":
        strings[v] = PauliString(s.n_qubits, s.x_bits, s.z_bits, s.phase + data.draw(st.sampled_from([1, 3])))
    elif kind in ("x bit", "z bit") and sol.qubits:
        flip = 1 << data.draw(st.integers(0, sol.qubits - 1))
        x, z = (s.x_bits ^ flip, s.z_bits) if kind == "x bit" else (s.x_bits, s.z_bits ^ flip)
        strings[v] = PauliString(s.n_qubits, x, z, s.phase)
    elif kind == "swap":
        w = data.draw(st.integers(0, len(strings) - 1))
        strings[v], strings[w] = strings[w], strings[v]
    corrupted = PauliSolution(sol.qubits, strings)
    report = verify_pauli_solution(b, corrupted)
    assert report == pauli_report_oracle.verify_pauli_solution(b, corrupted)
    assert report.ok or kind != "none"


def test_odd_phase_fails_hermiticity():
    mp = mermin_peres()
    out = pauli_solve(mp)
    strings = list(out.strings)
    strings[3] = PauliString(out.qubits, strings[3].x_bits, strings[3].z_bits, strings[3].phase + 1)
    report = verify_pauli_solution(mp, PauliSolution(out.qubits, strings))
    assert (report.hermitian_ok, report.failing_variable) == (False, 3)


def test_verify_checks_commutation_of_cancelled_support():
    """``v5 v9 v5 v9 = 1`` keeps no variable, but v5 and v9 must commute,
    and the magic square's solution anticommutes them."""
    mp = mermin_peres()
    out = pauli_solve(mp)
    extended = parse_bcs(serialize_bcs(mp) + "v5 v9 v5 v9 = 1\n")
    for verify in (verify_pauli_solution, pauli_report_oracle.verify_pauli_solution):
        report = verify(extended, out)
        assert (report.commutation_ok, report.products_ok, report.failing_constraint) == (False, True, 6)


def test_mixed_qubit_widths_raise():
    mp = mermin_peres()
    out = pauli_solve(mp)
    strings = [parse_pauli("-YYI")] + list(out.strings[1:])
    for verify in (verify_pauli_solution, pauli_report_oracle.verify_pauli_solution):
        with pytest.raises(ValueError):
            verify(mp, PauliSolution(out.qubits, strings))
