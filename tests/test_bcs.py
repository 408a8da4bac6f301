import hashlib
import random

import gf2_oracle
import pauli_report_oracle
import pytest
import sign_system_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from sign_system_oracle import build_sign_system, satisfiable_brute

from bcsmagic import bcs, gf2, pauli
from bcsmagic.bcs import (
    Bcs,
    Certificate,
    PauliSolution,
    chsh,
    classical_solve,
    check_classical_assignment,
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
from bcsmagic.game import build_game_bcs
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
    text = serialize_bcs(mermin_peres())
    assert serialize_bcs(parse_bcs(text)) == text


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bcs("")
    with pytest.raises(ValueError):
        parse_bcs("vars: a b\na c = 1\n")
    with pytest.raises(ValueError):
        parse_bcs("a b = 2\n")
    with pytest.raises(ValueError):
        parse_bcs("a b\n")


def test_parse_comments_and_repeats():
    b = parse_bcs("# header\nvars: a b\na a b = 1  # repeat cancels\n")
    assert b.constraints[0].var_indices == (1,)
    assert b.constraints[0].support == {0, 1}


def test_empty_constraint_canonicalization():
    c = make_constraint([3, 3], -1)
    assert c.var_indices == ()
    assert c.support == {3}


# ---------------------------------------------------------------------------
# classical solving
# ---------------------------------------------------------------------------

def test_classical_mermin_peres_none():
    assert classical_solve(mermin_peres()) is None


def test_classical_all_plus_rhs():
    b = parse_bcs("a b = 1\nb c = 1\na c = 1\n")
    signs = classical_solve(b)
    assert signs == [1, 1, 1]


def test_classical_solution_satisfies():
    b = parse_bcs("a b = -1\nb c = 1\n")
    signs = classical_solve(b)
    assert signs is not None
    assert check_classical_assignment(b, signs)


# ---------------------------------------------------------------------------
# elimination and the sign system (magic-square worked example)
# ---------------------------------------------------------------------------

def test_mermin_peres_free_set_and_expressions():
    elim = eliminate_free_vars(mermin_peres())
    assert elim.free == [4, 5, 7, 8]
    assert elim.expressions[1].free_support == (4, 7)
    assert elim.expressions[0].free_support == (4, 5, 7, 8)
    for v in elim.free:
        assert elim.expressions[v].sign_unknown is None
        assert elim.expressions[v].free_support == (v,)


def test_single_constraint_elimination():
    b = parse_bcs("a1 a2 = -1\n")
    elim = eliminate_free_vars(b)
    assert elim.free == [1]
    assert elim.expressions[0].free_support == (1,)
    assert elim.expressions[0].sign_unknown == 0


def test_disjoint_blocks_do_not_mix():
    b = parse_bcs("a b = 1\nc d = -1\n")
    elim = eliminate_free_vars(b)
    red = gf2.row_reduce(bcs.incidence_system(b))
    assert red.pivot_cols == [0, 2]
    assert elim.expressions[0].free_support == (1,)
    assert elim.expressions[2].free_support == (3,)


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
    assert not pauli.commutes(out.strings[4], out.strings[8])
    assert not pauli.commutes(out.strings[5], out.strings[7])
    assert pauli.commutes(out.strings[4], out.strings[7])


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


def test_certificate_dangling_index_raises():
    b = chsh()
    with pytest.raises(IndexError):
        verify_certificate(b, Certificate((0, 7), (), ()))
    with pytest.raises(IndexError):
        verify_certificate(b, Certificate((0, 1), ((0, 9),), ()))


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
    # of the commutator system, has no column.
    system = build_game_bcs(10).bcs
    widths = []
    row_reduce = gf2.row_reduce

    def recording(reduced):
        widths.append(reduced.matrix.cols)
        return row_reduce(reduced)

    monkeypatch.setattr(gf2, "row_reduce", recording)
    assert isinstance(pauli_solve(system), Certificate)
    assert sorted(widths) == [0, system.n_vars]


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
            if not pauli.commutes(solution.strings[k], solution.strings[l])]


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
            anti = [u[1:] for u, bit in zip(system.unknowns, oracle.assignment)
                    if u[0] == "comm" and bit]
            assert out.qubits == len(anti)
            assert anticommuting_free_pairs(out, eliminate_free_vars(b).free) == anti
            cls = classical_solve(b)
            if cls is not None:
                assert check_classical_assignment(b, cls)
        else:
            assert not expect
            assert verify_certificate(b, out)
            assert classical_solve(b) is None  # monotonicity, contrapositive
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


def test_monotonicity_classical_implies_pauli():
    rng = random.Random(55)
    for _ in range(200):
        b = random_bcs(rng)
        if classical_solve(b) is not None:
            assert isinstance(pauli_solve(b), PauliSolution)


# ---------------------------------------------------------------------------
# pair masks and integer Pauli checks against the oracles
# ---------------------------------------------------------------------------

def to_mask(parity: dict[int, int], n: int) -> int:
    """The oracle's {smaller var: partners} as a pair mask, bit k*n + l."""
    out = 0
    for k, partners in parity.items():
        out ^= partners << (k * n)
    return out


def support_mask(support) -> int:
    return sum(1 << v for v in support)


@settings(max_examples=300)
@given(st.data())
def test_inversion_parity_mask_matches_dict_oracle(data):
    n = data.draw(st.integers(1, 12))
    ascending = st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
    blocks = data.draw(st.lists(ascending, max_size=6))
    assert bcs._inversion_parity(blocks, n) == to_mask(
        sign_system_oracle._inversion_parity(blocks, n), n)


@settings(max_examples=300)
@given(st.data())
def test_commutation_row_mask_matches_dict_oracle(data):
    # Supports share variables on purpose: a shared variable swaps with
    # nothing only once the squares A_i^2 and A_j^2 of the expansion count.
    n = data.draw(st.integers(1, 12))
    var = st.integers(0, n - 1)
    shared = data.draw(st.sets(var))
    si = tuple(sorted(shared | data.draw(st.sets(var))))
    sj = tuple(sorted(shared | data.draw(st.sets(var))))
    expect = sign_system_oracle._inversion_parity([si, sj, si, sj], n)
    assert bcs._commutation_row(support_mask(si) ^ support_mask(sj), n) == to_mask(expect, n)


def test_pair_masks_match_dict_oracle_on_systems():
    rng = random.Random(8)
    systems = [random_bcs(rng) for _ in range(200)] + [planted_bcs(rng) for _ in range(50)]
    for b in systems + [mermin_peres(), build_game_bcs(4).bcs]:
        elim = eliminate_free_vars(b)
        masks = [support_mask(e.free_support) for e in elim.expressions]
        for j in range(len(b.constraints)):
            _, parity, _ = sign_system_oracle._constraint_row(b, elim, j)
            assert bcs._constraint_parity(b, elim, j) == to_mask(parity, b.n_vars)
        for i, j in bcs.co_occurrence_pairs(b):
            expect = sign_system_oracle._commutation_row(b, elim, i, j)
            assert bcs._commutation_row(masks[i] ^ masks[j], b.n_vars) == to_mask(expect, b.n_vars)


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


def test_mixed_qubit_widths_raise():
    mp = mermin_peres()
    out = pauli_solve(mp)
    strings = [parse_pauli("-YYI")] + list(out.strings[1:])
    for verify in (verify_pauli_solution, pauli_report_oracle.verify_pauli_solution):
        with pytest.raises(ValueError):
            verify(mp, PauliSolution(out.qubits, strings))
