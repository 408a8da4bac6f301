"""Output checks for every benchmark op.

Each check raises ``CheckError`` naming what is wrong, and returns nothing
when the output is correct.  Checks read only the op's outputs and its
inputs; none compares against a particular random stream, so re-keying the
program's per-trial generators does not change any verdict.
"""
from __future__ import annotations

import json
import math
import re

from bcsmagic import bcs as bcs_mod
from bcsmagic import pauli


class CheckError(Exception):
    """An op's exit code or output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_exit(code: int, expected: int, stderr: str = "") -> None:
    require(code == expected, f"exit {code}, expected {expected}: {stderr.strip()[:200]}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def scalar_solvable(system: bcs_mod.Bcs) -> bool:
    """Consistency of the GF(2) incidence system, by the benchmark's own
    elimination (an XOR basis keyed by leading bit)."""
    basis: dict[int, tuple[int, int]] = {}
    for c in system.constraints:
        row = sum(1 << v for v in c.var_indices)
        rhs = int(c.rhs == -1)
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = (row, rhs)
                break
            row ^= basis[top][0]
            rhs ^= basis[top][1]
        else:
            if rhs:
                return False
    return True


def _cited_rows_contradict(system: bcs_mod.Bcs, rows: list[int]) -> bool:
    """The cited constraints cancel every variable and multiply to -1."""
    parity = 0
    sign = 1
    for j in rows:
        c = system.constraints[j]
        for v in c.var_indices:
            parity ^= 1 << v
        sign *= c.rhs
    return parity == 0 and sign == -1


def _load_certificate(system: bcs_mod.Bcs, cert_text: str, mode: str) -> bcs_mod.Certificate:
    try:
        payload = json.loads(cert_text)
        cert = bcs_mod.Certificate(
            tuple(payload["constraint_rows"]),
            tuple(tuple(p) for p in payload["commutation_rows"]),
            tuple(payload["derived_relation"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"unreadable certificate: {exc}") from None
    require(payload.get("mode") == mode, f"certificate mode {payload.get('mode')!r}, expected {mode!r}")
    m = len(system.constraints)
    require(bool(cert.constraint_rows), "certificate cites no constraint")
    require(all(isinstance(j, int) and 0 <= j < m for j in cert.constraint_rows),
            "certificate cites a constraint out of range")
    require(_cited_rows_contradict(system, list(cert.constraint_rows)),
            "cited constraints do not multiply to I = -I")
    return cert


def check_pauli_certificate(bcs_text: str, cert_text: str, rows: list[int] | None = None) -> None:
    system = bcs_mod.parse_bcs(bcs_text)
    cert = _load_certificate(system, cert_text, "pauli")
    try:
        verified = bcs_mod.verify_certificate(system, cert)
    except IndexError as exc:
        raise CheckError(f"certificate rejected: {exc}") from None
    require(verified, "verify_certificate rejects the certificate")
    if rows is not None:
        require(list(cert.constraint_rows) == rows,
                f"certificate cites rows {list(cert.constraint_rows)}, expected {rows}")


def check_classical_certificate(bcs_text: str, cert_text: str) -> None:
    system = bcs_mod.parse_bcs(bcs_text)
    cert = _load_certificate(system, cert_text, "classical")
    require(not cert.commutation_rows, "a scalar certificate cites commutation facts")


def check_pauli_solution(bcs_text: str, solution_text: str) -> None:
    """The solution file names every variable in order and passes
    ``verify_pauli_solution``."""
    system = bcs_mod.parse_bcs(bcs_text)
    names: list[str] = []
    strings: list[pauli.PauliString] = []
    for line in solution_text.splitlines():
        name, sep, value = line.partition("=")
        require(bool(sep), f"malformed solution line {line!r}")
        names.append(name.strip())
        try:
            strings.append(pauli.parse_pauli(value))
        except ValueError as exc:
            raise CheckError(f"unreadable Pauli string in {line!r}: {exc}") from None
    require(names == system.variables, "solution does not list the system's variables in order")
    widths = {s.n_qubits for s in strings}
    require(len(widths) == 1, f"solution mixes qubit counts {sorted(widths)}")
    report = bcs_mod.verify_pauli_solution(system, bcs_mod.PauliSolution(widths.pop(), strings))
    require(report.ok, f"verify_pauli_solution fails: {report}")


def check_small(kind: str, bcs_text: str, verified: bool, is_certificate: bool, output: str) -> None:
    """A small-system op: its own verification passed, the decision fits the
    system, and the serialized result verifies again from text."""
    require(verified, "the op's verification failed")
    if kind == "planted" or scalar_solvable(bcs_mod.parse_bcs(bcs_text)):
        require(not is_certificate, f"certificate for a solvable {kind} system")
    if is_certificate:
        check_pauli_certificate(bcs_text, output)
    else:
        check_pauli_solution(bcs_text, output)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _count(pattern: str, text: str) -> tuple[int, ...]:
    match = re.search(pattern, text)
    require(match is not None, f"output lacks {pattern!r}")
    return tuple(int(g) for g in match.groups())


def check_play(stdout: str, trials: int) -> None:
    wins, total = _count(r"wins: (\d+)/(\d+)", stdout)
    require(total == trials, f"played {total} rounds, asked for {trials}")
    require(wins == trials, f"won {wins} of {trials} rounds")


def check_relation(stdout: str, log_text: str, trials: int, game_bcs: bcs_mod.Bcs) -> None:
    """Every logged trial satisfies the relation, recomputed from its
    outputs: Alice's bits multiply to her constraint's sign, and Bob's bit
    matches Alice's for the shared variable."""
    (satisfied,) = _count(r"satisfied: (\d+)", stdout)
    require(satisfied == trials, f"{satisfied} of {trials} relation trials satisfied")
    records = [json.loads(line) for line in log_text.splitlines()]
    require([r["trial"] for r in records] == list(range(trials)), "trial log is incomplete")
    for r in records:
        members = game_bcs.constraints[r["alpha"]].var_indices
        r_a, r_b = r["r_a"], r["r_b"]
        require(all(b in (1, -1) for b in r_a + r_b), f"trial {r['trial']}: output bit not +-1")
        require(math.prod(r_a[:len(members)]) == game_bcs.constraints[r["alpha"]].rhs,
                f"trial {r['trial']}: Alice's bits violate constraint {r['alpha']}")
        if r["beta"] in members:
            require(r_b[0] == r_a[members.index(r["beta"])],
                    f"trial {r['trial']}: Bob disagrees with Alice on variable {r['beta']}")
        require(r["ok"] is True, f"trial {r['trial']} logged as failed")


def check_sampling(stdout: str, trials: int) -> None:
    """No invalid trial, and clean frames within 5 sigma of trials/64."""
    (total,) = _count(r"sampling trials: (\d+)", stdout)
    case1, case2, invalid = _count(r"case1: (\d+) .*case2: (\d+), invalid: (\d+)", stdout)
    require(total == trials and case1 + case2 + invalid == trials,
            f"case counts {case1}+{case2}+{invalid} do not add up to {trials}")
    require(invalid == 0, f"{invalid} invalid trials")
    p = 1 / 64
    sigma = math.sqrt(trials * p * (1 - p))
    require(abs(case1 - trials * p) <= 5 * sigma,
            f"case1 count {case1} is more than 5 sigma from {trials * p:.1f}")


# ---------------------------------------------------------------------------
# lightcone
# ---------------------------------------------------------------------------

def disjoint_pair_count(wiring: dict) -> tuple[int, int]:
    """(site pairs j < k whose cones cross, all site pairs) of a wiring.

    Cones grow layer by layer: a gate fires when it reads a wire already in
    the cone at the start of its layer, and adds its outputs.  A pair is bad
    when Alice's input at j reaches Bob's output at k, or Bob's input at k
    reaches Alice's output at j.
    """
    depth = max((g["layer"] for g in wiring["gates"]), default=0)
    readers: list[dict[int, list[int]]] = [{} for _ in range(depth + 1)]
    for gid, g in enumerate(wiring["gates"]):
        for w in g["inputs"]:
            readers[g["layer"]].setdefault(w, []).append(gid)

    def reached_sites(seed: list[int], site_of: dict[int, int]) -> set[int]:
        cone = set(seed)
        for layer in range(1, depth + 1):
            fired = {gid for w in cone for gid in readers[layer].get(w, ())}
            for gid in fired:
                cone.update(wiring["gates"][gid]["outputs"])
        return {site_of[w] for w in cone if w in site_of}

    bob_out = {w: s for s, group in enumerate(wiring["bob_outputs"]) for w in group}
    alice_out = {w: s for s, group in enumerate(wiring["alice_outputs"]) for w in group}
    sites = len(wiring["alice_inputs"])
    bad = set()
    for s in range(sites):
        bad.update((s, k) for k in reached_sites(wiring["alice_inputs"][s], bob_out) if k > s)
        bad.update((j, s) for j in reached_sites(wiring["bob_inputs"][s], alice_out) if j < s)
    return len(bad), sites * (sites - 1) // 2


def check_lightcone(stdout: str, wiring: dict, expected: dict, bad_pairs: int) -> None:
    """Wiring statistics match ``expected``; the disjointness probability is
    at least its bound and equals the benchmark's own pair count."""
    try:
        report = json.loads(stdout)
    except ValueError:
        raise CheckError("lightcone output is not JSON") from None
    for key, value in expected.items():
        require(report.get(key) == value, f"{key} = {report.get(key)}, expected {value}")
    prob = report.get("disjoint_probability")
    require(isinstance(prob, float), "no disjoint_probability reported")
    require(prob >= report.get("disjoint_bound", math.inf),
            f"disjoint_probability {prob} is below disjoint_bound {report.get('disjoint_bound')}")
    sites = len(wiring["alice_inputs"])
    total = sites * (sites - 1) // 2
    require(abs(prob - (1 - bad_pairs / total)) <= 1e-12,
            f"disjoint_probability {prob}, but {bad_pairs} of {total} site pairs cross")
