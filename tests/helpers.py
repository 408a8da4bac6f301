"""Shared fixtures: the published two-qubit table for the n=4 game, a
seeded generator for test data, a branch-enumeration oracle for measurement
distributions, direct checks of GF(2) and scalar assignments, and the
contract every tuple record keeps."""
from __future__ import annotations

import numpy as np
import pytest

from bcsmagic.bcs import Bcs, PauliSolution, make_constraint
from bcsmagic.gf2 import Gf2Matrix, Gf2System
from bcsmagic.pauli import parse_pauli, to_matrix

TABLE_N4 = {
    "a1": "-ZZ", "a2": "II", "a3": "ZI", "a4": "IZ",
    "x1_2": "-YY", "x1_3": "XI", "x1_4": "IX",
    "x2_3": "II", "x2_4": "II", "x3_4": "ZZ",
    "y1_2": "-ZZ", "y1_3": "-IZ", "y1_4": "-ZI",
    "y2_3": "ZI", "y2_4": "IZ", "y3_4": "ZZ",
    "z1_2": "-XX", "z1_3": "-XZ", "z1_4": "-ZX",
    "z2_3": "ZI", "z2_4": "IZ", "z3_4": "II",
    "b1_2|3_4": "XX", "b1_3|2_4": "XI", "b1_4|2_3": "IX",
    "c1_2|3_4": "-YY", "c1_3|2_4": "XZ", "c1_4|2_3": "ZX",
    "c3_4|1_2": "YY", "c2_4|1_3": "-XZ", "c2_3|1_4": "-ZX",
}


def table_pauli_solution(game) -> PauliSolution:
    strings = [parse_pauli(TABLE_N4[name]) for name in game.bcs.variables]
    return PauliSolution(2, strings)


def table_operator_solution(game) -> np.ndarray:
    return np.array([to_matrix(parse_pauli(TABLE_N4[name])) for name in game.bcs.variables])


def philox_rng(seed: int) -> np.random.Generator:
    """A seeded Philox generator for test data; the library's rounds and
    trials draw from ``quantum.TrialStream`` instead."""
    return np.random.Generator(np.random.Philox(seed))


def enumerate_distribution(amplitudes: np.ndarray, plan: list[tuple[str, np.ndarray]]):
    """Exact joint outcome distribution of a measurement plan on the shared
    state with (d, d) amplitude matrix ``amplitudes``.

    ``plan`` is a list of (side, observable); the returned dict maps outcome
    tuples to probabilities, with zero-probability branches dropped.
    """
    eye = np.eye(len(amplitudes))
    dist: dict[tuple[int, ...], float] = {}

    def recurse(m: np.ndarray, prefix: tuple[int, ...], weight: float, step: int):
        if weight < 1e-15:
            return
        if step == len(plan):
            dist[prefix] = dist.get(prefix, 0.0) + weight
            return
        side, obs = plan[step]
        for outcome in (1, -1):
            proj = (eye + outcome * obs) / 2
            branch = proj @ m if side == "A" else m @ proj.T
            p = float(np.linalg.norm(branch) ** 2)
            if p > 1e-15:
                recurse(branch / np.sqrt(p), prefix + (outcome,), weight * p, step + 1)

    recurse(amplitudes, (), 1.0, 0)
    return dist


def gf2_system(rows: list[list[int]], rhs: list[int], cols: int | None = None) -> Gf2System:
    """A GF(2) system from 0/1 row lists; ``cols`` defaults to the width of
    the first row."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    bits = [sum((v & 1) << j for j, v in enumerate(row)) for row in rows]
    return Gf2System(Gf2Matrix(len(rows), cols, bits), [b & 1 for b in rhs])


def gf2_evaluate(system: Gf2System, assignment: list[int]) -> list[int]:
    """matrix @ assignment over GF(2), one bit per row."""
    vec = sum((b & 1) << j for j, b in enumerate(assignment))
    return [(row & vec).bit_count() & 1 for row in system.matrix.bits]


def check_classical_assignment(bcs: Bcs, signs: list[int]) -> bool:
    """Every constraint's +/-1 product equals its sign."""
    for c in bcs.constraints:
        prod = 1
        for v in c.var_indices:
            prod *= signs[v]
        if prod != c.rhs:
            return False
    return True


def split_variable(bcs: Bcs, alpha: int, v: int) -> Bcs:
    """``bcs`` with variable v replaced, in constraint alpha only, by a fresh
    variable appended last."""
    constraints = list(bcs.constraints)
    c = constraints[alpha]
    constraints[alpha] = make_constraint([bcs.n_vars if u == v else u for u in c.var_indices], c.rhs)
    return Bcs(bcs.variables + ["fresh"], constraints)


def assert_record_contract(cls, values: tuple, fields: tuple[str, ...]) -> None:
    """``cls`` builds the same immutable record from ``values`` by position
    and by keyword, holds them in the order ``fields``, names them in its
    repr, and rebuilds it from its fields through ``_make``."""
    record = cls(*values)
    assert cls._fields == fields and tuple(record) == values
    assert record == cls(**dict(zip(fields, values))) == cls._make(values) == record._replace()
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
