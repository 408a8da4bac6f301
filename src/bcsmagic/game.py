"""The complete-graph BCS game family and its combinatorics.

Vertices 1..n of a complete graph carry a variable ``a_v`` each; every edge
carries ``x_uv, y_uv, z_uv``; every pair of disjoint edges carries one ``b``
variable (symmetric in the two edges) and two ``c`` variables (one per
ordering).  Constraint families, in emission order:

    a_u a_v y_uv = 1          per edge
    x_uv y_uv z_uv = 1        per edge
    x_e x_f b_ef = 1          per unordered disjoint edge pair
    x_e z_f c_ef = 1          per ordered disjoint edge pair
    b b' b'' = 1              per 4-set of vertices (its three matchings)
    c c' c'' = 1              four per 4-set, one per distinguished vertex t:
                              the first edge runs over the triangle on the
                              other three vertices, the second edge joins the
                              opposite triangle vertex to t
    prod_v a_v = -1           once

The game asks Alice for a satisfying assignment to one constraint and Bob
for one variable of it.  For odd n the system has a scalar solution; n = 4
admits a two-qubit Pauli-string solution; even n >= 6 requires operators
outside the Pauli group, which is the magic regime.

The modified family splits the single n-variable product constraint into a
chain of three-variable constraints using n-3 prefix variables, so every
constraint involves exactly three variables.  Chain variables are appended
after all graph variables to keep indices stable across the two forms.

Variables are numbered family by family, a, x, y, z, b, c, then the chain,
each in emission order, so every index is a family offset plus the rank of
a vertex, edge, matching or ordered matching, and no name is looked up.
"""
from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import NamedTuple

from .bcs import Bcs, Constraint

Edge = tuple[int, int]


class GameClass(Enum):
    CLASSICAL = "Classical"
    CLIFFORD_ONLY = "CliffordOnly"
    MAGIC_REQUIRED = "MagicRequired"


class GameBcs(NamedTuple):
    n: int
    modified: bool
    bcs: Bcs
    var_index: dict[str, int]

    def a(self, v: int) -> int:
        return self.var_index[f"a{v}"]

    def x(self, u: int, v: int) -> int:
        return self.var_index[_edge_name("x", _edge(u, v))]


class QuestionCounts(NamedTuple):
    alice: int
    bob: int
    modified_alice: int


def _edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("edge endpoints must differ")
    return (u, v) if u < v else (v, u)


def _edge_name(kind: str, e: Edge) -> str:
    return f"{kind}{e[0]}_{e[1]}"


def _pair_name(kind: str, e1: Edge, e2: Edge) -> str:
    return f"{kind}{e1[0]}_{e1[1]}|{e2[0]}_{e2[1]}"


def build_game_bcs(n: int, modified: bool = False) -> GameBcs:
    """Generate the size-n instance; all orderings are lexicographic, and
    each family's constraints are one array of offset-plus-rank indices."""
    import numpy as np

    if n < 4:
        raise ValueError("the game family needs at least 4 vertices")
    # Each matching of a 4-set as the positions, in the sorted 4-set, of its
    # first edge's ends and then its second's; the first edge holds the least vertex.
    matchings = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]])
    # c(e, f) and c(f, e) of matching m are a 4-set's c slots 2m and 2m + 1, so slot s's
    # second edge is edge row s ^ 1; vertex t's c-product holds the slots whose second edge holds t.
    c_rows = np.array([[s for s in range(6) if t in matchings.reshape(6, 2)[s ^ 1]] for t in range(4)])
    vertices = range(1, n + 1)
    edges = list(itertools.combinations(vertices, 2))
    quads = np.array(list(itertools.combinations(vertices, 4)))
    ends = quads[:, matchings]  # (4-set, matching, first edge's ends then second's)
    pairs = [((p, q), (r, s)) for p, q, r, s in ends.reshape(-1, 4).tolist()]

    names: list[str] = [f"a{v}" for v in vertices]
    names += [_edge_name(kind, e) for kind in "xyz" for e in edges]
    names += [_pair_name("b", e, f) for e, f in pairs]
    names += [_pair_name("c", *ordered) for e, f in pairs for ordered in ((e, f), (f, e))]
    if modified:
        names += [f"a1..{k}" for k in range(2, n - 1)]

    n_e, n_q = len(edges), len(quads)
    x, y, z, b_0 = (n + i * n_e for i in range(4))  # family offsets; a_v is v - 1
    u, v = np.array(edges).T
    r, rank = np.arange(n_e), np.zeros((n + 1, n + 1), dtype=int)
    rank[u, v] = r
    e, f = rank[ends[..., 0], ends[..., 1]], rank[ends[..., 2], ends[..., 3]]  # (4-set, matching)
    b = b_0 + np.arange(3 * n_q).reshape(n_q, 3)
    c = b_0 + 3 * n_q + np.arange(6 * n_q).reshape(n_q, 3, 2)  # (4-set, matching, order)
    rows = [
        np.column_stack([u - 1, v - 1, y + r]),  # a_u a_v y_uv
        np.column_stack([x + r, y + r, z + r]),  # x_uv y_uv z_uv
        np.stack([x + e, x + f, b], axis=-1),  # x_e x_f b_ef
        np.stack([x + np.stack([e, f], -1), z + np.stack([f, e], -1), c], axis=-1),  # x_e z_f c_ef
        b,  # b b' b''
        c.reshape(n_q, 6)[:, c_rows],  # c c' c''
    ]
    if modified:
        chain = b_0 + 9 * n_q - 2  # a_1..k is chain + k
        k = np.arange(3, n - 1)
        rows += [[[0, 1, chain + 2]], np.column_stack([k - 1, chain + k - 1, chain + k])]
        last = (n - 2, n - 1, chain + n - 2)
    else:
        last = tuple(range(n))
    rows = np.concatenate([np.reshape(family, (-1, 3)) for family in rows]).tolist()
    constraints = [Constraint(row, 1) for row in map(tuple, rows)] + [Constraint(last, -1)]
    return GameBcs(n, modified, Bcs(names, constraints), {name: i for i, name in enumerate(names)})


def count_questions(n: int) -> QuestionCounts:
    """Closed forms for the question-set sizes."""
    if n < 4:
        raise ValueError("the game family needs at least 4 vertices")
    c2 = math.comb(n, 2)
    c4 = math.comb(n, 4)
    alice = 2 * c2 + 14 * c4 + 1
    bob = n + 3 * c2 + 9 * c4
    return QuestionCounts(alice, bob, alice + n - 3)


def clifford_bound(n: int) -> float:
    """The paper's upper bound on magic-free strategies: their average
    winning probability on the modified game is at most 1 - 1/(6 |Q^A|).
    Defined only in the magic regime.  Nothing in the package shows that it
    is attained: the best Pauli strategy on |Phi+> that the tests build
    wins 1 - 1/(3 |Q^A|), a witness built in tests/test_acceptance.py
    (criterion 09) and scored by tests/pauli_report_oracle.py."""
    if classify(n) is not GameClass.MAGIC_REQUIRED:
        raise ValueError(f"no Clifford bound applies at n={n}")
    return 1.0 - 1.0 / (6 * count_questions(n).modified_alice)


def classify(n: int) -> GameClass:
    if n < 4:
        raise ValueError("the game family needs at least 4 vertices")
    if n == 4:
        return GameClass.CLIFFORD_ONLY
    if n % 2 == 1:
        return GameClass.CLASSICAL
    return GameClass.MAGIC_REQUIRED


def enumerate_questions(game: GameBcs) -> list[tuple[int, int]]:
    """Every (constraint alpha, member beta) question pair, in order."""
    return [(alpha, beta) for alpha, c in enumerate(game.bcs.constraints) for beta in c.var_indices]
