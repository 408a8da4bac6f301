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
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .bcs import Bcs, make_constraint

Edge = tuple[int, int]


class GameClass(Enum):
    CLASSICAL = "Classical"
    CLIFFORD_ONLY = "CliffordOnly"
    MAGIC_REQUIRED = "MagicRequired"


@dataclass
class GameBcs:
    n: int
    modified: bool
    bcs: Bcs
    var_index: dict[str, int]

    def a(self, v: int) -> int:
        return self.var_index[f"a{v}"]

    def x(self, u: int, v: int) -> int:
        return self.var_index[_edge_name("x", _edge(u, v))]

    def y(self, u: int, v: int) -> int:
        return self.var_index[_edge_name("y", _edge(u, v))]

    def z(self, u: int, v: int) -> int:
        return self.var_index[_edge_name("z", _edge(u, v))]

    def b(self, e1: Edge, e2: Edge) -> int:
        e1, e2 = _edge(*e1), _edge(*e2)
        if e2 < e1:
            e1, e2 = e2, e1
        return self.var_index[_pair_name("b", e1, e2)]

    def c(self, e1: Edge, e2: Edge) -> int:
        return self.var_index[_pair_name("c", _edge(*e1), _edge(*e2))]

    def chain(self, k: int) -> int:
        """Variable standing for the product a_1 ... a_k, 2 <= k <= n-2."""
        return self.var_index[f"a1..{k}"]


@dataclass
class QuestionCounts:
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


def _matchings(quad: tuple[int, int, int, int]) -> list[tuple[Edge, Edge]]:
    p1, p2, p3, p4 = quad
    return [
        ((p1, p2), (p3, p4)),
        ((p1, p3), (p2, p4)),
        ((p1, p4), (p2, p3)),
    ]


def build_game_bcs(n: int, modified: bool = False) -> GameBcs:
    """Generate the size-n instance; all orderings are lexicographic."""
    if n < 4:
        raise ValueError("the game family needs at least 4 vertices")
    vertices = range(1, n + 1)
    edges = [tuple(e) for e in itertools.combinations(vertices, 2)]
    quads = list(itertools.combinations(vertices, 4))

    names: list[str] = [f"a{v}" for v in vertices]
    for kind in ("x", "y", "z"):
        names.extend(_edge_name(kind, e) for e in edges)
    for quad in quads:
        names.extend(_pair_name("b", e1, e2) for e1, e2 in _matchings(quad))
    for quad in quads:
        for e1, e2 in _matchings(quad):
            names.append(_pair_name("c", e1, e2))
            names.append(_pair_name("c", e2, e1))
    if modified:
        names.extend(f"a1..{k}" for k in range(2, n - 1))

    index = {name: i for i, name in enumerate(names)}
    game = GameBcs(n, modified, Bcs(names, []), index)

    cons = []
    for u, v in edges:
        cons.append(make_constraint([game.a(u), game.a(v), game.y(u, v)], 1))
    for u, v in edges:
        cons.append(make_constraint([game.x(u, v), game.y(u, v), game.z(u, v)], 1))
    for quad in quads:
        for e1, e2 in _matchings(quad):
            cons.append(make_constraint([game.x(*e1), game.x(*e2), game.b(e1, e2)], 1))
    for quad in quads:
        for e1, e2 in _matchings(quad):
            cons.append(make_constraint([game.x(*e1), game.z(*e2), game.c(e1, e2)], 1))
            cons.append(make_constraint([game.x(*e2), game.z(*e1), game.c(e2, e1)], 1))
    for quad in quads:
        b_vars = [game.b(e1, e2) for e1, e2 in _matchings(quad)]
        cons.append(make_constraint(b_vars, 1))
    for quad in quads:
        for t in quad:
            tri = [v for v in quad if v != t]
            c_vars = []
            for w_i, w in enumerate(tri):
                e = _edge(*(tri[:w_i] + tri[w_i + 1:]))
                c_vars.append(game.c(e, (w, t)))
            cons.append(make_constraint(c_vars, 1))
    if modified:
        cons.append(make_constraint([game.a(1), game.a(2), game.chain(2)], 1))
        for k in range(3, n - 1):
            cons.append(make_constraint([game.chain(k - 1), game.a(k), game.chain(k)], 1))
        cons.append(make_constraint([game.chain(n - 2), game.a(n - 1), game.a(n)], -1))
    else:
        cons.append(make_constraint([game.a(v) for v in vertices], -1))

    game.bcs.constraints = cons
    return game


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
    wins 1 - 1/(3 |Q^A|)."""
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
