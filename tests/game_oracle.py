"""The complete-graph game built one constraint at a time by name lookups.

``game.build_game_bcs`` computes every member's index from per-family
offset tables.  This module keeps the builder that formats each member's
name and looks it up in the variable index, as the reference the offsets
must reproduce: the same variables, constraints and index, in order.
"""
from __future__ import annotations

import itertools

from bcsmagic.bcs import Bcs, make_constraint
from bcsmagic.game import GameBcs

Edge = tuple[int, int]


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

    def a(v: int) -> int:
        return index[f"a{v}"]

    def chain(k: int) -> int:
        """Variable standing for the product a_1 ... a_k, 2 <= k <= n-2."""
        return index[f"a1..{k}"]

    def edge(kind: str, u: int, v: int) -> int:
        return index[_edge_name(kind, _edge(u, v))]

    def b(e1: Edge, e2: Edge) -> int:
        """Symmetric in its two edges."""
        return index[_pair_name("b", *sorted((_edge(*e1), _edge(*e2))))]

    def c(e1: Edge, e2: Edge) -> int:
        return index[_pair_name("c", _edge(*e1), _edge(*e2))]

    cons = []
    for u, v in edges:
        cons.append(make_constraint([a(u), a(v), edge("y", u, v)], 1))
    for u, v in edges:
        cons.append(make_constraint([edge("x", u, v), edge("y", u, v), edge("z", u, v)], 1))
    for quad in quads:
        for e1, e2 in _matchings(quad):
            cons.append(make_constraint([edge("x", *e1), edge("x", *e2), b(e1, e2)], 1))
    for quad in quads:
        for e1, e2 in _matchings(quad):
            cons.append(make_constraint([edge("x", *e1), edge("z", *e2), c(e1, e2)], 1))
            cons.append(make_constraint([edge("x", *e2), edge("z", *e1), c(e2, e1)], 1))
    for quad in quads:
        b_vars = [b(e1, e2) for e1, e2 in _matchings(quad)]
        cons.append(make_constraint(b_vars, 1))
    for quad in quads:
        for t in quad:
            tri = [v for v in quad if v != t]
            c_vars = []
            for w_i, w in enumerate(tri):
                e = _edge(*(tri[:w_i] + tri[w_i + 1:]))
                c_vars.append(c(e, (w, t)))
            cons.append(make_constraint(c_vars, 1))
    if modified:
        cons.append(make_constraint([a(1), a(2), chain(2)], 1))
        for k in range(3, n - 1):
            cons.append(make_constraint([chain(k - 1), a(k), chain(k)], 1))
        cons.append(make_constraint([chain(n - 2), a(n - 1), a(n)], -1))
    else:
        cons.append(make_constraint([a(v) for v in vertices], -1))

    return GameBcs(n, modified, Bcs(names, cons), index)
