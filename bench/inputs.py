"""Seeded input generators for the benchmark.

Every input derives from the run's ``--seed`` through ``sub_rng``, and
every generator returns plain text, so the program under test sees only
BCS text, wiring JSON and argv.  The same seed always gives the same inputs.
"""
from __future__ import annotations

import json
import random

MAGIC_SQUARE = (
    "vars: v1 v2 v3 v4 v5 v6 v7 v8 v9\n"
    "v1 v2 v3 = 1\n"
    "v4 v5 v6 = 1\n"
    "v7 v8 v9 = 1\n"
    "v1 v4 v7 = 1\n"
    "v2 v5 v8 = 1\n"
    "v3 v6 v9 = -1\n"
)
CHSH = "vars: v1 v2\nv1 v2 = 1\nv1 v2 = -1\n"

# Rows multiply to +1 and columns to -1, so no scalar assignment exists,
# while the two-qubit Mermin-Peres operators solve it.
_SQUARE_ROWS = [((0, 1, 2), 1), ((3, 4, 5), 1), ((6, 7, 8), 1),
                ((0, 3, 6), 1), ((1, 4, 7), 1), ((2, 5, 8), -1)]


def sub_rng(seed: int, purpose: str) -> random.Random:
    """Independent stream for one purpose, derived from the run's seed."""
    return random.Random(f"bcsmagic-bench:{seed}:{purpose}")


def cli_seed(seed: int, purpose: str) -> int:
    """A ``--seed`` value for one CLI command."""
    return sub_rng(seed, purpose).randrange(2**31)


def _system_text(names: list[str], constraints: list[tuple[list[int], int]],
                 order: list[int] | None = None) -> str:
    """BCS text; ``order`` permutes the ``vars:`` header, which fixes the
    program's variable numbering."""
    header = names if order is None else [names[v] for v in order]
    lines = ["vars: " + " ".join(header)]
    for members, rhs in constraints:
        lines.append(" ".join(names[v] for v in members) + f" = {rhs}")
    return "\n".join(lines) + "\n"


def _shuffled_labels(rng: random.Random, count: int) -> list[str]:
    return [f"q{i}" for i in rng.sample(range(10 * count), count)]


def random_parity_system(rng: random.Random) -> str:
    """Random 3-variable parity constraints with random signs.

    10 to 60 variables and n/3 to n constraints; most draws are solvable
    by scalars, the rest have no scalar solution.
    """
    n = rng.randint(10, 60)
    m = rng.randint(n // 3, n)
    constraints = [(rng.sample(range(n), 3), rng.choice((1, -1))) for _ in range(m)]
    return _system_text(_shuffled_labels(rng, n), constraints)


def planted_square_system(rng: random.Random) -> str:
    """1 to 4 relabelled magic squares plus a consistent classical block.

    Every draw has a Pauli solution and none has a scalar one.  Variables,
    constraints and the order within each constraint are shuffled, so the
    solver's free set differs from draw to draw.
    """
    blocks = rng.randint(1, 4)
    n_classical = rng.randint(6, 30)
    n = 9 * blocks + n_classical
    constraints: list[tuple[list[int], int]] = []
    for b in range(blocks):
        for members, rhs in _SQUARE_ROWS:
            constraints.append(([9 * b + v for v in members], rhs))
    base = 9 * blocks
    signs = [rng.choice((1, -1)) for _ in range(n_classical)]
    for _ in range(rng.randint(n_classical // 3, n_classical)):
        members = rng.sample(range(n_classical), 3)
        rhs = signs[members[0]] * signs[members[1]] * signs[members[2]]
        constraints.append(([base + v for v in members], rhs))
    for members, _ in constraints:
        rng.shuffle(members)
    rng.shuffle(constraints)
    return _system_text(_shuffled_labels(rng, n), constraints, rng.sample(range(n), n))


def small_systems(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` (kind, text) pairs, half random parity, half planted."""
    rng = sub_rng(seed, "small")
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(("random", random_parity_system(rng)))
        else:
            out.append(("planted", planted_square_system(rng)))
    return out


WIRING_DEPTH = 4
WIRING_MAX_FAN_IN = 3


def local_wiring(seed: int, sites: int = 512, gates_per_layer: int = 640) -> str:
    """Random neighbour-local wiring in the program's wiring JSON format.

    Each site owns four wires: Alice's input and output bit, Bob's input
    and output bit.  Every gate rewrites one wire in place and reads up to
    two more from its own and the two adjacent sites, so a cone grows by at
    most one site per layer.  Each of the four layers writes distinct
    wires, and its first gate has the full fan-in of 3.
    """
    rng = sub_rng(seed, "wiring")
    wire = lambda s, slot: 4 * s + slot  # noqa: E731 - slot 0/1 Alice in/out, 2/3 Bob in/out
    n_wires = 4 * sites
    kinds = [rng.choice("cq") for _ in range(n_wires)]
    gates = []
    for layer in range(1, WIRING_DEPTH + 1):
        for i, target in enumerate(rng.sample(range(n_wires), gates_per_layer)):
            site = target // 4
            nearby = [wire(s, slot) for s in (site - 1, site, site + 1) if 0 <= s < sites
                      for slot in range(4) if wire(s, slot) != target]
            fan_in = WIRING_MAX_FAN_IN if i == 0 else rng.randint(1, WIRING_MAX_FAN_IN)
            inputs = [target] + rng.sample(nearby, fan_in - 1)
            gates.append({"layer": layer, "inputs": inputs, "outputs": [target], "kind": "gate"})
    return json.dumps({
        "wires": [{"id": i, "kind": k} for i, k in enumerate(kinds)],
        "gates": gates,
        "alice_inputs": [[wire(s, 0)] for s in range(sites)],
        "bob_inputs": [[wire(s, 2)] for s in range(sites)],
        "alice_outputs": [[wire(s, 1)] for s in range(sites)],
        "bob_outputs": [[wire(s, 3)] for s in range(sites)],
    })
