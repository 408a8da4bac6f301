"""Per-seed lightcone reference for the sparse (wire, seed) sweep in ``shallow``.

Each forward cone is grown from one seed set at a time, with plain Python
sets: every gate of a layer fires on the cone as it stood at the start of
that layer.  There is no backward rule: backward cones come from the
forward cone of every wire, by duality, since wire i may influence the
outputs O exactly when its forward cone meets O.  The disjointness
probability collects crossing site pairs into a set.  Slow (O(wires x
gates)) and obviously correct; the tests compare the fast path against it.

``validate`` is the wiring validation as one loop over plain Python
objects, in the order the checks are named, the judge of the array checks.
"""
from __future__ import annotations


def _seed(dag, wires) -> set[int]:
    seed = {wires} if isinstance(wires, int) else set(wires)
    for w in seed:
        if not 0 <= w < len(dag.wire_kinds):
            raise ValueError(f"unknown wire {w}")
    return seed


def _depth(dag) -> int:
    return max((g.layer for g in dag.gates), default=0)


def forward_lightcone(dag, wires) -> set[int]:
    cone = _seed(dag, wires)
    readers: dict[int, list[int]] = {}
    for gid, g in enumerate(dag.gates):
        for w in g.inputs:
            readers.setdefault(w, []).append(gid)
    for layer in range(1, _depth(dag) + 1):
        fired = {
            gid
            for w in cone
            for gid in readers.get(w, [])
            if dag.gates[gid].layer == layer
        }
        for gid in fired:
            cone.update(dag.gates[gid].outputs)
    return cone


def backward_lightcones(dag, groups) -> list[set[int]]:
    """The backward cone of each wire group: the wires whose forward cone
    meets it."""
    groups = [_seed(dag, group) for group in groups]
    cones = [forward_lightcone(dag, i) for i in range(len(dag.wire_kinds))]
    return [{i for i, cone in enumerate(cones) if not cone.isdisjoint(group)} for group in groups]


def lightcone_disjoint_probability(dag) -> float:
    sites = dag.n_sites
    site_of_bob_out = {w: s for s, group in enumerate(dag.bob_outputs) for w in group}
    site_of_alice_out = {w: s for s, group in enumerate(dag.alice_outputs) for w in group}

    bad_from_alice: list[set[int]] = []
    for s in range(sites):
        cone = forward_lightcone(dag, dag.alice_inputs[s])
        bad_from_alice.append({site_of_bob_out[w] for w in cone if w in site_of_bob_out})
    bad_from_bob: list[set[int]] = []
    for s in range(sites):
        cone = forward_lightcone(dag, dag.bob_inputs[s])
        bad_from_bob.append({site_of_alice_out[w] for w in cone if w in site_of_alice_out})

    bad_pairs = set()
    for j in range(sites):
        for k in bad_from_alice[j]:
            if k > j:
                bad_pairs.add((j, k))
    for k in range(sites):
        for j in bad_from_bob[k]:
            if j < k:
                bad_pairs.add((j, k))
    total = sites * (sites - 1) // 2
    return 1.0 - len(bad_pairs) / total


def validate(wire_kinds, gates, alice_inputs, bob_inputs, alice_outputs, bob_outputs) -> tuple[int, int]:
    """(depth, max fan-in) of a valid wiring; the first fault of any other
    raises ValueError, with the message the library gives it."""
    n_wires = len(wire_kinds)
    for w, kind in enumerate(wire_kinds):
        if kind not in ("c", "q"):
            raise ValueError(f"wire {w} has kind {kind!r}, not 'c' or 'q'")
    layers: dict[int, list] = {}
    for g in gates:
        if type(g.layer) is not int or g.layer < 1:
            raise ValueError(f"gate layers are integers from 1, got {g.layer!r}")
        layers.setdefault(g.layer, []).append(g)
    produced_at: dict[int, int] = {}
    for layer in sorted(layers):
        written = set()
        for g in layers[layer]:
            for w in g.inputs:
                if type(w) is not int or not 0 <= w < n_wires:
                    raise ValueError(f"gate reads unknown wire {w!r}")
                if produced_at.get(w) == layer:
                    raise ValueError(f"wire {w} read at layer {layer} before it is produced")
            for w in g.outputs:
                if type(w) is not int or not 0 <= w < n_wires:
                    raise ValueError(f"gate writes unknown wire {w!r}")
                if w in written:
                    raise ValueError(f"wire {w} written twice in layer {layer}")
                written.add(w)
                if w not in g.inputs:  # a transform does not produce its wire
                    produced_at.setdefault(w, layer)
    sides = (alice_inputs, bob_inputs, alice_outputs, bob_outputs)
    if len({len(groups) for groups in sides}) > 1:
        raise ValueError("Alice's and Bob's input and output lists need one group per site")
    for groups in sides:
        for group in groups:
            for w in group:
                if type(w) is not int or not 0 <= w < n_wires:
                    raise ValueError(f"site group names unknown wire {w!r}")
    for side, groups in (("Alice", alice_outputs), ("Bob", bob_outputs)):
        site_of: dict[int, int] = {}
        for s, group in enumerate(groups):
            for w in group:
                if site_of.setdefault(w, s) != s:
                    raise ValueError(f"wire {w} is in {side}'s output groups of sites {site_of[w]} and {s}")
    for i, g in enumerate(gates):
        if not isinstance(g.kind, str):
            raise ValueError(f"gate {i} has kind {g.kind!r}, not a string")
    return max(layers, default=0), max((len(g.inputs) for g in gates), default=0)
