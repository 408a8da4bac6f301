"""Two-round relation problem, its one-round sampling variant, and lightcone
analysis of bounded fan-in circuit wirings.

Sites 1..N each hold three qubit layers on both the Alice and Bob side, with
an EPR pair across every site.  Round 1 swaps entanglement along the chain
between the two selected sites j < k: one Bell measurement per junction and
layer.  Bell outcomes are two bits per measurement; the bit reported at
Bob's qubit of junction i is the X-parity bit r_i^B, the bit at Alice's
qubit of junction i+1 is the Z-parity bit r_{i+1}^A, and logical bit 0 maps
to sign +1 throughout.  The end-to-end pair of layer l is then, up to a
global phase, (Z^za X^xb (x) I) |Phi+> on Alice's side with

    za(l) = parity of r^A_{j+1..k}(l),   xb(l) = parity of r^B_{j..k-1}(l),

so the syndrome products determine the Pauli frame exactly, and Alice's
correction X^xb Z^za restores |Phi+>.  Swapping is simulated analytically
(independent uniform Bell outcomes, frames by parity); the state-vector
oracle in the test suite checks both facts exactly on short chains.

Round 2 plays the complete-graph game on the corrected three-pair state,
which is |Phi+> itself: the 64 frame states and Alice's 64 corrections are
tabulated as signed permutations on first use, keyed by the six frame bits,
and every correction is checked there, once, to restore its frame state.  The
sampling variant plays on the uncorrected frame state and succeeds outright
when every parity is +1, that is at frame key 0, with probability 1/64.
``run_trials`` plays a ``quantum.StrategyStack`` in both, a chunk of
``quantum.TrialStream`` trials per ``quantum.measure_batch`` call, each
chunk one ``Trials`` record of arrays, round 2 judged as a game round.

Circuit wirings are layered gate lists over persistent classical/quantum
wires, held only as a ``_Wiring`` of flat arrays (a rank per gate among the
distinct layers, never the layer itself, CSR inputs and outputs, the site
groups flat), validated and indexed once by ``_circuit_dag``, which every
wiring ends in.  Each check flags every offending edge at once, and a
rejected wiring is named by its first flag.
Lightcones are sparse support propagation: one layered sweep carries the
sorted (wire, seed set) pairs of every cone at once, two array joins a
layer on the wiring's index, so time and memory grow with the total cone
size.  Both directions follow one rule, so each is the exact dual of the
other.  The disjointness probability counts every crossing (j, k) site pair
exactly from one forward sweep seeded with every site's inputs.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .bcs import InvariantError
from .quantum import Rounds, StrategyStack, TrialStream, batches, below, check_playable, phi_plus, uniforms


# ---------------------------------------------------------------------------
# Relation problem
# ---------------------------------------------------------------------------

@dataclass
class Trials(Rounds):
    """Trials' round 2 as ``Rounds``, and per trial its chain length ``N``,
    sites ``j`` < ``k``, index in ``trials``, and whether its frame is clean."""
    N: np.ndarray
    j: np.ndarray
    k: np.ndarray
    trials: np.ndarray
    clean: np.ndarray


@functools.cache
def frame_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 64 frame states and Alice's 64 corrections, by frame key: bit
    2l of a key is layer l's z bit, and bit 2l + 1 its x bit.

    State key is Z^z X^x on every layer's Alice qubit applied to |Phi+> of
    dimension 8, and correction key is X^x Z^z on the same qubits, the
    recovery for the syndrome of that frame.  Both are real signed
    permutations, stored as float64: with layer l as bit 2 - l of a basis
    index (qubit 0 is the leftmost factor), row i holds one entry, in column
    i ^ x, of sign the parity of z & i in a state and of z & (i ^ x) in a
    correction.  ``_check_corrections`` checks them, all 64 at once."""
    keys, rows = np.arange(64)[:, None], np.arange(8)
    z = sum((keys >> 2 * l & 1) << 2 - l for l in range(3))
    x = sum((keys >> 2 * l + 1 & 1) << 2 - l for l in range(3))
    sign = np.array([(-1) ** v.bit_count() for v in range(8)])  # -1 where v has odd parity
    states, corrections = np.zeros((64, 8, 8)), np.zeros((64, 8, 8))
    states[keys, rows, rows ^ x] = sign[z & rows] / np.sqrt(8)
    corrections[keys, rows, rows ^ x] = sign[z & (rows ^ x)]
    _check_corrections(states, corrections)
    states.flags.writeable = False
    corrections.flags.writeable = False
    return states, corrections


def _check_corrections(states: np.ndarray, corrections: np.ndarray) -> None:
    """Each correction applied to its own frame state must give |Phi+> of dimension 8, norm included."""
    fidelity = np.abs(np.trace(corrections @ states, axis1=1, axis2=2)) ** 2 / 8
    off = np.abs(fidelity - 1) > 1e-9
    if np.any(off):
        raise InvariantError(f"correction left fidelity {fidelity[off][0]}")


BELL_SLOT = 8
# 64-junction blocks per trial drawn at once, so a chunk's words take at
# most 6 * 8 bytes per block and trial; a 1,000-site chain needs 16.
KEY_BLOCKS = 64
_LOW_BITS = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)


def _frame_keys(stream: TrialStream, trials: np.ndarray, junctions: np.ndarray) -> np.ndarray:
    """Each trial's frame key from its round-1 Bell outcomes: junction i's
    bit (layer l, e) is bit i mod 64 of slot BELL_SLOT + 6 (i // 64) + 2l + e,
    and key bit 2l + e is their parity, XOR-folded over the trial's words,
    KEY_BLOCKS blocks of 64 junctions at a time."""
    blocks = -(-junctions // 64)
    folded = np.zeros((len(trials), 6), dtype=np.uint64)
    for start in range(0, blocks.max(initial=0), KEY_BLOCKS):
        # A trial past its last block draws one row that its mask clears.
        counts = np.maximum(np.minimum(blocks - start, KEY_BLOCKS), 1)
        owner = np.repeat(np.arange(len(trials)), counts)
        firsts = np.cumsum(counts) - counts
        block = start + np.arange(len(owner)) - firsts[owner]
        words = stream.words(trials[owner, None], BELL_SLOT + 6 * block[:, None] + np.arange(6))
        valid = np.maximum(np.minimum(junctions[owner] - 64 * block, 64), 0)
        folded ^= np.bitwise_xor.reduceat(words & _LOW_BITS[valid][:, None], firsts)
    for shift in (32, 16, 8, 4, 2, 1):
        folded ^= folded >> np.uint64(shift)
    return ((folded & np.uint64(1)).astype(int) << np.arange(6)).sum(axis=1)


def run_trials(stack: StrategyStack, sites: int | tuple[int, int], seed: int, trials: int,
               mode: str = "relation") -> Iterator[Trials]:
    """``trials`` relation or sampling trials of ``stack``, a ``Trials`` per CHUNK.

    Trial t's ``quantum.TrialStream`` slots 0 to 3 draw a uniform instance,
    sites j < k and a question (alpha, beta), beta over every variable;
    slots 4 to 6 are Alice's uniforms, slot 7 Bob's, and round 1's Bell
    outcomes start at ``BELL_SLOT``.  ``sites`` is the chain length, or a
    pair (lo, hi) from which slot -1 draws it.  Round 2 starts from the
    corrected state, |Phi+>, in a relation trial and from the uncorrected
    frame state in a sampling trial, and ``quantum.StrategyStack.measure``
    judges it.  A relation trial holds iff its round is won; a sampling
    trial is case 1 iff clean and won.  Mode, dimension, constraint count
    and width (three per site), sites, trial count and seed are checked when
    this is called; ``quantum.below`` draws exactly only up to 2^32 + 1 sites.
    """
    if mode not in ("relation", "sampling"):
        raise ValueError(f"unknown trial mode {mode!r}")
    if stack.dim != 8:
        raise ValueError("round 2 expects the dimension-8 strategy")
    if stack.members.shape[1] > 3:
        raise ValueError("a site's three layers hold constraints of at most three variables")
    lo, hi = (sites, sites + 1) if isinstance(sites, int) else sites
    if not 2 <= lo < hi <= 2 ** 32 + 2:
        raise ValueError(f"need at least two sites and at most 2^32 + 1, got {sites}")
    check_playable(stack, trials, stack.members, "the strategy's BCS has no constraints")
    stream = TrialStream(seed)

    def generate() -> Iterator[Trials]:
        for chunk in batches(range(trials)):
            chunk = np.array(chunk)
            words = stream.words(chunk[:, None], np.arange(-1, 8))
            n_sites = lo + below(words[:, 0], hi - lo)
            j = 1 + below(words[:, 1], n_sites - 1)
            k = j + 1 + below(words[:, 2], n_sites - j)
            alphas = below(words[:, 3], len(stack.members))
            betas = below(words[:, 4], stack.pad)
            u = uniforms(words[:, 5:])
            keys = _frame_keys(stream, chunk, k - j)
            frames = frame_tables()[0]  # in both modes, for its check: a relation trial starts from |Phi+>
            states = frames[keys] if mode == "sampling" else np.broadcast_to(phi_plus(8), (len(keys), 8, 8))
            rounds = stack.measure(states, alphas, betas, u, u[:, 3])
            yield Trials(rounds.alphas, rounds.betas, rounds.widths, rounds.outcomes, rounds.won,
                         N=n_sites, j=j, k=k, trials=chunk, clean=keys == 0)

    return generate()


# ---------------------------------------------------------------------------
# Circuit wirings and lightcones
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Gate:
    layer: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    kind: str = "gate"


_GROUPS = ("alice_inputs", "bob_inputs", "alice_outputs", "bob_outputs")


class _Wiring(NamedTuple):
    """A wiring as flat arrays: its wire kinds as one string; the distinct
    layers ascending, and per gate, in list order, its layer rank (the index
    of its layer there), kind, and input and output wires as CSR pointers;
    the group count of each list of ``_GROUPS``, and their groups' wires,
    with the group of each.  A wire that is not a plain ``int`` in range is
    -1, kept as written in ``unknown``: inputs', outputs', groups', by position."""
    wire_kinds: str
    layers: list[int]
    rank: np.ndarray
    gate_kinds: list
    in_ptr: np.ndarray
    in_wires: np.ndarray
    out_ptr: np.ndarray
    out_wires: np.ndarray
    counts: tuple[int, ...]
    site_wires: np.ndarray
    site_owner: np.ndarray
    unknown: tuple[dict, dict, dict] = ({}, {}, {})


def _wiring_of(wire_kinds, layers: list, inputs: list, outputs: list, gate_kinds: list, sites) -> _Wiring:
    """The flat form of a wiring given as a kind per wire, gate columns and
    the four site-group lists; ValueError names the first wire kind that is
    not 'c' or 'q', else the first layer that is not a plain ``int`` from 1,
    else the first gate inputs, outputs or site group not a collection."""
    if wire_kinds.count("c") + wire_kinds.count("q") != len(wire_kinds):
        w = next(w for w, kind in enumerate(wire_kinds) if kind not in ("c", "q"))
        raise ValueError(f"wire {w} has kind {wire_kinds[w]!r}, not 'c' or 'q'")
    if not set(map(type, layers)) <= {int} or min(layers, default=1) < 1:
        bad = next(layer for layer in layers if type(layer) is not int or layer < 1)
        raise ValueError(f"gate layers are integers from 1, got {bad!r}")
    for what, column in {"gate {} has inputs": inputs, "gate {} has outputs": outputs,
                         **{f"{name} group {{}} is": groups for name, groups in zip(_GROUPS, sites)}}.items():
        if not all(issubclass(kind, Collection) for kind in set(map(type, column))):
            i, bad = next((i, value) for i, value in enumerate(column) if not isinstance(value, Collection))
            raise ValueError(f"{what.format(i)} {bad!r}, not a list of wires")
    unknown = ({}, {}, {})
    flat = [_flatten(groups, len(wire_kinds), kept)
            for groups, kept in zip((inputs, outputs, [*chain.from_iterable(sites)]), unknown)]
    # Ranks, not layers, enter the arrays: a layer may pass any int64.
    distinct = sorted(set(layers))
    rank = dict(zip(distinct, range(len(distinct))))
    ranks = np.fromiter(map(rank.__getitem__, layers), np.int64, len(layers))
    csr = [(np.searchsorted(owner, np.arange(len(layers) + 1)), wires) for wires, owner in flat[:2]]
    return _Wiring("".join(wire_kinds), distinct, ranks, gate_kinds, *csr[0], *csr[1], tuple(map(len, sites)),
                   *flat[2], unknown)


def _layer_index(wiring: _Wiring, n_wires: int, dtype) -> list:
    """Both sides of each layer as ``_sweep`` reads them: CSR pointers by
    gate, the wires in gate order, and the same edges sorted by wire, with
    their gates, numbered within the layer in list order.  ValueError names
    the first edge, layer by layer, gate by gate in list order, inputs
    before outputs, whose wire is out of range, written twice in the layer,
    or read, in the layer that first writes it other than as a transform,
    by a gate after that writer."""
    n_gates = len(wiring.rank)
    by_layer = np.argsort(wiring.rank, kind="stable")
    bounds = np.searchsorted(wiring.rank[by_layer], np.arange(len(wiring.layers) + 1)).tolist()
    csr = ((wiring.in_ptr, wiring.in_wires), (wiring.out_ptr, wiring.out_wires))
    sides, bad = [], []
    for ptr, wires in csr:
        # Edges in layer order, each with its gate's position in that order;
        # every wire out of range becomes wire n_wires, which no other meets.
        counts = np.diff(ptr)[by_layer]
        wires = wires[_ranges(ptr[:-1][by_layer], counts)].astype(dtype)
        bad.append((wires < 0) | (wires >= n_wires))
        wires[bad[-1]] = n_wires
        gates = np.repeat(np.arange(n_gates, dtype=dtype), counts)
        sides.append((np.concatenate(([0], np.cumsum(counts))), wires, gates))
    bad[0] |= _read_before_produced(*sides[0][1:], *sides[1][1:], np.repeat(bounds[:-1], np.diff(bounds)), n_wires)
    index = []
    for g0, g1 in zip(bounds, bounds[1:]):
        layer = []
        for ptr, wires, gate in sides:
            e0, e1 = ptr[g0], ptr[g1]
            order = np.argsort(wires[e0:e1], kind="stable")
            layer.append(((ptr[g0:g1 + 1] - e0).astype(dtype), wires[e0:e1],
                          wires[e0:e1][order], gate[e0:e1][order] - g0))
        # The outputs' e0 and order, the inner loop's last: in the stable
        # sort, a wire's later writes in the layer follow its first.
        written = layer[1][2]
        bad[1][e0 + order[1:][written[1:] == written[:-1]]] = True
        index.append(tuple(layer))
    firsts = [(sides[s][2][e], s, e) for s in (0, 1) for e in np.flatnonzero(bad[s])[:1]]
    if firsts:
        gate, s, e = min(firsts)  # the earlier gate's, or its inputs' on a tie
        ptr, wires = csr[s]
        edge = int(ptr[by_layer[gate]] + e - sides[s][0][gate])
        w = wiring.unknown[s].get(edge, int(wires[edge]))
        if type(w) is not int or not 0 <= w < n_wires:
            raise ValueError(f"gate {('reads', 'writes')[s]} unknown wire {w!r}")
        layer = wiring.layers[wiring.rank[by_layer[gate]]]
        raise ValueError(f"wire {w} written twice in layer {layer}" if s else
                         f"wire {w} read at layer {layer} before it is produced")
    return index


def _read_before_produced(read, reader, written, writer, starts: np.ndarray, n_wires: int) -> np.ndarray:
    """Which reads are of a wire that an earlier gate of the reader's layer
    wrote, not as a transform, when no earlier layer did: edges are (wire,
    gate) columns, wires from 0 to ``n_wires`` (which stands for any wire
    out of range), gates numbered in layer order, ``starts[g]`` the first
    gate of g's layer.  A write is a transform when its gate also reads the
    wire."""
    pairs = np.sort(np.append(reader.astype(np.int64) * (n_wires + 1) + read, -1))
    keys = writer.astype(np.int64) * (n_wires + 1) + written
    produced = pairs[np.searchsorted(pairs, keys, "right") - 1] != keys
    # Each wire's first write that is not a transform, by gate.
    wire, first = np.unique(written[produced], return_index=True)
    producer = np.full(n_wires + 1, len(starts), reader.dtype)
    producer[wire] = writer[produced][first]
    early = producer[read]
    return (starts[reader] <= early) & (early < reader)


class CircuitDag:
    """A layered gate list over persistent classical/quantum wires, with
    each site's input and output wire groups on Alice's and Bob's side.

    ``CircuitDag(wire_kinds, gates, alice_inputs, bob_inputs, alice_outputs,
    bob_outputs)`` takes "c" or "q" per wire id, ``Gate`` objects and one
    group per site in each list, and keeps them only as a ``_Wiring``,
    validated and indexed once.  ``wire_kinds``, ``gates`` (made on first
    read) and the four lists read back from it as tuples, so an edited
    wiring is a new ``CircuitDag``.

    Layers and wire ids must be plain ``int`` (not bool or float), and gate
    kinds strings.  Each array check flags its offenders, and ValueError
    names the first: wire kinds, layers in list order, non-collection wire
    groups, each layer's edges (``_layer_index``), site groups, gate kinds.

    Within a layer, gates are read in list order: a gate may not read a
    wire that an earlier gate of the same layer produced, unless that gate
    also read it (a transform).  So ``[Gate(1, (1,), (2,)), Gate(1, (0,),
    (1,))]`` is valid, and the same two gates in the other order are not.
    List order matters to validation only: lightcones see each layer as it
    stood before it.
    """

    def __new__(cls, wire_kinds, gates, alice_inputs=(), bob_inputs=(), alice_outputs=(), bob_outputs=()):
        columns = (list(map(attrgetter(name), gates)) for name in ("layer", "inputs", "outputs", "kind"))
        return _circuit_dag(_wiring_of(wire_kinds, *columns, (alice_inputs, bob_inputs, alice_outputs, bob_outputs)))

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        w = self._wiring
        # One int object per wire id, shared by every gate that names it.
        ids = np.array(range(max(w.in_wires.max(initial=0), w.out_wires.max(initial=0)) + 1), dtype=object)
        ins, outs = ([tuple(wires[a:b]) for a, b in zip(ptr, ptr[1:])]
                     for ptr, wires in ((w.in_ptr.tolist(), ids[w.in_wires].tolist()),
                                        (w.out_ptr.tolist(), ids[w.out_wires].tolist())))
        return tuple(map(Gate, map(w.layers.__getitem__, w.rank.tolist()), ins, outs, w.gate_kinds))

    def _list(self, k: int) -> tuple[tuple[int, ...], ...]:
        bounds = np.searchsorted(self._wiring.site_owner, np.arange(k * self.n_sites, (k + 1) * self.n_sites + 1))
        wires = self._wiring.site_wires.tolist()
        return tuple(tuple(wires[a:b]) for a, b in zip(bounds.tolist(), bounds[1:].tolist()))

    wire_kinds = property(lambda self: tuple(self._wiring.wire_kinds))
    alice_inputs = property(lambda self: self._list(0))
    bob_inputs = property(lambda self: self._list(1))
    alice_outputs = property(lambda self: self._list(2))
    bob_outputs = property(lambda self: self._list(3))

    def to_json(self) -> str:
        return json.dumps(
            {
                "wires": [{"id": i, "kind": k} for i, k in enumerate(self._wiring.wire_kinds)],
                "gates": [
                    {"layer": g.layer, "inputs": list(g.inputs), "outputs": list(g.outputs), "kind": g.kind}
                    for g in self.gates
                ],
                **{name: getattr(self, name) for name in _GROUPS},
            }
        )


def _circuit_dag(wiring: _Wiring) -> CircuitDag:
    """The constructor every wiring ends in: it checks each layer's edges
    (``_layer_index``), the site groups, then the gate kinds, and keeps the
    index, the input and the output groups flat, each Bob's after Alice's,
    the site of each output wire on each side (-1 if none), and the sizes."""
    n_wires = len(wiring.wire_kinds)
    dtype = np.int32 if n_wires < 2 ** 31 else np.int64
    index = _layer_index(wiring, n_wires, dtype)
    if len(set(wiring.counts)) > 1:
        raise ValueError("Alice's and Bob's input and output lists need one group per site")
    if wiring.unknown[2]:
        raise ValueError(f"site group names unknown wire {next(iter(wiring.unknown[2].values()))!r}")
    n_sites = wiring.counts[0]
    wires, owner = wiring.site_wires.astype(dtype, copy=False), wiring.site_owner.astype(dtype, copy=False)
    split = np.searchsorted(owner, 2 * n_sites)
    inputs, outputs = (wires[:split], owner[:split]), (wires[split:], owner[split:] - 2 * n_sites)
    # A shared output wire would credit a crossing to two sites at once:
    # one of its groups' sites is kept, and another does not read back.
    # Named is the first entry not to read back its wire's first site.
    output_sites = np.full((2, n_wires), -1, dtype)
    split = np.searchsorted(outputs[1], n_sites)
    for i, (side, part) in enumerate(zip(("Alice", "Bob"), (slice(split), slice(split, None)))):
        wires, owner = outputs[0][part], outputs[1][part] - i * n_sites
        output_sites[i, wires] = owner
        if np.any(output_sites[i, wires] != owner):
            wire, first = np.unique(wires, return_index=True)
            output_sites[i, wire] = owner[first]
            e = np.argmax(output_sites[i, wires] != owner)
            raise ValueError(f"wire {wires[e]} is in {side}'s output groups of sites "
                             f"{output_sites[i, wires[e]]} and {owner[e]}")
    try:
        "".join(wiring.gate_kinds)  # a TypeError at any kind that is not a string
    except TypeError:
        i = next(i for i, kind in enumerate(wiring.gate_kinds) if not isinstance(kind, str))
        raise ValueError(f"gate {i} has kind {wiring.gate_kinds[i]!r}, not a string") from None
    dag = object.__new__(CircuitDag)
    dag._wiring, dag._index, dag._inputs, dag._outputs, dag._output_sites = wiring, index, inputs, outputs, output_sites
    dag.n_wires, dag.n_sites, dag.n_gates = n_wires, n_sites, len(wiring.rank)
    dag.depth, dag.max_fan_in = max(wiring.layers, default=0), int(np.diff(wiring.in_ptr).max(initial=0))
    return dag


def _json_columns(items: list, what: str, keys: tuple[str, ...]) -> list[list]:
    try:
        return [[item[key] for item in items] for key in keys]
    except (KeyError, TypeError):
        raise ValueError(f"{what} must be a JSON object with {', '.join(keys)}") from None


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def dag_from_json(text: str) -> CircuitDag:
    """Parse a wiring straight into ``_Wiring`` arrays, with no ``Gate``;
    malformed or inconsistent input raises ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("the wiring JSON nests too deeply") from None
    (wires,), (gates,) = _json_columns([payload], "a wiring", ("wires", "gates"))
    ids, kinds = _json_columns(_json_list(wires, "wires"), "each wire", ("id", "kind"))
    if not set(map(type, ids)) <= {int} or sorted(ids) != list(range(len(ids))):
        raise ValueError("wire ids must be the integers 0..n-1, each once")
    kinds = [kind for _, kind in sorted(zip(ids, kinds))]
    gates = _json_list(gates, "gates")
    try:
        layers, inputs, outputs = _json_columns(gates, "each gate", ("layer", "inputs", "outputs"))
        if not set(map(type, chain(inputs, outputs))) <= {list}:
            raise ValueError
    except ValueError:  # name the first malformed gate, in file order
        for g in gates:
            _json_columns([g], "each gate", ("layer", "inputs", "outputs"))
            _json_list(g["inputs"], "gate inputs"), _json_list(g["outputs"], "gate outputs")
    gate_kinds = [g.get("kind", "gate") for g in gates]
    lists = [[_json_list(group, f"each group of {name}") for group in _json_list(payload.get(name, []), name)]
             for name in _GROUPS]
    # ``_wiring_of`` checks the wire kinds, then the layers, as for a gate list.
    return _circuit_dag(_wiring_of(kinds, layers, inputs, outputs, gate_kinds, lists))


def _flatten(groups, n_wires: int, unknown: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every group's wires in one int64 array, and the group of each.  A
    wire that is not a plain ``int`` in range raises ValueError or, given an
    ``unknown`` dict, is -1 in the array and kept there as written, by position."""
    flat = list(chain.from_iterable(groups))
    if not set(map(type, flat)) <= {int} or flat and not 0 <= min(flat) <= max(flat) < n_wires:
        bad = {i: w for i, w in enumerate(flat) if type(w) is not int or not 0 <= w < n_wires}
        if unknown is None:
            raise ValueError(f"unknown wire {next(iter(bad.values()))!r}")
        unknown.update(bad)
        flat = [-1 if i in bad else w for i, w in enumerate(flat)]
    sizes = list(map(len, groups))
    return np.array(flat, dtype=np.int64), np.repeat(np.arange(len(sizes)), sizes)


def _unique(keys: np.ndarray) -> np.ndarray:
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))[:len(keys)]]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for every i, in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _sweep(dag: CircuitDag, wires, owner, n_seeds: int, forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """The wire and seed columns of every pair (w, q), sorted, with wire w in
    the cone of group q of ``n_seeds``, the groups given flat (``_flatten``);
    pairs travel as int64 keys w << bits | q, joined a layer at a time to
    (gate, q) and then to (written wire, q) on the wiring's index.

    Every gate of a layer fires on the cones as they stood before that
    layer.  Forward, a gate that reads a cone wire adds its outputs;
    backward, layers run from the deepest, and a gate that writes a cone
    wire adds its inputs.  So each direction is the exact dual of the other.
    """
    n_wires, bits = dag.n_wires, max(n_seeds - 1, 0).bit_length()
    if n_wires << bits > np.iinfo(np.int64).max:
        raise ValueError(f"{n_wires} wires by {n_seeds} seed groups do not fit one int64 key")
    keys = _unique(wires.astype(np.int64) << bits | owner)
    for layer in dag._index if forward else reversed(dag._index):
        (_, _, read_wires, read_gates), (ptr, writes, _, _) = layer if forward else layer[::-1]
        # The pairs of read wire u are the keys in [u << bits, u + 1 << bits).
        first = read_wires.astype(np.int64) << bits
        lo = np.searchsorted(keys, first)
        hits = np.searchsorted(keys, first + (1 << bits)) - lo
        seed = keys[_ranges(lo, hits)] - np.repeat(first, hits)
        fired = _unique(np.repeat(read_gates, hits).astype(np.int64) << bits | seed)
        gate, seed = fired >> bits, fired & (1 << bits) - 1
        counts = ptr[gate + 1] - ptr[gate]
        written = writes[_ranges(ptr[gate], counts)].astype(np.int64)
        keys = _unique(np.concatenate((keys, written << bits | np.repeat(seed, counts))))
    return keys >> bits, keys & (1 << bits) - 1


def _one_cone(dag: CircuitDag, wires, forward: bool) -> set[int]:
    seeds = _flatten([[wires] if isinstance(wires, int) else list(wires)], dag.n_wires)
    return set(_sweep(dag, *seeds, 1, forward)[0].tolist())


def forward_lightcone(dag: CircuitDag, wires) -> set[int]:
    """Wires that the seed set can influence, by layerwise support growth;
    a gate fires on the cone as it stood at the start of its layer."""
    return _one_cone(dag, wires, forward=True)


def backward_lightcone(dag: CircuitDag, wires) -> set[int]:
    """Wires the outputs O may depend on, the wires whose forward cone meets
    O; at most |O| (K + 1)^D of them, since the gates a layer fires write
    distinct cone wires and each adds at most K inputs."""
    return _one_cone(dag, wires, forward=False)


def backward_cone_sizes(dag: CircuitDag, groups=None) -> list[int]:
    """Size of the backward lightcone of every wire group, from one sweep;
    by default the wiring's output groups, Alice's then Bob's."""
    n = 2 * dag.n_sites if groups is None else len(groups)
    seed = _sweep(dag, *dag._outputs if groups is None else _flatten(groups, dag.n_wires), n, False)[1]
    return np.bincount(seed, minlength=n).tolist()


def lightcone_disjoint_probability(dag: CircuitDag) -> float:
    """Exact probability over uniform site pairs j < k that neither selected
    input's forward cone reaches the other side's selected output bits."""
    sites = dag.n_sites
    if sites < 2:
        raise ValueError("need at least two sites")
    # Seed j is Alice's input at site j, seed sites + k Bob's at site k, and
    # alice[w] (bob[w]) is the site of w among Alice's (Bob's) outputs, or -1.
    wire, seed = _sweep(dag, *dag._inputs, 2 * sites, forward=True)
    alice, bob = dag._output_sites
    from_alice = seed < sites
    j = np.where(from_alice, seed, alice[wire])
    k = np.where(from_alice, bob[wire], seed - sites)
    crossing = (0 <= j) & (j < k)
    bad = len(_unique(j[crossing] * sites + k[crossing]))
    return 1.0 - bad / (sites * (sites - 1) // 2)


def depth_lower_bound(N: int, K: int, p_clif: float) -> float:
    """Depth any bounded fan-in magic-free circuit needs before its success
    probability on the relation problem can exceed (1 + p_clif)/2."""
    if K < 2:
        raise ValueError("fan-in bound must be at least 2")
    return (math.log(N) + math.log((1 - p_clif) / 96)) / math.log(K)


# ---------------------------------------------------------------------------
# The constant-depth strategy wiring
# ---------------------------------------------------------------------------

QUESTION_BITS = 11  # enough to index the modified game's constraints, or its variables, plus a null marker


def build_strategy_dag(N: int) -> CircuitDag:
    """Abstract wiring of the swap-and-play strategy on N site pairs, laid
    out for the dimension-8 strategy.

    Gate arities follow the strategy's needs: EPR preparation touches 2
    qubits; a Bell measurement reads one null-input flag and 2 qubits; the
    frame correction reads 2 syndrome bits and 1 qubit; the game measurement
    reads an 11-bit question and 3 qubits, which is the maximal fan-in, 14.
    Question decoding and output selection are constant-size classical
    gates.  The depth never depends on N.  Each role's wires are one block
    of consecutive ids, a row per site, the roles in the order listed below.
    """
    if N < 2:
        raise ValueError("need at least two sites")
    return _circuit_dag(_strategy_layout(N))


def _strategy_layout(N: int) -> _Wiring:
    """The strategy wiring, laid out as arrays from its role rows."""
    # (kind, width) of each role: syndrome, both questions, both qubit triples,
    # both null flags, r^B at junction site i, r^A at site i+1, both game
    # outcomes and both output triples.
    roles = [("c", 6), *[("c", QUESTION_BITS)] * 2, *[("q", 3)] * 2, *[("c", 1)] * 2, *[("c", 3)] * 6]
    kinds = ""
    rows = []
    for kind, width in roles:
        rows.append(np.arange(len(kinds), len(kinds) + N * width).reshape(N, width))
        kinds += kind * (N * width)
    syndrome, alice_q_in, bob_q_in, qa, qb, flag_a, flag_b, bsm_b, bsm_a, game_a, game_b, out_a, out_b = rows

    # Each layer's gates in list order, as rows of input and output wires
    # padded with -1, and the kinds of a site's gates: per site, both
    # decodes and the three EPR preparations; per junction and qubit layer,
    # a Bell measurement; per site and qubit layer, a correction; per site,
    # both game measurements; per site and qubit layer, both selections.
    pairs = np.stack([qa, qb], axis=2)
    decode_in, decode_out = np.full((N, 5, QUESTION_BITS), -1), np.full((N, 5, 2), -1)
    decode_in[:, 0], decode_in[:, 1], decode_in[:, 2:, :2] = alice_q_in, bob_q_in, pairs
    decode_out[:, 0, :1], decode_out[:, 1, :1], decode_out[:, 2:] = flag_a, flag_b, pairs
    before, after = bsm_a.copy(), bsm_b.copy()
    before[0] = after[-1] = -1  # no junction before site 0 or after site N - 1
    layers = [
        (["decode", "decode", *["epr_prep"] * 3], decode_in, decode_out),
        (["bsm"], np.stack(np.broadcast_arrays(flag_b[:-1], qb[:-1], qa[1:]), axis=2),
         np.stack([bsm_b[:-1], bsm_a[1:]], axis=2)),
        (["correction"], np.concatenate([syndrome.reshape(N, 3, 2), qa[..., None]], axis=2), qa[..., None]),
        (["game_measure"], np.stack([np.hstack([alice_q_in, qa]), np.hstack([bob_q_in, qb])], axis=1),
         np.stack([game_a, game_b], axis=1)),
        (["select"], np.stack([np.stack(np.broadcast_arrays(flag_a, game_a, before), axis=2),
                               np.stack(np.broadcast_arrays(flag_b, game_b, after), axis=2)], axis=2),
         np.stack([out_a, out_b], axis=2)[..., None]),
    ]
    blocks = [[side.reshape(-1, side.shape[-1]) for side in layer[1:]] for layer in layers]
    csr = []
    for side in zip(*blocks):
        counts = np.concatenate([(b >= 0).sum(axis=1) for b in side])
        csr += [np.concatenate(([0], np.cumsum(counts))), np.concatenate([b[b >= 0] for b in side])]
    sizes = [len(ins) for ins, _ in blocks]
    gate_kinds = [kind for (pattern, *_), size in zip(layers, sizes)
                  for kind in pattern * (size // len(pattern))]
    groups = (np.hstack([syndrome, alice_q_in]), bob_q_in, out_a, out_b)
    dtype = np.int32 if len(kinds) < 2 ** 31 else np.int64
    return _Wiring(kinds, [1, 2, 3, 4, 5], np.repeat(np.arange(5), sizes), gate_kinds, *csr, (N,) * 4,
                   np.concatenate([rows.ravel() for rows in groups], dtype=dtype),
                   np.repeat(np.arange(4 * N, dtype=dtype), np.repeat([rows.shape[1] for rows in groups], N)))
