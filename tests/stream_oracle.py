"""The trial stream one word at a time, on Python integers mod 2**64.

``quantum.TrialStream`` computes its words with numpy, for a whole chunk of
trials at once.  This module computes the same words one at a time, with
its own SplitMix64 arithmetic, and reads them in the slot layout that
``quantum.play_rounds`` and ``shallow.run_trials`` promise.  ``Draws``
hands a trial's numbers to the one-trial protocol in ``trial_oracle`` in
the order that protocol asks for them, so a loop over the oracle replays
the batched drivers.
"""
from __future__ import annotations

import functools

import numpy as np
from trial_oracle import RelationInstance

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
BELL_SLOT = 8


def mix(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK
    return x ^ (x >> 31)


def seed_key(seed: int) -> int:
    """The seed folded into one word, 64 bits at a time, low bits first."""
    key = GAMMA
    while True:
        key = mix(key ^ (seed & MASK))
        seed >>= 64
        if not seed:
            return key


@functools.lru_cache(maxsize=4096)
def word(seed: int, t: int, s: int) -> int:
    """Trial t's word in slot s: mix(key + (s + 1) gamma), key mix(seed key + (t + 1) gamma)."""
    key = mix((seed_key(seed) + (t + 1) * GAMMA) & MASK)
    return mix((key + (s + 1) * GAMMA) & MASK)


def uniform(w: int) -> float:
    return (w >> 11) * 2.0 ** -53


def below(w: int, n: int) -> int:
    return (w >> 32) * n >> 32


def bell_bit(seed: int, t: int, i: int, layer: int, e: int) -> int:
    """Junction i's round-1 bit (layer, e): 64 junctions to a word, six words
    per 64 junctions."""
    return word(seed, t, BELL_SLOT + 6 * (i // 64) + 2 * layer + e) >> (i % 64) & 1


def play_question(pairs, seed: int, t: int) -> tuple[int, int]:
    return pairs[below(word(seed, t, 0), len(pairs))]


def instance(game, sites, seed: int, t: int) -> RelationInstance:
    """Trial t's instance: the chain length from slot -1 when ``sites`` is a
    (lo, hi) pair, then j, k, alpha and beta from slots 0 to 3."""
    lo, hi = (sites, sites + 1) if isinstance(sites, int) else sites
    n_sites = lo + below(word(seed, t, -1), hi - lo)
    j = 1 + below(word(seed, t, 0), n_sites - 1)
    k = j + 1 + below(word(seed, t, 1), n_sites - j)
    alpha = below(word(seed, t, 2), len(game.bcs.constraints))
    beta = below(word(seed, t, 3), game.bcs.n_vars)
    return RelationInstance(n_sites, game.n, j, k, alpha, beta)


class Draws:
    """A generator stand-in for one trial: ``random`` returns the uniforms of
    ``slots`` in turn, and ``integers(0, 2, size=(m, 3, 2))`` the Bell bits
    of m junctions."""

    def __init__(self, seed: int, t: int, slots) -> None:
        self.seed, self.t = seed, t
        self.slots = iter(slots)

    def random(self) -> float:
        return uniform(word(self.seed, self.t, next(self.slots)))

    def integers(self, low, high=None, size=None):
        if (low, high) != (0, 2) or len(size) != 3 or tuple(size[1:]) != (3, 2):
            raise ValueError("only round 1's Bell bits come from a trial stream")
        return np.array([[[bell_bit(self.seed, self.t, i, layer, e) for e in (0, 1)]
                          for layer in range(3)] for i in range(size[0])])


def play_draws(seed: int, t: int, width: int) -> Draws:
    """A game round's uniforms: Alice's steps from slot 1, then Bob's."""
    return Draws(seed, t, range(1, width + 2))


def trial_draws(seed: int, t: int, width: int) -> Draws:
    """A relation or sampling trial's uniforms: Alice's steps from slot 4,
    Bob's from slot 7."""
    return Draws(seed, t, [*range(4, 4 + width), 7])
