"""Reference kernels that run between the benchmark's ops.

On a shared machine the speed of one core drifts by 20% or more over tens
of seconds, and a whole run can land in a slow or a fast phase.  Much of
the drift is common to the work in the process: over 15-second windows
the program's op times and a fixed kernel's time moved together, and their
ratio stayed within about 4% while each moved by 20% or more.  The
benchmark therefore reports op times also in units of a kernel's time,
measured in the same process over the same stretch of the run.

Work of different kinds slows by different amounts, so each workload has
a kernel shaped like its own work: wide-integer XOR sweeps larger than L2
for ``solve`` (neighbours on the shared L3 slow these most), small complex
matrix products and per-trial generators for ``simulate``, and layered
cone scans over gate objects for ``lightcone``.  No kernel calls the
program, so a change to the program cannot change the unit.
"""
from __future__ import annotations

import functools
import gc
import random
import time
from typing import Callable

import numpy as np

# -- solve: GF(2)-style sweeps over wide integers --------------------------

@functools.cache
def _wide_rows() -> list[int]:
    """8 MB of wide integers, built on first use."""
    return [random.Random(i).getrandbits(12800) for i in range(5000)]


_WIDE_MASK = 1 << 6400
_WIDE_PER_UNIT = 1250
_NARROW = [(i * 2654435761) % (1 << 256) for i in range(1, 160)]


def solve_unit(sweep: int) -> int:
    """A quarter of the wide rows (``sweep`` picks which), then an XOR
    basis of narrow rows."""
    start = (sweep % 4) * _WIDE_PER_UNIT
    acc = 0
    for row in _wide_rows()[start:start + _WIDE_PER_UNIT]:
        if row & _WIDE_MASK:
            acc ^= row
    basis: dict[int, int] = {}
    for row in _NARROW:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return acc.bit_length() + len(basis)


# -- simulate: small dense measurements and per-trial generators ------------

_EYE = np.eye(8)
_OBS = np.diag([1.0, -1.0] * 4).astype(complex)
_STATE = np.eye(8, dtype=complex) / np.sqrt(8)


def simulate_unit(sweep: int) -> float:
    """Projective measurements on an 8x8 amplitude matrix, each trial with
    a fresh counter-based generator."""
    total = 0.0
    for trial in range(6):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(sweep, spawn_key=(trial,))))
        m = _STATE
        for _ in range(3):
            projected = ((_EYE + _OBS) / 2) @ m
            weight = float(np.linalg.norm(projected) ** 2)
            if rng.random() < weight:
                m = projected / np.sqrt(weight)
        total += float(rng.integers(0, 2, size=(4, 3, 2)).sum())
    return total


# -- lightcone: layered scans over gate objects ------------------------------

class _Gate:
    def __init__(self, layer: int, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> None:
        self.layer = layer
        self.inputs = inputs
        self.outputs = outputs


_LIGHTCONE_WIRES = 8000


@functools.cache
def _gates() -> list[_Gate]:
    """10000 gate objects, a few MB, so a scan leaves L2 as the program's do."""
    rng = random.Random(0)
    gates = []
    top = _LIGHTCONE_WIRES - 1
    for layer in range(1, 5):
        for _ in range(2500):
            w = rng.randrange(_LIGHTCONE_WIRES)
            near = [min(top, max(0, w + rng.randint(-6, 6))) for _ in range(rng.randint(0, 2))]
            gates.append(_Gate(layer, (w, *near), (w,)))
    return gates


def lightcone_unit(sweep: int) -> int:
    """A backward cone from one wire: index the gates by layer, then scan
    the layers from the last down."""
    by_layer: dict[int, list[_Gate]] = {}
    for g in _gates():
        by_layer.setdefault(g.layer, []).append(g)
    cone = {(97 * sweep) % _LIGHTCONE_WIRES}
    for layer in range(4, 0, -1):
        for g in by_layer[layer]:
            if cone.intersection(g.outputs):
                cone.update(g.inputs)
    return len(cone)


class ReferenceClock:
    """Samples a kernel between ops, in proportion to the time elapsed
    since the previous sample, so every stretch of the run is weighted by
    its length.  ``unit_s`` is the mean time of one kernel unit."""

    FRACTION = 0.15  # share of the run spent in the kernel
    MIN_GAP_S = 0.25  # no sample until this much time has passed

    def __init__(self, unit: Callable[[int], object]) -> None:
        self.unit = unit
        self.units = 0
        self.seconds = 0.0
        unit(0)  # builds the kernel's data
        start = time.perf_counter()
        for i in range(5):
            unit(i)
        # Sizes each sample only; never part of a result.
        self._nominal_s = (time.perf_counter() - start) / 5
        self._last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        gap = time.perf_counter() - self._last
        if gap < self.MIN_GAP_S and not force:
            return
        count = max(1, round(self.FRACTION * gap / self._nominal_s))
        enabled = gc.isenabled()
        gc.disable()  # the program's live heap must not slow the kernel
        try:
            start = time.perf_counter()
            for i in range(count):
                self.unit(self.units + i)
            self.seconds += time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.units += count
        self._last = time.perf_counter()

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units
