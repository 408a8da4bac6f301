"""Span tracer for the traced benchmark run.

The tracer wraps the public functions listed in ``LAYERS`` from outside the
program: it rebinds every attribute of a ``bcsmagic`` module that refers to
the same function object, which covers ``from .x import f`` imports and the
package's re-exports.  Spans (name, start, end, parent span, op id) stay in
memory and are written out when the run ends.  A function that carries only
a call count gets no span, so its time counts towards its caller's self
time.  A listed function missing from the program is reported as absent.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# "module.function" -> the statistics reported for it.  Functions with no
# time statistic are counted but not timed.
LAYERS: dict[str, tuple[str, ...]] = {
    "gf2.row_reduce": ("calls", "self_s", "rows", "cols", "rank", "zero_row_share"),
    "gf2.solve": ("calls", "self_s"),
    "bcs.eliminate_free_vars": ("calls", "self_s"),
    "bcs.build_sign_system": ("calls", "self_s", "rows", "cols", "zero_rows"),
    "bcs.pauli_solve": ("calls", "self_s"),
    "bcs.verify_certificate": ("calls", "self_s"),
    "bcs.verify_pauli_solution": ("calls", "self_s"),
    "bcs.parse_bcs": ("calls", "self_s"),
    "bcs.serialize_bcs": ("calls", "self_s"),
    "bcs.classical_solve": ("calls", "self_s"),
    "pauli.multiply": ("calls",),
    "pauli.multiply_all": ("calls", "self_s"),
    "pauli.commutes": ("calls",),
    "pauli.to_matrix": ("calls",),
    "game.build_game_bcs": ("calls", "self_s"),
    "game.enumerate_questions": ("calls", "self_s"),
    "quantum.measure_commuting": ("calls", "self_s"),
    "quantum.play_round": ("self_s",),
    "quantum.permutation_solution": ("total_s",),
    "quantum.complete_solution": ("self_s",),
    "quantum.verify_operator_solution": ("self_s",),
    "shallow.random_instance": ("calls", "self_s"),
    "shallow.run_round1": ("calls", "self_s"),
    "shallow.compute_syndrome": ("calls", "self_s"),
    "shallow.frame_state": ("calls", "self_s"),
    "shallow.run_round2": ("calls", "self_s"),
    "shallow.run_sampling_trial": ("calls", "self_s"),
    "shallow.check_relation": ("calls", "self_s"),
    "shallow.forward_lightcone": ("calls", "self_s"),
    "shallow.backward_lightcone": ("calls", "self_s"),
    "shallow.lightcone_disjoint_probability": ("self_s",),
    "shallow.build_strategy_dag": ("self_s",),
    "shallow.dag_from_json": ("self_s",),
    "cli.main": ("self_s",),
    "cli.trial_rng": ("calls", "self_s"),
}

_TIMED = {"self_s", "total_s"}
_SIZE_STATS = {"rows", "cols", "rank", "zero_rows"}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _row_reduce_sizes(args, kwargs, ret) -> dict[str, int]:
    matrix = _first_arg(args, kwargs, "system").matrix
    return {"rows": matrix.rows, "cols": matrix.cols, "rank": len(ret.pivot_cols)}


def _sign_system_sizes(args, kwargs, ret) -> dict[str, int]:
    bits = ret.equations.matrix.bits
    return {"rows": len(bits), "cols": len(ret.unknowns), "zero_rows": bits.count(0)}


# Size counters read from arguments and return values.
SIZERS = {
    "gf2.row_reduce": _row_reduce_sizes,
    "bcs.build_sign_system": _sign_system_sizes,
}


class Tracer:
    """Records spans while ``active``; ``install`` and ``uninstall`` swap the
    wrappers in and out of the program's modules."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.active = False
        self.op = -1
        self.absent: list[str] = []
        self.size_errors: dict[str, str] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.sizes: dict[tuple[int, str], int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bcsmagic" or key.startswith("bcsmagic."))]
        for idx, name in enumerate(self.names):
            module_name, func_name = name.split(".")
            fn = getattr(sys.modules.get(f"bcsmagic.{module_name}"), func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            timed = bool(_TIMED.intersection(LAYERS[name]))
            wrapper = self._span_wrapper(fn, idx) if timed else self._count_wrapper(fn, idx)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._originals.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _count_wrapper(self, fn, idx: int):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, idx: int):
        calls, stack = self.calls, self._stack
        sizer = SIZERS.get(self.names[idx])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[idx] += 1
            span = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            stack.append(span)
            self.span_start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                stack.pop()
            if sizer is not None:
                self._record_sizes(idx, sizer, args, kwargs, ret)
            return ret

        return traced

    def _record_sizes(self, idx, sizer, args, kwargs, ret) -> None:
        try:
            sizes = sizer(args, kwargs, ret)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            # A later program version may reshape these values; report it
            # rather than stop the run.
            self.size_errors[self.names[idx]] = f"{type(exc).__name__}: {exc}"
            return
        for key, value in sizes.items():
            self.sizes[idx, key] = self.sizes.get((idx, key), 0) + value

    # -- aggregation ------------------------------------------------------

    def mark(self) -> int:
        """Start a new aggregation window; returns its first span index."""
        self.calls[:] = [0] * len(self.names)
        self.sizes.clear()
        return len(self.span_name)

    def window_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since ``mark``.

        Self time is a span's duration minus the time its child spans cover.
        """
        n = len(self.span_name) - first_span
        child = [0.0] * n
        duration = [0.0] * n
        for i in range(n):
            s = first_span + i
            duration[i] = self.span_end[s] - self.span_start[s]
            parent = self.span_parent[s]
            if parent >= first_span:
                child[parent - first_span] += duration[i]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(n):
            idx = self.span_name[first_span + i]
            self_s[idx] += duration[i] - child[i]
            total_s[idx] += duration[i]

        metrics: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            for stat in LAYERS[name]:
                if stat == "calls":
                    value = self.calls[idx]
                elif stat == "self_s":
                    value = self_s[idx]
                elif stat == "total_s":
                    value = total_s[idx]
                elif stat in _SIZE_STATS:
                    value = self.sizes.get((idx, stat), 0)
                else:  # zero_row_share
                    rows = self.sizes.get((idx, "rows"), 0)
                    value = (rows - self.sizes.get((idx, "rank"), 0)) / rows if rows else 0.0
                metrics[f"{name}.{stat}"] = value
        return metrics

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, column by column, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, layers=self.names, absent=self.absent, spans={
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        })
        path.write_text(json.dumps(payload))


def layer_metric_units() -> dict[str, str]:
    """Unit of every per-layer metric the tracer reports."""
    units = {"calls": "count", "self_s": "s", "total_s": "s", "zero_row_share": "ratio"}
    return {f"{name}.{stat}": units.get(stat, "count")
            for name, stats in LAYERS.items() for stat in stats}
