"""Benchmark for bcsmagic: drives the program's CLI and library from outside.

    python3 bench/run.py --workload {solve,simulate,lightcone} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of the
tree this file sits in.  Each workload is a closed loop with one client: a
fixed list of ops (CLI invocations through ``bcsmagic.cli.main`` with
stdout captured, or library calls), each sent after the previous one
returns.  The list is repeated as whole passes until ``--seconds`` is used
up.  Only the op itself is timed; its output check runs after it.  Between
ops a reference kernel shaped like the workload runs (``reference.py``), and
the gated timings are given in units of its time as well as in seconds.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
is a detailed report: the workload's named metrics, failures, the
environment and, when tracing, the tracing overhead and absent functions.
See NOTES.md for why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import inputs
import reference
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One request of the closed loop: ``run`` is timed, ``check`` is not."""
    name: str
    part: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    before: Callable[[], None] | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def invoke(argv: list[str]) -> CliResult:
    """``bcsmagic.cli.main(argv)`` in-process, with both streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_mod.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


class OnceChecker:
    """Runs a check once per distinct (check, inputs, output) and remembers
    passes, so repeated passes over identical bytes do not repeat costly
    verification.  Failures are never remembered."""

    def __init__(self) -> None:
        self._passed: set[tuple] = set()

    def __call__(self, check: Callable[..., None], *args) -> None:
        key = (check.__name__,) + tuple(
            hashlib.sha256(a.encode()).digest() if isinstance(a, str) else repr(a) for a in args
        )
        if key not in self._passed:
            check(*args)
            self._passed.add(key)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SolveWorkload:
    """gf2 elimination and the bcs sign-system and certificate code, at three
    working-set sizes: game family n <= 8, the n = 9 and 10 games, and 1000
    small systems through the library."""

    SMALL_SYSTEMS = 1000
    reference_unit = staticmethod(reference.solve_unit)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        self.once = OnceChecker()
        (workdir / "magic_square.bcs").write_text(inputs.MAGIC_SQUARE)
        (workdir / "chsh.bcs").write_text(inputs.CHSH)
        self.small = inputs.small_systems(seed, self.SMALL_SYSTEMS)

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        for n, expected in ((4, 0), (5, 0), (6, 3), (7, 0), (8, 3)):
            ops += self._gen_and_solve("family", n, False, expected)
        ops += self._gen_and_solve("family", 8, True, 3)
        ops.append(self._solve("family", self.dir / "game8.bcs", 3, mode="classical"))
        ops.append(self._solve("family", self.dir / "magic_square.bcs", 0))
        ops.append(self._solve("family", self.dir / "chsh.bcs", 3, rows=[0, 1]))
        for n, expected in ((9, 0), (10, 3)):
            ops += self._gen_and_solve("large", n, False, expected)
        ops += [self._small(i, kind, text) for i, (kind, text) in enumerate(self.small)]
        return ops

    def _gen_and_solve(self, part: str, n: int, modified: bool, expected: int) -> list[Op]:
        path = self.dir / f"game{n}{'m' if modified else ''}.bcs"
        argv = ["gen", "--n", str(n), "--out", str(path)] + (["--modified"] if modified else [])
        gen = Op(f"gen {path.name}", part, lambda: invoke(argv),
                 lambda r: checks.check_exit(r.code, 0, r.stderr),
                 lambda: path.unlink(missing_ok=True))
        return [gen, self._solve(part, path, expected)]

    def _solve(self, part: str, path: Path, expected: int, mode: str = "pauli",
               rows: list[int] | None = None) -> Op:
        out = path.with_name(f"{path.stem}.{mode}.out")
        argv = ["solve", str(path), "--mode", mode, "--out", str(out)]

        def check(r: CliResult) -> None:
            checks.check_exit(r.code, expected, r.stderr)
            checks.require(out.is_file(), f"solve wrote no {out.name}")
            bcs_text, out_text = path.read_text(), out.read_text()
            if expected == 0:
                self.once(checks.check_pauli_solution, bcs_text, out_text)
            elif mode == "classical":
                self.once(checks.check_classical_certificate, bcs_text, out_text)
            else:
                self.once(checks.check_pauli_certificate, bcs_text, out_text, rows)

        return Op(f"solve {path.name} {mode}", part, lambda: invoke(argv), check,
                  lambda: out.unlink(missing_ok=True))

    def _small(self, i: int, kind: str, text: str) -> Op:
        def run():
            system = bcs_mod.parse_bcs(text)
            result = bcs_mod.pauli_solve(system)
            if isinstance(result, bcs_mod.Certificate):
                payload = {
                    "mode": "pauli",
                    "constraint_rows": list(result.constraint_rows),
                    "commutation_rows": [list(p) for p in result.commutation_rows],
                    "derived_relation": list(result.derived_relation),
                }
                return bcs_mod.verify_certificate(system, result), True, json.dumps(payload)
            report = bcs_mod.verify_pauli_solution(system, result)
            return report.ok, False, bcs_mod.serialize_solution(system, result)

        def check(result) -> None:
            verified, is_certificate, output = result
            self.once(checks.check_small, kind, text, verified, is_certificate, output)

        return Op(f"small {i} {kind}", "small", run, check)

    @staticmethod
    def named_metrics(summary: Summary) -> dict:
        small = summary.samples["small"]
        return {
            "solve_family_s": (summary.part_s["family"], "s"),
            "solve_large_s": (summary.part_s["large"], "s"),
            "solve_small_p50_ms": (1e3 * statistics.median(small), "ms"),
            "solve_small_p99_ms": (1e3 * statistics.quantiles(small, n=100)[98], "ms"),
            "solve_small_samples": (len(small), "count"),
        }


class SimulateWorkload:
    """Dense-operator measurement (quantum.measure_commuting), per-trial
    generators (cli.trial_rng) and shallow frame construction, at operator
    dimensions 8, 4 and 1."""

    PLAY_TRIALS = 3000
    reference_unit = staticmethod(reference.simulate_unit)
    RELATION_TRIALS = 3000
    SAMPLING_TRIALS = 5000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.log = workdir / "relation.jsonl"
        # The relation check recomputes each logged trial against this game.
        self.game_bcs = game_mod.build_game_bcs(8, modified=True).bcs

    def ops(self) -> list[Op]:
        ops = [self._play(n) for n in (8, 4, 7)]
        t = self.RELATION_TRIALS
        argv = ["simulate", "--mode", "relation", "--sites", "1000", "--trials", str(t),
                "--seed", str(inputs.cli_seed(self.seed, "relation")), "--out", str(self.log)]

        def check_relation(r: CliResult) -> None:
            checks.check_exit(r.code, 0, r.stderr)
            checks.require(self.log.is_file(), "simulate wrote no trial log")
            checks.check_relation(r.stdout, self.log.read_text(), t, self.game_bcs)

        ops.append(Op("simulate relation", "relation", lambda: invoke(argv), check_relation,
                      lambda: self.log.unlink(missing_ok=True)))
        s = self.SAMPLING_TRIALS
        argv_s = ["simulate", "--mode", "sampling", "--sites", "50", "--trials", str(s),
                  "--seed", str(inputs.cli_seed(self.seed, "sampling"))]

        def check_sampling(r: CliResult) -> None:
            checks.check_exit(r.code, 0, r.stderr)
            checks.check_sampling(r.stdout, s)

        ops.append(Op("simulate sampling", "sampling", lambda: invoke(argv_s), check_sampling))
        return ops

    def _play(self, n: int) -> Op:
        t = self.PLAY_TRIALS
        argv = ["play", "--n", str(n), "--trials", str(t),
                "--seed", str(inputs.cli_seed(self.seed, f"play{n}"))]

        def check(r: CliResult) -> None:
            checks.check_exit(r.code, 0, r.stderr)
            checks.check_play(r.stdout, t)

        return Op(f"play n={n}", "play", lambda: invoke(argv), check)

    @classmethod
    def named_metrics(cls, summary: Summary) -> dict:
        part_s = summary.part_s
        return {
            "play_trials_per_s": (3 * cls.PLAY_TRIALS / part_s["play"], "1/s"),
            "relation_trials_per_s": (cls.RELATION_TRIALS / part_s["relation"], "1/s"),
            "sampling_trials_per_s": (cls.SAMPLING_TRIALS / part_s["sampling"], "1/s"),
        }


class LightconeWorkload:
    """Cone propagation in shallow, wiring construction and JSON validation:
    the 512-site strategy wiring and a seeded neighbour-local wiring."""

    SITES = 512
    reference_unit = staticmethod(reference.lightcone_unit)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.strategy = json.loads(shallow_mod.build_strategy_dag(self.SITES).to_json())
        self.strategy_bad = checks.disjoint_pair_count(self.strategy)[0]
        text = inputs.local_wiring(seed, sites=self.SITES)
        self.loaded = json.loads(text)
        self.loaded_bad = checks.disjoint_pair_count(self.loaded)[0]
        self.loaded_path = workdir / "wiring.json"
        self.loaded_path.write_text(text)

    def ops(self) -> list[Op]:
        strategy = {"sites": self.SITES, "depth": 5, "max_fan_in": 14,
                    "gates": len(self.strategy["gates"]), "wires": len(self.strategy["wires"])}
        loaded = {"sites": self.SITES, "depth": inputs.WIRING_DEPTH,
                  "max_fan_in": inputs.WIRING_MAX_FAN_IN,
                  "gates": len(self.loaded["gates"]), "wires": len(self.loaded["wires"])}
        return [
            self._op("strategy", ["lightcone", "--sites", str(self.SITES), "--format", "json"],
                     self.strategy, strategy, self.strategy_bad),
            self._op("loaded", ["lightcone", "--dag", str(self.loaded_path), "--format", "json"],
                     self.loaded, loaded, self.loaded_bad),
        ]

    @staticmethod
    def _op(part: str, argv: list[str], wiring: dict, expected: dict, bad: int) -> Op:
        def check(r: CliResult) -> None:
            checks.check_exit(r.code, 0, r.stderr)
            checks.check_lightcone(r.stdout, wiring, expected, bad)

        return Op(f"lightcone {part}", part, lambda: invoke(argv), check)

    @staticmethod
    def named_metrics(summary: Summary) -> dict:
        return {
            "lightcone_strategy_s": (summary.part_s["strategy"], "s"),
            "lightcone_loaded_s": (summary.part_s["loaded"], "s"),
        }


WORKLOADS = {"solve": SolveWorkload, "simulate": SimulateWorkload, "lightcone": LightconeWorkload}


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, ops: list[Op], clock=None, tracer=None) -> None:
        self.ops = ops
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> list[float]:
        """Every op once, in order; returns each op's wall time."""
        times = []
        for op in self.ops:
            if self.clock is not None:
                self.clock.sample()
            if op.before is not None:
                op.before()
            if self.tracer is not None:
                self.tracer.op += 1
                self.tracer.active = True
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op; keep going
                result = exc
            finally:
                elapsed = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.active = False
            times.append(elapsed)
            self.attempted += 1
            try:
                if isinstance(result, Exception):
                    raise result
                op.check(result)
            except Exception as exc:  # a malformed output fails its op, not the run
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return times

    def run_until(self, deadline: float, on_pass: Callable[[], None] | None = None) -> list[list[float]]:
        """Whole passes until one ends after ``deadline``."""
        passes = []
        while True:
            passes.append(self.run_pass())
            if on_pass is not None:
                on_pass()
            if time.perf_counter() >= deadline:
                if self.clock is not None:
                    self.clock.sample(force=True)
                return passes


@dataclass
class Summary:
    """Pass timings reduced per op: each op's mean over passes."""
    op_s: list[float]
    part_s: dict[str, float]
    samples: dict[str, list[float]]

    @classmethod
    def of(cls, ops: list[Op], passes: list[list[float]]) -> "Summary":
        op_s = [statistics.fmean(p[i] for p in passes) for i in range(len(ops))]
        part_s: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        for i, op in enumerate(ops):
            part_s[op.part] = part_s.get(op.part, 0.0) + op_s[i]
            samples.setdefault(op.part, []).extend(p[i] for p in passes)
        return cls(op_s, part_s, {k: sorted(v) for k, v in samples.items()})

    @property
    def pass_s(self) -> float:
        return sum(self.op_s)

    @property
    def slowest_op_s(self) -> float:
        return max(self.op_s)


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------

def measure_setup(repeats: int = 7) -> list[float]:
    """Import times of ``bcsmagic.cli`` in fresh interpreters.

    The samples are taken before the workload: in one set of runs that
    started fresh interpreters between ops, ``pass_ref`` spread two to
    three times wider.
    """
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import time; "
            "t = time.perf_counter(); import bcsmagic.cli; print(time.perf_counter() - t)")
    samples = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        if i:  # the first import may compile bytecode
            samples.append(float(done.stdout))
    return samples


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def environment() -> dict:
    import bcsmagic
    import numpy

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cpu_caches(),
        "bcsmagic_path": str(Path(bcsmagic.__file__).parent),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Import bcsmagic, and the checks that use it, from this tree's ``src/``."""
    global bcs_mod, cli_mod, game_mod, shallow_mod, checks
    if not (SRC / "bcsmagic" / "__init__.py").is_file():
        sys.exit(f"error: no bcsmagic package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bcsmagic
    from bcsmagic import bcs as bcs_mod, cli as cli_mod, game as game_mod, shallow as shallow_mod

    if Path(bcsmagic.__file__).resolve().parent != (SRC / "bcsmagic").resolve():
        sys.exit(f"error: bcsmagic imported from {bcsmagic.__file__}, not {SRC}")
    import checks


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    report: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops()
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            metrics, runner = _traced_run(args, ops, workload.reference_unit, deadline, report)
        else:
            setup_samples = measure_setup()
            setup_s = min(setup_samples)
            deadline = time.perf_counter() + args.seconds
            clock = reference.ReferenceClock(workload.reference_unit)
            runner = Runner(ops, clock)
            passes = runner.run_until(deadline)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            summary = Summary.of(ops, passes)
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "pass_ref": _metric(summary.pass_s / clock.unit_s, "ref"),
            }
            report["passes"] = len(passes)
            report["pass_wall_s"] = [sum(p) for p in passes]
            report["ref_unit_ms"] = 1e3 * clock.unit_s
            report["ref_units"] = clock.units
            report["setup_samples_s"] = setup_samples
            report["named"] = {
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "pass_s": _metric(summary.pass_s, "s"),
                "slowest_op_s": _metric(summary.slowest_op_s, "s"),
                **{k: _metric(v, u) for k, (v, u) in workload.named_metrics(summary).items()},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["fail_ratio"] = len(runner.failures) / runner.attempted
    report["failures"] = runner.failures[:20]
    report["environment"] = environment()
    print(json.dumps(report))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def _traced_run(args, ops: list[Op], unit, deadline: float, report: dict):
    """One untraced pass as the overhead baseline, then traced passes.

    Per-layer values are lower medians over the traced passes, so counts
    stay whole.  Each phase has its own reference clock, so the overhead
    ratio does not carry the machine's drift between them.
    """
    base_clock = reference.ReferenceClock(unit)
    runner = Runner(ops, base_clock)
    baseline = runner.run_pass()
    base_clock.sample(force=True)
    tracer = tracer_mod.Tracer()
    tracer.install()
    runner.clock = reference.ReferenceClock(unit)
    runner.tracer = tracer
    windows: list[dict[str, float]] = []
    first = [tracer.mark()]

    def close_window() -> None:
        windows.append(tracer.window_metrics(first[0]))
        first[0] = tracer.mark()

    try:
        passes = runner.run_until(deadline, close_window)
    finally:
        tracer.uninstall()
    traced_ref = Summary.of(ops, passes).pass_s / runner.clock.unit_s
    overhead = traced_ref / (sum(baseline) / base_clock.unit_s)
    units = tracer_mod.layer_metric_units()
    metrics = {name: _metric(statistics.median_low(w[name] for w in windows), unit)
               for name, unit in units.items()}
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    metrics["trace.absent_functions"] = _metric(len(tracer.absent), "count")
    trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
    report.update({
        "passes": len(passes),
        "untraced_pass_s": sum(baseline),
        "traced_pass_s": [sum(p) for p in passes],
        "tracing_overhead": overhead,
        "absent": tracer.absent,
        "size_errors": tracer.size_errors,
        "spans": len(tracer.span_name),
        "trace_file": str(trace_path.relative_to(ROOT)),
    })
    return metrics, runner


if __name__ == "__main__":
    sys.exit(main())
