"""Command-line front end.

Exit codes: 0 success (including a found solution), 3 proven no-solution
(a result, not an error), 2 usage or parse problems or an unusable path, 1
internal failures or violated exactness invariants.  Stochastic commands
require --seed and are byte-reproducible: trial t reads every number from
fixed slots of its own counter-based stream, ``quantum.TrialStream``, so
each trial's outcome depends only on the seed and its own index.  Trials
are measured in batches, each one record of arrays, and no output depends
on the batch size.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import bcs as bcs_mod
from . import game as game_mod

if TYPE_CHECKING:
    from .quantum import StrategyStack
    from .shallow import Trials

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3


def _dumps(payload: dict, **options) -> str:
    """``payload`` as indented JSON; json loads on the first document written."""
    import json

    return json.dumps(payload, indent=1, **options)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(payload, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_solve(args) -> int:
    system = bcs_mod.parse_bcs(Path(args.path).read_text())
    classical = args.mode == "classical"
    result = (bcs_mod.classical_solve if classical else bcs_mod.pauli_solve)(system)
    if isinstance(result, bcs_mod.Certificate):
        path = Path(args.out or Path(args.path).with_suffix(".certificate.json"))
        payload = {"mode": args.mode, **result._asdict()}
        path.write_text(_dumps(payload) + "\n")
        print(f"no {'classical' if classical else 'Pauli-string'} solution; "
              f"certificate written to {path}")
        return EXIT_NO_SOLUTION
    path = Path(args.out or Path(args.path).with_suffix(".solution.txt"))
    if classical:
        lines = [f"{name} = {sign}" for name, sign in zip(system.variables, result)]
        path.write_text("\n".join(lines) + "\n")
        print(f"classical solution written to {path}")
    else:
        path.write_text(bcs_mod.serialize_solution(system, result))
        print(f"Pauli solution on {result.qubits} qubit(s) written to {path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    game = game_mod.build_game_bcs(args.n, modified=args.modified)
    counts = game_mod.count_questions(args.n)
    if len(game.bcs.constraints) != (counts.modified_alice if args.modified else counts.alice):
        raise bcs_mod.InvariantError("generated counts disagree with closed forms")
    out = Path(args.out)
    out.write_text(bcs_mod.serialize_bcs(game.bcs))
    sidecar = out.with_suffix(out.suffix + ".names.json")
    sidecar.write_text(_dumps({"n": args.n, "modified": args.modified, "variables": game.var_index}) + "\n")
    print(f"n={args.n} modified={args.modified}: "
          f"{game.bcs.n_vars} variables, {len(game.bcs.constraints)} constraints")
    print(f"wrote {out} and {sidecar}")
    return EXIT_OK


def cmd_bound(args) -> int:
    denom = 6 * game_mod.count_questions(args.n).modified_alice
    value = game_mod.clifford_bound(args.n)
    _emit(
        {"n": args.n, "bound": f"1 - 1/{denom}", "value": value},
        args.format,
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    label = game_mod.classify(args.n)
    _emit({"n": args.n, "class": label.value}, args.format)
    return EXIT_OK


def _strategy_for(game: game_mod.GameBcs) -> StrategyStack:
    """The game's perfect strategy, laid out for play and verified in full."""
    from . import quantum

    label = game_mod.classify(game.n)
    if label is game_mod.GameClass.MAGIC_REQUIRED:
        ops = quantum.permutation_solution(game)
    else:
        classical = label is game_mod.GameClass.CLASSICAL
        solution = (bcs_mod.classical_solve if classical else bcs_mod.pauli_solve)(game.bcs)
        if isinstance(solution, bcs_mod.Certificate):
            raise bcs_mod.InvariantError(f"n={game.n} is classed {label.value} but its solver "
                                         "returned a certificate")
        ops = (quantum.classical_to_operator if classical else quantum.pauli_to_operator)(solution)
    try:
        stack = quantum.StrategyStack(game.bcs, ops)
    except ValueError as exc:
        raise bcs_mod.InvariantError(f"strategy failed verification: {exc}") from exc
    if not stack.report.ok:
        raise bcs_mod.InvariantError(f"strategy failed verification: {stack.report}")
    return stack


def cmd_play(args) -> int:
    from . import quantum

    game = game_mod.build_game_bcs(args.n, modified=args.modified)
    stack = _strategy_for(game)
    wins = sum(int(rounds.won.sum()) for rounds in quantum.play_rounds(stack, args.seed, args.trials))
    print(f"n={args.n} strategy={game_mod.classify(args.n).value} dim={stack.dim}")
    print(f"wins: {wins}/{args.trials} (win rate {wins / args.trials})")
    print("target: every round wins (rate 1)")
    if wins != args.trials:
        print("exactness violated: some rounds lost", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _log_lines(chunk: Trials, n: int, seed: int, mode: str) -> str:
    """The chunk's trial log lines, each as ``json.dumps`` writes its record
    dict: ``r_a`` the Alice columns, three in the modified game."""
    import numpy as np

    alice = chunk.outcomes[:, :-1].T
    key, result = (("ok", np.where(chunk.won, "true", "false")) if mode == "relation" else
                   ("case", np.where(chunk.clean, np.where(chunk.won, '"case1"', '"invalid"'), '"case2"')))
    template = (f'{{"N": %d, "n": {n}, "j": %d, "k": %d, "alpha": %d, "beta": %d, "seed": {seed}, '
                f'"trial": %d, "r_a": [{", ".join(["%d"] * len(alice))}], "r_b": [%d, 1, 1], "{key}": %s}}\n')
    columns = [chunk.N, chunk.j, chunk.k, chunk.alphas, chunk.betas, chunk.trials, *alice,
               chunk.outcomes[:, -1], result]
    return "".join(template % row for row in zip(*(column.tolist() for column in columns)))


def cmd_simulate(args) -> int:
    from . import shallow

    game = game_mod.build_game_bcs(8, modified=True)
    won = clean_won = clean = 0
    # A rejected run raises here, before the log is opened.
    trials = shallow.run_trials(_strategy_for(game), args.sites, args.seed, args.trials, args.mode)
    with Path(args.out).open("w") if args.out else contextlib.nullcontext() as sink:
        for chunk in trials:
            won += int(chunk.won.sum())
            clean_won += int((chunk.clean & chunk.won).sum())
            clean += int(chunk.clean.sum())
            if sink:  # lines are formatted only to be written
                sink.write(_log_lines(chunk, game.n, args.seed, args.mode))

    if args.mode == "relation":
        print(f"relation trials: {args.trials}, satisfied: {won}")
        print("target: all trials satisfy the relation")
        if won != args.trials:
            print("exactness violated: relation failed", file=sys.stderr)
            return EXIT_INTERNAL
    else:
        invalid = clean - clean_won
        print(f"sampling trials: {args.trials}")
        print(f"case1: {clean_won} (rate {clean_won / args.trials}), case2: {args.trials - clean}, "
              f"invalid: {invalid}")
        print(f"target: case1 rate near 1/64 = {1 / 64}, invalid exactly 0")
        if invalid:
            print("exactness violated: invalid trials occurred", file=sys.stderr)
            return EXIT_INTERNAL
    return EXIT_OK


def cmd_lightcone(args) -> int:
    import numpy as np

    from . import shallow

    if args.dag is not None:
        dag = shallow.dag_from_json(Path(args.dag).read_text())
    else:
        dag = shallow.build_strategy_dag(args.sites)
    payload = {
        "wires": dag.n_wires,
        "gates": dag.n_gates,
        "depth": dag.depth,
        "max_fan_in": dag.max_fan_in,
        "sites": dag.n_sites,
    }
    K, D = dag.max_fan_in, dag.depth

    def power(base: int) -> float:
        """base^D, or inf once it leaves the float range (very deep or wide wirings)."""
        return base ** D if base < 2 or D < 1000 / math.log2(base) else math.inf

    if dag.n_sites:
        payload["max_backward_cone"] = max(shallow.backward_cone_sizes(dag))
        # shallow.backward_lightcone's bound |O| (K + 1)^D, for the widest group
        widest = int(np.bincount(dag._outputs[1]).max(initial=0))
        payload["backward_cone_cap"] = widest * power(K + 1) if widest else 0
    if dag.n_sites >= 2:
        prob = shallow.lightcone_disjoint_probability(dag)
        bound = 1 - 48 * power(K) / dag.n_sites
        payload["disjoint_probability"] = prob
        payload["disjoint_bound"] = bound
        if prob < bound:
            # The strategy wiring must meet the bound.  A loaded wiring can
            # miss it (input groups sharing a wire, say): a finding, not a fault.
            print("bound violated", file=sys.stderr)
            if not args.dag:
                return EXIT_INTERNAL
    # The strategy wiring plays the modified n = 8 game (shallow.QUESTION_BITS).
    p_clif = game_mod.clifford_bound(8)
    payload["clifford_cap"] = p_clif
    # The bound needs fan-in at least 2; narrower wirings report none.
    payload["depth_lower_bound"] = (
        shallow.depth_lower_bound(max(dag.n_sites, 2), dag.max_fan_in, p_clif)
        if dag.max_fan_in >= 2 else None
    )
    # 96 / (1 - p_clif), exact in integers: 1 - p_clif is 1 / (6 |Q^A|).
    payload["depth_bound_positive_above_sites"] = 96 * 6 * game_mod.count_questions(8).modified_alice
    _emit(payload, args.format)
    return EXIT_OK


RECIPES = """\
Reference reproductions (computed live where cheap):

  gen --n 8 --out game8.bcs           -> 722 variables, 1037 constraints{counts_ok}
  gen --n 8 --modified --out m8.bcs   -> 1042 constraints{mod_ok}
  bound --n 8                         -> 1 - 1/6252{bound_ok}
  classify --n 4 / 5 / 8              -> CliffordOnly / Classical / MagicRequired{cls_ok}
  solve mermin.bcs --mode pauli       -> exit 0, two-qubit solution
  solve mermin.bcs --mode classical   -> exit 3, no scalar solution
  solve chsh.bcs --mode pauli         -> exit 3, certificate rows [0, 1]
  play --n 8 --trials 10000 --seed 7  -> wins 10000/10000
  simulate --mode relation --sites 1000 --trials 10000 --seed 7
                                      -> all trials satisfy the relation
  simulate --mode sampling --sites 50 --trials 100000 --seed 7
                                      -> case1 rate near 1/64 ~ 0.015625, invalid 0
  lightcone --sites 64                -> max fan-in 14, constant depth
"""


def cmd_recipes(_args) -> int:
    counts = game_mod.count_questions(8)
    checks = {
        "counts_ok": counts.alice == 1037 and counts.bob == 722,
        "mod_ok": counts.modified_alice == 1042,
        "bound_ok": game_mod.clifford_bound(8) == 1 - 1 / 6252,
        "cls_ok": game_mod.classify(4).value == "CliffordOnly"
        and game_mod.classify(5).value == "Classical"
        and game_mod.classify(8).value == "MagicRequired",
    }
    marks = {key: ("  [checked]" if value else "  [MISMATCH]") for key, value in checks.items()}
    print(RECIPES.format(**marks))
    return EXIT_OK if all(checks.values()) else EXIT_INTERNAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcsmagic",
        description="Constraint-system solvers, graph games, and shallow-circuit simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a BCS file classically or over Pauli strings")
    p.add_argument("path")
    p.add_argument("--mode", choices=("classical", "pauli"), default="pauli")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a complete-graph game instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modified", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bound", help="the paper's upper bound on magic-free strategies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("classify", help="strategy class of the size-n game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("play", help="play rounds with the perfect strategy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--modified", action="store_true")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("simulate", help="two-round relation or one-round sampling runs")
    p.add_argument("--mode", choices=("relation", "sampling"), required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="trial log as JSON lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lightcone", help="wiring statistics and hardness bounds")
    wiring = p.add_mutually_exclusive_group()
    wiring.add_argument("--dag", default=None, help="load a wiring from JSON")
    # A string default, parsed only when absent, so "--dag F --sites 16" still conflicts.
    wiring.add_argument("--sites", type=int, default="16", help="strategy wiring size when no --dag")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lightcone)

    p = sub.add_parser("recipes", help="reference values and the commands reproducing them")
    p.set_defaults(func=cmd_recipes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        parser.error("--trials must be at least 1")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # malformed input or an unusable path, wherever a command meets it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
