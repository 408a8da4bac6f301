"""Command-line front end.

Exit codes: 0 success (including a found solution), 3 proven no-solution
(a result, not an error), 2 usage or parse problems or an unusable path, 1
internal failures or violated exactness invariants.  Stochastic commands
require --seed and are byte-reproducible: trial t uses the Philox stream
spawned from (seed, t), so each trial's outcome depends only on the seed
and its own index.  Trials are measured in batches; each trial draws
everything from its own stream before its batch is measured, so no output
depends on the batch size.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bcs as bcs_mod
from . import game as game_mod
from . import gf2, quantum, shallow

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _certificate_payload(cert: bcs_mod.Certificate, mode: str) -> dict:
    return {
        "mode": mode,
        "constraint_rows": list(cert.constraint_rows),
        "commutation_rows": [list(p) for p in cert.commutation_rows],
        "derived_relation": list(cert.derived_relation),
    }


def cmd_solve(args) -> int:
    text = Path(args.path).read_text()
    try:
        system = bcs_mod.parse_bcs(text)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out) if args.out else None
    if args.mode == "classical":
        solved = gf2.solve(bcs_mod.incidence_system(system))
        if isinstance(solved, gf2.Inconsistency):
            rows = tuple(sorted(solved.rows))
            relation = tuple(
                v for j in rows for v in system.constraints[j].var_indices
            )
            cert = bcs_mod.Certificate(rows, (), relation)
            path = out or Path(args.path).with_suffix(".certificate.json")
            path.write_text(json.dumps(_certificate_payload(cert, "classical"), indent=1) + "\n")
            print(f"no classical solution; certificate written to {path}")
            return EXIT_NO_SOLUTION
        path = out or Path(args.path).with_suffix(".solution.txt")
        lines = [f"{name} = {1 - 2 * b}" for name, b in zip(system.variables, solved.assignment)]
        path.write_text("\n".join(lines) + "\n")
        print(f"classical solution written to {path}")
        return EXIT_OK

    result = bcs_mod.pauli_solve(system)
    if isinstance(result, bcs_mod.Certificate):
        if not bcs_mod.verify_certificate(system, result):
            raise bcs_mod.InvariantError("certificate failed its replay")
        path = out or Path(args.path).with_suffix(".certificate.json")
        path.write_text(json.dumps(_certificate_payload(result, "pauli"), indent=1) + "\n")
        print(f"no Pauli-string solution; certificate written to {path}")
        return EXIT_NO_SOLUTION
    path = out or Path(args.path).with_suffix(".solution.txt")
    path.write_text(bcs_mod.serialize_solution(system, result))
    print(f"Pauli solution on {result.qubits} qubit(s) written to {path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    game = game_mod.build_game_bcs(args.n, modified=args.modified)
    counts = game_mod.count_questions(args.n)
    expected = counts.modified_alice if args.modified else counts.alice
    if len(game.bcs.constraints) != expected:
        print("internal error: generated counts disagree with closed forms", file=sys.stderr)
        return EXIT_INTERNAL
    out = Path(args.out)
    out.write_text(bcs_mod.serialize_bcs(game.bcs))
    sidecar = out.with_suffix(out.suffix + ".names.json")
    sidecar.write_text(json.dumps(
        {"n": args.n, "modified": args.modified, "variables": game.var_index}, indent=1
    ) + "\n")
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


def _strategy_for(game: game_mod.GameBcs) -> quantum.OperatorSolution:
    label = game_mod.classify(game.n)
    if label is game_mod.GameClass.CLASSICAL:
        signs = bcs_mod.classical_solve(game.bcs)
        if signs is None:
            raise bcs_mod.InvariantError(f"n={game.n} is classed classical but has no scalar solution")
        return quantum.classical_to_operator(signs)
    if label is game_mod.GameClass.CLIFFORD_ONLY:
        solution = bcs_mod.pauli_solve(game.bcs)
        if not isinstance(solution, bcs_mod.PauliSolution):
            raise bcs_mod.InvariantError(f"n={game.n} is classed Clifford but has no Pauli solution")
        return quantum.pauli_to_operator(solution)
    sol = quantum.permutation_solution(game)
    report = quantum.verify_operator_solution(game.bcs, sol)
    if not report.ok:
        raise bcs_mod.InvariantError(f"strategy failed verification: {report}")
    return sol


def cmd_play(args) -> int:
    game = game_mod.build_game_bcs(args.n, modified=args.modified)
    sol = _strategy_for(game)
    rngs = (trial_rng(args.seed, t) for t in range(args.trials))
    wins = sum(result.won for result in quantum.play_rounds(game, sol, rngs))
    print(f"n={args.n} strategy={game_mod.classify(args.n).value} dim={sol.dim}")
    print(f"wins: {wins}/{args.trials} (win rate {wins / args.trials})")
    print("target: every round wins (rate 1)")
    if wins != args.trials:
        print("exactness violated: some rounds lost", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_simulate(args) -> int:
    game = game_mod.build_game_bcs(8, modified=True)
    sol = quantum.permutation_solution(game)
    ok_count = 0
    cases = {"case1": 0, "case2": 0, "invalid": 0}
    rngs = (trial_rng(args.seed, t) for t in range(args.trials))
    trials = shallow.run_trials(game, sol, args.sites, rngs, args.mode)
    with Path(args.out).open("w") if args.out else contextlib.nullcontext() as sink:
        for t, (instance, result) in enumerate(trials):
            record = {
                "N": instance.N, "n": instance.n, "j": instance.j, "k": instance.k,
                "alpha": instance.alpha, "beta": instance.beta, "seed": args.seed, "trial": t,
            }
            if args.mode == "relation":
                ok = shallow.check_relation(instance, result, game)
                ok_count += ok
                record.update({"r_a": list(result.r_a), "r_b": list(result.r_b), "ok": ok})
            else:
                cases[result.case] += 1
                record.update({
                    "r_a": list(result.outputs.r_a), "r_b": list(result.outputs.r_b),
                    "case": result.case,
                })
            if sink:
                sink.write(json.dumps(record) + "\n")

    if args.mode == "relation":
        print(f"relation trials: {args.trials}, satisfied: {ok_count}")
        print("target: all trials satisfy the relation")
        if ok_count != args.trials:
            print("exactness violated: relation failed", file=sys.stderr)
            return EXIT_INTERNAL
    else:
        rate = cases["case1"] / args.trials
        print(f"sampling trials: {args.trials}")
        print(f"case1: {cases['case1']} (rate {rate}), case2: {cases['case2']}, "
              f"invalid: {cases['invalid']}")
        print(f"target: case1 rate near 1/64 = {1 / 64}, invalid exactly 0")
        if cases["invalid"]:
            print("exactness violated: invalid trials occurred", file=sys.stderr)
            return EXIT_INTERNAL
    return EXIT_OK


def cmd_lightcone(args) -> int:
    if args.dag:
        dag = shallow.dag_from_json(Path(args.dag).read_text())
    else:
        dag = shallow.build_strategy_dag(args.sites)
    payload = {
        "wires": len(dag.wire_kinds),
        "gates": len(dag.gates),
        "depth": dag.depth,
        "max_fan_in": dag.max_fan_in,
        "sites": dag.n_sites,
    }
    # K^D, or inf once it leaves the float range (very deep or wide wirings)
    K, D = dag.max_fan_in, dag.depth
    cone_cap = K ** D if K < 2 or D < 1000 / math.log2(K) else math.inf
    out_groups = dag.alice_outputs + dag.bob_outputs
    if out_groups:
        payload["max_backward_cone"] = max(shallow.backward_cone_sizes(dag, out_groups))
        payload["backward_cone_cap"] = 3 * cone_cap
    if dag.n_sites >= 2:
        prob = shallow.lightcone_disjoint_probability(dag)
        bound = 1 - 48 * cone_cap / dag.n_sites
        payload["disjoint_probability"] = prob
        payload["disjoint_bound"] = bound
        if prob < bound:
            # The strategy wiring must meet the bound.  A loaded wiring can
            # miss it (input groups sharing a wire, say): a finding, not a fault.
            print("bound violated", file=sys.stderr)
            if not args.dag:
                return EXIT_INTERNAL
    p_clif = game_mod.clifford_bound(args.n)
    payload["clifford_cap"] = p_clif
    # The bound needs fan-in at least 2; narrower wirings report none.
    payload["depth_lower_bound"] = (
        shallow.depth_lower_bound(max(dag.n_sites, 2), dag.max_fan_in, p_clif)
        if dag.max_fan_in >= 2 else None
    )
    payload["depth_bound_positive_above_sites"] = int(96 / (1 - p_clif))
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

    p = sub.add_parser("bound", help="magic-free winning-probability cap")
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
    p.add_argument("--dag", default=None, help="load a wiring from JSON")
    p.add_argument("--sites", type=int, default=16, help="strategy wiring size when no --dag")
    p.add_argument("--n", type=int, default=8)
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
