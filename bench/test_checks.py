"""Each benchmark check accepts the program's real output and rejects a
corrupted copy; the tracer tolerates missing functions.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import contextlib
import io
import json

import pytest

import checks
import inputs
import tracer as tracer_mod
from bcsmagic import bcs as bcs_mod
from bcsmagic import cli, game, gf2, shallow
from checks import CheckError


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def solve_file(tmp_path, text: str, mode: str = "pauli") -> str:
    path = tmp_path / "system.bcs"
    path.write_text(text)
    out = tmp_path / "system.out"
    run_cli(["solve", str(path), "--mode", mode, "--out", str(out)])
    return out.read_text()


def test_check_exit():
    checks.check_exit(3, 3)
    with pytest.raises(CheckError):
        checks.check_exit(1, 3, "internal error")


def test_pauli_certificate_check(tmp_path):
    cert = solve_file(tmp_path, inputs.CHSH)
    checks.check_pauli_certificate(inputs.CHSH, cert, [0, 1])
    payload = json.loads(cert)
    with pytest.raises(CheckError):
        checks.check_pauli_certificate(inputs.CHSH, cert, [0])
    with pytest.raises(CheckError):
        checks.check_pauli_certificate(inputs.CHSH, json.dumps(dict(payload, constraint_rows=[0])))
    with pytest.raises(CheckError):
        checks.check_pauli_certificate(inputs.CHSH, json.dumps(dict(payload, mode="classical")))
    with pytest.raises(CheckError):
        checks.check_pauli_certificate(inputs.CHSH, "{not json")


def test_pauli_certificate_check_needs_commutation_facts(tmp_path):
    def cites_commutation(text: str) -> bool:
        result = bcs_mod.pauli_solve(bcs_mod.parse_bcs(text))
        return isinstance(result, bcs_mod.Certificate) and bool(result.commutation_rows)

    text = next(t for _, t in inputs.small_systems(1, 200) if cites_commutation(t))
    cert = solve_file(tmp_path, text)
    checks.check_pauli_certificate(text, cert)
    payload = json.loads(cert)
    dropped = dict(payload, commutation_rows=payload["commutation_rows"][1:])
    with pytest.raises(CheckError):
        checks.check_pauli_certificate(text, json.dumps(dropped))


def test_classical_certificate_check(tmp_path):
    cert = solve_file(tmp_path, inputs.MAGIC_SQUARE, mode="classical")
    checks.check_classical_certificate(inputs.MAGIC_SQUARE, cert)
    payload = json.loads(cert)
    with pytest.raises(CheckError):
        checks.check_classical_certificate(
            inputs.MAGIC_SQUARE, json.dumps(dict(payload, constraint_rows=payload["constraint_rows"][1:])))
    with pytest.raises(CheckError):
        checks.check_classical_certificate(
            inputs.MAGIC_SQUARE, json.dumps(dict(payload, commutation_rows=[[0, 1]])))


def test_pauli_solution_check(tmp_path):
    solution = solve_file(tmp_path, inputs.MAGIC_SQUARE)
    checks.check_pauli_solution(inputs.MAGIC_SQUARE, solution)
    lines = solution.splitlines()
    name, value = lines[0].split(" = ")
    flipped = value[1:] if value.startswith("-") else "-" + value
    with pytest.raises(CheckError):
        checks.check_pauli_solution(inputs.MAGIC_SQUARE, "\n".join([f"{name} = {flipped}"] + lines[1:]))
    with pytest.raises(CheckError):
        checks.check_pauli_solution(inputs.MAGIC_SQUARE, "\n".join([lines[1], lines[0]] + lines[2:]))
    with pytest.raises(CheckError):
        checks.check_pauli_solution(inputs.MAGIC_SQUARE, "\n".join([f"{name} = QQ"] + lines[1:]))


def test_small_system_check(tmp_path):
    planted = inputs.planted_square_system(inputs.sub_rng(0, "test"))
    solution = solve_file(tmp_path, planted)
    checks.check_small("planted", planted, True, False, solution)
    with pytest.raises(CheckError):
        checks.check_small("planted", planted, False, False, solution)
    with pytest.raises(CheckError):  # a planted system never gets a certificate
        checks.check_small("planted", planted, True, True, solve_file(tmp_path, inputs.CHSH))


def test_scalar_solvable_matches_the_program():
    for _, text in inputs.small_systems(3, 60):
        system = bcs_mod.parse_bcs(text)
        assert checks.scalar_solvable(system) == (bcs_mod.classical_solve(system) is not None)


def test_play_check():
    checks.check_play("wins: 50/50 (win rate 1.0)", 50)
    with pytest.raises(CheckError):
        checks.check_play("wins: 49/50 (win rate 0.98)", 50)
    with pytest.raises(CheckError):
        checks.check_play("wins: 40/40 (win rate 1.0)", 50)


def test_relation_check(tmp_path):
    log = tmp_path / "relation.jsonl"
    stdout = run_cli(["simulate", "--mode", "relation", "--sites", "20", "--trials", "40",
                      "--seed", "3", "--out", str(log)])
    game_bcs = game.build_game_bcs(8, modified=True).bcs
    text = log.read_text()
    checks.check_relation(stdout, text, 40, game_bcs)
    records = [json.loads(line) for line in text.splitlines()]

    def corrupt(edit) -> str:
        copy = [dict(r) for r in records]
        edit(copy)
        return "\n".join(json.dumps(r) for r in copy)

    def flip_alice(rs):
        rs[0]["r_a"] = [-rs[0]["r_a"][0]] + rs[0]["r_a"][1:]

    def bob_disagrees(rs):
        members = game_bcs.constraints[rs[0]["alpha"]].var_indices
        rs[0]["beta"] = members[0]
        rs[0]["r_b"] = [-rs[0]["r_a"][0], 1, 1]

    with pytest.raises(CheckError):
        checks.check_relation(stdout, corrupt(flip_alice), 40, game_bcs)
    with pytest.raises(CheckError):
        checks.check_relation(stdout, corrupt(bob_disagrees), 40, game_bcs)
    with pytest.raises(CheckError):
        checks.check_relation(stdout, corrupt(lambda rs: rs.pop()), 40, game_bcs)
    with pytest.raises(CheckError):
        checks.check_relation(stdout.replace("satisfied: 40", "satisfied: 39"), text, 40, game_bcs)


def test_sampling_check():
    def output(case1, case2, invalid):
        return (f"sampling trials: 6400\ncase1: {case1} (rate {case1 / 6400}), "
                f"case2: {case2}, invalid: {invalid}\n")

    checks.check_sampling(output(100, 6300, 0), 6400)
    with pytest.raises(CheckError):
        checks.check_sampling(output(100, 6299, 1), 6400)
    with pytest.raises(CheckError):
        checks.check_sampling(output(200, 6200, 0), 6400)
    with pytest.raises(CheckError):
        checks.check_sampling(output(100, 6000, 0), 6400)


@pytest.mark.parametrize("make", [
    lambda: shallow.build_strategy_dag(12).to_json(),
    lambda: inputs.local_wiring(5, sites=24, gates_per_layer=40),
])
def test_disjoint_pair_count_matches_the_program(make):
    text = make()
    bad, total = checks.disjoint_pair_count(json.loads(text))
    assert shallow.lightcone_disjoint_probability(shallow.dag_from_json(text)) == 1 - bad / total


def test_lightcone_check(tmp_path):
    text = inputs.local_wiring(5, sites=24, gates_per_layer=40)
    path = tmp_path / "wiring.json"
    path.write_text(text)
    wiring = json.loads(text)
    bad, _ = checks.disjoint_pair_count(wiring)
    assert bad > 0
    stdout = run_cli(["lightcone", "--dag", str(path), "--format", "json"])
    expected = {"sites": 24, "depth": 4, "max_fan_in": 3}
    checks.check_lightcone(stdout, wiring, expected, bad)
    report = json.loads(stdout)
    with pytest.raises(CheckError):
        checks.check_lightcone(stdout, wiring, dict(expected, depth=5), bad)
    with pytest.raises(CheckError):
        checks.check_lightcone(stdout, wiring, expected, bad + 1)
    with pytest.raises(CheckError):
        checks.check_lightcone(json.dumps(dict(report, disjoint_bound=1.5)), wiring, expected, bad)
    with pytest.raises(CheckError):
        checks.check_lightcone("fan-in 3", wiring, expected, bad)


def test_inputs_follow_the_seed():
    assert inputs.small_systems(7, 6) == inputs.small_systems(7, 6)
    assert inputs.small_systems(7, 6) != inputs.small_systems(8, 6)
    assert inputs.local_wiring(7, sites=16, gates_per_layer=20) == inputs.local_wiring(7, sites=16, gates_per_layer=20)
    assert inputs.cli_seed(7, "play8") != inputs.cli_seed(7, "play4")


def test_planted_systems_need_operators():
    rng = inputs.sub_rng(1, "test")
    for _ in range(10):
        system = bcs_mod.parse_bcs(inputs.planted_square_system(rng))
        assert bcs_mod.classical_solve(system) is None
        assert isinstance(bcs_mod.pauli_solve(system), bcs_mod.PauliSolution)


def test_tracer_spans_self_time_and_absent_functions(monkeypatch):
    monkeypatch.setitem(tracer_mod.LAYERS, "gf2.no_such_function", ("calls", "self_s"))
    tracer = tracer_mod.Tracer()
    original = gf2.row_reduce
    tracer.install()
    try:
        assert gf2.row_reduce is not original
        first = tracer.mark()
        tracer.active = True
        bcs_mod.classical_solve(bcs_mod.parse_bcs(inputs.MAGIC_SQUARE))
        tracer.active = False
        metrics = tracer.window_metrics(first)
    finally:
        tracer.uninstall()
    assert gf2.row_reduce is original
    assert tracer.absent == ["gf2.no_such_function"]
    assert metrics["gf2.no_such_function.calls"] == 0
    assert metrics["bcs.classical_solve.calls"] == 1
    assert metrics["gf2.solve.calls"] == 1
    assert metrics["gf2.row_reduce.calls"] == 1
    assert (metrics["gf2.row_reduce.rows"], metrics["gf2.row_reduce.cols"]) == (6, 9)
    assert metrics["gf2.row_reduce.zero_row_share"] == pytest.approx(1 / 6)
    names = [tracer.names[i] for i in tracer.span_name[first:]]
    assert names == ["bcs.parse_bcs", "bcs.classical_solve", "gf2.solve", "gf2.row_reduce"]
    parents = list(tracer.span_parent[first:])
    assert parents == [-1, -1, first + 1, first + 2]
    duration = [e - s for s, e in zip(tracer.span_start[first:], tracer.span_end[first:])]
    assert metrics["gf2.solve.self_s"] == pytest.approx(duration[2] - duration[3])
    assert all(metrics[f"{name}.self_s"] >= 0 for name in names)
