import json

import pytest

from bcsmagic import bcs
from bcsmagic.cli import main


@pytest.fixture()
def mermin_file(tmp_path):
    path = tmp_path / "mermin.bcs"
    path.write_text(bcs.serialize_bcs(bcs.mermin_peres()))
    return path


@pytest.fixture()
def chsh_file(tmp_path):
    path = tmp_path / "chsh.bcs"
    path.write_text(bcs.serialize_bcs(bcs.chsh()))
    return path


def test_solve_mermin_pauli(mermin_file, capsys):
    code = main(["solve", str(mermin_file), "--mode", "pauli"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 qubit" in out
    solution = mermin_file.with_suffix(".solution.txt").read_text()
    assert "v1 = -YY" in solution


def test_solve_mermin_classical_exit3(mermin_file):
    code = main(["solve", str(mermin_file), "--mode", "classical"])
    assert code == 3
    payload = json.loads(mermin_file.with_suffix(".certificate.json").read_text())
    assert payload["mode"] == "classical"
    assert payload["constraint_rows"]


def test_solve_chsh_certificate(chsh_file):
    code = main(["solve", str(chsh_file), "--mode", "pauli"])
    assert code == 3
    payload = json.loads(chsh_file.with_suffix(".certificate.json").read_text())
    assert payload["constraint_rows"] == [0, 1]


def test_solve_unverified_certificate_exits_1(chsh_file, monkeypatch, capsys):
    monkeypatch.setattr(bcs, "verify_certificate", lambda system, cert: False)
    assert main(["solve", str(chsh_file), "--mode", "pauli"]) == 1
    assert "internal error" in capsys.readouterr().err


def test_solve_parse_error(tmp_path):
    bad = tmp_path / "bad.bcs"
    bad.write_text("a b = 2\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.bcs")]) == 2


def test_gen_counts_banner(tmp_path, capsys):
    out = tmp_path / "game8.bcs"
    code = main(["gen", "--n", "8", "--out", str(out)])
    assert code == 0
    banner = capsys.readouterr().out
    assert "722 variables, 1037 constraints" in banner
    sidecar = json.loads((tmp_path / "game8.bcs.names.json").read_text())
    assert sidecar["n"] == 8 and len(sidecar["variables"]) == 722
    reparsed = bcs.parse_bcs(out.read_text())
    assert reparsed.n_vars == 722


def test_gen_modified_banner(tmp_path, capsys):
    code = main(["gen", "--n", "8", "--modified", "--out", str(tmp_path / "m8.bcs")])
    assert code == 0
    assert "1042 constraints" in capsys.readouterr().out


def test_gen_small_n_usage_error(tmp_path):
    assert main(["gen", "--n", "3", "--out", str(tmp_path / "x.bcs")]) == 2


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.bcs", tmp_path / "b.bcs"
    main(["gen", "--n", "5", "--out", str(a)])
    main(["gen", "--n", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_then_solve_pipeline(tmp_path, capsys):
    out = tmp_path / "game6.bcs"
    assert main(["gen", "--n", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out), "--mode", "pauli"]) == 3
    payload = json.loads(out.with_suffix(".certificate.json").read_text())
    game6 = bcs.parse_bcs(out.read_text())
    cert = bcs.Certificate(
        tuple(payload["constraint_rows"]),
        tuple(tuple(p) for p in payload["commutation_rows"]),
        tuple(payload["derived_relation"]),
    )
    assert bcs.verify_certificate(game6, cert)
    assert main(["solve", str(out), "--mode", "classical"]) == 3

    odd = tmp_path / "game5.bcs"
    assert main(["gen", "--n", "5", "--out", str(odd)]) == 0
    assert main(["solve", str(odd), "--mode", "classical"]) == 0
    lines = odd.with_suffix(".solution.txt").read_text().strip().splitlines()
    signs = [1 if line.endswith(" 1") else -1 for line in lines]
    assert bcs.check_classical_assignment(bcs.parse_bcs(odd.read_text()), signs)


def test_bound_output(capsys):
    assert main(["bound", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "1 - 1/6252" in out
    assert main(["bound", "--n", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == "1 - 1/6252"
    assert main(["bound", "--n", "5"]) == 2


def test_classify_output(capsys):
    assert main(["classify", "--n", "5"]) == 0
    assert "Classical" in capsys.readouterr().out
    assert main(["classify", "--n", "4"]) == 0
    assert "CliffordOnly" in capsys.readouterr().out
    assert main(["classify", "--n", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "MagicRequired"


def test_play_small_runs(capsys):
    assert main(["play", "--n", "4", "--trials", "50", "--seed", "11"]) == 0
    assert "wins: 50/50" in capsys.readouterr().out
    assert main(["play", "--n", "5", "--trials", "30", "--seed", "11"]) == 0
    assert "wins: 30/30" in capsys.readouterr().out


def test_play_deterministic(capsys):
    main(["play", "--n", "6", "--trials", "40", "--seed", "3"])
    first = capsys.readouterr().out
    main(["play", "--n", "6", "--trials", "40", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_simulate_relation_log(tmp_path, capsys):
    log = tmp_path / "trials.jsonl"
    code = main([
        "simulate", "--mode", "relation", "--sites", "20",
        "--trials", "25", "--seed", "5", "--out", str(log),
    ])
    assert code == 0
    assert "satisfied: 25" in capsys.readouterr().out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 25
    assert all(r["ok"] for r in records)
    assert all(1 <= r["j"] < r["k"] <= 20 for r in records)


def test_simulate_sampling_summary(capsys):
    code = main([
        "simulate", "--mode", "sampling", "--sites", "10",
        "--trials", "200", "--seed", "9",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "invalid: 0" in out


def test_simulate_rejects_odd_n():
    assert main(["simulate", "--mode", "relation", "--sites", "10",
                 "--trials", "5", "--seed", "1", "--n", "5"]) == 2


def test_lightcone_strategy(capsys):
    code = main(["lightcone", "--sites", "12", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_fan_in"] == 14
    assert payload["disjoint_probability"] == 1.0
    assert payload["depth_lower_bound"] < 0  # 12 sites is far below threshold
    assert payload["depth_bound_positive_above_sites"] == 600192


def test_lightcone_dag_file(tmp_path, capsys):
    from bcsmagic.shallow import build_strategy_dag

    path = tmp_path / "dag.json"
    path.write_text(build_strategy_dag(6).to_json())
    assert main(["lightcone", "--dag", str(path)]) == 0
    assert "max_fan_in: 14" in capsys.readouterr().out
    assert main(["lightcone", "--dag", str(tmp_path / "nope.json")]) == 2


def test_lightcone_fan_in_1_wiring(tmp_path, capsys):
    from bcsmagic.shallow import CircuitDag, Gate

    dag = CircuitDag(list("ccccc"), [Gate(1, (0,), (4,))],
                     alice_inputs=[[0], [1]], bob_inputs=[[2], [3]],
                     alice_outputs=[[4], [1]], bob_outputs=[[2], [3]])
    path = tmp_path / "dag.json"
    path.write_text(dag.to_json())
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_fan_in"] == 1
    assert payload["sites"] == 2
    assert payload["max_backward_cone"] == 2
    assert payload["depth_lower_bound"] is None


def test_lightcone_2000_sites(capsys):
    assert main(["lightcone", "--sites", "2000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sites"] == 2000
    assert payload["max_fan_in"] == 14
    assert payload["depth"] == 5
    assert payload["disjoint_probability"] == 1.0
    assert payload["max_backward_cone"] == 51


def _set_wire_id(wiring, index, value):
    wiring["wires"][index]["id"] = value


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda w: _set_wire_id(w, 0, len(w["wires"])), id="non-contiguous-ids"),
    pytest.param(lambda w: _set_wire_id(w, 1, 0), id="repeated-id"),
    pytest.param(lambda w: _set_wire_id(w, 0, "0"), id="string-id"),
    pytest.param(lambda w: w["wires"][0].update(kind="x"), id="kind-x"),
    pytest.param(lambda w: w["wires"][0].update(kind=7), id="kind-7"),
    pytest.param(lambda w: w["gates"][0].update(inputs=[0.5]), id="float-gate-input"),
    pytest.param(lambda w: w["gates"][0].update(outputs=3), id="gate-outputs-not-a-list"),
    pytest.param(lambda w: w["gates"][0].update(layer=1.5), id="float-layer"),
    pytest.param(lambda w: w["gates"][0].pop("inputs"), id="gate-without-inputs"),
    pytest.param(lambda w: w["alice_inputs"][0].append(10 ** 6), id="group-wire-out-of-range"),
    pytest.param(lambda w: w["bob_outputs"][1].extend(w["bob_outputs"][0]), id="shared-output-wire"),
    pytest.param(lambda w: w["bob_inputs"].pop(), id="groups-per-site-differ"),
    pytest.param(lambda w: w.pop("gates"), id="no-gates"),
])
def test_lightcone_malformed_wiring_exits_2(tmp_path, capsys, corrupt):
    from bcsmagic.shallow import build_strategy_dag

    wiring = json.loads(build_strategy_dag(3).to_json())
    corrupt(wiring)
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(wiring))
    assert main(["lightcone", "--dag", str(path)]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "{", '{"wires": {}, "gates": []}'])
def test_lightcone_wiring_not_an_object_exits_2(tmp_path, text):
    path = tmp_path / "dag.json"
    path.write_text(text)
    assert main(["lightcone", "--dag", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--n", "4"], id="gen"),
    pytest.param(["solve", "{bcs}", "--mode", "pauli"], id="solve-pauli"),
    pytest.param(["solve", "{bcs}", "--mode", "classical"], id="solve-classical"),
    pytest.param(["simulate", "--mode", "relation", "--sites", "5", "--trials", "2", "--seed", "1"],
                 id="simulate"),
])
def test_unusable_out_path_exits_2(tmp_path, mermin_file, capsys, argv):
    argv = [a.format(bcs=mermin_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.txt")]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_recipes(capsys):
    assert main(["recipes"]) == 0
    out = capsys.readouterr().out
    assert "1 - 1/6252" in out
    assert "[checked]" in out
    assert "[MISMATCH]" not in out
