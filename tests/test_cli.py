import hashlib
import json
import tempfile
from pathlib import Path

import pytest
import stream_oracle
import trial_oracle
from helpers import check_classical_assignment
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsmagic import bcs, game, quantum, shallow
from bcsmagic.cli import _strategy_for, main


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
    """pauli_solve replays each certificate it returns, through the replay
    that verify_certificate uses: a failed replay is an internal fault."""
    monkeypatch.setattr(bcs, "_replay", lambda *args: False)
    assert main(["solve", str(chsh_file), "--mode", "pauli"]) == 1
    err = capsys.readouterr().err
    assert "internal error" in err and "certificate failed its replay" in err
    assert not chsh_file.with_suffix(".certificate.json").exists()


@pytest.mark.parametrize("fault", ["shared scalar", "pivot sign"])
def test_solve_unverified_solution_exits_1(tmp_path, fault, monkeypatch, capsys):
    """pauli_solve checks each solution it returns with
    verify_pauli_solution: a wrong sign, on the zero-qubit path or on the
    operator path, is an internal fault."""
    path = tmp_path / "system.bcs"
    if fault == "shared scalar":
        # The +1 every variable gets here turned into -1: b = 1 fails.
        path.write_text("vars: a b\na b = 1\nb = 1\n")
        monkeypatch.setitem(bcs._SCALARS, (0, 0), bcs._SCALARS[0, 2])
    else:
        path.write_text(bcs.serialize_bcs(bcs.mermin_peres()))
        eliminate = bcs.eliminate_free_vars

        def flipped(system):
            elim = eliminate(system)
            elim.reduced.system.rhs[0] ^= 1
            return elim

        monkeypatch.setattr(bcs, "eliminate_free_vars", flipped)
    assert main(["solve", str(path), "--mode", "pauli"]) == 1
    err = capsys.readouterr().err
    assert "internal error" in err and "constructed solution failed" in err
    assert not path.with_suffix(".solution.txt").exists()


def test_solve_eliminates_once_per_certificate(tmp_path, monkeypatch):
    """solve on the n = 6 game reduces its incidence system once: the
    certificate's replay reuses the solver's elimination."""
    path = tmp_path / "game6.bcs"
    path.write_text(bcs.serialize_bcs(game.build_game_bcs(6).bcs))
    calls = []
    eliminate = bcs.eliminate_free_vars
    monkeypatch.setattr(bcs, "eliminate_free_vars", lambda system: calls.append(1) or eliminate(system))
    assert main(["solve", str(path)]) == 3
    assert len(calls) == 1


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.bcs"
    bad.write_text("a b = 2\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.bcs")]) == 2
    header = tmp_path / "header.bcs"
    header.write_text("vars: a b = 1\n")
    capsys.readouterr()
    for mode in ("classical", "pauli"):
        assert main(["solve", str(header), "--mode", mode]) == 2
        assert "error: line 1: variable name '='" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bcs", "header.bcs"]


@pytest.mark.parametrize("system", [bcs.mermin_peres(), bcs.chsh(), game.build_game_bcs(5).bcs,
                                    game.build_game_bcs(6, modified=True).bcs])
def test_solve_classical_writes_the_library_result(tmp_path, system):
    path = tmp_path / "system.bcs"
    path.write_text(bcs.serialize_bcs(system))
    out = bcs.classical_solve(system)
    written = tmp_path / "out"
    code = main(["solve", str(path), "--mode", "classical", "--out", str(written)])
    if isinstance(out, bcs.Certificate):
        assert code == 3
        assert json.loads(written.read_text()) == {
            "mode": "classical",
            "constraint_rows": list(out.constraint_rows),
            "commutation_rows": [],
            "derived_relation": list(out.derived_relation),
        }
    else:
        assert code == 0
        assert written.read_text().splitlines() == [
            f"{name} = {sign}" for name, sign in zip(system.variables, out)]


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


def test_gen_counts_disagreeing_with_closed_forms_exit_1(tmp_path, monkeypatch, capsys):
    """gen checks the generated constraint count against count_questions: a
    generator that drops a constraint is an internal fault, and no file is
    written."""
    build = game.build_game_bcs

    def dropped(n, modified=False):
        g = build(n, modified=modified)
        g.bcs.constraints.pop()
        return g

    monkeypatch.setattr(game, "build_game_bcs", dropped)
    out = tmp_path / "game5.bcs"
    assert main(["gen", "--n", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "internal error: generated counts disagree with closed forms\n"
    assert not out.exists()


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
    assert check_classical_assignment(bcs.parse_bcs(odd.read_text()), signs)


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


def test_simulate_rejects_one_site(tmp_path, capsys):
    assert main(["simulate", "--mode", "relation", "--sites", "1",
                 "--trials", "5", "--seed", "1"]) == 2
    assert "need at least two sites" in capsys.readouterr().err
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--mode", "relation", "--sites", "1",
                 "--trials", "5", "--seed", "1", "--out", str(log)]) == 2
    assert "need at least two sites" in capsys.readouterr().err
    assert not log.exists()


def test_simulate_rejects_chains_past_exact_site_draws(tmp_path, capsys):
    """Site draws are exact up to 2^32 + 1 sites: a longer chain exits 2,
    before any trial runs or the log is opened."""
    log = tmp_path / "trials.jsonl"
    for mode in ("relation", "sampling"):
        assert main(["simulate", "--mode", mode, "--sites", str(2 ** 32 + 2),
                     "--trials", "5", "--seed", "1", "--out", str(log)]) == 2
        assert "at most 2^32 + 1, got 4294967298" in capsys.readouterr().err
    assert not log.exists()


def test_seeds_are_any_non_negative_integer(tmp_path, capsys):
    """A negative seed exits 2, before simulate opens its log; seeds past 64
    bits still run."""
    log = tmp_path / "trials.jsonl"
    for argv in (["play", "--n", "4"], ["simulate", "--mode", "sampling", "--sites", "9",
                                        "--out", str(log)]):
        assert main(argv + ["--trials", "3", "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert main(argv + ["--trials", "3", "--seed", str(2 ** 70)]) == 0
    assert len(log.read_text().splitlines()) == 3
    log.unlink()
    assert main(["simulate", "--mode", "relation", "--sites", "9", "--trials", "3",
                 "--seed", "-1", "--out", str(log)]) == 2
    assert not log.exists()


@pytest.mark.parametrize("argv", [
    ["play", "--n", "4", "--trials", "5", "--seed", "1", "--tol", "1e-9"],
    ["simulate", "--mode", "relation", "--sites", "10", "--trials", "5", "--seed", "1",
     "--n", "8"],
    ["lightcone", "--n", "8"],
])
def test_removed_settings_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_lightcone_strategy(capsys):
    code = main(["lightcone", "--sites", "12", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_fan_in"] == 14
    assert payload["disjoint_probability"] == 1.0
    assert payload["depth_lower_bound"] < 0  # 12 sites is far below threshold
    assert payload["depth_bound_positive_above_sites"] == 600192


def test_lightcone_depth_threshold_is_an_exact_integer(capsys):
    """96 / (1 - p_clif) in closed form: 1 - p_clif is 1 / (6 |Q^A|) of the
    modified n = 8 game, so the threshold is the integer 96 * 6 |Q^A|."""
    assert main(["lightcone", "--sites", "2", "--format", "json"]) == 0
    threshold = json.loads(capsys.readouterr().out)["depth_bound_positive_above_sites"]
    assert type(threshold) is int
    assert threshold == 96 * 6 * game.count_questions(8).modified_alice == 600192


def test_lightcone_dag_file(tmp_path, capsys):
    from bcsmagic.shallow import build_strategy_dag

    path = tmp_path / "dag.json"
    path.write_text(build_strategy_dag(6).to_json())
    assert main(["lightcone", "--dag", str(path)]) == 0
    assert "max_fan_in: 14" in capsys.readouterr().out
    assert main(["lightcone", "--dag", str(tmp_path / "nope.json")]) == 2
    assert main(["lightcone", "--dag", ""]) == 2


@pytest.mark.parametrize("sites", ["500", "16"])
def test_lightcone_dag_and_sites_are_exclusive(tmp_path, capsys, sites):
    # --sites would be ignored next to a loaded wiring, so passing both is
    # a usage error, even when the value equals the default.
    path = tmp_path / "dag.json"
    path.write_text(shallow.build_strategy_dag(4).to_json())
    with pytest.raises(SystemExit) as exc:
        main(["lightcone", "--dag", str(path), "--sites", sites, "--format", "json"])
    assert exc.value.code == 2
    assert "not allowed with argument --dag" in capsys.readouterr().err


def test_lightcone_defaults_to_16_sites(capsys):
    assert main(["lightcone", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sites"] == 16


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


def test_lightcone_one_layer_chain(tmp_path, capsys):
    """Gate t writes the wire gate t - 1 read, all in layer 1: a layer's gates
    fire on the cone as it stood before the layer, so only gate 0 joins the
    backward cone of wire 0, within the cap |O| (K + 1)^D = 1 * 3^1."""
    from bcsmagic.shallow import CircuitDag, Gate

    dag = CircuitDag(list("c" * 11), [Gate(1, (t + 1, t + 6), (t,)) for t in range(5)],
                     alice_inputs=[[], []], bob_inputs=[[], []],
                     alice_outputs=[[], []], bob_outputs=[[], [0]])
    path = tmp_path / "dag.json"
    path.write_text(dag.to_json())
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_backward_cone"] == 3
    assert payload["backward_cone_cap"] == 3


def test_lightcone_cap_bounds_a_wide_output_group(tmp_path, capsys):
    """A fan-in-1 gate writes one wire of a six-wire output group, whose
    backward cone is then 7 wires: the cap scales with the widest group,
    6 * (K + 1)^D = 12, where 3 * K^D would read 3."""
    from bcsmagic.shallow import CircuitDag, Gate

    dag = CircuitDag(list("c" * 10), [Gate(1, (0,), (4,))],
                     alice_inputs=[[0], [1]], bob_inputs=[[2], [3]],
                     alice_outputs=[[4, 5, 6, 7, 8, 9], []], bob_outputs=[[], []])
    path = tmp_path / "dag.json"
    path.write_text(dag.to_json())
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_backward_cone"] == 7
    assert payload["backward_cone_cap"] == 6 * 2 ** 1


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


def _set_gate_field(wiring, index, **fields):
    wiring["gates"][index].update(fields)


# Each corruption of the 3-site strategy wiring and the exact stderr line it
# gets; every line but the gate kind's was recorded before the loader wrote
# its arrays straight from the JSON lists.
@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda w: _set_wire_id(w, 0, len(w["wires"])), "wire ids must be the integers 0..n-1, each once",
                 id="non-contiguous-ids"),
    pytest.param(lambda w: _set_wire_id(w, 1, 0), "wire ids must be the integers 0..n-1, each once", id="repeated-id"),
    pytest.param(lambda w: _set_wire_id(w, 0, "0"), "wire ids must be the integers 0..n-1, each once", id="string-id"),
    pytest.param(lambda w: w["wires"][0].update(kind="x"), "wire 0 has kind 'x', not 'c' or 'q'", id="kind-x"),
    pytest.param(lambda w: w["wires"][0].update(kind=7), "wire 0 has kind 7, not 'c' or 'q'", id="kind-7"),
    pytest.param(lambda w: w["wires"].__setitem__(0, 3), "each wire must be a JSON object with id, kind",
                 id="wire-not-an-object"),
    pytest.param(lambda w: _set_gate_field(w, 0, inputs=[0.5]), "gate reads unknown wire 0.5", id="float-gate-input"),
    pytest.param(lambda w: _set_gate_field(w, 0, outputs=3), "gate outputs must be a JSON list",
                 id="gate-outputs-not-a-list"),
    pytest.param(lambda w: _set_gate_field(w, 0, inputs="ab"), "gate inputs must be a JSON list", id="inputs-a-string"),
    pytest.param(lambda w: _set_gate_field(w, 0, layer=1.5), "gate layers are integers from 1, got 1.5",
                 id="float-layer"),
    pytest.param(lambda w: _set_gate_field(w, 0, layer=True), "gate layers are integers from 1, got True",
                 id="bool-layer"),
    pytest.param(lambda w: w["gates"][0]["outputs"].__setitem__(0, True), "gate writes unknown wire True",
                 id="bool-output-wire"),
    pytest.param(lambda w: w["gates"][0]["inputs"].__setitem__(0, False), "gate reads unknown wire False",
                 id="bool-input-wire"),
    pytest.param(lambda w: w["gates"][0].pop("inputs"), "each gate must be a JSON object with layer, inputs, outputs",
                 id="gate-without-inputs"),
    pytest.param(lambda w: w["gates"].__setitem__(0, [1, [0], [1]]),
                 "each gate must be a JSON object with layer, inputs, outputs", id="gate-not-an-object"),
    pytest.param(lambda w: (_set_gate_field(w, 2, outputs="ab"), w["gates"].__setitem__(5, None)),
                 "gate outputs must be a JSON list", id="first-malformed-gate-named"),
    pytest.param(lambda w: w["alice_inputs"][0].append(10 ** 6), "site group names unknown wire 1000000",
                 id="group-wire-out-of-range"),
    pytest.param(lambda w: w["alice_outputs"].__setitem__(1, 5), "each group of alice_outputs must be a JSON list",
                 id="group-not-a-list"),
    pytest.param(lambda w: w["bob_outputs"][1].extend(w["bob_outputs"][0]),
                 "wire 153 is in Bob's output groups of sites 0 and 1", id="shared-output-wire"),
    pytest.param(lambda w: w["bob_inputs"].pop(), "Alice's and Bob's input and output lists need one group per site",
                 id="groups-per-site-differ"),
    pytest.param(lambda w: w.pop("gates"), "a wiring must be a JSON object with wires, gates", id="no-gates"),
    # Exit 0 before the kind was checked; the check runs after every other one.
    pytest.param(lambda w: _set_gate_field(w, 7, kind=[1]), "gate 7 has kind [1], not a string", id="gate-kind-list"),
])
def test_lightcone_malformed_wiring_exits_2(tmp_path, capsys, corrupt, message):
    from bcsmagic.shallow import build_strategy_dag

    wiring = json.loads(build_strategy_dag(3).to_json())
    corrupt(wiring)
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(wiring))
    assert main(["lightcone", "--dag", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("text", ["[]", "{", '{"wires": {}, "gates": []}'])
def test_lightcone_wiring_not_an_object_exits_2(tmp_path, text):
    path = tmp_path / "dag.json"
    path.write_text(text)
    assert main(["lightcone", "--dag", str(path)]) == 2


def test_lightcone_loaded_wiring_below_the_bound_is_reported(tmp_path, capsys):
    """Fifty sites share one input wire that fans out to every Bob output:
    every pair crosses.  That is a property of the wiring, not a fault."""
    sites = 50
    wiring = {
        "wires": [{"id": i, "kind": "c"} for i in range(sites + 1)],
        "gates": [{"layer": 1, "inputs": [0], "outputs": list(range(1, sites + 1))}],
        "alice_inputs": [[0]] * sites,
        "bob_inputs": [[] for _ in range(sites)],
        "alice_outputs": [[] for _ in range(sites)],
        "bob_outputs": [[i] for i in range(1, sites + 1)],
    }
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(wiring))
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["disjoint_probability"] == 0.0
    assert payload["disjoint_bound"] == pytest.approx(1 - 48 / sites)
    assert "bound violated" in captured.err


def test_lightcone_deep_layers_and_nesting(tmp_path, capsys):
    """A gate at layer 10^400 costs one index entry, and K^D past the float
    range reads as infinite, though a cap on empty output groups stays 0;
    JSON nested past the parser's limit exits 2."""
    wiring = {
        "wires": [{"id": i, "kind": "c"} for i in range(16)],
        "gates": [{"layer": 10 ** 400, "inputs": list(range(14)), "outputs": [15]}],
        "alice_inputs": [[0], [1]], "bob_inputs": [[2], [3]],
        "alice_outputs": [[4], [5]], "bob_outputs": [[15], [6]],
    }
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(wiring))
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["depth"] == 10 ** 400
    assert payload["backward_cone_cap"] == float("inf")
    assert payload["disjoint_bound"] == float("-inf")
    wiring.update(alice_outputs=[[], []], bob_outputs=[[], []])
    path.write_text(json.dumps(wiring))
    assert main(["lightcone", "--dag", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_backward_cone"] == payload["backward_cone_cap"] == 0
    path.write_text("[" * 100000)
    assert main(["lightcone", "--dag", str(path)]) == 2


# Pieces of BCS text: well-formed lines, near misses and raw characters.
_BCS_LINES = st.one_of(
    st.builds(
        lambda names, rhs: " ".join(names) + " = " + rhs,
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=6),
        st.sampled_from(["1", "-1", "0", "", "1 1", "+1", "-1 # note"]),
    ),
    st.builds(lambda names: "vars: " + " ".join(names),
              st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=6)),
    st.text(alphabet="abc =-1#:\t\r\x00vars", max_size=16),
)
_BCS_BYTES = st.one_of(
    st.lists(_BCS_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(data=_BCS_BYTES, mode=st.sampled_from(["classical", "pauli"]))
def test_no_bcs_text_makes_solve_exit_1(data, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.bcs"
        path.write_bytes(data)
        assert main(["solve", str(path), "--mode", mode]) in (0, 2, 3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _wiring_json(draw):
    """Wirings that are often valid, with wire ids, layers and group
    members that stray out of range, and now and then one field replaced
    by an arbitrary JSON value."""
    n_wires = draw(st.integers(0, 10))
    wire = st.integers(-1, n_wires)
    payload = {
        "wires": [{"id": i, "kind": draw(st.sampled_from(["c", "q"]))} for i in range(n_wires)],
        "gates": draw(st.lists(st.fixed_dictionaries({
            "layer": st.one_of(st.integers(0, 3), st.integers()),
            "inputs": st.lists(wire, max_size=3),
            "outputs": st.lists(wire, max_size=3),
        }), max_size=6)),
    }
    sites = draw(st.integers(0, 5))
    for name in ("alice_inputs", "bob_inputs", "alice_outputs", "bob_outputs"):
        payload[name] = draw(st.lists(st.lists(wire, max_size=3), min_size=sites, max_size=sites))
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_JSON_VALUES)
    return json.dumps(payload)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_wiring_json(), _JSON_VALUES.map(json.dumps), st.text(max_size=20)))
def test_no_wiring_json_makes_lightcone_exit_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dag.json"
        path.write_text(text)
        assert main(["lightcone", "--dag", str(path), "--format", "json"]) in (0, 2)


# Recorded one trial at a time: a loop of trial_oracle.py's play_round,
# run_round1 and run_round2 calls, each trial's numbers read from the
# scalar stream oracle (stream_oracle.py).  Keyed by (n, modified).
_GOLDEN_ROUNDS = {
    (8, False): "d584a17f95785e20e702fc19e5845df605eb721df2a080393df11ad417bb362e",
    (4, False): "eb2a7b19167b8b596d89b2b8b1f4d5c109c7dc96b03be5fb520ae8e7eb45fe4c",
    (7, False): "586d756b805819439e242ba19b72f3d66a49f167f0ae3481bed7cd576b4ae093",
    (8, True): "26cf7fcbacb64604a82a05df98c5675319680d0bf7a81b97bc98537cbd7eacf8",
    (4, True): "f9ad37d502137cf55f41ca5de9b690e221e0c44b5c5ccd32928e566a03618092",
    (7, True): "a4707ddeb12b7e55510d329ff338e1db7ab397a3b91795d641bbfc226a6fb6f1",
}
_GOLDEN_PLAY = {
    (8, False): "n=8 strategy=MagicRequired dim=8\n",
    (4, False): "n=4 strategy=CliffordOnly dim=4\n",
    (7, False): "n=7 strategy=Classical dim=1\n",
    (8, True): "n=8 strategy=MagicRequired dim=8\n",
    (4, True): "n=4 strategy=CliffordOnly dim=16\n",
    (7, True): "n=7 strategy=Classical dim=1\n",
}
_GOLDEN_LOGS = {
    ("relation", "1000"): (
        "relation trials: 400, satisfied: 400\ntarget: all trials satisfy the relation\n",
        "bc3e658ae00ae855644e1c3e34b76d6a67af410eeb20e1e7b72dfeb3787d8faa",
    ),
    ("sampling", "50"): (
        "sampling trials: 400\ncase1: 6 (rate 0.015), case2: 394, invalid: 0\n"
        "target: case1 rate near 1/64 = 0.015625, invalid exactly 0\n",
        "e53ec7ad825dfbf6d0ffa5881ef61cad90a2e5591eb982fbb29a7e8ff3926c81",
    ),
}


@pytest.mark.parametrize("n,modified", [
    pytest.param(n, modified, id=f"{n}-modified" if modified else str(n))
    for n, modified in sorted(_GOLDEN_ROUNDS)
])
def test_play_golden(n, modified, capsys):
    flags = ["--modified"] if modified else []
    assert main(["play", "--n", str(n), "--trials", "300", "--seed", "7"] + flags) == 0
    assert capsys.readouterr().out == (
        _GOLDEN_PLAY[n, modified] + "wins: 300/300 (win rate 1.0)\ntarget: every round wins (rate 1)\n"
    )
    g = game.build_game_bcs(n, modified=modified)
    rounds = [
        (r.constraint, r.alice_outcomes, r.bob_outcome)
        for record in quantum.play_rounds(_strategy_for(g), 7, 300)
        for r in trial_oracle.rows(record)
    ]
    assert hashlib.sha256(repr(rounds).encode()).hexdigest() == _GOLDEN_ROUNDS[n, modified]


@pytest.mark.parametrize("mode,sites", sorted(_GOLDEN_LOGS))
def test_simulate_golden(mode, sites, tmp_path, capsys):
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--mode", mode, "--sites", sites, "--trials", "400",
                 "--seed", "7", "--out", str(log)]) == 0
    stdout, digest = _GOLDEN_LOGS[mode, sites]
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["relation", "sampling"])
def test_simulate_log_does_not_depend_on_batching(mode, tmp_path, monkeypatch):
    """The log of N < CHUNK trials is a byte prefix of the log of M > CHUNK
    trials, and a smaller batch size writes the same bytes."""
    def log(trials: int, name: str) -> bytes:
        path = tmp_path / name
        assert main(["simulate", "--mode", mode, "--sites", "30", "--trials", str(trials),
                     "--seed", "13", "--out", str(path)]) == 0
        return path.read_bytes()

    longer = quantum.CHUNK + 40
    short = log(quantum.CHUNK // 2, "short.jsonl")
    long = log(longer, "long.jsonl")
    assert long.startswith(short) and len(long) > len(short)
    monkeypatch.setattr(quantum, "CHUNK", 7)
    assert log(longer, "small_batches.jsonl") == long


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


def test_simulate_closes_its_log_when_a_trial_raises(tmp_path, monkeypatch, capsys):
    """A fault after the first chunk of trials exits 1 and leaves the --out
    log closed, with that chunk's records written."""
    run_trials = shallow.run_trials

    def one_then_fault(*args, **kwargs):
        yield next(run_trials(*args, **kwargs))
        raise bcs.InvariantError("planted fault")

    opened = []
    path_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.append(path_open(self, *args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(shallow, "run_trials", one_then_fault)
    monkeypatch.setattr(Path, "open", recording_open)
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--mode", "relation", "--sites", "5", "--trials", "3",
                 "--seed", "1", "--out", str(log)]) == 1
    assert "planted fault" in capsys.readouterr().err
    assert len(opened) == 1 and opened[0].closed
    assert [json.loads(line)["trial"] for line in log.read_text().splitlines()] == [0, 1, 2]


@pytest.mark.parametrize("mode", ["relation", "sampling"])
@pytest.mark.parametrize("seed,sites", [(0, 30), (2 ** 64 + 3, 17), (5, 2)])
def test_simulate_log_lines_are_json_dumps_of_the_oracle_records(mode, seed, sites, tmp_path):
    """Every --out line, across a chunk boundary, is json.dumps of the
    record the one-trial oracle builds from the scalar stream oracle."""
    trials = quantum.CHUNK + 12
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--mode", mode, "--sites", str(sites), "--trials", str(trials),
                 "--seed", str(seed), "--out", str(log)]) == 0
    g = game.build_game_bcs(8, modified=True)
    sol = quantum.permutation_solution(g)
    expected = []
    for t in range(trials):
        inst = stream_oracle.instance(g, sites, seed, t)
        draws = stream_oracle.trial_draws(seed, t, len(g.bcs.constraints[inst.alpha].var_indices))
        if mode == "relation":
            transcript = trial_oracle.run_round1(inst, draws)
            result = trial_oracle.run_round2(g, inst, transcript, sol, draws)
            is_clean = trial_oracle.clean(transcript)
        else:
            result, is_clean = trial_oracle.run_sampling_trial(g, inst, sol, draws)
        expected.append(json.dumps(trial_oracle.log_record(mode, seed, t, inst, result, is_clean)))
    assert log.read_text().splitlines() == expected
    if mode == "sampling":
        assert {json.loads(line)["case"] for line in expected} >= {"case1", "case2"}


def test_play_verifies_the_strategy_and_checks_commutators_once(monkeypatch, capsys):
    """play --n 8 and simulate, in both modes, build the game, complete the
    magic strategy, check its commutators and verify it once each, and a
    strategy that fails any check is an internal fault, exit 1."""
    complete = quantum.permutation_solution
    calls = []
    for module, name in ((game, "build_game_bcs"), (quantum, "permutation_solution"),
                         (quantum, "_worst_commutators"), (quantum, "_verify")):
        monkeypatch.setattr(module, name, lambda *a, name=name, f=getattr(module, name), **k:
                            calls.append(name) or f(*a, **k))
    commands = (["play", "--n", "8"], ["simulate", "--mode", "relation", "--sites", "5"],
                ["simulate", "--mode", "sampling", "--sites", "5"])
    once = ["_verify", "_worst_commutators", "build_game_bcs", "permutation_solution"]
    for argv in commands:
        calls.clear()
        assert main([*argv, "--trials", "10", "--seed", "1"]) == 0
        assert sorted(calls) == once, argv

    def swapped(g):  # two of constraint 0's observables no longer commute
        ops = complete(g)
        ops[g.bcs.constraints[0].var_indices[0]] = ops[g.x(1, 2)]
        return ops

    def flipped(g):  # commutes, products fail
        ops = complete(g)
        ops[g.a(1)] *= -1
        return ops

    for corrupt, reason in ((swapped, "do not commute"), (flipped, "worst_product")):
        monkeypatch.setattr(quantum, "permutation_solution", corrupt)
        for argv in commands:
            capsys.readouterr()
            assert main([*argv, "--trials", "10", "--seed", "1"]) == 1, argv
            err = capsys.readouterr().err
            assert "strategy failed verification" in err and reason in err, argv


def test_recipes(capsys):
    assert main(["recipes"]) == 0
    out = capsys.readouterr().out
    assert "1 - 1/6252" in out
    assert "[checked]" in out
    assert "[MISMATCH]" not in out
