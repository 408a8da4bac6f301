import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsmagic import bcs, game, quantum, shallow
from bcsmagic.cli import _strategy_for, main, trial_rng


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


def test_simulate_rejects_one_site(capsys):
    assert main(["simulate", "--mode", "relation", "--sites", "1",
                 "--trials", "5", "--seed", "1"]) == 2
    assert "need at least two sites" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["play", "--n", "4", "--trials", "5", "--seed", "1", "--tol", "1e-9"],
    ["simulate", "--mode", "relation", "--sites", "10", "--trials", "5", "--seed", "1",
     "--n", "8"],
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
    range reads as infinite; JSON nested past the parser's limit exits 2."""
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


# Recorded from the one-trial-at-a-time implementation (a loop of
# play_round calls), keyed by (n, modified).
_GOLDEN_ROUNDS = {
    (8, False): "8f80217a38a3aed18c33948cff7fa7f0ad7752c0318c8312e1bd6ac637506d36",
    (4, False): "f0bcf7cb0ef470481429bb0bc617145dac2f2ad6560b7540c2e4ab834e02a015",
    (7, False): "9ade6cc3c9e9788de013a65c345a9f99564a9c4d2334e6d77ac130fa196d7a74",
    (8, True): "86fab30c0f21cbca3372fe21bbf9abb06438113e9943f424b8c65deea7877217",
    (4, True): "fc16873ccc3d4df81c09c8e9204bf627e2e3bff1f5b333b67ac1e600c5544866",
    (7, True): "e93589677eddcc2f449931b6f585064b109aad4e29daeac890efb009d12b7356",
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
        "b5d3dae0d90ce15867b36e52be963ecb2cc116816251456ff37ab0084f1236a8",
    ),
    ("sampling", "50"): (
        "sampling trials: 400\ncase1: 10 (rate 0.025), case2: 390, invalid: 0\n"
        "target: case1 rate near 1/64 = 0.015625, invalid exactly 0\n",
        "30f5362dcdbe00033c892d34da5a6eac4d31bcc655ad1348d5660e19864409f3",
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
        for r in quantum.play_rounds(g, _strategy_for(g), (trial_rng(7, t) for t in range(300)))
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
    """A fault after the first trial exits 1 and leaves the --out log closed,
    with that trial's record written."""
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
    assert len(log.read_text().splitlines()) == 1


def test_recipes(capsys):
    assert main(["recipes"]) == 0
    out = capsys.readouterr().out
    assert "1 - 1/6252" in out
    assert "[checked]" in out
    assert "[MISMATCH]" not in out
