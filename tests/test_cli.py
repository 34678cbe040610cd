import contextlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from hierwave import cli, complexity, dynamics, rep_theory, state_tree
from hierwave.cli import MAX_ERROR_CHARS, MAX_SWEEP_COUNT, main

from helpers import chain_state, chain_state_json

DATA = resources.files("hierwave") / "data"


def data_path(name):
    return str(DATA / name)


class TestDecompose:
    def test_two_halves(self, capsys):
        assert main(["decompose", "--spins", "1/2,1/2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "J=1 x1"
        assert out[1] == "J=0 x1"
        assert out[2] == "dim: 4 = 4"

    def test_mixed_spins(self, capsys):
        assert main(["decompose", "--spins", "1,1/2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "J=3/2 x1"
        assert out[1] == "J=1/2 x1"

    def test_missing_value_usage_error(self, capsys):
        assert main(["decompose", "--spins"]) == 2

    def test_bad_spin_domain_error(self, capsys):
        assert main(["decompose", "--spins", "banana"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_denominator_spin_domain_error(self, capsys):
        assert main(["decompose", "--spins", "1/2,1/0"]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: not a valid non-negative (half-)integer spin: '1/0'\n")

    def test_huge_spin_domain_error(self, capsys):
        assert main(["decompose", "--spins", "1000000000"]) == 1
        assert capsys.readouterr().err == "error: SpinRangeError: twice_j must be <= 10000, got 2000000000\n"


class TestValidate:
    def test_physical_example(self, capsys):
        assert main(["validate", "--state", data_path("two_spin_example.json")]) == 0
        assert "root: PHYSICAL" in capsys.readouterr().out

    def test_impossible_example(self, capsys):
        assert main(["validate", "--state", data_path("two_spin_impossible.json")]) == 1
        assert "root: UNPHYSICAL (WeightMismatch)" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "--state", "/nonexistent.json"]) == 1


class TestPauli:
    def test_clean_state(self, capsys):
        assert main(["pauli", "--state", data_path("two_spin_example.json")]) == 0

    def test_violating_state(self, tmp_path, capsys):
        node = {
            "level": 1,
            "group": "SU2",
            "basis": [
                {"type": "spin", "twice_j": 1, "twice_m": 1},
                {"type": "spin", "twice_j": 1, "twice_m": -1},
            ],
            "amplitudes": [[1.0, 0.0], [0.0, 0.0]],
            "statistics": "fermion",
            "quantum_numbers": [1, 0, 0],
            "children": [],
        }
        state = {
            "level": 0,
            "group": "SU2",
            "basis": [{"type": "spin", "twice_j": 0, "twice_m": 0}],
            "amplitudes": [[1.0, 0.0]],
            "statistics": "unspecified",
            "children": [node, node],
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["pauli", "--state", str(path)]) == 1
        assert "share state" in capsys.readouterr().out

    @pytest.mark.parametrize("statistics", ["Fermion", "fermions", [1], None])
    def test_unknown_statistics_is_named_domain_error(self, statistics, tmp_path, capsys):
        # two identical children: marked "fermion", they violate exclusion
        obj = json.loads((DATA / "two_spin_example.json").read_text())
        for child in obj["children"]:
            child.update(statistics=statistics, quantum_numbers=[1, 0, 0])
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        assert main(["pauli", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: ValueError: statistics must be one of boson, fermion, "
                                f"unspecified, got {statistics!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("scope", [str(sys.maxsize), "9" * 20])
    def test_scope_deeper_than_any_tree_finds_no_system(self, scope, capsys):
        assert main(["pauli", "--state", data_path("two_spin_example.json"), "--scope", scope]) == 0
        assert capsys.readouterr() == ("no exclusion violations\n", "")

    def test_amplitude_count_mismatch_is_domain_error(self, tmp_path, capsys):
        obj = json.loads((DATA / "two_spin_example.json").read_text())
        leaf = obj["children"][0]
        leaf.update(statistics="fermion", quantum_numbers=[1, 0, 0])
        leaf["basis"] = leaf["basis"][:1]
        leaf["amplitudes"] = [[0.1, 0.0], [1.0, 0.0]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        assert main(["pauli", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ValueError: amplitude count 2 != basis size 1\n"
        assert captured.out == "" and "Traceback" not in captured.err


class TestRepair:
    def test_hydra_one_descent(self, capsys):
        code = main(
            ["repair", "--scenario", data_path("hydra.json"), "--remove", "1,2", "--max-depth", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        result = json.loads(out.splitlines()[-1].removeprefix("RESULT "))
        assert result["feasible"] is True
        assert result["levels_descended"] == 1

    def test_default_max_depth_is_three(self, tmp_path, capsys):
        # x with a chain of four spin-3/2 parts holds the singlet only at depth 4, once
        # the last part gives way to spins 1 and 1/2; y is removed, so repair must descend
        part = {"name": "c3", "irrep": "3/2", "subcomponents": [{"name": "a", "irrep": "1"},
                                                                {"name": "b", "irrep": "1/2"}]}
        for name in ("c2", "c1", "c0"):
            part = {"name": name, "irrep": "3/2", "subcomponents": [part]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"target": "0", "components": [{"name": "x", "irrep": "1/2"}, part,
                                                                  {"name": "y", "irrep": "1"}]}))
        outs = []
        for depth in ([], ["--max-depth", "3"], ["--max-depth", "4"]):
            assert main(["repair", "--scenario", str(path), "--remove", "2", *depth]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "not rebuildable: levels descended 3" in outs[0]
        assert "rebuilt: levels descended 4" in outs[2]

    def test_hydra_infeasible(self, capsys):
        main(["repair", "--scenario", data_path("hydra.json"), "--remove", "0,1", "--max-depth", "3"])
        out = capsys.readouterr().out
        result = json.loads(out.splitlines()[-1].removeprefix("RESULT "))
        assert result["feasible"] is False

    def test_remove_all_is_domain_error(self, capsys):
        code = main(["repair", "--scenario", data_path("hydra.json"), "--remove", "0,1,2"])
        assert code == 1
        assert "EmptyRemainderError" in capsys.readouterr().err


class TestSimulate:
    def test_csv_output(self, tmp_path, capsys):
        cfg = {
            "m0": 1.0,
            "spins": [0.5, 0.5, 0.5, 0.5],
            "potential_U": {"type": "harmonic", "k": 1.0},
            "x_init": [-0.5, 0.5],
            "v_init": [0.0, 0.0],
            "dt": 0.001,
            "steps": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2,m1_eff,m2_eff,E_total"
        assert len(lines) == 12  # header + initial sample + 10 steps
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[7]) == pytest.approx(0.5)  # U = k*(x1-x2)^2/2

    def test_sweep(self, tmp_path, capsys):
        cfg = {
            "m0": 1.0,
            "spins": [0.5, 0.5, 0.5, 0.5],
            "potential_U": {"type": "harmonic", "k": 1.0},
            "x_init": [-0.5, 0.5],
            "v_init": [0.0, 0.0],
            "dt": 0.001,
            "steps": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "sweep")
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", prefix, "--sweep", "lambda0=0:0.4:3"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "lambda0,max_energy_drift,error"
        assert len(out) == 4
        for value in ("0", "0.2", "0.4"):
            assert (tmp_path / f"sweep_lambda0_{value}.csv").exists()

    def test_sweep_records_singular_values(self, tmp_path, capsys):
        # at v1 = 1, dp/dv = 1 - (1/4)(6 lambda1) is negative for lambda1 = 1, 2
        cfg = {
            "m0": 1.0,
            "spins": [0.5, -0.5, 0.5, 0.5],
            "potential_U": {"type": "harmonic", "k": 1.0},
            "x_init": [-0.5, 0.5],
            "v_init": [1.0, 0.0],
            "dt": 0.001,
            "steps": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "sweep")
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", prefix, "--sweep", "lambda1=0:2:3"]
        )
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.0, 1.0, 2.0]
        assert rows[0][2] == ""
        for row in rows[1:]:
            assert len(row) == 3 and row[2].startswith("LegendreSingularityError: dp/dv = ")

    def test_sweep_records_rejected_values(self, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code = main(
            ["simulate", "--config", _harmonic_config(tmp_path), "--out", prefix, "--sweep", "m0=0:1:2"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["m0,max_energy_drift,error", "0,0,ValueError: m0 must be positive"]
        assert len(out) == 3 and out[2].startswith("1,") and out[2].endswith(",")
        header = "t,x1,x2,v1,v2,m1_eff,m2_eff,E_total\n"
        assert (tmp_path / "sweep_m0_0.csv").read_text() == header
        assert len((tmp_path / "sweep_m0_1.csv").read_text().splitlines()) == 12

    @pytest.mark.parametrize("grid, values, names", [
        ("1:1.000001:3", ["1", "1.0000005000000001", "1.0000009999999999"],
         ["sweep_m0_1.csv", "sweep_m0_1.0000005.csv", "sweep_m0_1.000001.csv"]),
        ("1:1:1", ["1"], ["sweep_m0_1.csv"]),
    ], ids=["fine", "single"])
    def test_sweep_writes_one_file_per_value(self, grid, values, names, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code = main(["simulate", "--config", _harmonic_config(tmp_path), "--out", prefix,
                     "--sweep", f"m0={grid}"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == values
        assert sorted(path.name for path in tmp_path.glob("sweep_*")) == sorted(names)
        for name in names:
            assert len((tmp_path / name).read_text().splitlines()) == 12

    @pytest.mark.parametrize("sweep, first, second, name", [
        ("m0=1:1:2", "1", "1", "sweep_m0_1.csv"),
        ("m0=nan:1:2", "nan", "nan", "sweep_m0_nan.csv"),
    ])
    def test_sweep_values_sharing_a_file_are_refused_before_any_run(
            self, sweep, first, second, name, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code = main(["simulate", "--config", _harmonic_config(tmp_path), "--out", prefix, "--sweep", sweep])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: ValueError: sweep values {first} and {second} both write {tmp_path / name}\n")
        assert captured.out == "" and not list(tmp_path.glob("sweep_*"))

    @pytest.mark.parametrize("key, kind, field", [
        ("potential_U", "harmonic", "k"),
        ("potential_Lambda", "linear", "kappa"),
    ])
    def test_absent_potential_spellings_write_identical_csvs(self, key, kind, field, tmp_path):
        base = json.loads((DATA / "harmonic_benchmark.json").read_text())
        base.update(steps=50, lambda0=0.3, lambda1=0.2, spins=[0.5, -0.5, 0.5, 0.5], v_init=[0.3, -0.1],
                    potential_U={"type": "harmonic", "k": 1.0},
                    potential_Lambda={"type": "linear", "kappa": 0.5})
        del base[key]
        outputs = []
        for spelling in ("missing", None, {"type": "none"}, {"type": kind, field: 0}):
            cfg = dict(base) if spelling == "missing" else {**base, key: spelling}
            cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "traj.csv"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        assert len(outputs[0].splitlines()) == 52
        assert outputs == [outputs[0]] * 4

    def test_non_finite_run_exits_1_and_writes_no_nan(self, tmp_path, capsys):
        # RK4 at dt*omega0 = 1.4e3 overflows: the finite samples are written,
        # then the run fails by name
        cfg_path = _harmonic_config(tmp_path, **STIFF)
        out_path = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: NonFiniteStateError: x1=")
        assert captured.err.endswith(" at t=14.0: not all finite\n") and "Traceback" not in captured.err
        text = out_path.read_text()
        assert len(text.splitlines()) == 15 and "nan" not in text and "inf" not in text
        assert main(["simulate", "--config", cfg_path]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 15 and "nan" not in captured.out

    def test_sweep_records_non_finite_runs(self, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code = main(["simulate", "--config", _harmonic_config(tmp_path, **STIFF), "--out", prefix,
                     "--sweep", "dt=0.001:1:2"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("0.001,") and rows[0].endswith(",")
        assert rows[1].startswith("1,") and ",NonFiniteStateError: x1=" in rows[1]
        assert "nan" not in (tmp_path / "sweep_dt_1.csv").read_text()

    def test_sweep_without_out_is_domain_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", _harmonic_config(tmp_path), "--sweep", "m0=1:2:2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ValueError: sweep mode requires --out as a filename prefix\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_sweep_over_unsweepable_field_is_domain_error(self, tmp_path, capsys):
        prefix = str(tmp_path / "sweep")
        code = main(
            ["simulate", "--config", _harmonic_config(tmp_path), "--out", prefix, "--sweep", "steps=1:2:2"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: cannot sweep over field 'steps'\n"


class TestClassify:
    def test_cosine(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text(
            "\n".join(f"{math.cos(2 * math.pi * 2 * k / 4096):.17g}" for k in range(4096))
        )
        assert main(["classify", "--series", str(path), "--quantization", "0.05"]) == 0
        machine = json.loads(capsys.readouterr().out.splitlines()[0])
        assert machine["verdict"] == "RuleLike"
        assert machine["compressed_bits"] > 0

    def test_machine_output_stable(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("\n".join(str(k % 7) for k in range(200)))
        main(["--format", "machine", "classify", "--series", str(path), "--quantization", "1"])
        first = capsys.readouterr().out
        main(["--format", "machine", "classify", "--series", str(path), "--quantization", "1"])
        second = capsys.readouterr().out
        assert first == second


class TestInfo:
    def test_summary(self, capsys):
        assert main(["info", "--state", data_path("two_spin_example.json")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "nodes: 3"

    def test_deep_chain_holds_no_paths(self, monkeypatch):
        # the paths of a depth-4,000 chain would take about 16 MB if held
        psi = chain_state(4_000)
        monkeypatch.setattr(state_tree, "load_state", lambda path: psi)
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["info", "--state", "chain.json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000, peak


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
def test_too_deep_state_file_is_named_domain_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(chain_state_json(20_000))  # 40,000 JSON levels: past the json module's limit everywhere
    assert main([command, "--state", str(path)]) == 1
    assert "error: StateTooDeepError: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
@pytest.mark.parametrize("name", ["hydra.json", "harmonic_benchmark.json"])
def test_non_state_file_is_named_domain_error(command, name, capsys):
    assert main([command, "--state", data_path(name)]) == 1
    err = capsys.readouterr().err
    assert "not a hierwave state: a node lacks key 'level'" in err and "KeyError" not in err


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
@pytest.mark.parametrize("text", ["[1, 2]", '{"level": 0, "group": "SU2", "basis": ["x"], "amplitudes": [[1, 0]]}'])
def test_non_object_state_file_is_named_domain_error(command, text, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main([command, "--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: ValueError: not a hierwave state: " in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
def test_huge_state_spin_is_named_domain_error(command, tmp_path, capsys):
    obj = json.loads((DATA / "two_spin_example.json").read_text())
    obj["children"][0]["basis"][0].update(twice_j=2 * 10**9, twice_m=0)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--state", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: SpinRangeError: twice_j must be <= 10000, got 2000000000\n"
    assert captured.out == ""


def test_huge_scenario_spin_is_named_domain_error(tmp_path, capsys):
    obj = json.loads((DATA / "hydra.json").read_text())
    obj["components"][0]["subcomponents"][1]["irrep"] = "1000000000"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["repair", "--scenario", str(path), "--remove", "1"]) == 1
    assert capsys.readouterr().err == "error: SpinRangeError: twice_j must be <= 10000, got 2000000000\n"


def test_zero_denominator_scenario_spin_is_named_domain_error(tmp_path, capsys):
    obj = json.loads((DATA / "hydra.json").read_text())
    obj["components"][0]["subcomponents"][1]["irrep"] = "1/0"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["repair", "--scenario", str(path), "--remove", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: not a valid non-negative (half-)integer spin: '1/0'\n")


@pytest.mark.parametrize("argv, message", [
    (["repair", "--scenario", data_path("two_spin_example.json"), "--remove", "0"],
     "not a hierwave scenario: missing key 'target'"),
    (["simulate", "--config", data_path("hydra.json")],
     "not a hierwave simulation config: missing key 'm0'"),
])
def test_wrong_kind_input_file_is_named_domain_error(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "KeyError" not in err


@pytest.mark.parametrize("argv, message", [
    (["repair", "--remove", "0", "--scenario"], "not a hierwave scenario: "),
    (["simulate", "--config"], "not a hierwave simulation config: "),
])
def test_non_object_input_file_is_named_domain_error(argv, message, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text("[1, 2]")
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: ValueError: " + message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
@pytest.mark.parametrize("key, value", [
    ("twice_j", math.inf), ("twice_j", 2.5), ("twice_m", "0"), ("twice_m", True), ("level", math.nan),
])
def test_non_integer_state_field_is_named_domain_error(command, key, value, tmp_path, capsys):
    obj = json.loads((DATA / "two_spin_example.json").read_text())
    node = obj["children"][0]
    (node["basis"][0] if key.startswith("twice") else node)[key] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--state", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("command", ["validate", "pauli", "info"])
@pytest.mark.parametrize("amplitude", [
    [math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], [True, False], ["1", 0.0], [1.0],
    [1.0, 0.0, 0.0], 1.0, None, [10**400, 0],
])
def test_bad_amplitude_is_named_domain_error(command, amplitude, tmp_path, capsys):
    obj = json.loads((DATA / "two_spin_example.json").read_text())
    obj["children"][0]["amplitudes"][0] = amplitude
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--state", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: ValueError: amplitudes must be [re, im] pairs of finite numbers, got {amplitude!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "pauli"])
@pytest.mark.parametrize("qn", [[math.inf], [1.5], ["7"], [True], 7])
def test_bad_quantum_numbers_is_named_domain_error(command, qn, tmp_path, capsys):
    obj = json.loads((DATA / "two_spin_example.json").read_text())
    obj["children"][0].update(statistics="fermion", quantum_numbers=qn)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--state", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: quantum_numbers must be a list of integers, got {qn!r}\n"
    assert captured.out == ""


def test_integral_float_quantum_numbers_accepted(tmp_path, capsys):
    outputs = []
    for qn in ([1, 0, 0], [1.0, 0.0, -0.0]):
        obj = json.loads((DATA / "two_spin_example.json").read_text())
        for child in obj["children"]:
            child.update(statistics="fermion", quantum_numbers=qn)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        assert main(["pauli", "--state", str(path), "--scope", "1"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "share state ((1, 0, 0), " in outputs[0]


def test_integral_float_state_fields_accepted(tmp_path, capsys):
    obj = json.loads((DATA / "two_spin_example.json").read_text())
    obj["level"] = 0.0
    obj["basis"][0]["twice_j"] = 2.0
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--state", str(path)]) == 0
    mutated = capsys.readouterr().out
    assert main(["validate", "--state", data_path("two_spin_example.json")]) == 0
    assert mutated == capsys.readouterr().out


# the harmonic benchmark with a spring so stiff that RK4 at dt = 1 overflows
STIFF = {"potential_U": {"type": "harmonic", "k": 1e6}, "x_init": [1.0, 0.0], "dt": 1.0, "steps": 400}


def _harmonic_config(tmp_path, **changes):
    cfg = json.loads((DATA / "harmonic_benchmark.json").read_text())
    cfg.update({"steps": 10, **changes})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("changes, message", [
    ({"potential_U": "harmonic"}, "potential_U must be an object or null, got 'harmonic'"),
    ({"potential_Lambda": [1]}, "potential_Lambda must be an object or null, got [1]"),
    ({"m0": math.nan}, "m0 must be finite, got nan"),
    ({"lambda0": math.inf}, "lambda0 must be finite, got inf"),
    ({"lambda1": -math.inf}, "lambda1 must be finite, got -inf"),
    ({"dt": math.nan}, "dt must be finite, got nan"),
    ({"x_init": [math.nan, 0.5]}, "x_init must be finite, got nan"),
    ({"v_init": [0.0, math.inf]}, "v_init must be finite, got inf"),
    ({"potential_U": {"type": "harmonic", "k": math.inf}}, "potential_U k must be finite, got inf"),
    ({"potential_Lambda": {"type": "linear", "kappa": math.nan}},
     "potential_Lambda kappa must be finite, got nan"),
    ({"steps": 2.5}, "steps must be an integer, got 2.5"),
    ({"steps": math.inf}, "steps must be an integer, got inf"),
    ({"m0": 10**400}, f"m0 must lie within the float range, got {10**400}"),
    ({"v_init": [0.1]}, "v_init must have two entries, got 1"),
    ({"x_init": [-0.5, 0.5, 0.0]}, "x_init must have two entries, got 3"),
    ({"x_init": []}, "x_init must have two entries, got 0"),
    ({"potential_U": {"type": "x"}}, "unknown potential_U type 'x'"),
    ({"potential_Lambda": {"type": "harmonic", "k": 1.0}}, "unknown potential_Lambda type 'harmonic'"),
])
def test_bad_simulation_config_is_named_domain_error(changes, message, tmp_path, capsys):
    assert main(["simulate", "--config", _harmonic_config(tmp_path, **changes)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {message}\n" and captured.out == ""


@pytest.mark.parametrize("changes, message", [
    ({"m0": "1.0"}, "m0 must be a number, got '1.0'"),
    ({"m0": True}, "m0 must be a number, got True"),
    ({"lambda0": "0"}, "lambda0 must be a number, got '0'"),
    ({"lambda0": None}, "lambda0 must be a number, got None"),
    ({"lambda1": False}, "lambda1 must be a number, got False"),
    ({"dt": "1e-4"}, "dt must be a number, got '1e-4'"),
    ({"dt": True}, "dt must be a number, got True"),
    ({"spins": ["0.5", 0.5, 0.5, 0.5]},
     "spins must be a list of numbers, got ['0.5', 0.5, 0.5, 0.5]"),
    ({"spins": [0.5, 0.5, True, 0.5]}, "spins must be a list of numbers, got [0.5, 0.5, True, 0.5]"),
    ({"spins": "0.5"}, "spins must be a list of numbers, got '0.5'"),
    ({"x_init": ["-0.5", 0.5]}, "x_init must be a list of numbers, got ['-0.5', 0.5]"),
    ({"x_init": -0.5}, "x_init must be a list of numbers, got -0.5"),
    ({"v_init": [0.0, False]}, "v_init must be a list of numbers, got [0.0, False]"),
    ({"v_init": [[0.0], 0.0]}, "v_init must be a list of numbers, got [[0.0], 0.0]"),
    ({"potential_U": {"type": "harmonic", "k": "1.0"}}, "potential_U k must be a number, got '1.0'"),
    ({"potential_U": {"type": "harmonic", "k": True}}, "potential_U k must be a number, got True"),
    ({"potential_Lambda": {"type": "linear", "kappa": "0.5"}},
     "potential_Lambda kappa must be a number, got '0.5'"),
    ({"potential_Lambda": {"type": "linear", "kappa": False}},
     "potential_Lambda kappa must be a number, got False"),
    ({"steps": True}, "steps must be an integer, got True"),
    ({"steps": False}, "steps must be an integer, got False"),
])
def test_non_number_simulation_field_is_named_domain_error(changes, message, tmp_path, capsys):
    assert main(["simulate", "--config", _harmonic_config(tmp_path, **changes)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {message}\n" and captured.out == ""
    assert "Traceback" not in captured.err


def test_integral_float_steps_accepted(tmp_path, capsys):
    assert main(["simulate", "--config", _harmonic_config(tmp_path, steps=10.0)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12  # header + initial sample + 10 steps


@pytest.mark.parametrize("lines, quantization, message", [
    (["0.5", "", "inf"], "0.1", "s.csv:3: value 'inf' is not finite"),
    (["nan", "0.5"], "0.1", "s.csv:1: value 'nan' is not finite"),
    (["0.25", "0.5"], "1e-320", "value 1 is 0.25: 0.25 / 1e-320 is not finite"),
    (["0.25", "0.5"], "inf", "quantization must be positive and finite, got inf"),
    (["0.25", "0.5"], "nan", "quantization must be positive and finite, got nan"),
])
def test_non_finite_classify_value_is_named_domain_error(lines, quantization, message, tmp_path,
                                                         capsys):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["classify", "--series", str(path), "--quantization", quantization]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.rstrip().endswith(message)


def test_non_numeric_classify_value_names_its_line(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("0.5\nabc\n")
    assert main(["classify", "--series", str(path), "--quantization", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {path}:2: value 'abc' is not a number\n"
    assert captured.out == ""


def _reference_series_read(path) -> tuple:
    """The classify reader before it split the whole text: one line at a time
    from the text-mode file, raising on the first bad one."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    value = float(line)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: value {line!r} is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: value {line!r} is not finite")
                values.append(value)
    return tuple(values)


_GOOD = "".join(f"{0.001 * (i % 97) - 0.03!r}\n" for i in range(10_000))


@pytest.mark.parametrize("text", [
    "0.5\r\n1.5\r\n\r\n-2.5\r\n",  # CRLF
    "0.5\r1.5\r\r-2.5",  # lone CR, no final newline
    "\n\n  0.5  \n\t\n1.5\n\n\n",  # blank and whitespace-only lines
    " \x0b0.25\x1c \n\u20281.0\u2029\n",  # whitespace that strip() removes at either end
    _GOOD,
    _GOOD.replace("\n", "\r\n"),
])
def test_classify_reads_the_lines_of_the_text_file(text, tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    values = _reference_series_read(path)
    assert main(["classify", "--series", str(path), "--quantization", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    expect = complexity.classify(complexity.MatrixElementSeries(values, 0.01))
    assert out["compressed_bits"] == expect.compressed_bits and out["raw_bits"] == expect.raw_bits


@pytest.mark.parametrize("text, lineno", [
    ("0.5\r\n\r\nabc\r\n1.0\r\n", 3),
    (_GOOD + "abc\n" + _GOOD, 10_001),
    (_GOOD + "  inf  \n" + _GOOD, 10_001),
    (_GOOD + "-nan\n", 10_001),
    (_GOOD.replace("\n", "\r\n") + "1e999\r\n", 10_001),
    ("0.5\n1 2\n", 2),  # two values on one line
    ("0.5\n1.0\x1c2.0\n", 2),  # \x1c ends a line for str.splitlines, not for the file
    ("0.5\n1.0\u20282.0\n", 2),
    ("0.5\n1.0\x0b2.0\nnan\n", 2),  # the first bad line wins
])
def test_classify_names_the_first_bad_line(text, lineno, tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as ref:
        _reference_series_read(path)
    assert f"{path}:{lineno}: " in str(ref.value)
    assert main(["classify", "--series", str(path), "--quantization", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {ref.value}\n" and captured.out == ""


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2


def test_removed_seed_flag_usage_error():
    assert main(["--seed", "1", "info", "--state", data_path("two_spin_example.json")]) == 2


def test_no_arguments_usage_error():
    assert main([]) == 2


def _fail(*args, **kwargs):
    raise AssertionError("the work started")


def test_oversized_steps_is_named_domain_error_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "run", _fail)
    steps = dynamics.MAX_STEPS + 1
    assert main(["simulate", "--config", _harmonic_config(tmp_path, steps=steps)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: steps must be <= {dynamics.MAX_STEPS}, got {steps}\n"
    assert captured.out == ""


def test_oversized_sweep_is_named_domain_error_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "run", _fail)
    count = MAX_SWEEP_COUNT + 1
    argv = ["simulate", "--config", _harmonic_config(tmp_path), "--out", str(tmp_path / "sweep"),
            "--sweep", f"m0=1:2:{count}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: sweep count must be <= {MAX_SWEEP_COUNT}, got {count}\n"
    assert captured.out == "" and not list(tmp_path.glob("sweep_*"))


def test_sweep_count_at_the_bound_is_accepted():
    name, values = cli._parse_sweep(f"m0=1:2:{MAX_SWEEP_COUNT}")
    assert name == "m0" and len(values) == MAX_SWEEP_COUNT and values[-1] == 2.0


@pytest.mark.parametrize("spins, message", [
    ("1/2,1e10000000", "SpinRangeError: spin exponent must be at most 100 in size, got '1e10000000'"),
    (",".join(["1/2"] * 4000), "ProductSizeError: the weight product of 4000 factors would take "
     f"2004501 bytes, above the bound of {rep_theory.MAX_PRODUCT_BYTES}"),
])
def test_oversized_decompose_is_named_domain_error_before_the_product(spins, message, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(rep_theory, "_weight_product", _fail)
    assert main(["decompose", "--spins", spins]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


SRC = os.path.dirname(os.path.dirname(cli.__file__))

# print, after the given code, the hierwave submodules that it loaded
_LOADED = "; print(sorted(m.removeprefix('hierwave.') for m in sys.modules if m.startswith('hierwave.')))"


def _loaded_submodules(code, *argv):
    out = subprocess.run([sys.executable, "-c", code + _LOADED, *argv], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.splitlines()[-1]


def test_package_import_loads_no_submodule():
    assert _loaded_submodules("import sys, hierwave") == "[]"


# each subcommand also loads _value, the leaf module that holds the value-type base
_SUBCOMMAND_MODULES = [
    (["decompose", "--spins", "1/2,1/2"], ["_value", "cli", "rep_theory"]),
    (["validate", "--state", data_path("two_spin_example.json")],
     ["_value", "cli", "physicality", "rep_theory", "state_tree"]),
    (["pauli", "--state", data_path("two_spin_example.json")],
     ["_value", "cli", "physicality", "rep_theory", "state_tree"]),
    (["info", "--state", data_path("two_spin_example.json")], ["_value", "cli", "rep_theory", "state_tree"]),
    (["classify", "--series", "{tmp}/s.csv", "--quantization", "0.5"], ["_value", "cli", "complexity"]),
    (["repair", "--scenario", data_path("hydra.json"), "--remove", "1,2"],
     ["_value", "cli", "rep_theory", "repair_cascade"]),
    (["simulate", "--config", "{tmp}/cfg.json", "--out", "{tmp}/t.csv"], ["_value", "cli", "dynamics"]),
]


@pytest.mark.parametrize("argv, modules", _SUBCOMMAND_MODULES, ids=[a[0] for a, _ in _SUBCOMMAND_MODULES])
def test_subcommand_imports_only_its_modules(argv, modules, tmp_path):
    (tmp_path / "s.csv").write_text("".join(f"{k % 7}\n" for k in range(100)))
    _harmonic_config(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = "import sys; from hierwave import cli; assert cli.main(sys.argv[1:]) == 0"
    assert _loaded_submodules(code, *argv) == str(modules)


_LONG = "9" * 5000  # beyond CPython's 4,300-digit limit for int()
_SHOWN = "'" + "9" * 499 + "... (5002 characters)"  # the first 500 characters of its repr


@pytest.mark.parametrize("remove, message", [
    ("abc", "--remove index must be an integer, got 'abc'"),
    ("1,2.0", "--remove index must be an integer, got '2.0'"),
    (_LONG, f"--remove index must be an integer, got {_SHOWN}"),
])
def test_bad_remove_index_names_the_option(remove, message, capsys):
    assert main(["repair", "--scenario", data_path("hydra.json"), "--remove", remove]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("grid, message", [
    ("0:1", "sweep must look like field=start:stop:count"),
    ("0:1:0", "sweep count must be >= 1"),
    ("x:1:2", "--sweep start must be a number, got 'x'"),
    ("0::2", "--sweep stop must be a number, got ''"),
    ("0:1:2.5", "--sweep count must be an integer, got '2.5'"),
    (f"0:1:{_LONG}", f"--sweep count must be an integer, got {_SHOWN}"),
    (f"0:1:{'x' * 498}", f"--sweep count must be an integer, got '{'x' * 498}'"),
    (f"0:1:{'x' * 499}", f"--sweep count must be an integer, got '{'x' * 499}... (501 characters)"),
])
def test_bad_sweep_value_names_the_option(grid, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "run", _fail)
    argv = ["simulate", "--config", _harmonic_config(tmp_path), "--out", str(tmp_path / "sweep"),
            "--sweep", f"m0={grid}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {message}\n"
    assert captured.out == "" and not list(tmp_path.glob("sweep_*"))


def _deep_scenario(levels):
    """hydra's target and a second part nested `levels` subcomponents deep."""
    part = '{"name": "p", "irrep": "1/2", "subcomponents": ['
    return ('{"target": "0", "components": [{"name": "x", "irrep": "1/2"}, '
            + part * levels + '{"name": "leaf", "irrep": "1/2"}' + "]}" * levels + "]}")


# the json module's nesting limit hits an array or an object depending on the interpreter
_TOO_DEEP_SCENARIO = "not a hierwave scenario: maximum recursion depth exceeded while decoding a JSON"


def test_too_deep_scenario_is_named_domain_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_deep_scenario(20_000))  # 40,000 JSON levels: past the json module's limit everywhere
    assert main(["repair", "--scenario", str(path), "--remove", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {_TOO_DEEP_SCENARIO} ") and err.count("\n") == 1


def test_scenario_depths_near_the_limit_load_or_fail_by_name(tmp_path):
    # only reading the JSON is bounded: the depth doubles from 256 until a load fails,
    # then a bisection finds the first failing depth, and just below it every depth loads
    from hierwave.repair_cascade import load_organism

    path = tmp_path / "deep.json"

    def loads(levels):
        path.write_text(_deep_scenario(levels))
        try:
            org = load_organism(str(path))
        except ValueError as exc:
            assert str(exc).startswith(_TOO_DEEP_SCENARIO), (levels, str(exc)[:200])
            return False
        assert len(org.components) == 2
        return True

    low, high = 128, 256
    while loads(high):
        low, high = high, 2 * high
        assert high <= 2**16, "no nesting limit below 65,536 levels"
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if loads(middle) else (low, middle)
    for levels in range(low - 8, high):  # a plain loop: a generator's frame would cost one level
        assert loads(levels), levels
    assert not loads(high)


def test_too_deep_config_value_is_named_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "run", _fail)
    path = tmp_path / "cfg.json"
    path.write_text(Path(_harmonic_config(tmp_path)).read_text()
                    .replace('"m0": 1.0', '"m0": ' + "[" * 40_000 + "1" + "]" * 40_000))
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("error: ValueError: not a hierwave simulation config: maximum "
                                       "recursion depth exceeded while decoding a JSON array from a "
                                       "unicode string\n")



def test_nested_m0_error_is_bounded_by_the_loader(tmp_path, capsys):
    # the config loader shows at most 500 characters of the value, so the
    # message stays below MAX_ERROR_CHARS and is printed whole
    m0 = json.loads("[" * 900 + "]" * 900)
    assert main(["simulate", "--config", _harmonic_config(tmp_path, m0=m0)]) == 1
    shown = f"{repr(m0)[:500]}... (1800 characters)"
    assert capsys.readouterr().err == f"error: ValueError: m0 must be a number, got {shown}\n"


# each builds a command whose domain error message is longer than MAX_ERROR_CHARS,
# and returns it with that message
def _long_sweep_count(tmp_path):
    count = "9" * 4000
    argv = ["simulate", "--config", _harmonic_config(tmp_path), "--out", str(tmp_path / "sweep"),
            "--sweep", f"m0=0:1:{count}"]
    return argv, f"sweep count must be <= {MAX_SWEEP_COUNT}, got {count}"


def _long_classify_line(tmp_path):
    path, line = tmp_path / "s.csv", "a" * 100_000
    path.write_text(line + "\n")
    argv = ["classify", "--series", str(path), "--quantization", "0.1"]
    return argv, f"{path}:1: value {line!r} is not a number"


def _sweep_field_of(chars):
    """A command whose message, "cannot sweep over field" and the field's name
    echoed whole, is chars characters long."""
    def case(tmp_path):
        name = "x" * (chars - len("cannot sweep over field ''"))
        argv = ["simulate", "--config", _harmonic_config(tmp_path), "--out", str(tmp_path / "sweep"),
                "--sweep", f"{name}=0:1:2"]
        return argv, f"cannot sweep over field {name!r}"
    return case


@pytest.mark.parametrize("case", [_long_sweep_count, _long_classify_line, _sweep_field_of(1001)])
def test_long_error_message_is_cut(case, tmp_path, capsys):
    argv, full = case(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(full) > MAX_ERROR_CHARS
    assert err == f"error: ValueError: {full[:MAX_ERROR_CHARS]}... ({len(full)} characters)\n"
    assert len(err) < MAX_ERROR_CHARS + 50 and "Traceback" not in err


def test_error_message_of_1000_characters_is_printed_whole(tmp_path, capsys):
    argv, full = _sweep_field_of(1000)(tmp_path)
    assert main(argv) == 1
    assert len(full) == MAX_ERROR_CHARS
    assert capsys.readouterr().err == f"error: ValueError: {full}\n"


def test_closed_stdout_exits_quietly():
    # `simulate | head -1`: the CSV is far larger than a pipe's buffer, so the
    # write after the reader has gone fails; the command exits 1 and says nothing
    argv = [sys.executable, "-m", "hierwave.cli", "simulate", "--config", data_path("harmonic_benchmark.json")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC}) as proc:
        assert proc.stdout.readline() == b"t,x1,x2,v1,v2,m1_eff,m2_eff,E_total\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["decompose", "--spins", "1/2,1/2"],
    ["info", "--state", data_path("two_spin_example.json")],
])
def test_main_re_raises_a_closed_stdout_and_prints_nothing(argv, capsys, monkeypatch):
    # a BrokenPipeError is an OSError, which main() would print as a domain
    # error; it goes up to run() instead, which exits 1 quietly
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(argv)
    assert capsys.readouterr().err == ""
