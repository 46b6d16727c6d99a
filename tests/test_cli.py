"""Command-line interface: outputs, exit codes, overrides, verify battery."""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from ergorate.cli import main

EX21_ARGS = ["--family", "example21", "--pi", "0.5,0.25,0.25", "--beta", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ------------------------------------------------- decompositions per call

@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", *EX21_ARGS], {"eigh": 1, "eigvals": 1, "expm": 0}),
        (["analyze", "--family", "example22"], {"eigh": 1, "eigvals": 1, "expm": 0}),
        # a reversible chain's rate guess is its gap: no eigvals
        (["fit", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
        (["decay", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
        # three states sit below the row-stepping crossover: one dense
        # expm per grid point
        (["decay", "--family", "example22"], {"eigh": 1, "eigvals": 1, "expm": 60}),
        (["drift", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
    ],
)
def test_decompositions_per_call(capsys, decomposition_counts, argv, expected):
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert decomposition_counts == expected


# ----------------------------------------------------------------- analyze

def test_analyze_cycle_family(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "example22")
    assert code == 0
    blob = json.loads(out)
    assert blob["label"] == "example22"
    assert blob["n"] == 3
    assert abs(blob["gap"] - 1.0) <= 1e-9
    assert abs(blob["true_decay_rate"] - 1.25) <= 1e-9
    assert blob["reversible"] is False
    assert blob["rate_exceeds_gap"] is True
    assert len(blob["eigenvalues"]) == 3
    assert blob["reversibility_violation"] == pytest.approx(0.25, abs=1e-12)
    assert set(blob["tolerances"]) == {"row_tol", "stat_tol", "rev_tol"}


def test_analyze_resampling_family(capsys):
    code, out, _ = run(capsys, "analyze", *EX21_ARGS)
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is True
    assert blob["rate_exceeds_gap"] is False
    assert abs(blob["gap"] - 1.0) <= 1e-9
    assert blob["stationary"] == pytest.approx([0.5, 0.25, 0.25])
    assert blob["weight"] == pytest.approx([1.0, 2.0, 2.0])


def test_analyze_requires_chain(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2
    assert json.loads(err)["error"] == "ErgorateError"


def test_analyze_unknown_family(capsys):
    code, _, err = run(capsys, "analyze", "--family", "mystery")
    assert code == 2
    assert "unknown family" in json.loads(err)["message"]


def test_analyze_family_missing_parameters(capsys):
    code, _, err = run(capsys, "analyze", "--family", "example21")
    assert code == 2
    assert "--pi" in json.loads(err)["message"]


def test_analyze_input_file(capsys, tmp_path):
    path = write_chain(
        tmp_path, "c.json", {"label": "pair", "Q": [[-1.0, 1.0], [1.0, -1.0]], "f": [1, 1]}
    )
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    assert json.loads(out)["label"] == "pair"


# --------------------------------------------------------------------- gap

def test_gap_subcommand(capsys):
    code, out, _ = run(capsys, "gap", "--family", "example22")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {
        "label",
        "gap",
        "rate_epsilon_max",
        "true_decay_rate",
        "reversible",
        "tolerances",
    }


# ------------------------------------------------------------------- decay

def test_decay_csv(capsys):
    code, out, _ = run(capsys, "decay", *EX21_ARGS, "--points", "25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,fnorm,envelope"
    assert len(lines) == 26
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.all(data[:, 1] <= data[:, 2] + 1e-9)


def test_decay_state_out_of_range(capsys):
    code, _, err = run(capsys, "decay", *EX21_ARGS, "--state", "9")
    assert code == 2
    assert "out of range" in json.loads(err)["message"]


# --------------------------------------------------------------------- fit

def test_fit_resampling_rate(capsys):
    code, out, _ = run(capsys, "fit", *EX21_ARGS)
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["rate"] - 1.0) <= 1e-6
    assert blob["mode"] == "loglinear"
    assert blob["label"] == "example21"
    assert blob["state"] == 0


def test_fit_explicit_window(capsys):
    code, out, _ = run(capsys, "fit", *EX21_ARGS, "--window", "1,5")
    assert code == 0
    assert json.loads(out)["window"] == [1.0, 5.0]


def test_fit_bad_window(capsys):
    code, _, err = run(capsys, "fit", *EX21_ARGS, "--window", "3")
    assert code == 2
    assert "t_min,t_max" in json.loads(err)["message"]


def test_fit_non_numeric_window(capsys):
    code, _, err = run(capsys, "fit", *EX21_ARGS, "--window", "a,b")
    assert code == 2


# ------------------------------------------------------------------- drift

def test_drift_closed_form(capsys):
    code, out, _ = run(capsys, "drift", *EX21_ARGS)
    assert code == 0
    blob = json.loads(out)
    assert blob["c_max"] == pytest.approx(0.25, abs=1e-12)
    assert blob["b_min"] == pytest.approx(0.75, abs=1e-12)
    assert blob["small_set"] == [0]
    assert blob["gap_rate"] == pytest.approx(1.0, abs=1e-9)
    assert blob["drift_rate_below_gap"] is True


def test_drift_constant_weight_fails(capsys):
    code, _, err = run(capsys, "drift", "--family", "example22")
    assert code == 2
    assert json.loads(err)["error"] == "NoDrift"


# ---------------------------------------------------------------- simulate

def test_simulate_csv(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        *EX21_ARGS,
        "--points",
        "4",
        "--paths",
        "200",
        "--tmax",
        "2.0",
        "--seed",
        "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,fnorm_est,stderr"
    assert len(lines) == 5
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data[0, 0] == 0.0
    assert data[0, 2] == 0.0  # start state is deterministic
    assert data[-1, 0] == pytest.approx(2.0)


def test_simulate_reproducible(capsys):
    args = ["simulate", *EX21_ARGS, "--points", "3", "--paths", "100", "--tmax", "1", "--seed", "9"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ------------------------------------------------------------------ verify

def test_verify_battery_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    assert "FIRST FAILURE" not in out


def test_verify_only_filter(capsys):
    code, out, _ = run(capsys, "verify", "--only", "gap")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # three gap checks + tally
    assert all("gap" in line for line in lines[:-1])


def test_verify_only_no_match(capsys):
    code, _, err = run(capsys, "verify", "--only", "bogus")
    assert code == 2
    assert "matches no checks" in json.loads(err)["message"]


def test_verify_custom_lemma_size(capsys):
    code, out, _ = run(capsys, "verify", "--only", "lemma", "--n", "4")
    assert code == 0
    assert "FIRST FAILURE" not in out


def test_verify_input_contract_pass(capsys, tmp_path):
    path = write_chain(
        tmp_path,
        "bd.json",
        {"label": "birth_death", "family": "birth_death", "birth": [1.0, 2.0], "death": [0.5, 1.0]},
    )
    code, out, _ = run(capsys, "verify", "--only", "input", "--input", path)
    assert code == 0
    assert "input.family_contract.birth_death" in out


def test_verify_fault_injection(capsys, tmp_path):
    # labeled as a reversible family but carries an unbalanced cycle
    path = write_chain(
        tmp_path,
        "fake.json",
        {
            "label": "birth_death",
            "Q": [[-1.3, 1.0, 0.3], [0.5, -1.5, 1.0], [0.0, 2.0, -2.0]],
            "f": [1.0, 1.0, 1.0],
        },
    )
    code, out, _ = run(capsys, "verify", "--input", path)
    assert code == 1
    assert "FIRST FAILURE: input.family_contract.birth_death" in out
    assert "FAIL  input.family_contract.birth_death" in out


def test_verify_json_output(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--only", "gap", "--output", str(dest))
    assert code == 0
    assert "checks passed" in out  # text still printed
    blob = json.loads(dest.read_text())
    assert all(r["pass"] for r in blob["results"])


# -------------------------------------------------------------- bad inputs

def test_malformed_json_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "malformed" in json.loads(err)["message"]


def test_nonconservative_input_names_row(capsys, tmp_path):
    path = write_chain(
        tmp_path, "bad.json", {"label": "x", "Q": [[-1.0, 1.0], [0.5, 0.2]], "f": [1, 1]}
    )
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "row 1" in json.loads(err)["message"]


def test_nan_input_rejected(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"label": "x", "Q": [[NaN, 1.0], [1.0, -1.0]], "f": [1, 1]}')
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2


# --------------------------------------------------------------- overrides

def test_rev_tol_override_flips_verdict(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "example22", "--rev-tol", "2.0")
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is True  # violation 0.25 now inside tolerance
    assert blob["tolerances"]["rev_tol"] == 2.0


def test_default_tolerances_restored(capsys):
    # previous test mutated module globals; the autouse fixture undoes it
    code, out, _ = run(capsys, "analyze", "--family", "example22")
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is False
    assert blob["tolerances"]["rev_tol"] == 1e-9


def test_negative_tolerance_rejected(capsys):
    code, _, err = run(capsys, "gap", "--family", "example22", "--row-tol", "-1")
    assert code == 2
    assert "positive" in json.loads(err)["message"]


# ------------------------------------------------------------- file output

def test_output_file_atomic(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "gap", "--family", "example22", "--output", str(dest))
    assert code == 0
    assert out == ""
    blob = json.loads(dest.read_text())
    assert abs(blob["gap"] - 1.0) <= 1e-9
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ergorate-")]
    assert leftovers == []


def test_output_dash_means_stdout(capsys):
    code, out, _ = run(capsys, "gap", "--family", "example22", "--output", "-")
    assert code == 0
    assert json.loads(out)["label"] == "example22"


# ----------------------------------------------------------- console script

def test_console_script_entry_point():
    exe = shutil.which("ergorate")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "gap", "--family", "example22"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["gap"] - 1.0) <= 1e-9
