"""Command-line interface: outputs, exit codes, overrides, verify battery."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ergorate
from ergorate import chain_core, cli
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
        # a reversible chain's spectrum is read from its eigh: no eigvals
        (["analyze", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
        (["analyze", "--family", "example22"], {"eigh": 1, "eigvals": 1, "expm": 0}),
        (["fit", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
        (["decay", *EX21_ARGS], {"eigh": 1, "eigvals": 0, "expm": 0}),
        # irreversible: the Pade route uniformizes the row, no dense expm
        (["decay", "--family", "example22"], {"eigh": 1, "eigvals": 1, "expm": 0}),
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


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"family": "example21", "pi": [0.5, 0.5], "beta": "abc"}, "beta"),
        ({"family": "example21", "pi": [0.5, 0.5], "beta": None}, "beta"),
        ({"Q": [["a", "b"], ["c", "d"]], "f": [1, 1]}, "rate matrix Q"),
        ({"Q": [[-1, 1], [1, -1]], "f": "ab"}, "weight f"),
        ({"Q": [[-1, 1], [1, -1]], "f": [1, 1], "pi": {"a": 1}}, "distribution pi"),
        ({"family": "birth_death", "birth": "ab", "death": "cd"}, "birth"),
    ],
)
def test_non_numeric_chain_file_is_an_input_error(capsys, tmp_path, obj, field):
    code, out, err = run(capsys, "gap", "--input", write_chain(tmp_path, "c.json", obj))
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"] == "ErgorateError"
    assert field in blob["message"]


@pytest.mark.parametrize("command", ["gap", "verify"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_is_an_input_error(capsys, tmp_path, command, kind):
    path = {"missing": tmp_path / "absent.json", "directory": tmp_path, "not-utf8": tmp_path / "bom.json"}[kind]
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"] == "ErgorateError"
    assert str(path) in blob["message"]


# --------------------------------------------------------------- overrides

def test_rev_tol_override_flips_verdict(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "example22", "--rev-tol", "2.0")
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is True  # violation 0.25 now inside tolerance
    assert blob["tolerances"]["rev_tol"] == 2.0


def test_default_tolerances_restored(capsys):
    # the previous test's override does not carry over
    code, out, _ = run(capsys, "analyze", "--family", "example22")
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is False
    assert blob["tolerances"]["rev_tol"] == 1e-9


def test_overrides_do_not_outlive_the_call(capsys, monkeypatch):
    # all calls in one test: each call builds its own Tolerances and
    # writes no module state, so nothing needs restoring between calls
    defaults = (chain_core.ROW_TOL, chain_core.STAT_TOL, chain_core.REV_TOL)
    code, out, _ = run(capsys, "gap", "--family", "example22", "--rev-tol", "10")
    assert code == 0
    assert json.loads(out)["reversible"] is True
    code, out, _ = run(capsys, "gap", "--family", "example22")
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is False
    assert blob["tolerances"] == dict(zip(("row_tol", "stat_tol", "rev_tol"), defaults))

    def broken(args):
        raise RuntimeError("command failed")

    monkeypatch.setattr(cli, "cmd_gap", broken)
    with pytest.raises(RuntimeError):
        main(["gap", "--family", "example22", "--row-tol", "1e-3", "--stat-tol", "1e-3"])
    assert (chain_core.ROW_TOL, chain_core.STAT_TOL, chain_core.REV_TOL) == defaults


@pytest.mark.parametrize("flag", ["--row-tol", "--stat-tol", "--rev-tol"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_negative_tolerance_rejected(capsys, flag, value):
    code, out, err = run(capsys, "gap", "--family", "example22", flag, value)
    assert code == 2
    assert out == ""
    message = json.loads(err)["message"]
    assert "positive" in message
    assert flag[2:].replace("-", "_") in message


# ----------------------------------------------------------- cached parser

@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_built_once_per_process(capsys, monkeypatch, fresh_parser):
    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["gap", "--family", "example22"], ["drift", *EX21_ARGS], ["verify", "--only", "gap"]):
        assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


@pytest.mark.parametrize(
    "first, then",
    [
        (["fit", *EX21_ARGS, "--window", "1,7"], ["fit", *EX21_ARGS]),
        (["decay", *EX21_ARGS, "--points", "11"], ["decay", *EX21_ARGS]),
        (
            ["simulate", "--family", "example22", "--paths", "200", "--seed", "5"],
            ["simulate", "--family", "example22", "--paths", "200"],
        ),
    ],
)
def test_cached_parser_keeps_no_flag_between_calls(capsys, fresh_parser, first, then):
    expected = run(capsys, *then)  # parsed by a parser built for this call
    assert expected[0] == 0
    assert run(capsys, *first) != expected
    assert run(capsys, *then) == expected
    if then[0] == "decay":
        assert len(expected[1].strip().splitlines()) == 1 + 60


def test_parse_error_leaves_the_parser_usable(capsys, fresh_parser):
    assert run(capsys, "gap", "--family", "example22")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--family", "example22", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "gap", "--family", "example22")
    assert code == 0
    assert json.loads(out)["label"] == "example22"


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


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_an_input_error(capsys, tmp_path, target):
    if target == "missing-dir":
        dest = tmp_path / "absent" / "report.json"
    else:
        # the temporary file is written, then cannot replace a directory
        dest = tmp_path / "taken"
        dest.mkdir()
    code, out, err = run(capsys, "gap", "--family", "example22", "--output", str(dest))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ErgorateError"
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


# ------------------------------------------------------------- import cost

SCIPY_PROBE = """
import contextlib, io, json, sys
import ergorate, ergorate.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [loaded()]
for argv in (
    ["gap", "--family", "example22"],
    ["decay", "--family", "example22"],
    ["verify", "--n", "6"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ergorate.cli.main(argv) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_scipy_loaded_only_to_take_an_exponential():
    # a fresh interpreter: this process has scipy loaded already
    src = os.path.dirname(os.path.dirname(ergorate.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_gap, after_decay, after_verify = json.loads(proc.stdout)
    assert after_import == []
    # gap reads eigenvalues only
    assert after_gap == []
    # example22 is irreversible: its curve is uniformized, no dense exponential
    assert after_decay == []
    # the identity checks take dense exponentials
    assert "scipy.linalg" in after_verify
