"""Command-line interface: outputs, exit codes, overrides, verify battery."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_irreversible

import ergorate
from ergorate import chain_core, cli, spectral
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


# an irreversible chain file above the size from which the true rate is the
# restarted Arnoldi's (spectral._KRYLOV_MIN_STATES)
IRREVERSIBLE_FILE = "<irreversible chain file>"
IRREVERSIBLE_STATES = 100


def irreversible_file(tmp_path):
    n = IRREVERSIBLE_STATES
    q = random_irreversible(np.random.default_rng(n), n) / n
    return write_chain(tmp_path, "irreversible.json", {"Q": q.tolist(), "f": [1.0] * n})


# ------------------------------------------------- decompositions per call

@pytest.mark.parametrize(
    "argv, expected",
    [
        # every chain's gap and a reversible chain's spectrum come from one
        # values-only eigvalsh: no eigh, no eigvals
        (["analyze", *EX21_ARGS], {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}),
        # irreversible: the gap from the eigvalsh, the spectrum from eigvals
        (["analyze", "--family", "example22"], {"eigh": 0, "eigvalsh": 1, "eigvals": 1, "eig": 0, "expm": 0}),
        # three states: the default grid is too long to sweep, so the curve
        # reads the expansion's eigh
        (["fit", *EX21_ARGS], {"eigh": 1, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}),
        (["decay", *EX21_ARGS], {"eigh": 1, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}),
        # irreversible: the uniformized route steps the row, no dense expm
        (["decay", "--family", "example22"], {"eigh": 0, "eigvalsh": 1, "eigvals": 1, "eig": 0, "expm": 0}),
        (["drift", *EX21_ARGS], {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}),
        # the battery reads each chain's memo: one eigvalsh per battery chain
        # for its gap (the lemma chain's gap is not read), one eigh per
        # reversible chain for its matrices (three battery chains, one lemma
        # chain) and example22's eigvals; the uniformized route's matrices
        # and mu_ft_norm's dual are semigroup._deviation, no expm; each
        # reversible chain's dual reads its chain's rates for its
        # uniformization rate
        (["verify"], {"eigh": 4, "eigvalsh": 4, "eigvals": 1, "eig": 0, "expm": 0}),
        # irreversible, above the Arnoldi's size: the true rate is the
        # restarted Arnoldi's, here one cycle with one projected eig, and only
        # analyze, which prints the spectrum, takes the eigvals
        (["gap", "--input", IRREVERSIBLE_FILE], {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 1, "expm": 0}),
        (["decay", "--input", IRREVERSIBLE_FILE], {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 1, "expm": 0}),
        (["fit", "--input", IRREVERSIBLE_FILE], {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 1, "expm": 0}),
        (["analyze", "--input", IRREVERSIBLE_FILE], {"eigh": 0, "eigvalsh": 1, "eigvals": 1, "eig": 1, "expm": 0}),
    ],
)
def test_decompositions_per_call(capsys, tmp_path, decomposition_counts, argv, expected):
    if IRREVERSIBLE_FILE in argv:
        argv = [irreversible_file(tmp_path) if a == IRREVERSIBLE_FILE else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert decomposition_counts == expected


# ----------------------------------------------------------------- analyze

def test_analyze_above_the_arnoldi_size_agrees_with_its_printed_spectrum(capsys, tmp_path):
    # the true rate is the Arnoldi's, the printed spectrum eigvals': they
    # agree within the route's stated accuracy, and the verdicts read from
    # either are the same; gap prints the same bits as analyze
    path = irreversible_file(tmp_path)
    blob = json.loads(run(capsys, "analyze", "--input", path)[1])
    with open(path) as fh:
        zero_tol = spectral._zero_tol(chain_core.validate(json.load(fh)["Q"]))
    ref = -max(re for re, im in blob["eigenvalues"] if np.hypot(re, im) > zero_tol)
    assert abs(blob["true_decay_rate"] - ref) <= 1e-12 * ref
    assert blob["reversible"] is False
    assert blob["rate_exceeds_gap"] is (ref - blob["gap"] > zero_tol) is True
    assert json.loads(run(capsys, "gap", "--input", path)[1])["true_decay_rate"] == blob["true_decay_rate"]


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
    # the largest relative per-edge defect: edge 0 -> 1 is one-way
    assert blob["reversibility_violation"] == 1.0
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


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1.0, 1e6, 1e10])
@pytest.mark.parametrize("chain, exceeds", [("cycle7", False), ("example22", True)])
def test_rate_exceeds_gap_keeps_its_verdict_under_scaling(capsys, tmp_path, chain, exceeds, scale):
    # a directed unit cycle is irreversible but normal, so its decay rate is
    # its gap; example22's rate 1.25 exceeds its gap 1.  Q -> cQ scales both.
    if chain == "cycle7":
        q = np.roll(np.eye(7), 1, axis=1) - np.eye(7)
    else:
        q = chain_core.build_example22().q
    path = write_chain(tmp_path, "c.json", {"label": chain, "Q": (scale * q).tolist(), "f": [1.0] * len(q)})
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["reversible"] is False
    assert blob["rate_exceeds_gap"] is exceeds


def test_bd40_given_as_a_matrix_reads_the_family_numbers(capsys, tmp_path):
    # unit births and deaths 43.7: pi spans 1e-64, which an LU solve loses
    # (it read gap 0.27245); the detailed-balance law keeps it
    birth, death = np.ones(39), np.full(39, 43.7)
    family = chain_core.build_birth_death(birth, death)
    path = write_chain(tmp_path, "bd40.json", {"label": "bd40", "Q": family.q.tolist(), "f": [1.0] * 40})
    code, out, _ = run(capsys, "gap", "--input", path)
    assert code == 0
    gap = json.loads(out)["gap"]
    assert gap == pytest.approx(ergorate.spectral_report(family).gap, rel=1e-10)
    assert gap == pytest.approx(31.51956, rel=1e-6)
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    lp = np.concatenate([[0.0], np.cumsum(np.log(birth / death))])
    law = np.exp(lp - lp.max())
    law /= law.sum()
    assert min(json.loads(out)["stationary"]) == pytest.approx(law.min(), rel=1e-12)


@pytest.mark.parametrize("command", ["analyze", "gap", "decay", "fit"])
def test_bd40_as_a_family_file_prints_the_matrix_files_bytes(capsys, tmp_path, command):
    # one stationary law for both: the family's own product once put the gap
    # at 31.51956142732668, the matrix's at 31.519561427326675
    i = np.arange(39)
    q = np.zeros((40, 40))
    q[i, i + 1], q[i + 1, i] = 1.0, 43.7
    np.fill_diagonal(q, -q.sum(axis=1))
    matrix = write_chain(tmp_path, "bd40.json", {"label": "bd40", "Q": q.tolist(), "f": [1.0] * 40})
    family = write_chain(
        tmp_path, "bd40-family.json", {"family": "birth_death", "label": "bd40", "birth": [1.0] * 39, "death": [43.7] * 39}
    )
    outputs = [run(capsys, command, "--input", path) for path in (matrix, family)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize(
    "chain",
    [
        # pi_0 = 1e-310: 1/pi_0 once overflowed, and analyze printed Infinity
        {"Q": [[-1.0, 1.0], [1e-310, -1e-310]], "f": [1.0, 1.0]},
        # births 2, deaths 1: the family's product once overflowed
        {"family": "birth_death", "birth": [2.0] * 1024, "death": [1.0] * 1024},
    ],
    ids=["two-state-1e-310", "birth-death-1025"],
)
def test_analyze_prints_finite_constants_for_a_law_that_spans_the_doubles(capsys, tmp_path, chain):
    path = write_chain(tmp_path, "c.json", chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    constants = json.loads(out, parse_constant=refuse_constant)["constants"]
    assert np.all(np.isfinite(constants))
    if len(constants) == 2:
        assert constants == pytest.approx([1e155, 1e-155], rel=5e-14)


def test_a_one_way_edge_out_of_a_small_state_is_not_reversible(capsys, tmp_path):
    # the 40-state chain of deaths geomspace(1, 1e2) with a one-way edge
    # 38 -> 0 and pi supplied as the birth-death law, which passes the
    # stationary residual: the edge's flux is tiny next to the largest,
    # but its own relative defect is 1
    birth, death = np.ones(39), np.geomspace(1.0, 1e2, 39)
    q = chain_core.build_birth_death(birth, death).q.copy()
    q[38, 0], q[38, 38] = 1.0, q[38, 38] - 1.0
    lp = np.concatenate([[0.0], np.cumsum(np.log(birth / death))])
    law = np.exp(lp - lp.max())
    path = write_chain(tmp_path, "oneway.json", {"Q": q.tolist(), "f": [1.0] * 40, "pi": (law / law.sum()).tolist()})
    code, out, _ = run(capsys, "gap", "--input", path)
    assert code == 0
    assert json.loads(out)["reversible"] is False
    code, out, _ = run(capsys, "analyze", "--input", path)
    assert code == 0
    assert json.loads(out)["reversibility_violation"] == 1.0


def test_a_reversible_chain_whose_law_underflows_is_an_input_error(capsys, tmp_path):
    # unit births and deaths 1e9 given as a matrix: pi_39 is near 1e-351
    i = np.arange(39)
    q = np.zeros((40, 40))
    q[i, i + 1], q[i + 1, i] = 1.0, 1e9
    np.fill_diagonal(q, -q.sum(axis=1))
    path = write_chain(tmp_path, "bd1e9.json", {"Q": q.tolist(), "f": [1.0] * 40})
    code, _, err = run(capsys, "gap", "--input", path)
    assert code == 2
    assert json.loads(err) == {
        "error": "SingularSystem",
        "message": "the detailed-balance law underflows: smallest log10 pi is -351.0",
    }


def test_analyze_constants_stay_finite_for_a_huge_weight(capsys):
    # f = 1e200 squares past the double range; the constants must not print Infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "analyze", "--family", "example21", "--pi", "0.5,0.5", "--beta", "1e200")
    assert code == 0
    rep = json.loads(out, parse_constant=refuse_constant)
    assert rep["constants"] == pytest.approx([np.sqrt(0.5) * 1e200] * 2, rel=1e-15)


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


@pytest.mark.parametrize("window, shown", [("0.5,inf", "(0.5, inf)"), ("nan,5", "(nan, 5.0)")])
def test_fit_window_ends_must_be_finite(capsys, window, shown):
    # 0.5,inf once exited 0 and printed "window": [0.5, Infinity], which
    # is not JSON
    code, out, err = run(capsys, "fit", *EX21_ARGS, "--window", window)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ErgorateError", "message": f"window {shown} needs two finite ends"}


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
    assert json.loads(err) == {
        "error": "NoDrift", "message": "best drift coefficient 0.000e+00 is not positive"
    }


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


def test_simulate_stderrs_stay_finite_for_a_huge_weight(capsys, tmp_path):
    # f up to 1e200 squares past the double range; the stderrs once printed nan
    path = write_chain(
        tmp_path, "c.json", {"Q": [[-1.0, 0.5, 0.5], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]], "f": [1, 1e100, 1e200]}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "simulate", "--input", path, "--points", "5", "--paths", "500")
    assert code == 0
    data = np.loadtxt(out.strip().split("\n")[1:], delimiter=",")
    assert np.all(np.isfinite(data)) and np.all(data[1:, 2] > 0.0)


def test_simulate_reproducible(capsys):
    args = ["simulate", *EX21_ARGS, "--points", "3", "--paths", "100", "--tmax", "1", "--seed", "9"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_refuses_a_horizon_beyond_the_draw_bound(capsys):
    # --tmax 1e300 is finite, and the sampler once ran without end on it
    code, out, err = run(capsys, "simulate", "--family", "example22", "--tmax", "1e300", "--paths", "10")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "Overflow"


def test_simulate_refuses_more_paths_than_the_draw_bound(capsys):
    # every path draws one block, however short --tmax: this call once
    # estimated 2 draws and would have run for about half an hour
    code, out, err = run(capsys, "simulate", "--family", "example22", "--tmax", "1e-9", "--paths", "2000000000")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "Overflow",
        "message": "about 1.600e+10 jump draws expected, more than 1e+09",
    }


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


def test_verify_output_dash_puts_the_json_alone_on_stdout(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--only", "gap", "--output", "-")
    assert code == 0
    assert len(json.loads(out)["results"]) == 3
    assert err.splitlines()[-1] == "3/3 checks passed"
    # a file gets the same bytes
    dest = tmp_path / "report.json"
    assert run(capsys, "verify", "--only", "gap", "--output", str(dest))[0] == 0
    assert dest.read_bytes() == out.encode()


BATTERY = [
    *(
        f"{kind}.{chain}"
        for kind in ("stationary", "reversibility", "dual.involution", "reversibilize")
        for chain in ("example21.n3", "example21.n7", "example22.n3", "birth_death.n6")
    ),
    "gap.example21.n3",
    "gap.example21.n7",
    "gap.example22",
    "truerate.example22",
    "dirichlet.example21",
    "semigroup.chapman",
    "semigroup.stationarity",
    "semigroup.limit.example22",
    "envelope.all_families",
    "fit.example21",
    "lemma31",
    "lemma32",
    "lemma33",
    "lemma34.mu_ft_norm",
    "hfunction.closed_form",
    "hfunction.meanzero",
    "montecarlo.holding_times",
]


def test_verify_json_output_of_the_full_battery(capsys, tmp_path):
    # the Monte-Carlo check's verdict was a numpy bool, which json cannot write
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--output", str(dest))
    assert code == 0
    results = json.loads(dest.read_text())["results"]
    assert [r["check"] for r in results] == BATTERY
    assert all(r["pass"] is True for r in results)
    assert out.splitlines()[-1] == f"{len(BATTERY)}/{len(BATTERY)} checks passed"


def test_battery_names_match_the_battery_chains():
    chains = cli._battery_chains(chain_core.Tolerances())
    assert [f"{spec.label}.n{spec.n}" for spec in chains] == list(cli._BATTERY_NAMES)


def test_verify_only_computes_only_what_it_prints(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed for a check that does not run")

    for name in ("dual", "reversibilize", "stationary_residual"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, _ = run(capsys, "verify", "--only", "lemma31")
    assert code == 0
    first, tally = out.splitlines()
    assert first.startswith("PASS  lemma31 ")
    assert tally == "1/1 checks passed"


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


@pytest.mark.parametrize(
    "obj, unknown",
    [
        ({"family": "example22", "F": [1, 2, 3]}, "'F'"),
        ({"family": "birth_death", "birth": [1, 1], "death": [1, 1], "weights": [1, 2, 3]}, "'weights'"),
        ({"Q": [[-1, 1], [1, -1]], "f": [1, 1], "pie": [0.5, 0.5]}, "'pie'"),
    ],
    ids=["example22", "birth_death", "matrix"],
)
def test_unknown_chain_file_key_is_an_input_error(capsys, tmp_path, obj, unknown):
    code, out, err = run(capsys, "gap", "--input", write_chain(tmp_path, "c.json", obj))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    blob = json.loads(err)
    assert blob["error"] == "ErgorateError"
    assert blob["message"].startswith(f"unknown key(s) {unknown} in chain spec; accepted: ")


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


def input_error(code, out, err) -> str:
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"] == "ErgorateError"
    return blob["message"]


@pytest.mark.parametrize("command", ["decay", "fit", "simulate"])
@pytest.mark.parametrize("points", ["-1", "0"])
def test_points_below_one_is_an_input_error(capsys, command, points):
    argv = [command, "--family", "example22", "--points", points]
    assert "--points" in input_error(*run(capsys, *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", *EX21_ARGS, "--tmax", "nan"],
        ["decay", "--family", "example22", "--tmax", "nan"],
        ["fit", "--family", "example22", "--tmax", "nan"],
        ["fit", *EX21_ARGS, "--tmax", "inf"],
        ["simulate", "--family", "example22", "--tmax", "nan"],
        # linspace(0, inf) once began with NaN and the sampler never returned
        ["simulate", "--family", "example22", "--tmax", "inf", "--paths", "10"],
    ],
)
def test_non_finite_horizon_is_an_input_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would precede the JSON line
        message = input_error(*run(capsys, *argv))
    assert message == f"horizon {argv[argv.index('--tmax') + 1]} is not finite"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_lemma_size_below_two_is_an_input_error(capsys, n):
    assert "--n" in input_error(*run(capsys, "verify", "--n", n))
    # the lemma chain is built on first use: checks that read none still run
    code, out, _ = run(capsys, "verify", "--n", n, "--only", "gap")
    assert code == 0
    assert "FIRST FAILURE" not in out


@pytest.mark.parametrize(
    "n, message",
    [
        ("1", "--n needs at least 2 states, got 1"),
        ("21", "--n needs at most 20 states for lemma32, got 21"),
        # a million states once died in numpy with a MemoryError and exit 1
        ("1000000", "--n needs at most 600 states for lemma31, got 1000000"),
    ],
)
def test_verify_lemma_size_is_checked_before_any_check_runs(capsys, monkeypatch, n, message):
    calls = []

    def counted(*args, _orig=cli.stationary_residual):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(cli, "stationary_residual", counted)
    assert input_error(*run(capsys, "verify", "--n", n)) == message
    assert calls == []


def test_hfunction_closed_form_fails_when_off_by_1e9_relative(capsys, monkeypatch):
    def skewed(*args, _orig=cli.h_function):
        h, direct, closed = _orig(*args)
        return h, direct, closed * (1.0 + 1e-9)

    monkeypatch.setattr(cli, "h_function", skewed)
    for n in ("6", "200"):
        code, out, _ = run(capsys, "verify", "--only", "hfunction.closed_form", "--n", n)
        assert code == 1
        assert out.startswith("FAIL  hfunction.closed_form ")


def test_hfunction_meanzero_fails_when_h_is_shifted_by_1e9_of_its_norm(capsys, monkeypatch):
    # the bound scales with 1 / sqrt(pi_i), not with h: a shift at the state
    # of largest pi still fails it, at every size up to the cap
    def shifted(spec, i, s, _orig=cli.h_function):
        h, direct, closed = _orig(spec, i, s)
        values = h.values.copy()
        values[np.argmax(spec.pi)] += 1e-9 * np.sqrt(direct)
        return replace(h, values=values), direct, closed

    monkeypatch.setattr(cli, "h_function", shifted)
    for n in ("6", "600"):
        code, out, _ = run(capsys, "verify", "--only", "hfunction.meanzero", "--n", n)
        assert code == 1
        assert out.startswith("FAIL  hfunction.meanzero ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "24", "--only", "lemma31"],
        ["--n", "21", "--only", "hfunction"],
        # min pi is 4.5e-8: hfunction.closed_form's absolute bound once failed
        ["--n", "200", "--only", "hfunction"],
        # the cap: hfunction.meanzero once read 1.8e-12 here, over its 1e-12 bound
        ["--n", "600", "--only", "hfunction"],
        ["--n", "600", "--only", "lemma31"],
    ],
)
def test_verify_lemma_size_above_the_enumeration_cap_runs_the_other_lemma_checks(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--family", "example22", "--beta", "3"], "--beta"),
        (["--family", "example22", "--pi", "0.5,0.5"], "--pi"),
        (["--family", "birth_death", "--pi", "0.5,0.5", "--beta", "3"], "--pi, --beta"),
        (["--input", "{path}", "--family", "example21", "--beta", "9"], "--family, --beta"),
        (["--input", "{path}", "--pi", "0.5,0.5"], "--pi"),
    ],
)
def test_a_chain_flag_the_command_ignores_is_an_input_error(capsys, tmp_path, flags, named):
    path = write_chain(tmp_path, "ex22.json", {"family": "example22"})
    argv = [flag.format(path=path) for flag in flags]
    assert named in input_error(*run(capsys, "gap", *argv))


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

    def broken(spec, args):  # a chain handler takes the resolved chain and the flags
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


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["gap"], ["decay"], ["fit"], ["drift"], ["simulate", "--paths", "200"]],
    ids=lambda argv: argv[0],
)
def test_output_file_holds_the_bytes_stdout_would(capsys, tmp_path, argv):
    code, stdout, _ = run(capsys, *argv, *EX21_ARGS)
    assert code == 0
    dest = tmp_path / "report"
    code, out, _ = run(capsys, *argv, *EX21_ARGS, "--output", str(dest))
    assert (code, out) == (0, "")
    assert dest.read_bytes() == stdout.encode()


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


def fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ergorate: this process has scipy loaded already."""
    src = os.path.dirname(os.path.dirname(ergorate.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_no_scipy_module_is_loaded_by_any_command_verify_included():
    proc = fresh_python(SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    after_import, after_gap, after_decay, after_verify = json.loads(proc.stdout)
    assert after_import == []
    assert after_gap == []
    # example22 is irreversible: its curve is uniformized
    assert after_decay == []
    # the identity checks' whole deviations are uniformized and squared
    assert after_verify == []


SCIPY_BLOCKED = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import ergorate.cli

for argv in (
    ["verify"],
    ["analyze", "--family", "example22"],
    ["decay", "--family", "example22"],
    ["fit", "--family", "example22"],
    ["simulate", "--family", "example22", "--paths", "200"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ergorate.cli.main(argv)
    print(argv[0], code)
"""


def test_commands_run_with_scipy_blocked():
    proc = fresh_python(SCIPY_BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        f"{cmd} 0" for cmd in ("verify", "analyze", "decay", "fit", "simulate")
    ]
