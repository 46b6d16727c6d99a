"""Command-line front end.

Subcommands: analyze (full spectral report), gap (rates only), decay
(weighted-norm curve as CSV), fit (exponential rate fit as JSON), drift
(drift-condition coefficients), verify (the verification battery), and
simulate (Monte-Carlo decay estimates as CSV).

Exit codes: 0 success, 1 verification failure, 2 input error.  Errors
are emitted to stderr as one-line JSON objects {"error", "message"}.
Each call builds every chain with one Tolerances from the tolerance flags
and echoes it; ``--family`` flags become the dict a chain file holds.

The argument parser is built once per process, on the first ``main()``
call, and each call looks its handler ``cmd_<command>`` up by name.
Building the parser takes about 2 ms, so an in-process caller pays it
once, not on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .chain_core import (
    FAMILIES,
    ChainSpec,
    Tolerances,
    build_birth_death,
    build_example21,
    build_example22,
    dual,
    is_reversible,
    load_chain_file,
    parse_chain_dict,
    reversibilize,
)
from .errors import ErgorateError
from .htransform import check_lemma31, check_lemma32, check_lemma33, h_function, transform
from .montecarlo import empirical_fnorm, empirical_to_csv, sample_paths
from .semigroup import (
    Propagator,
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    fit_rate,
    mu_ft_norm,
)
from .spectral import chain_analysis, drift_condition, gap, spectral_report


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ErgorateError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _resolve_chain(args: argparse.Namespace) -> ChainSpec:
    if args.input:
        return load_chain_file(args.input, args.tol)
    if args.family is None:
        raise ErgorateError("provide --input FILE or --family NAME")
    # the family parameters that have flags; the rest need an --input file
    flags = {"pi": args.pi or None, "beta": args.beta}
    obj = {"family": args.family, **{key: v for key, v in flags.items() if v is not None}}
    required = FAMILIES[args.family].required if args.family in FAMILIES else ()
    if set(required) <= flags.keys() and not set(required) <= obj.keys():
        raise ErgorateError(f"family {args.family} needs {' and '.join('--' + k for k in required)}")
    if "pi" in obj:
        obj["pi"] = _parse_floats(obj["pi"], "--pi")
    return parse_chain_dict(obj, args.tol)


def _emit(text: str, output: str | None) -> None:
    """Write the report to stdout or atomically to a file."""
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergorate-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ErgorateError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _grid_for(spec: ChainSpec, args: argparse.Namespace):
    return default_time_grid(chain_analysis(spec).true_decay_rate, points=args.points, tmax=args.tmax)


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    report = spectral_report(spec)
    bundle = report.to_dict()
    bundle.update(
        {
            "label": spec.label,
            "n": spec.n,
            "reversibility_violation": chain_analysis(spec).violation,
            "stationary": list(map(float, spec.pi)),
            "weight": list(map(float, spec.f)),
            "rate_exceeds_gap": report.true_decay_rate > report.gap + 1e-9,
            "tolerances": asdict(args.tol),
        }
    )
    _emit(json.dumps(bundle, indent=2), args.output)
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    report = spectral_report(spec)
    _emit(
        json.dumps(
            {
                "label": spec.label,
                "gap": report.gap,
                "rate_epsilon_max": report.rate_epsilon_max,
                "true_decay_rate": report.true_decay_rate,
                "reversible": report.reversible,
                "tolerances": asdict(args.tol),
            },
            indent=2,
        ),
        args.output,
    )
    return 0


def cmd_decay(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    curve = decay_curve(spec, args.state, _grid_for(spec, args))
    _emit(decay_curve_to_csv(curve), args.output)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    curve = decay_curve(spec, args.state, _grid_for(spec, args))
    window = None
    if args.window:
        vals = _parse_floats(args.window, "--window")
        if len(vals) != 2:
            raise ErgorateError("--window expects two numbers t_min,t_max")
        window = (vals[0], vals[1])
    fit = fit_rate(curve, window=window)
    payload = fit.to_dict()
    payload.update({"label": spec.label, "state": args.state, "tolerances": asdict(args.tol)})
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    report = drift_condition(spec, small_set=(0,))
    g = chain_analysis(spec).gap
    _emit(
        json.dumps(
            {
                "label": spec.label,
                "c_max": report.c_max,
                "b_min": report.b_min,
                "small_set": list(report.small_set),
                "gap_rate": g,
                "drift_rate_below_gap": report.c_max < g,
                "tolerances": asdict(args.tol),
            },
            indent=2,
        ),
        args.output,
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _resolve_chain(args)
    tmax = args.tmax if args.tmax is not None else 10.0 / chain_analysis(spec).true_decay_rate
    times = np.linspace(0.0, tmax, args.points)
    ensemble = sample_paths(spec, args.state, times, args.paths, args.seed)
    emp = empirical_fnorm(ensemble, spec.stationary, spec.weight)
    _emit(empirical_to_csv(emp), args.output)
    return 0


# ----------------------------------------------------------------------
# verification battery

def _battery_chains(tol: Tolerances) -> list[ChainSpec]:
    rng = np.random.default_rng(90210)
    p = rng.uniform(0.5, 1.5, 7)
    return [
        build_example21([0.5, 0.25, 0.25], 2.0, tol),
        build_example21(p / p.sum(), 3.0, tol),
        build_example22(tol=tol),
        build_birth_death([1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2], tol),
    ]


def _verify_checks(n_lemma: int, input_spec: ChainSpec | None, tol: Tolerances):
    chains = _battery_chains(tol)
    checks: list[tuple[str, object]] = []

    def residual_check(name, value, tol):
        checks.append((name, lambda v=value, t=tol: (v <= t, f"residual {v:.3e} (tol {t:.1e})")))

    for spec in chains:
        r = float(np.max(np.abs(spec.pi @ spec.q)))
        residual_check(f"stationary.{spec.label}.n{spec.n}", r, tol.stat_tol * spec.rate_matrix.max_rate)

    for spec in chains:
        rev, viol = is_reversible(spec.rate_matrix, spec.stationary, tol)
        expected = FAMILIES[spec.label].reversible
        checks.append(
            (
                f"reversibility.{spec.label}.n{spec.n}",
                lambda rv=rev, ex=expected, v=viol: (rv == ex, f"verdict {rv}, violation {v:.3e}"),
            )
        )

    for spec in chains:
        Qhat = dual(spec.rate_matrix, spec.stationary)
        Qhh = dual(Qhat, spec.stationary)
        r = float(np.max(np.abs(Qhh.q - spec.q))) / spec.rate_matrix.max_rate
        residual_check(f"dual.involution.{spec.label}.n{spec.n}", r, 1e-12)

    for spec in chains:
        Qbar = reversibilize(spec.rate_matrix, spec.stationary)
        ok, viol = is_reversible(Qbar, spec.stationary, tol)
        checks.append(
            (
                f"reversibilize.{spec.label}.n{spec.n}",
                lambda o=ok, v=viol: (o, f"violation {v:.3e}"),
            )
        )

    for spec in (chains[0], chains[1]):
        residual_check(f"gap.example21.n{spec.n}", abs(gap(spec.rate_matrix, spec.stationary, tol) - 1.0), 1e-9)
    ex22 = chains[2]
    residual_check("gap.example22", abs(gap(ex22.rate_matrix, ex22.stationary, tol) - 1.0), 1e-9)
    residual_check(
        "truerate.example22",
        abs(spectral_report(ex22).true_decay_rate - 1.25),
        1e-9,
    )

    def dirichlet_check():
        spec = chains[1]
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            g = rng.standard_normal(spec.n)
            g -= np.dot(spec.pi, g)
            quad = float(-g @ (spec.pi[:, None] * spec.q) @ g)
            var = float(np.dot(spec.pi, g**2))
            worst = max(worst, abs(quad - var))
        return worst <= 1e-10, f"worst residual {worst:.3e}"

    checks.append(("dirichlet.example21", dirichlet_check))

    def chapman_check():
        worst = 0.0
        rng = np.random.default_rng(11)
        for spec in chains:
            prop = Propagator(spec)
            for _ in range(3):
                t, s = rng.uniform(0.0, 5.0, 2)
                r = float(np.max(np.abs(prop.matrix(t) @ prop.matrix(s) - prop.matrix(t + s))))
                worst = max(worst, r)
        return worst <= 1e-8, f"worst residual {worst:.3e}"

    checks.append(("semigroup.chapman", chapman_check))

    def stationarity_check():
        worst = 0.0
        for spec in chains:
            prop = Propagator(spec)
            for t in (0.3, 1.7, 4.0):
                worst = max(worst, float(np.max(np.abs(spec.pi @ prop.matrix(t) - spec.pi))))
        return worst <= 1e-10, f"worst residual {worst:.3e}"

    checks.append(("semigroup.stationarity", stationarity_check))

    def limit_check():
        P = Propagator(ex22).matrix(40.0)
        r = float(np.max(np.abs(P - np.outer(np.ones(3), ex22.pi))))
        return r <= 1e-9, f"residual {r:.3e}"

    checks.append(("semigroup.limit.example22", limit_check))

    def envelope_check():
        worst = -np.inf
        for spec in chains:
            grid = default_time_grid(1.0, points=40, tmax=8.0)
            prop = Propagator(spec)
            for i in range(spec.n):
                c = decay_curve(spec, i, grid, propagator=prop)
                worst = max(worst, float(np.max(c.fnorms - c.envelope)))
        return worst <= 1e-9, f"worst excess {worst:.3e}"

    checks.append(("envelope.all_families", envelope_check))

    def fit_check():
        spec = chains[0]
        grid = np.linspace(0.5, 8.0, 120)
        c = decay_curve(spec, 0, grid)
        fit = fit_rate(c, window=(1.0, 7.0))
        return abs(fit.rate - 1.0) <= 1e-6, f"rate {fit.rate:.9f}"

    checks.append(("fit.example21", fit_check))

    def lemma_chain():
        rng = np.random.default_rng(13)
        b = rng.uniform(0.5, 2.0, n_lemma - 1)
        d = rng.uniform(0.5, 2.0, n_lemma - 1)
        fw = rng.uniform(1.0, 3.0, n_lemma)
        return build_birth_death(b, d, fw, tol)

    def lemma31_check():
        spec = lemma_chain()
        T = transform(spec)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(5):
            g1, g2 = rng.standard_normal((2, spec.n))
            for rep in check_lemma31(T, 0.7, 0.3, g1, g2):
                worst = max(worst, rep.residual)
        return worst <= 1e-9, f"worst residual {worst:.3e}"

    checks.append(("lemma31", lemma31_check))

    def lemma32_check():
        rep = check_lemma32(transform(lemma_chain()), 0.5)
        return rep.passed, f"|lhs-rhs| = {rep.residual:.3e}"

    checks.append(("lemma32", lemma32_check))

    def lemma33_check():
        rep = check_lemma33(transform(lemma_chain()), 0.5)
        return rep.passed, f"slack {rep.residual:.3e} (lhs {rep.lhs:.6f} rhs {rep.rhs:.6f})"

    checks.append(("lemma33", lemma33_check))

    def lemma34_check():
        rng = np.random.default_rng(19)
        worst = 0.0
        for spec in chains:
            prop = Propagator(spec)
            for _ in range(5):
                mu = rng.dirichlet(np.ones(spec.n))
                t = float(rng.uniform(0.1, 3.0))
                direct, via_dual = mu_ft_norm(mu, spec, t, propagator=prop)
                worst = max(worst, abs(direct - via_dual))
        return worst <= 1e-10, f"worst |direct - dual| = {worst:.3e}"

    checks.append(("lemma34.mu_ft_norm", lemma34_check))

    def hfun_check():
        spec = lemma_chain()
        prop = Propagator(spec)
        worst = 0.0
        for s in (0.25, 0.8):
            for i in range(spec.n):
                _, direct, closed = h_function(spec, i, s, propagator=prop)
                worst = max(worst, abs(direct - closed))
        return worst <= 1e-10, f"worst residual {worst:.3e}"

    checks.append(("hfunction.closed_form", hfun_check))

    def hfun_meanzero_check():
        spec = lemma_chain()
        T = transform(spec)
        worst = 0.0
        for i in range(spec.n):
            h, _, _ = h_function(spec, i, 0.5, propagator=T.prop)
            worst = max(worst, float(np.max(np.abs(T.pif(h.values)))))
        return worst <= 1e-12, f"worst residual {worst:.3e}"

    checks.append(("hfunction.meanzero", hfun_meanzero_check))

    def mc_check():
        spec = chains[0]
        times = np.array([0.0, 0.5, 1.5])
        ens = sample_paths(spec, 0, times, 4000, seed=4242)
        ok = True
        detail = []
        for s0 in range(spec.n):
            count = ens.holding_count[s0]
            if count == 0:
                continue
            mean = ens.holding_time_sum[s0] / count
            expect = 1.0 / (-spec.q[s0, s0])
            z = abs(mean - expect) / (expect / np.sqrt(count))
            detail.append(f"state {s0} z={z:.2f}")
            ok = ok and z <= 4.0
        return ok, "; ".join(detail)

    checks.append(("montecarlo.holding_times", mc_check))

    if input_spec is not None:
        r = float(np.max(np.abs(input_spec.pi @ input_spec.q)))
        residual_check("input.stationary", r, tol.stat_tol * input_spec.rate_matrix.max_rate)
        if input_spec.label in FAMILIES:
            rev, viol = is_reversible(input_spec.rate_matrix, input_spec.stationary, tol)
            expected = FAMILIES[input_spec.label].reversible
            checks.append(
                (
                    f"input.family_contract.{input_spec.label}",
                    lambda rv=rev, ex=expected, v=viol: (
                        rv == ex,
                        f"label promises reversible={ex}, measured {rv} (violation {v:.3e})",
                    ),
                )
            )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    input_spec = load_chain_file(args.input, args.tol) if args.input else None
    checks = _verify_checks(args.n, input_spec, args.tol)
    if args.only:
        checks = [(name, fn) for name, fn in checks if args.only in name]
        if not checks:
            raise ErgorateError(f"--only {args.only!r} matches no checks")
    lines = []
    results = []
    first_failure = None
    for name, fn in checks:
        passed, detail = fn()
        results.append({"check": name, "pass": passed, "detail": detail})
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name:<38s} {detail}")
        if not passed and first_failure is None:
            first_failure = name
    n_pass = sum(r["pass"] for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    if first_failure is not None:
        lines.append(f"FIRST FAILURE: {first_failure}")
    text = "\n".join(lines)
    if args.output:
        _emit(json.dumps({"results": results, "tolerances": asdict(args.tol)}, indent=2), args.output)
        print(text)
    else:
        print(text)
    return 0 if first_failure is None else 1


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; subcommand ``X`` is handled by ``cmd_X``."""
    parser = argparse.ArgumentParser(
        prog="ergorate",
        description="Spectral-gap and weighted-norm convergence analyzer for finite CTMCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = Tolerances()

    def add_common(p: argparse.ArgumentParser, chain: bool = True) -> None:
        if chain:
            p.add_argument("--family", help=f"builtin family: {', '.join(FAMILIES)}")
            p.add_argument("--input", help="chain-spec JSON file")
            p.add_argument("--pi", help="comma-separated stationary law (example21)")
            p.add_argument("--beta", type=float, help="weight level on states >= 1 (example21)")
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--row-tol", type=float, default=tol.row_tol, help="override row-sum tolerance")
        p.add_argument("--stat-tol", type=float, default=tol.stat_tol, help="override stationarity tolerance")
        p.add_argument("--rev-tol", type=float, default=tol.rev_tol, help="override detailed-balance tolerance")

    p = sub.add_parser("analyze", help="full spectral report as JSON")
    add_common(p)

    p = sub.add_parser("gap", help="rates only, as JSON")
    add_common(p)

    p = sub.add_parser("decay", help="weighted-norm decay curve as CSV")
    add_common(p)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=60)

    p = sub.add_parser("fit", help="exponential rate fit as JSON")
    add_common(p)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--window", help="fit window t_min,t_max")

    p = sub.add_parser("drift", help="drift-condition coefficients as JSON")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo decay estimates as CSV")
    add_common(p)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=12345)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--input", help="also verify this chain-spec JSON file")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--n", type=int, default=6, help="state count for the lemma-check chains")
    p.add_argument("--output", help="also write JSON results here")
    p.add_argument("--row-tol", type=float, default=tol.row_tol)
    p.add_argument("--stat-tol", type=float, default=tol.stat_tol)
    p.add_argument("--rev-tol", type=float, default=tol.rev_tol)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.tol = Tolerances(args.row_tol, args.stat_tol, args.rev_tol)
        # looked up per call: the cached parser must not pin the handlers
        return globals()[f"cmd_{args.command}"](args)
    except ErgorateError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
