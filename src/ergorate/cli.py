"""Command-line front end.

Subcommands: analyze (full spectral report), gap (rates only), decay
(weighted-norm curve as CSV), fit (exponential rate fit as JSON), drift
(drift-condition coefficients), verify (the verification battery), and
simulate (Monte-Carlo decay estimates as CSV).

A chain subcommand ``X`` is ``cmd_X(spec, args)``, which maps the resolved
chain to its report, a dict (written as JSON) or CSV text; ``main`` resolves
the chain, looks the handler up by name and emits the report with ``_emit``,
the one writer of report bytes.  ``--family`` flags become the dict a chain
file holds; one Tolerances from the tolerance flags builds every chain of a
call and is echoed in its JSON.

Exit codes: 0 success, 1 verification failure, 2 input error.  Errors
are emitted to stderr as one-line JSON objects {"error", "message"}.

The argument parser is built once per process, on the first ``main()``
call; it takes about 2 ms, so an in-process caller pays it once.
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
    stationary_residual,
)
from .errors import ErgorateError
from .htransform import check_lemma31, check_lemma32, check_lemma33, h_function, transform
from .montecarlo import empirical_fnorm, empirical_to_csv, sample_paths
from .semigroup import (
    MAX_ENUMERATED_STATES,
    Propagator,
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    fit_rate,
    mu_ft_norm,
)
from .spectral import _zero_tol, chain_analysis, drift_condition, spectral_report


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ErgorateError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _resolve_chain(args: argparse.Namespace) -> ChainSpec:
    # the family parameters that have flags; the rest need an --input file
    flags = {"pi": args.pi or None, "beta": args.beta}
    obj = {"family": args.family, **{key: v for key, v in flags.items() if v is not None}}
    if args.input:
        ignored = [f"--{key}" for key, v in obj.items() if v is not None]
        if ignored:
            raise ErgorateError(f"--input takes no {', '.join(ignored)}")
        return load_chain_file(args.input, args.tol)
    if args.family is None:
        raise ErgorateError("provide --input FILE or --family NAME")
    family = FAMILIES.get(args.family)
    if family is not None:
        keys = {"family", *family.required, *family.optional}
        unused = [f"--{key}" for key in obj if key not in keys]
        if unused:
            raise ErgorateError(f"family {args.family} takes no {', '.join(unused)}")
        if set(family.required) <= flags.keys() and not set(family.required) <= obj.keys():
            raise ErgorateError(f"family {args.family} needs {' and '.join('--' + k for k in family.required)}")
    if "pi" in obj:
        obj["pi"] = _parse_floats(obj["pi"], "--pi")
    return parse_chain_dict(obj, args.tol)


def _emit(report: dict | str, args: argparse.Namespace, stream=None) -> None:
    """Write a report, a dict as JSON with the call's tolerances as its last key, or
    text, ending in one newline.  It goes to ``stream`` if given, else atomically to
    the ``--output`` file, else (also for ``-``) to stdout: a file gets stdout's bytes."""
    if isinstance(report, dict):
        report = json.dumps({**report, "tolerances": asdict(args.tol)}, indent=2)
    text = report if report.endswith("\n") else report + "\n"
    if stream or args.output in (None, "-"):
        (stream or sys.stdout).write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergorate-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ErgorateError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _grid_for(spec: ChainSpec, args: argparse.Namespace):
    return default_time_grid(chain_analysis(spec).true_decay_rate, points=args.points, tmax=args.tmax)


def cmd_analyze(spec: ChainSpec, args: argparse.Namespace) -> dict:
    report = spectral_report(spec)
    return {
        **report.to_dict(),
        "label": spec.label,
        "n": spec.n,
        "reversibility_violation": chain_analysis(spec).violation,
        "stationary": list(map(float, spec.pi)),
        "weight": list(map(float, spec.f)),
        # measured against the zero-mode tolerance, which scales with Q: Q -> cQ keeps the verdict
        "rate_exceeds_gap": report.true_decay_rate - report.gap > _zero_tol(spec.rate_matrix),
    }


def cmd_gap(spec: ChainSpec, args: argparse.Namespace) -> dict:
    report = spectral_report(spec)
    return {
        "label": spec.label,
        "gap": report.gap,
        "rate_epsilon_max": report.rate_epsilon_max,
        "true_decay_rate": report.true_decay_rate,
        "reversible": report.reversible,
    }


def cmd_decay(spec: ChainSpec, args: argparse.Namespace) -> str:
    return decay_curve_to_csv(decay_curve(spec, args.state, _grid_for(spec, args)))


def cmd_fit(spec: ChainSpec, args: argparse.Namespace) -> dict:
    curve = decay_curve(spec, args.state, _grid_for(spec, args))
    window = None
    if args.window:
        window = tuple(_parse_floats(args.window, "--window"))
        if len(window) != 2:
            raise ErgorateError("--window expects two numbers t_min,t_max")
    return {**fit_rate(curve, window=window).to_dict(), "label": spec.label, "state": args.state}


def cmd_drift(spec: ChainSpec, args: argparse.Namespace) -> dict:
    report = drift_condition(spec, small_set=(0,))
    g = chain_analysis(spec).gap
    return {
        "label": spec.label,
        "c_max": report.c_max,
        "b_min": report.b_min,
        "small_set": list(report.small_set),
        "gap_rate": g,
        "drift_rate_below_gap": report.c_max < g,
    }


def cmd_simulate(spec: ChainSpec, args: argparse.Namespace) -> str:
    tmax = args.tmax if args.tmax is not None else 10.0 / chain_analysis(spec).true_decay_rate
    if not np.isfinite(tmax):  # before linspace, which warns on an infinite end
        raise ErgorateError(f"horizon {tmax} is not finite")
    times = np.linspace(0.0, tmax, args.points)
    ensemble = sample_paths(spec, args.state, times, args.paths, args.seed)
    return empirical_to_csv(empirical_fnorm(ensemble, spec.stationary, spec.weight))


# ----------------------------------------------------------------------
# verification battery

# label.n<size> of each chain _battery_chains builds, in order: the names of the
# per-chain checks, known before any chain is built
_BATTERY_NAMES = ("example21.n3", "example21.n7", "example22.n3", "birth_death.n6")

# Largest lemma-check chain (verify --n).  The checks cost O(n^3): `verify --only hfunction
# --n 600` takes 0.4 s (2-vCPU x86 VM, one BLAS thread).  The seed-13 lemma chain's gap is at
# least 30x the zero-mode tolerance up to n = 652, and under it from 826 (EigenFailure).
MAX_LEMMA_STATES = 600


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
    """The battery in print order as (name, run, n_range): ``run()`` computes its inputs
    when called and returns (passed, detail); ``n_range`` bounds the ``n_lemma`` it can take."""
    chains = functools.cache(lambda: _battery_chains(tol))  # built on first use, once per call
    checks: list[tuple[str, object, tuple]] = []

    def check(name, n_range=(-np.inf, np.inf)):
        """Register the decorated ``run()`` as check ``name``."""
        def register(run):
            checks.append((name, run, n_range))
            return run
        return register

    def per_chain(prefix):
        """Register the decorated ``run(spec)`` as check ``prefix.<chain>`` for each battery chain."""
        def register(run):
            for k, name in enumerate(_BATTERY_NAMES):
                check(f"{prefix}.{name}")(lambda k=k: run(chains()[k]))
            return run
        return register

    def residual(value, bound):
        return value <= bound, f"residual {value:.3e} (tol {bound:.1e})"

    @per_chain("stationary")
    def stationarity(spec):
        return residual(*stationary_residual(spec.rate_matrix, spec.pi, tol))

    @per_chain("reversibility")
    def reversibility(spec):
        rev, viol = chain_analysis(spec).reversible, chain_analysis(spec).violation
        return rev == FAMILIES[spec.label].reversible, f"verdict {rev}, violation {viol:.3e}"

    @per_chain("dual.involution")
    def involution(spec):
        Qhat = dual(spec.rate_matrix, spec.stationary)
        Qhh = dual(Qhat, spec.stationary)
        return residual(float(np.max(np.abs(Qhh.q - spec.q))) / spec.rate_matrix.max_rate, 1e-12)

    @per_chain("reversibilize")
    def reversibilized(spec):
        ok, viol = is_reversible(reversibilize(spec.rate_matrix, spec.stationary), spec.stationary, tol)
        return ok, f"violation {viol:.3e}"

    check("gap.example21.n3")(lambda: residual(abs(chain_analysis(chains()[0]).gap - 1.0), 1e-9))
    check("gap.example21.n7")(lambda: residual(abs(chain_analysis(chains()[1]).gap - 1.0), 1e-9))
    check("gap.example22")(lambda: residual(abs(chain_analysis(chains()[2]).gap - 1.0), 1e-9))
    check("truerate.example22")(lambda: residual(abs(chain_analysis(chains()[2]).true_decay_rate - 1.25), 1e-9))

    @check("dirichlet.example21")
    def dirichlet():
        spec = chains()[1]
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            g = rng.standard_normal(spec.n)
            g -= np.dot(spec.pi, g)
            quad = float(-g @ (spec.pi[:, None] * spec.q) @ g)
            var = float(np.dot(spec.pi, g**2))
            worst = max(worst, abs(quad - var))
        return worst <= 1e-10, f"worst residual {worst:.3e}"

    @check("semigroup.chapman")
    def chapman():
        worst = 0.0
        rng = np.random.default_rng(11)
        for spec in chains():
            prop = Propagator(spec)
            for _ in range(3):
                t, s = rng.uniform(0.0, 5.0, 2)
                r = float(np.max(np.abs(prop.matrix(t) @ prop.matrix(s) - prop.matrix(t + s))))
                worst = max(worst, r)
        return worst <= 1e-8, f"worst residual {worst:.3e}"

    @check("semigroup.stationarity")
    def stationarity_in_time():
        worst = 0.0
        for spec in chains():
            prop = Propagator(spec)
            for t in (0.3, 1.7, 4.0):
                worst = max(worst, float(np.max(np.abs(spec.pi @ prop.matrix(t) - spec.pi))))
        return worst <= 1e-10, f"worst residual {worst:.3e}"

    @check("semigroup.limit.example22")
    def limit():
        ex22 = chains()[2]
        P = Propagator(ex22).matrix(40.0)
        r = float(np.max(np.abs(P - np.outer(np.ones(3), ex22.pi))))
        return r <= 1e-9, f"residual {r:.3e}"

    @check("envelope.all_families")
    def envelope():
        worst = -np.inf
        for spec in chains():
            grid = default_time_grid(1.0, points=40, tmax=8.0)
            for i in range(spec.n):
                c = decay_curve(spec, i, grid)
                worst = max(worst, float(np.max(c.fnorms - c.envelope)))
        return worst <= 1e-9, f"worst excess {worst:.3e}"

    @check("fit.example21")
    def fit():
        grid = np.linspace(0.5, 8.0, 120)
        c = decay_curve(chains()[0], 0, grid)
        fit = fit_rate(c, window=(1.0, 7.0))
        return abs(fit.rate - 1.0) <= 1e-6, f"rate {fit.rate:.9f}"

    @functools.cache  # built on first use, once per call
    def lemma_chain():
        rng = np.random.default_rng(13)
        b = rng.uniform(0.5, 2.0, n_lemma - 1)
        d = rng.uniform(0.5, 2.0, n_lemma - 1)
        fw = rng.uniform(1.0, 3.0, n_lemma)
        return build_birth_death(b, d, fw, tol)

    lemma_n = (2, MAX_LEMMA_STATES)  # a birth-death chain has two states at least
    signs_n = (2, MAX_ENUMERATED_STATES)  # the exact operator norms enumerate 2^(n-1) sign vectors

    @check("lemma31", lemma_n)
    def lemma31():
        spec = lemma_chain()
        T = transform(spec)
        rng = np.random.default_rng(17)
        worst, passed = 0.0, True
        for _ in range(5):
            g1, g2 = rng.standard_normal((2, spec.n))
            for rep in check_lemma31(T, 0.7, 0.3, g1, g2):
                worst, passed = max(worst, rep.residual), passed and rep.passed
        return passed, f"worst residual {worst:.3e}"

    @check("lemma32", signs_n)
    def lemma32():
        rep = check_lemma32(transform(lemma_chain()), 0.5)
        return rep.passed, f"|lhs-rhs| = {rep.residual:.3e}"

    @check("lemma33", signs_n)
    def lemma33():
        rep = check_lemma33(transform(lemma_chain()), 0.5)
        return rep.passed, f"slack {rep.residual:.3e} (lhs {rep.lhs:.6f} rhs {rep.rhs:.6f})"

    @check("lemma34.mu_ft_norm")
    def lemma34():
        rng = np.random.default_rng(19)
        worst = 0.0
        for spec in chains():
            for _ in range(5):
                mu = rng.dirichlet(np.ones(spec.n))
                t = float(rng.uniform(0.1, 3.0))
                direct, via_dual = mu_ft_norm(mu, spec, t)
                worst = max(worst, abs(direct - via_dual))
        return worst <= 1e-10, f"worst |direct - dual| = {worst:.3e}"

    @check("hfunction.closed_form", lemma_n)
    def hfun_closed_form():
        spec = lemma_chain()
        worst = 0.0
        for s in (0.25, 0.8):
            for i in range(spec.n):
                _, direct, closed = h_function(spec, i, s)
                # both sides scale like 1 / pi_i, which is huge on long chains
                worst = max(worst, abs(direct - closed) / max(1.0, abs(closed)))
        return worst <= 1e-10, f"worst residual {worst:.3e} relative to max(1, |closed|)"

    @check("hfunction.meanzero", lemma_n)
    def hfun_meanzero():
        spec = lemma_chain()
        T = transform(spec)
        worst = 0.0
        for i in range(spec.n):
            h, _, _ = h_function(spec, i, 0.5)
            # row i's deviation is divided by sqrt(pi_i), and so is its rounding
            worst = max(worst, float(np.max(np.abs(T.pif(h.values)))) * np.sqrt(spec.pi[i]))
        return worst <= 1e-14, f"worst residual x sqrt(pi_i) {worst:.3e}"

    @check("montecarlo.holding_times")
    def holding_times():
        spec = chains()[0]
        times = np.array([0.0, 0.5, 1.5])
        ens = sample_paths(spec, 0, times, 4000, seed=4242)
        zs = {}
        for s0 in range(spec.n):
            count = ens.holding_count[s0]
            if count == 0:
                continue
            mean = ens.holding_time_sum[s0] / count
            expect = 1.0 / (-spec.q[s0, s0])
            zs[s0] = abs(mean - expect) / (expect / np.sqrt(count))
        detail = "; ".join(f"state {s0} z={z:.2f}" for s0, z in zs.items())
        return all(z <= 4.0 for z in zs.values()), detail

    if input_spec is not None:
        check("input.stationary")(lambda: stationarity(input_spec))
        if input_spec.label in FAMILIES:
            check(f"input.family_contract.{input_spec.label}")(lambda: reversibility(input_spec))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    input_spec = load_chain_file(args.input, args.tol) if args.input else None
    checks = [c for c in _verify_checks(args.n, input_spec, args.tol) if args.only in c[0]]
    if not checks:
        raise ErgorateError(f"--only {args.only!r} matches no checks")
    # --n must suit every selected check before any of them runs
    for name, _, (least, most) in checks:
        if args.n < least:
            raise ErgorateError(f"--n needs at least {least} states, got {args.n}")
        if args.n > most:
            raise ErgorateError(f"--n needs at most {most} states for {name}, got {args.n}")
    results = []
    for name, run, _ in checks:
        passed, detail = run()
        results.append({"check": name, "pass": bool(passed), "detail": detail})
    lines = [f"{'PASS' if r['pass'] else 'FAIL'}  {r['check']:<38s} {r['detail']}" for r in results]
    failures = [r["check"] for r in results if not r["pass"]]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        lines.append(f"FIRST FAILURE: {failures[0]}")
    if args.output:
        _emit({"results": results}, args)
    # under --output - stdout holds the JSON alone, so it parses; the text goes to stderr
    _emit("\n".join(lines), args, sys.stderr if args.output == "-" else sys.stdout)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; subcommand ``X`` is handled by ``cmd_X``."""
    parser = argparse.ArgumentParser(
        prog="ergorate",
        description="Spectral-gap and weighted-norm convergence analyzer for finite CTMCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = Tolerances()

    def add_tolerances(p: argparse.ArgumentParser) -> None:
        p.add_argument("--row-tol", type=float, default=tol.row_tol, help="override row-sum tolerance")
        p.add_argument("--stat-tol", type=float, default=tol.stat_tol, help="override stationarity tolerance")
        p.add_argument("--rev-tol", type=float, default=tol.rev_tol, help="override detailed-balance tolerance")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", help=f"builtin family: {', '.join(FAMILIES)}")
        p.add_argument("--input", help="chain-spec JSON file")
        p.add_argument("--pi", help="comma-separated stationary law (example21)")
        p.add_argument("--beta", type=float, help="weight level on states >= 1 (example21)")
        p.add_argument("--output", help="output path (default stdout)")
        add_tolerances(p)

    def add_curve(p: argparse.ArgumentParser, points: int) -> None:
        p.add_argument("--state", type=int, default=0)
        p.add_argument("--tmax", type=float, default=None)
        p.add_argument("--points", type=int, default=points)

    p = sub.add_parser("analyze", help="full spectral report as JSON")
    add_common(p)

    p = sub.add_parser("gap", help="rates only, as JSON")
    add_common(p)

    p = sub.add_parser("decay", help="weighted-norm decay curve as CSV")
    add_common(p)
    add_curve(p, points=60)

    p = sub.add_parser("fit", help="exponential rate fit as JSON")
    add_common(p)
    add_curve(p, points=60)
    p.add_argument("--window", help="fit window t_min,t_max")

    p = sub.add_parser("drift", help="drift-condition coefficients as JSON")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo decay estimates as CSV")
    add_common(p)
    add_curve(p, points=11)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=12345)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--input", help="also verify this chain-spec JSON file")
    p.add_argument("--only", default="", help="run only checks whose name contains this substring")
    p.add_argument(
        "--n",
        type=int,
        default=6,
        help=f"state count for the lemma-check chain: at least 2, at most {MAX_LEMMA_STATES} (the checks "
        f"cost O(n^3)), and at most {MAX_ENUMERATED_STATES} when lemma32 or lemma33 runs",
    )
    p.add_argument("--output", help="also write JSON results here")
    add_tolerances(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "points", 1) < 1:
            raise ErgorateError(f"--points needs at least 1 point, got {args.points}")
        args.tol = Tolerances(args.row_tol, args.stat_tol, args.rev_tol)
        # looked up per call: the cached parser must not pin the handlers
        handler = globals()[f"cmd_{args.command}"]
        if args.command == "verify":
            return handler(args)
        _emit(handler(_resolve_chain(args), args), args)
        return 0
    except ErgorateError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
