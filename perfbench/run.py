"""Benchmark of ergorate: seeded closed-loop workloads against its API and CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-reversible --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (rounds alternate traced and untraced, and their
ratio is ``trace.overhead_frac``).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
lines before it record the environment, the op count, failures and the
inputs known to fail at the seed commit.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is first imported: one BLAS thread is both faster
# and steadier than two for these sizes on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_REPEATS = 9
# At least four rounds, so that the sampler's 11th-slowest op always falls
# in the group of its two slowest chains (see workloads.SAMPLER_SLOTS).
MIN_ROUNDS = 4
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import ergorate, ergorate.cli; "
    "print(repr(time.perf_counter() - t0))"
)
# Time metrics are scaled to a host on which HostSpeed's kernels take this
# long (geometric mean of their median times between rounds): the 2-vCPU
# host these figures were first taken on, in its usual state.
CAL_REF_S = 1.8e-3
CAL_REPS = 3
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_time() -> float:
    """Wall time, in a fresh interpreter, to import ergorate and ergorate.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


class SetupProbes:
    """``setup_s``: the median of SETUP_REPEATS import times spread evenly
    over the measured window, one between rounds when its turn has come.

    Single imports vary by a third from one second to the next, in bursts;
    probes taken back to back all land in one burst, and their median moved
    by half between runs.
    """

    def __init__(self, seconds: float):
        import_time()  # unrecorded: compiles bytecode in a fresh checkout
        self.seconds = seconds
        self.times: list[float] = []

    def between_rounds(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.seconds / SETUP_REPEATS:
            self.times.append(import_time())

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(import_time())
        return statistics.median(self.times)


class HostSpeed:
    """Speed of the host now, from fixed kernels that do not call ergorate:
    a 150x150 ``eigh``, a 100x100 ``expm``, a pure-Python loop and a loop
    of small numpy calls. They are timed between rounds, best of CAL_REPS
    each time.

    The shared host runs for minutes at a time 1.2-1.6x slower than usual,
    longer than a run, and op latencies moved by a quarter between runs.
    The kernels' geometric mean tracks those slow stretches: over ten runs
    of each dense workload, scaling by it took the spread of op_p50_ms and
    op_p90_ms from 7-11% to 2-8%.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        sym = rng.random((150, 150))
        sym = sym + sym.T
        gen = rng.random((100, 100)) / 100

        def python_loop():
            s = 0
            for i in range(30000):
                s += i * i
            return s

        def numpy_small():
            x = np.arange(50.0)
            for _ in range(400):
                x = np.sqrt(x * x + 1.0) - 1.0
            return x

        self.kernels = {
            "eigh": partial(np.linalg.eigh, sym),
            "expm": partial(scipy.linalg.expm, gen),
            "python": python_loop,
            "numpy_small": numpy_small,
        }
        for kernel in self.kernels.values():
            kernel()  # warm-up
        self.times: dict[str, list[float]] = {k: [] for k in self.kernels}

    def sample(self) -> None:
        for name, kernel in self.kernels.items():
            best = math.inf
            for _ in range(CAL_REPS):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            self.times[name].append(best)

    def factor(self) -> float:
        """How many times slower than CAL_REF_S the kernels ran: the
        geometric mean over kernels of their median sample."""
        return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in self.times.values())) / CAL_REF_S


def host_scaled(raw: dict, factor: float) -> dict:
    """End-to-end metrics at CAL_REF_S speed: times divided by the host
    factor, rates multiplied by it, memory as measured."""
    return {
        "setup_s": raw["setup_s"] / factor,
        "op_p50_ms": raw["op_p50_ms"] / factor,
        "op_p90_ms": raw["op_p90_ms"] / factor,
        "ops_per_s": raw["ops_per_s"] * factor,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def percentile(sorted_lat: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_lat[max(0, math.ceil(q * len(sorted_lat)) - 1)]


def tail_percentile(sorted_lat: list[float]) -> tuple[float, float]:
    """p90 when there are at least 100 ops, else the highest percentile
    with ten ops beyond it (the 11th slowest); returns (level, value)."""
    n = len(sorted_lat)
    if n >= 100:
        return 0.9, percentile(sorted_lat, 0.9)
    if n <= 10:
        return 1.0, sorted_lat[-1]
    return (n - 10) / n, sorted_lat[n - 11]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "ERGORATE_THREADS": os.environ.get("ERGORATE_THREADS", "unset (default 1)"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Run:
    """Closed loop over a workload's rounds: time each op, then check it."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[tuple[str, float]] = []  # (input key, seconds or inf)
        self.failures: list[dict] = []
        self.paths_ok = 0
        self.ok_time = 0.0
        self.round_time = {True: [], False: []}  # traced? -> per-round op time
        self.traced_ops = 0
        self.rounds = 0

    def call(self, op, traced: bool, label: str) -> float:
        if traced:
            self.tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append({"op": op.id, "reason": error[:500]})
        return dt if error is None else math.inf

    def warm(self) -> None:
        for k, op in enumerate(self.workload.warmup):
            self.call(op, False, f"warmup.{k}")

    def measure(self, seconds: float, between_rounds=None) -> None:
        """``between_rounds(elapsed)``, if given, runs after each round,
        outside every op's timed interval."""
        start = time.perf_counter()
        r = 0
        last = 0.0
        # Whole rounds only, so every run times the same mix; stop when the
        # next round would end more than half a round past the deadline.
        while r < MIN_ROUNDS or time.perf_counter() - start + 0.5 * last < seconds:
            # With a tracer, odd rounds are traced; even rounds run with no
            # wrapper installed, and their ratio is the tracing overhead.
            traced = self.tracer is not None and r % 2 == 1
            if traced:
                self.tracer.install()
            r0 = time.perf_counter()
            total = 0.0
            try:
                for s, op in enumerate(self.workload.round(r)):
                    dt = self.call(op, traced, f"{r}.{s}")
                    self.latencies.append((op.key, dt))
                    total += dt
                    if math.isfinite(dt):
                        self.ok_time += dt
                        self.paths_ok += op.paths
                    self.traced_ops += traced
            finally:
                if traced:
                    self.tracer.uninstall()
            self.round_time[traced].append(total)
            last = time.perf_counter() - r0
            r += 1
            if between_rounds is not None:
                between_rounds(time.perf_counter() - start)
        self.rounds = r

    def sorted_latencies(self) -> list[float]:
        """Every timed op's latency, +inf for a failed op, ascending."""
        return sorted(dt for _, dt in self.latencies)

    def end_to_end(self, setup_s: float) -> dict:
        """Unscaled end-to-end metrics over every timed op."""
        lat = self.sorted_latencies()
        ok = sum(1 for x in lat if math.isfinite(x))
        return {
            "setup_s": setup_s,
            "op_p50_ms": 1e3 * percentile(lat, 0.5),
            "op_p90_ms": 1e3 * tail_percentile(lat)[1],
            "ops_per_s": ok / self.ok_time if self.ok_time else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    import workloads

    env = environment(seed)
    print("env " + json.dumps(env), flush=True)
    setup = None if trace else SetupProbes(seconds)
    host = None if trace else HostSpeed()

    def between_rounds(elapsed: float) -> None:
        host.sample()
        setup.between_rounds(elapsed)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        wl = workloads.build(name, seed, workdir)
        tr = tracing.Tracer() if trace else None
        run = Run(wl, tr)
        run.warm()
        run.measure(seconds, None if trace else between_rounds)
        raw = None if trace else run.end_to_end(setup.median())
        # Known defects run once, after peak RSS is read: they are listed,
        # not timed, and their failures are not the run's.
        defects = []
        for d in wl.known_defects:
            probe = Run(wl)
            probe.call(d.op, False, "defect")
            defects.append({"op": d.op.id, "roadmap": d.roadmap_item,
                            "outcome": probe.failures[0]["reason"] if probe.failures else "passes now"})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.latencies) + len(wl.warmup)
    for d in defects:
        print("known-defect " + json.dumps(d))
    for f in run.failures:
        print("failed " + json.dumps(f))
    if trace:
        metrics = tr.per_layer(run.traced_ops)
        traced = statistics.mean(run.round_time[True])
        untraced = statistics.mean(run.round_time[False])
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
        spans = os.path.join(OUT, f"spans-{name}.jsonl")
        tr.write(spans)
        print(f"spans {len(tr.spans)} written to {os.path.relpath(spans, ROOT)}; traced ops {run.traced_ops}")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        factor = host.factor()
        e2e = host_scaled(raw, factor)
        out_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        print(f"host speed: kernels {factor:.4f}x the reference {1e3 * CAL_REF_S:g} ms "
              f"(median of {len(host.times['eigh'])} samples)")
        print("unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        inputs = len({key for key, _ in run.latencies})
        print(f"ops {len(run.latencies)} on {inputs} inputs in {run.rounds} rounds (+{len(wl.warmup)} warm-up); "
              f"op_p90_ms is p{100 * tail_percentile(run.sorted_latencies())[0]:.1f}")
        if run.paths_ok:
            print(f"paths_per_s {run.paths_ok / run.ok_time:.1f} (unscaled)")
        print(f"input digest {wl.digest}")
    failed = len(run.failures)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process (own peak RSS); prints a table."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stdout.strip().splitlines()[:-1]:
            print(f"[{name}] {line}")
    print(f"{'workload':<20s} {'metric':<14s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<20s} {metric:<14s} {mv['value']:>14.4f} {mv['unit']}")
        print(f"{name:<20s} {'failed':<14s} {res['failed']:>14d} of {res['attempted']} ops")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ergorate", "__init__.py")):
        sys.stderr.write(f"no ergorate sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
