"""The benchmark's four workloads: seeded inputs, the timed op, its check.

Every workload is a closed loop over rounds; a round is a fixed list of
ops, issued one after another.  Inputs and references are built when the
workload is constructed, before any timing.  Ops call ergorate through
attribute lookups on the package (``ergorate.validate``, ...), so the
tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

import ergorate
import ergorate.cli
import reference as R

WORKLOADS = ("dense-reversible", "dense-irreversible", "sampler", "cli-small")


@dataclass(frozen=True)
class Op:
    """One timed call and the untimed check of its output."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    paths: int = 0
    input: str | None = None  # ops with equal inputs repeat the same work; defaults to id

    @property
    def key(self) -> str:
        return self.input or self.id


@dataclass(frozen=True)
class KnownDefect:
    """An op that fails at the seed commit, kept out of the timed loop."""

    op: Op
    roadmap_item: str


@dataclass(frozen=True)
class Workload:
    """``round(r)`` is the op list of round r; ``digest`` hashes the inputs."""

    name: str
    round: Callable[[int], list[Op]]
    warmup: list[Op]
    digest: str
    known_defects: list[KnownDefect] = field(default_factory=list)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, zlib.crc32(name.encode())])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# generators (the dense ones are those of tests/conftest.py)


def random_detailed_balance(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.uniform(0.2, 1.0, n)
    p /= p.sum()
    W = rng.uniform(0.2, 1.0, (n, n))
    W = 0.5 * (W + W.T)
    q = W / p[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def random_irreversible(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mostly in [1, 3]; about one state in twenty (at least one) up to 50."""
    f = rng.uniform(1.0, 3.0, n)
    heavy = rng.random(n) < 0.05
    heavy[rng.integers(n)] = True
    f[heavy] = rng.uniform(3.0, 50.0, int(heavy.sum()))
    return f


def birth_death_q(birth, death) -> np.ndarray:
    n = len(birth) + 1
    q = np.zeros((n, n))
    idx = np.arange(n - 1)
    q[idx, idx + 1] = birth
    q[idx + 1, idx] = death
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


EXAMPLE22_Q = np.array([[-0.5, 0.5, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])


def example21_q(pi) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    q = np.tile(pi, (pi.size, 1))
    np.fill_diagonal(q, pi - 1.0)
    return q


# ----------------------------------------------------------------------
# dense-reversible, dense-irreversible

# Interleaved so that neighbouring ops differ in size.
DENSE_SIZES = {
    "dense-reversible": (50, 200, 100, 300, 150),
    "dense-irreversible": (50, 170, 90, 200, 130),
}
# Matrices per size; round r uses variant r mod 3. The median and p90 ops
# fall inside the latencies of one size (the third and the largest), mixed
# over three matrices, so they move little with the seed.
DENSE_VARIANTS = 3


def dense_op(q: np.ndarray, f: np.ndarray, i: int):
    Q = ergorate.validate(q)
    spec = ergorate.chain_spec(Q, ergorate.weight_function(f))
    rep = ergorate.spectral_report(spec)
    grid = ergorate.default_time_grid(rep.gap if rep.reversible else rep.true_decay_rate)
    curve = ergorate.decay_curve(spec, i, grid)
    return spec, rep, curve, ergorate.fit_rate(curve)


def check_dense(ref: R.ChainRef, out) -> None:
    spec, rep, curve, fit = out
    R.check_spectral(ref, rep.gap, rep.true_decay_rate, rep.reversible, rep.constants, spec.pi)
    R.check_curve(ref, curve.times, curve.fnorms, curve.envelope)
    R.check_fit(ref, fit.mode, fit.rate)


def build_dense(name: str, seed: int) -> Workload:
    reversible = name == "dense-reversible"
    gen = random_detailed_balance if reversible else random_irreversible
    rng = _rng(seed, name)
    variants: list[list[Op]] = []
    parts = []
    for k in range(DENSE_VARIANTS):
        ops = []
        for n in DENSE_SIZES[name]:
            q = gen(rng, n) / n
            f = random_weights(rng, n)
            i = int(rng.integers(n))
            ref = R.chain_reference(q, f, i, reversible)
            ops.append(Op(f"{name}/n{n}/v{k}", partial(dense_op, q, f, i), partial(check_dense, ref)))
            parts += [q, f, np.int64(i)]
        variants.append(ops)
    return Workload(name, lambda r: variants[r % DENSE_VARIANTS], warmup=variants[0], digest=_digest(parts))


# ----------------------------------------------------------------------
# sampler

SAMPLER_PATHS = 20000
SAMPLER_WARMUP_PATHS = 2000
# bd6 fills two of the seven slots: with an odd slot count and whole
# rounds, the median and the 11th-slowest op each fall inside one chain's
# group of latencies rather than on the edge between two groups.
SAMPLER_SLOTS = ("bd6", "example21", "bd8", "dense4", "example22", "bd6", "resampling5")


def sampler_op(spec, times: np.ndarray, n_paths: int, seed: int):
    ens = ergorate.sample_paths(spec, 0, times, n_paths, seed)
    return ens, ergorate.empirical_fnorm(ens, spec.stationary, spec.weight)


def check_sampler(ref: R.SamplerRef, n_paths: int, out) -> None:
    ens, emp = out
    if ens.n_paths != n_paths:
        raise R.CheckFailed(f"{ens.n_paths} paths, asked for {n_paths}")
    R.check_ensemble(ref, ens.occupancy, ens.holding_time_sum, ens.holding_count, emp.estimates)


def sampler_chains(rng: np.random.Generator) -> dict:
    """The five chains of acceptance criterion 8 plus an 8-state
    birth-death chain with about 35 holds per path, as (spec, q, f,
    reversible) by name."""
    bd6 = ([1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2])
    q4 = random_detailed_balance(rng, 4)
    f4 = rng.uniform(1.0, 2.0, 4)
    p5 = rng.uniform(0.2, 1.0, 5)
    p5 /= p5.sum()
    b8, d8, f8 = rng.uniform(0.8, 1.2, 7), rng.uniform(0.8, 1.2, 7), rng.uniform(1.0, 3.0, 8)
    ex21_pi = [0.5, 0.25, 0.25]
    return {
        "example21": (ergorate.build_example21(ex21_pi, 2.0), example21_q(ex21_pi), [1.0, 2.0, 2.0], True),
        "example22": (ergorate.build_example22(), EXAMPLE22_Q, np.ones(3), False),
        "bd6": (ergorate.build_birth_death(*bd6), birth_death_q(bd6[0], bd6[1]), bd6[2], True),
        "dense4": (
            ergorate.chain_spec(ergorate.validate(q4), ergorate.weight_function(f4)),
            q4, f4, True,
        ),
        "resampling5": (ergorate.build_example21(p5, 3.0), example21_q(p5), [1.0] + [3.0] * 4, True),
        "bd8": (ergorate.build_birth_death(b8, d8, f8), birth_death_q(b8, d8), f8, True),
    }


def build_sampler(seed: int) -> Workload:
    rng = _rng(seed, "sampler")
    chains = {}
    parts = []
    for name, (spec, q, f, rev) in sampler_chains(rng).items():
        q = np.array(q, dtype=float)
        cref = R.chain_reference(q, f, 0, rev, curve=False)
        times = np.linspace(0.3 / cref.rate, 3.0 / cref.rate, 10)
        chains[name] = (spec, times, R.sampler_reference(q, f, cref.pi, 0, times))
        parts += [q, np.asarray(f, float), times]

    def op(name: str, n_paths: int, op_seed: int) -> Op:
        spec, times, ref = chains[name]
        return Op(
            f"sampler/{name}/seed{op_seed}",
            partial(sampler_op, spec, times, n_paths, op_seed),
            partial(check_sampler, ref, n_paths),
            paths=n_paths,
            input=f"sampler/{name}/{n_paths}",
        )

    def op_seed(r: int, slot: int) -> int:
        return int(np.random.SeedSequence([seed % 2**63, r, slot]).generate_state(1, np.uint64)[0] >> 1)

    def round_ops(r: int) -> list[Op]:
        return [op(name, SAMPLER_PATHS, op_seed(r, s)) for s, name in enumerate(SAMPLER_SLOTS)]

    parts += [np.uint64(op_seed(r, s)) for r in range(3) for s in range(len(SAMPLER_SLOTS))]
    warmup = [op(name, SAMPLER_WARMUP_PATHS, op_seed(2**32, s)) for s, name in enumerate(chains)]
    return Workload("sampler", round_ops, warmup=warmup, digest=_digest(parts))


# ----------------------------------------------------------------------
# cli-small

CLI_PATHS = 2000
# Few enough chains that a round takes 2-3 s: a 36-second run times 11 or
# more rounds, with as many host-speed samples (see run.HostSpeed).
CLI_VERIFY_N = (6, 16)
CLI_DENSE_N = (3, 7, 12)
SWEEP_SCALES = (1e-3, 1e-1, 1e1, 1e3, 1e4)
# default_time_grid starts at t = 0.01, so decay and fit need a rate guess
# below 1000; the sweep's base chain has gap 2.2, so c >= 1e3 is past it.
GRID_RATE_LIMIT = 1000.0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ergorate.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def check_cli(command: str, ref, result) -> None:
    code, out, err = result
    if code != 0:
        raise R.CheckFailed(f"exit code {code}: {err.strip()}")
    if command == "verify":
        last = out.strip().splitlines()[-1]
        passed, _, total = last.partition(" ")[0].partition("/")
        if "FAIL" in out or passed != total or not last.endswith("checks passed"):
            raise R.CheckFailed(f"verify reported: {last}")
        return
    chain, sim = ref
    if command in ("analyze", "gap"):
        d = json.loads(out)
        if command == "analyze":
            R.check_spectral(chain, d["gap"], d["true_decay_rate"], d["reversible"], d["constants"], d["stationary"])
        else:
            R.check_spectral(chain, d["gap"], d["true_decay_rate"], d["reversible"])
    elif command == "decay":
        t, fn, env = _csv(out).T
        R.check_curve(chain, t, fn, env)
    elif command == "fit":
        d = json.loads(out)
        R.check_fit(chain, d["mode"], d["rate"])
    elif command == "drift":
        d = json.loads(out)
        Qf = chain.q @ chain.f
        c_max = float(np.min(-Qf[1:] / chain.f[1:]))
        R.close("c_max", d["c_max"], c_max, 1e-9, 1e-12 * chain.scale)
        R.close("b_min", d["b_min"], Qf[0] + c_max * chain.f[0], 1e-9, 1e-12 * chain.scale * chain.f.max())
        R.close("gap_rate", d["gap_rate"], chain.gap, 1e-8, 1e-12 * chain.scale)
    elif command == "simulate":
        t, est, se = _csv(out).T
        R.close("simulate times", t, sim.times, 1e-9, 1e-300)
        if np.any(se < 0.0):
            raise R.CheckFailed("negative standard error")
        R.check_fnorm_estimates(sim, est, CLI_PATHS)


def cli_chains(rng: np.random.Generator) -> list[dict]:
    """Chain descriptions: id, how the CLI gets it, and the matrix behind it."""
    chains = []

    def add(cid, source, q, f, reversible, drift=False, **closed):
        chains.append(dict(id=cid, source=source, q=np.asarray(q, float), f=np.asarray(f, float),
                           reversible=reversible, drift=drift, closed=closed, state=int(rng.integers(len(f)))))

    # builtin families
    add("example22", ["--family", "example22"], EXAMPLE22_Q, np.ones(3), False,
        closed_gap=1.0, closed_tdr=1.25)
    add("example21", ["--family", "example21", "--pi", "0.5,0.25,0.25", "--beta", "2"],
        example21_q([0.5, 0.25, 0.25]), [1.0, 2.0, 2.0], True, closed_gap=1.0)
    p = rng.uniform(0.2, 1.0, 5)
    p /= p.sum()
    beta = float(rng.uniform(1.5, 4.0))
    add("example21-5", {"family": "example21", "pi": p.tolist(), "beta": beta},
        example21_q(p), [1.0] + [beta] * 4, True, closed_gap=1.0)
    bd6 = ([1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2])
    add("bd6", {"family": "birth_death", "birth": bd6[0], "death": bd6[1], "f": bd6[2]},
        birth_death_q(bd6[0], bd6[1]), bd6[2], True)
    # birth-death chains drifting to state 0, with geometric weights that carry drift
    b8, d8 = rng.uniform(0.4, 0.6, 7), rng.uniform(1.4, 1.8, 7)
    f8 = 1.3 ** np.arange(8)
    add("bd8-drift", {"family": "birth_death", "birth": b8.tolist(), "death": d8.tolist(), "f": f8.tolist()},
        birth_death_q(b8, d8), f8, True, drift=True)

    # small dense chains, alternately reversible and irreversible
    for k, n in enumerate(CLI_DENSE_N):
        rev = k % 2 == 0
        q = (random_detailed_balance if rev else random_irreversible)(rng, n) / n
        f = random_weights(rng, n)
        add(f"dense{n}", {"label": f"dense{n}", "Q": q.tolist(), "f": f.tolist()}, q, f, rev)

    # rate-scale sweep Q -> cQ of a drifting birth-death chain normalized to gap 2.2
    b5, d5 = rng.uniform(0.4, 0.6, 4), rng.uniform(1.4, 1.8, 4)
    q5, f5 = birth_death_q(b5, d5), 1.3 ** np.arange(5)
    q5 = q5 * (2.2 / R.chain_reference(q5, f5, 0, True, curve=False).gap)
    for c in SWEEP_SCALES:
        qc = c * q5
        add(f"sweep-c{c:g}", {"label": f"sweep-c{c:g}", "Q": qc.tolist(), "f": f5.tolist()}, qc, f5, True, drift=True)
    return chains


BD40_BIRTH, BD40_DEATH = np.ones(39), np.full(39, 43.7)  # min pi is about 1e-64


def build_cli(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "cli-small")
    os.makedirs(workdir, exist_ok=True)
    chains = cli_chains(rng)
    q40, f40 = birth_death_q(BD40_BIRTH, BD40_DEATH), np.ones(40)
    chains.append(dict(id="bd40-badly-scaled", source={"label": "bd40", "Q": q40.tolist(), "f": f40.tolist()},
                       q=q40, f=f40, reversible=True, drift=False, state=0,
                       closed={"pi": R.birth_death_stationary(BD40_BIRTH, BD40_DEATH)}))
    ops: list[Op] = []
    defects: list[KnownDefect] = []
    parts = []
    sim_seed = int(rng.integers(2**31))
    for ch in chains:
        if isinstance(ch["source"], dict):
            path = os.path.join(workdir, f"{ch['id']}.json")
            text = json.dumps(ch["source"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            source = ["--input", path]
            parts.append(text.encode())
        else:
            source = ch["source"]
        state = ["--state", str(ch["state"])]
        commands = {
            "analyze": source,
            "gap": source,
            "decay": source + state,
            "fit": source + state,
            "simulate": source + state + ["--paths", str(CLI_PATHS), "--seed", str(sim_seed)],
        }
        if ch["drift"]:
            commands["drift"] = source
        bad = ch["id"] == "bd40-badly-scaled"
        chain = R.chain_reference(ch["q"], ch["f"], ch["state"], ch["reversible"], curve=False, **ch["closed"])
        fast = chain.rate >= GRID_RATE_LIMIT
        if not fast:
            chain = R.chain_reference(ch["q"], ch["f"], ch["state"], ch["reversible"], **ch["closed"])
        sim = R.sampler_reference(ch["q"], ch["f"], chain.pi, ch["state"], np.linspace(0.0, 10.0 / chain.rate, 11))
        ref = (chain, sim)
        for command, tail in commands.items():
            argv = [command] + tail
            parts.append(" ".join(argv).replace(workdir, "").encode())
            op = Op(f"cli-small/{ch['id']}/{command}", partial(run_cli, argv), partial(check_cli, command, ref),
                    paths=CLI_PATHS if command == "simulate" else 0)
            if bad:
                defects.append(KnownDefect(op, "4a: stationary() loses a pi spanning 1e-64 (GTH elimination)"))
            elif fast and command in ("decay", "fit"):
                defects.append(KnownDefect(op, "4c: default_time_grid starts at t=0.01 (scale-free grid)"))
            elif command == "fit" and chain.fit_mode == "insufficient":
                defects.append(KnownDefect(op, "none yet: a kink in the fit window selects peak mode, "
                                               "which finds fewer than 3 peaks (InsufficientData)"))
            else:
                ops.append(op)
    for n in CLI_VERIFY_N:
        argv = ["verify", "--n", str(n)]
        parts.append(" ".join(argv).encode())
        ops.append(Op(f"cli-small/verify-n{n}", partial(run_cli, argv), partial(check_cli, "verify", None)))
    first_of_each = {}
    for op in ops:
        first_of_each.setdefault(op.id.rsplit("/", 1)[-1].split("-")[0], op)
    return Workload("cli-small", lambda r: ops, warmup=list(first_of_each.values()), digest=_digest(parts),
                    known_defects=defects)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name in DENSE_SIZES:
        return build_dense(name, seed)
    if name == "sampler":
        return build_sampler(seed)
    if name == "cli-small":
        return build_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
