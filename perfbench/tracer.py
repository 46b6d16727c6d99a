"""Spans around ergorate's public functions and the decompositions they
call, installed from outside the program.

``Tracer.install`` replaces each listed function at every binding that
holds it in an ``ergorate`` module (``cli`` and ``htransform`` import
names directly, the package re-exports them), wraps ``Propagator``'s
methods on the class, and wraps ``numpy.linalg.{eigh,eigvals,solve}``,
``scipy.linalg.expm`` and ``numpy.random.Philox``.  ``uninstall``
restores every binding.  Spans are recorded only while an op is open
(``begin_op``/``end_op``), so reference and check work never shows up.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

# module -> traced names; "Class" wraps the constructor, "Class.method" the method
FUNCTIONS = {
    "chain_core": ("validate", "stationary", "is_reversible", "dual", "reversibilize", "chain_spec",
                   "load_chain_file"),
    "spectral": ("symmetric_eigendecomposition", "gap", "eigenvalues", "true_decay_rate",
                 "spectral_report", "drift_condition"),
    "semigroup": ("Propagator", "Propagator.matrix", "Propagator.deviation", "decay_curve", "fit_rate",
                  "mu_ft_norm", "opnorm_inf_to_1", "opnorm_inf_to_2"),
    "htransform": ("transform", "check_lemma31", "check_lemma32", "check_lemma33", "h_function"),
    "montecarlo": ("sample_paths", "empirical_fnorm"),
    "cli": ("main",),
}
KERNELS = {
    "eigh": (np.linalg, "eigh"),
    "eigvals": (np.linalg, "eigvals"),
    "solve": (np.linalg, "solve"),
    "expm": (scipy.linalg, "expm"),
}


def function_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in FUNCTIONS.items() for name in names]


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, op, raised]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------
    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _count_only(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._op is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _dense_n3(self, args, kwargs) -> None:
        a = args[0] if args else next(iter(kwargs.values()))
        self.counts["kernel.dense_n3"] += int(np.shape(a)[-1]) ** 3

    def _after_sample_paths(self, signature, args, kwargs, out) -> None:
        self.counts["montecarlo.paths"] += int(signature.bind(*args, **kwargs).arguments["n_paths"])
        self.counts["montecarlo.holds"] += int(np.sum(out.holding_count))

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "ergorate" or k.startswith("ergorate.")]
        try:
            for modname, names in FUNCTIONS.items():
                home = sys.modules[f"ergorate.{modname}"]
                for name in names:
                    full = f"{modname}.{name}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name)
                        self._set(cls, meth, self._wrap(full, cls.__dict__[meth]))
                        continue
                    orig = getattr(home, name)
                    if isinstance(orig, type):
                        self._set(orig, "__init__", self._wrap(full, orig.__dict__["__init__"]))
                        continue
                    after = None
                    if full == "montecarlo.sample_paths":
                        after = functools.partial(self._after_sample_paths, inspect.signature(orig))
                    wrapped = self._wrap(full, orig, after=after)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._set(mod, attr, wrapped)
            for kname, (owner, attr) in KERNELS.items():
                self._set(owner, attr, self._wrap(f"kernel.{kname}", getattr(owner, attr), before=self._dense_n3))
            self._set(np.random, "Philox", self._count_only("kernel.philox.calls", np.random.Philox))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time by span name: duration minus the time covered
        by direct children (one thread, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1]) - child[k]
        return out

    def per_layer(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); counts and self
        times are per traced op, errors are totals."""
        self_t = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        errors = Counter(s[0] for s in self.spans if s[5])
        m: dict[str, tuple[float, str]] = {}
        for name in function_names():
            m[f"{name}.self_s"] = (self_t.get(name, 0.0) / ops, "s/op")
            m[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            m[f"{name}.errors"] = (float(errors[name]), "count")
        for k in KERNELS:
            m[f"kernel.{k}.self_s"] = (self_t.get(f"kernel.{k}", 0.0) / ops, "s/op")
            m[f"kernel.{k}.calls"] = (calls[f"kernel.{k}"] / ops, "calls/op")
        m["kernel.dense_n3"] = (self.counts["kernel.dense_n3"] / ops, "n3/op-computed")
        paths = self.counts["montecarlo.paths"]
        sample_s = sum(s[2] - s[1] for s in self.spans if s[0] == "montecarlo.sample_paths")
        m["kernel.philox.calls"] = (self.counts["kernel.philox.calls"] / paths if paths else 0.0, "calls/path")
        m["montecarlo.holds_per_path"] = (self.counts["montecarlo.holds"] / paths if paths else 0.0, "holds/path")
        m["montecarlo.paths_per_s"] = (paths / sample_s if sample_s else 0.0, "1/s")
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "raised": raised}) + "\n")
