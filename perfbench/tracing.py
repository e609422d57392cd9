"""Bench-side tracing of the program's layers (its modules).

``Tracer.install`` replaces every public module-level function of each layer
module, the cli subcommand handlers and the cached ``exp_coefficients``
with a wrapper, both in the defining module and at every other binding of
the same object inside the package (``from .numerics import bisect_newton``
in spectrum and oracle, the package's re-exports). Each call records a span
[name, job id, parent span, start, end]; spans stay in memory and are
written out at the end. Counters are kept at the same boundaries. Untraced
runs never construct a Tracer, so they run the program unwrapped, and
untraced rounds of a traced run run it with every wrapper removed.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "rankonespec"
LAYERS = ("cli", "io", "numerics", "spectrum", "recovery", "charfn", "oracle", "diagnostics", "potential")
CLI_HANDLERS = {
    "_cmd_forward": "forward",
    "_cmd_inverse": "inverse",
    "_cmd_synth": "synth",
    "_cmd_validate": "validate",
    "_cmd_oracle_compare": "oracle-compare",
}
# lru caches whose misses are counted (cache_info deltas over the traced loop)
CACHES = {
    "charfn.autocorr_tables": ("charfn", "_autocorr_tables"),
    "potential.exp_coefficients": ("potential", "exp_coefficients"),
}


def _count_evals(tracer, args):
    """bisect_newton(f, df, ...): count the evaluations it makes, and time
    them for the layer that passed them. f and df are closures of the caller
    (spectrum's secular function, oracle's characteristic function); their
    own time, less that of traced calls inside them, is moved from
    bisect_newton's self time to a name in the caller's layer:
    spectrum.secular_q_f for the closures that _secular_q makes."""
    f, df, *rest = args
    counts, child, stack = tracer.counts, tracer.child, tracer.stack
    layer = f.__module__.rpartition(".")[2]
    name = f"{layer}.{f.__qualname__.partition('.')[0].lstrip('_')}_f"
    callbacks = tracer.callbacks

    def timed(fn, counter):
        def counted(x):
            counts[counter] += 1
            sid = stack[-1]
            inner = child[sid]
            t0 = time.perf_counter()
            try:
                return fn(x)
            finally:
                own = time.perf_counter() - t0 - (child[sid] - inner)
                hit = callbacks.get(sid)
                if hit is None:
                    callbacks[sid] = [name, own, 1]
                else:
                    hit[1] += own
                    hit[2] += 1

        return counted

    return (timed(f, "numerics.bisect_newton.f_evals"), timed(df, "numerics.bisect_newton.df_evals"), *rest)


BEFORE = {"numerics.bisect_newton": _count_evals}
AFTER = {
    "numerics.one_minus_exp": lambda t, a, r: t.add("numerics.one_minus_exp.points", np.size(a[0])),
    "charfn.char_perturbed": lambda t, a, r: t.add("charfn.char_perturbed.points", np.size(a[1])),
    "charfn.autocorr_transform": lambda t, a, r: t.add("charfn.autocorr_transform.points", np.size(a[1])),
    "spectrum.secular_roots": lambda t, a, r: t.add("spectrum.roots", len(r)),
    "oracle.jacobi_eigenvalues": lambda t, a, r: t.add("oracle.jacobi_eigenvalues.dim_sum", len(a[0])),
    "diagnostics.oracle_comparison": lambda t, a, r: t.add(
        "diagnostics.oracle_comparison.verdict_failed", not r["passed"]
    ),
    "io.write_json": lambda t, a, r: t.add("io.bytes_out", os.path.getsize(a[0])),
    "io.write_csv": lambda t, a, r: t.add("io.bytes_out", os.path.getsize(a[0])),
}
COUNTERS = (
    "numerics.bisect_newton.f_evals",
    "numerics.bisect_newton.df_evals",
    "numerics.one_minus_exp.points",
    "charfn.char_perturbed.points",
    "charfn.autocorr_transform.points",
    "spectrum.roots",
    "oracle.jacobi_eigenvalues.dim_sum",
    "diagnostics.oracle_comparison.verdict_failed",
    "io.bytes_out",
)


class Tracer:
    """Spans and counters of the traced calls. ``install`` and ``uninstall``
    may alternate, so traced and untraced rounds can share one loop."""

    def __init__(self):
        self.spans: list[list] = []
        self.child: list[float] = []  # per span: time covered by its children
        self.callbacks: dict[int, list] = {}  # bisect_newton span -> [name, own s, evals]
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.job = -1  # the running job's index
        self.names: list[str] = []
        self.stack: list[int] = []
        self._targets: list[tuple] = []  # (module, attribute, original, wrapper)
        self._caches: dict[str, tuple] = {}

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        spans, child, stack = self.spans, self.child, self.stack
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            if before:
                args = before(self, args)
            parent = stack[-1] if stack else -1
            rec = [name, self.job, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            child.append(0.0)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add(name + ".raised", 1)
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    child[parent] += rec[4] - rec[3]
            if after:
                after(self, args, result)
            return result

        return traced

    def _find_targets(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if layer == "cli" and attr in CLI_HANDLERS:
                    name = "cli." + CLI_HANDLERS[attr]
                elif (
                    not attr.startswith("_")
                    and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                else:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.names.append(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit and hit[0] is obj:
                    self._targets.append((mod, attr, obj, hit[1]))

    def install(self) -> None:
        if not self._targets:
            self._find_targets()
        for key, (layer, attr) in CACHES.items():
            fn = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[key] = (fn, fn.cache_info().misses)
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj, _ in reversed(self._targets):
            setattr(mod, attr, obj)
        for key, (fn, base) in self._caches.items():
            self.add(key + ".misses", fn.cache_info().misses - base)
        self._caches.clear()

    def stats(self, job_seconds: float) -> dict:
        """Calls, inclusive and self seconds per name, each layer's share of
        job time (self_frac), and the counters. The evaluations that
        bisect_newton makes of its caller's f and df count for the caller
        (name from ``_count_evals``, stat s = self_s, calls = evaluations)."""
        out: dict[str, float] = {}
        for name in self.names:
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            own = t1 - t0 - self.child[i]
            hit = self.callbacks.get(i)
            if hit is not None:
                cb_name, cb_s, evals = hit
                own -= cb_s
                for stat, value in (("calls", evals), ("s", cb_s), ("self_s", cb_s)):
                    out[f"{cb_name}.{stat}"] = out.get(f"{cb_name}.{stat}", 0) + value
                cb_layer = cb_name.split(".")[0]
                layer_self[cb_layer] = layer_self.get(cb_layer, 0.0) + cb_s
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += own
            layer_self[name.split(".")[0]] += own
        for layer, s in layer_self.items():
            out[f"{layer}.self_frac"] = s / job_seconds if job_seconds > 0 else 0.0
        out.update(self.counts)
        return out

    def write(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[n, j, p, round(a - t0, 9), round(b - t0, 9)] for n, j, p, a, b in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "fields": ["name", "job", "parent", "start_s", "end_s"], "spans": rows}))
