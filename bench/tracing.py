"""Outside-in layer trace: wraps the package's public functions, including
the names other modules bind at import, and counts calls, time and the
counters the per-layer metrics read.

A layer's time counts only its outermost calls, so a layer calling itself
(extract_path calls check_directionality) is not counted twice.  Times
include the layers below.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _n(a) -> int:
    return int(np.size(a))


# (module, function name, layers it records into, counter update)
def _targets(pkg):
    def eval_elems(c, args, kwargs, out):
        c["elems"] += _n(args[2])

    def newton_counts(c, args, kwargs, out):
        c["seeds"] += _n(args[2])
        if out is not None:
            c["converged"] += int(out.converged.sum())
            c["iters"] += int(out.iterations[out.converged].sum())

    def dedup_in(c, args, kwargs, out):
        c["dedup_in"] += len(args[0])

    def roots_out(c, args, kwargs, out):
        if out is not None:
            c["roots_out"] += len(out)

    def oracle_roots(c, args, kwargs, out):
        if out is not None:
            c["roots"] += sum(len(v) for v in out.values())

    def valid_paths(c, args, kwargs, out):
        if out is not None:
            c["valid_paths"] += 1

    return [
        (pkg.batch, "eval_residuals", ("batch.eval",), eval_elems),
        (pkg.oracle, "eval_residuals", ("batch.eval", "oracle.sample"), eval_elems),
        (pkg.batch, "newton", ("batch.newton",), newton_counts),
        (pkg.studies, "newton", ("batch.newton",), newton_counts),
        (pkg.batch, "eval_ahead", ("batch.eval_ahead",), None),
        (pkg.studies, "eval_ahead", ("batch.eval_ahead",), None),
        (pkg.solver, "residuals", ("residual.scalar",), None),
        (pkg.solver, "solve_all", ("solver.solve_all",), roots_out),
        (pkg.solver, "dedup", ("solver.dedup",), dedup_in),
        (pkg.path, "check_directionality", ("path",), None),
        (pkg.path, "extract_path", ("path",), valid_paths),
        (pkg.path, "verify_path", ("path",), None),
        (pkg.oracle, "solve_type", ("oracle.refine",), None),
        (pkg.oracle, "enumerate_all_types", ("oracle.enumerate",), oracle_roots),
        (pkg.studies, "run_sweep", ("studies.sweep",), None),
    ]


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.active: list[str] = []  # layers of the calls in progress
        self.patched: list[tuple] = []
        self.enabled = False

    def _wrap(self, orig, layers, count):
        stats, active = self.stats, self.active
        layer = layers[0]

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            outer = layer not in active
            active.append(layer)
            out = None
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                dt = time.perf_counter() - t0
                active.pop()
                for name in layers:
                    c = stats[name]
                    c["calls"] += 1
                    if outer:
                        c["s"] += dt
                    if count is not None:
                        count(c, args, kwargs, out)

        return wrapper

    def install(self) -> None:
        for module, name, layers, count in _targets(self.pkg):
            orig = getattr(module, name)
            self.patched.append((module, name, orig))
            setattr(module, name, self._wrap(orig, layers, count))

    def remove(self) -> None:
        for module, name, orig in reversed(self.patched):
            setattr(module, name, orig)
        self.patched.clear()

    def layer_summary(self) -> dict:
        return {k: dict(v) for k, v in self.stats.items()}

    def per_op_metrics(self, ops: int) -> dict:
        """The per-layer metrics, per operation (ratios as ratios)."""
        s = self.stats

        def per(layer, key, scale=1.0):
            return scale * s[layer][key] / ops

        ev, nt = s["batch.eval"], s["batch.newton"]
        m = {
            "batch.eval_calls": (per("batch.eval", "calls"), "count"),
            "batch.eval_elems": (per("batch.eval", "elems"), "count"),
            "batch.eval_ms": (per("batch.eval", "s", 1e3), "ms"),
            "batch.eval_ns_per_elem": (1e9 * ev["s"] / ev["elems"] if ev["elems"] else 0.0, "ns"),
            "batch.newton_calls": (per("batch.newton", "calls"), "count"),
            "batch.newton_ms": (per("batch.newton", "s", 1e3), "ms"),
            "batch.newton_seeds": (per("batch.newton", "seeds"), "count"),
            "batch.newton_converged_ratio": (nt["converged"] / nt["seeds"] if nt["seeds"] else 0.0, "ratio"),
            "batch.newton_iters_mean": (nt["iters"] / nt["converged"] if nt["converged"] else 0.0, "count"),
            "batch.eval_ahead_calls": (per("batch.eval_ahead", "calls"), "count"),
            "batch.eval_ahead_ms": (per("batch.eval_ahead", "s", 1e3), "ms"),
            "residual.scalar_calls": (per("residual.scalar", "calls"), "count"),
            "residual.scalar_ms": (per("residual.scalar", "s", 1e3), "ms"),
            "solver.solve_all_ms": (per("solver.solve_all", "s", 1e3), "ms"),
            "solver.dedup_in": (per("solver.dedup", "dedup_in"), "count"),
            "solver.roots_out": (per("solver.solve_all", "roots_out"), "count"),
            "solver.dedup_ms": (per("solver.dedup", "s", 1e3), "ms"),
            "path.ms": (per("path", "s", 1e3), "ms"),
            "path.valid_paths": (per("path", "valid_paths"), "count"),
            "oracle.sample_ms": (per("oracle.sample", "s", 1e3), "ms"),
            "oracle.sample_elems": (per("oracle.sample", "elems"), "count"),
            "oracle.refine_calls": (per("oracle.refine", "calls"), "count"),
            "oracle.refine_ms": (per("oracle.refine", "s", 1e3), "ms"),
            "oracle.roots": (per("oracle.enumerate", "roots"), "count"),
            "studies.sweep_ms": (per("studies.sweep", "s", 1e3), "ms"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
