"""Benchmark of the dubins3d package under src/, one workload per call.

    python3 bench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload (see workloads.py) from one process and one
thread until --seconds have passed, checks every operation's output against
the references in references.py, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run first measures the
rounds untraced for half the time, then replays the same rounds with every
layer's public functions wrapped (tracing.py) and reports the per-layer
metrics, per operation, plus the tracing overhead.  --list prints every
failed operation with its instance before the result.

Raw per-operation records go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

# one thread: numpy's BLAS would otherwise start a pool of worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (loaded before set-up is timed: a dependency, not the program)

import references as ref  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 11
MODULES = ("geom", "residual", "batch", "solver", "path", "oracle", "studies", "scenarios", "cli")
POOL_ROUNDS = 8  # seeded inputs built per kind at set-up, in rounds; more are drawn if a run needs them


class Package:
    """The program's modules, imported fresh from src/."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "dubins3d" or m.startswith("dubins3d.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("dubins3d")
        if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"dubins3d imported from {pkg.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"dubins3d.{name}"))


class Draws:
    """Seeded inputs per kind, as scenario objects, one stream per kind.

    Drawing is the benchmark's own work, so it happens once, before set-up
    is timed."""

    def __init__(self, workload_cls, seed: int):
        self.workload_cls = workload_cls
        self.rngs = {kind: np.random.default_rng([seed % 2**64, k]) for k, (kind, _) in enumerate(workload_cls.round_kinds)}
        self.items = {kind: [] for kind in self.rngs}
        for kind, per_round in workload_cls.round_kinds:
            for _ in range(POOL_ROUNDS * per_round):
                self.more(kind)

    def more(self, kind):
        self.items[kind].append(self.workload_cls.draw(self.rngs[kind], kind, len(self.items[kind])))
        return self.items[kind][-1]


class Inputs:
    """The drawn inputs as the program's objects, handed out in order."""

    def __init__(self, workload, draws: Draws):
        self.workload, self.draws = workload, draws
        self.ops = {kind: [workload.make_op(kind, k, d) for k, d in enumerate(ds)] for kind, ds in draws.items.items()}
        self.used = {kind: 0 for kind in self.ops}
        self.fixed = workload.fixed_ops()

    def next(self, kind):
        ops = self.ops[kind]
        if self.used[kind] == len(ops):
            ops.append(self.workload.make_op(kind, len(ops), self.draws.more(kind)))
        self.used[kind] += 1
        return ops[self.used[kind] - 1]


def set_up(name: str, draws: Draws):
    """Import the package, parse a CLI command line and parse the inputs."""
    pkg = Package()
    workload = wl.WORKLOADS[name](pkg)
    pkg.cli.build_parser().parse_args(["solve", "scenario.json"])
    pkg.scenarios.load_bundled("planar_far")
    return pkg, workload, Inputs(workload, draws)


def self_test(pkg) -> list[str]:
    """The references' own test: closed-form paths flown piece by piece end at
    the goal pose, and on planar_far they equal solve_all's valid lengths and
    the closed-form roots in the window equal solve_all's."""
    errors = []
    rng = np.random.default_rng(12345)
    for _ in range(50):
        p0, p1 = tuple(rng.uniform(-6, 6, 2)), tuple(rng.uniform(-6, 6, 2))
        th0, th1 = rng.uniform(-4, 4, 2)
        for word, q in ref.csc_paths_2d(p0, th0, p1, th1, 1.0).items():
            end, th = ref.fly_2d(p0, th0, word, q["t1"], q["seg"], q["t2"], 1.0)
            miss = max(abs(end[0] - p1[0]), abs(end[1] - p1[1]), abs(np.remainder(th - th1 + np.pi, 2 * np.pi) - np.pi))
            if miss > 1e-12:
                errors.append(f"closed-form {word} misses the goal pose by {miss:.3g}")
    inst = pkg.scenarios.load_bundled("planar_far").instance
    want = sorted(q["length"] for q in wl.closed_form(inst).values())
    got = sorted(
        pkg.path.extract_path(c, inst).total_length
        for c in pkg.solver.solve_all(inst)
        if pkg.path.check_directionality(c).valid
    )
    if len(got) != len(want) or any(abs(a - b) > wl.LENGTH_TOL for a, b in zip(got, want)):
        errors.append(f"planar_far: closed-form lengths {want} != solve_all valid lengths {got}")
    window = pkg.oracle.GridWindow.for_instance(inst)
    p1, th0, th1 = wl.planar_pose(*wl.poses(inst))
    roots = ref.planar_roots_2d((0.0, 0.0), th0, p1, th1, inst.radius)
    want = sorted(q for q in roots if window.contains(pkg.residual.HPair(q[1], q[2])))
    got = sorted((c.type_id, c.hp.h_i, c.hp.h_f) for c in pkg.solver.solve_all(inst) if window.contains(c.hp))
    if len(got) != len(want) or any(a[0] != b[0] or max(abs(a[1] - b[1]), abs(a[2] - b[2])) > wl.ROOT_TOL for a, b in zip(got, want)):
        errors.append(f"planar_far: closed-form roots {want} != solve_all roots {got} in the window")
    return errors


def run_rounds(workload, inputs, seconds: float, replay=None, listing=None, tracer=None):
    """Whole rounds until `seconds` have passed (or the rounds of `replay`).

    A tracer, when given, records only inside the timed operation.  A replay
    is not checked again.  Returns the records of the operations, the
    operations of each round (for a replay) and the wall time.
    """
    records, rounds = [], []
    slots = [kind for kind, per_round in workload.round_kinds for _ in range(per_round)]
    t_start = time.perf_counter()
    while replay is None or len(rounds) < len(replay):
        ops = replay[len(rounds)] if replay is not None else [inputs.next(kind) for kind in slots] + inputs.fixed
        for op in ops:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            out = workload.run(op)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if replay is not None:  # the same operations were checked when first run
                records.append({"op": op.label, "s": dt})
                continue
            outcome = workload.check(op, out)
            rec = {"op": op.label, "kind": op.kind, "s": dt, "items": op.items, "status": outcome.status}
            records.append(rec)
            if outcome.status != "ok" and listing is not None:
                listing.append({**rec, "instance": op.scenario, "reasons": outcome.reasons})
        rounds.append(ops)
        if replay is None and time.perf_counter() - t_start >= seconds:
            break
    return records, rounds, time.perf_counter() - t_start


def end_to_end(records, setup_s: float, tail_percentile: int) -> dict:
    lat = [1e3 * r["s"] for r in records]
    # a run holds at least one whole round, so at least two operations
    tail = statistics.quantiles(lat, n=100, method="inclusive")[tail_percentile - 1]
    items = sum(r["items"] for r in records)
    busy = sum(r["s"] for r in records)
    return {
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": tail, "unit": "ms"},
        "items_per_s": {"value": items / busy, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print failed operations by instance")
    args = ap.parse_args(argv)

    if not (SRC / "dubins3d" / "__init__.py").is_file():
        print(f"error: no dubins3d package under {SRC}", file=sys.stderr)
        return 2
    draws = Draws(wl.WORKLOADS[args.workload], args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pkg, workload, inputs = set_up(args.workload, draws)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    problems = self_test(pkg)
    listing = [] if args.list else None
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, rounds, wall = run_rounds(workload, inputs, seconds, listing=listing)
    result_extra = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer(pkg)
        tracer.install()
        try:
            t_records, _, _ = run_rounds(workload, inputs, seconds, replay=rounds, tracer=tracer)
        finally:
            tracer.remove()
        untraced = sum(r["s"] for r in records)
        traced = sum(r["s"] for r in t_records)
        metrics = tracer.per_op_metrics(len(t_records))
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
        result_extra = {"layers": tracer.layer_summary()}
    else:
        metrics = end_to_end(records, setup_s, workload.tail_percentile)

    failed = sum(r["status"] == "failed" for r in records)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "rounds": len(rounds),
                "wall_s": wall,
                "setup_s_reps": setup_times,
                "problems": problems,
                "records": records,
                "metrics": metrics,
                **result_extra,
            },
            fh,
        )
    for item in listing or []:
        print(json.dumps(item))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(
        f"{args.workload}: {len(rounds)} rounds, {len(records)} operations, {failed} failed, {wall:.1f} s",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
