"""Command-line front end.

Subcommands:
  solve       solve one scenario file, write a case report (JSON + CSV)
  sweep       valid-root counts over a 2D slice of end configurations
  seed-study  map a seed grid to converged roots per type
  grad-study  valid-root counts with vs without analytic Jacobians
  contours    export sampled residual fields for external plotting
  fidelity    run every bundled reference scenario and check its record

Exit codes: 0 success, 1 malformed input or arguments, 2 no valid solution
(solve) or recorded expectations violated (fidelity).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .geom import DubinsError, ProblemInstance
from .oracle import GridWindow, enumerate_all_types, sample_contours
from .path import check_directionality, extract_path, verify_path
from .residual import HPair, SolutionType
from .scenarios import (
    REFERENCE_EXPECTATIONS,
    ReferenceExpectation,
    Scenario,
    load_bundled,
    load_scenario,
)
from .solver import CollinearInstance, SolverOptions, solve_all
from .studies import SweepSpec, run_gradient_study, run_seed_study, run_sweep


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


@dataclass
class SolutionRow:
    type_id: int
    h_i: float
    h_f: float
    valid: bool
    reason: str
    path_length: float | None
    theta_start: float | None
    theta_end: float | None
    segment_length: float | None
    iterations: int
    verify_ok: bool | None
    shortest: bool = False


def build_case_report(scenario: Scenario, opts: SolverOptions) -> dict:
    """Solve, filter, extract, and verify one scenario."""
    inst = scenario.instance
    t0 = time.perf_counter()
    try:
        cands = solve_all(inst, opts)
    except CollinearInstance as col:
        wall = time.perf_counter() - t0
        return {
            "scenario": scenario.name,
            "radius": inst.radius,
            "collinear": True,
            "note": str(col),
            "straight_path": {"exists": col.aligned, "length": col.distance},
            "n_solutions": 0,
            "n_valid": 1 if col.aligned else 0,
            "wall_time_s": wall,
            "solutions": [],
        }
    rows: list[SolutionRow] = []
    for cand in cands:
        verdict = check_directionality(cand)
        # a filtered root has no path: None in every path field
        p = extract_path(cand, inst) if verdict.valid else None
        shape = (p.total_length, p.arc_start.angle, p.arc_end.angle, p.segment.length) if p else (None,) * 4
        ok = verify_path(p, inst).ok if p else None
        hp = cand.hp
        rows.append(SolutionRow(cand.type_id, hp.h_i, hp.h_f, verdict.valid, verdict.reason, *shape, cand.iterations, ok))
    wall = time.perf_counter() - t0
    valid_rows = [r for r in rows if r.valid]
    if valid_rows:
        min(valid_rows, key=lambda r: r.path_length).shortest = True  # type: ignore[arg-type]
    return {
        "scenario": scenario.name,
        "radius": inst.radius,
        "collinear": False,
        "n_solutions": len(rows),
        "n_valid": len(valid_rows),
        "wall_time_s": wall,
        "solutions": [vars(r) for r in rows],
    }


CASE_CSV_COLUMNS = [f.name for f in fields(SolutionRow)]


def _write_case_outputs(report: dict, out: Path, name: str, fmt: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        with (out / f"{name}.json").open("w") as fh:
            json.dump(report, fh, indent=2, default=float)
            fh.write("\n")
    if fmt in ("csv", "both"):
        rows = []
        for s in report["solutions"]:
            rows.append([s[c] if s[c] is not None else "" for c in CASE_CSV_COLUMNS])
        _write_csv(out / f"{name}.csv", CASE_CSV_COLUMNS, rows)


def _load(args) -> Scenario | None:
    """The scenario file of args, its options overridden by the flags given;
    None, after an error line on stderr, when it is malformed."""
    try:
        scenario = load_scenario(args.scenario)
        changes = {}
        if getattr(args, "no_gradient", False):
            changes["use_gradient"] = False
        if getattr(args, "seed", None) is not None:
            changes["seed"] = HPair(*args.seed)
        elif getattr(args, "robust", False):
            changes["seed"] = None
        return replace(scenario, options=replace(scenario.options, **changes))
    except (OSError, ValueError, DubinsError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return None


def cmd_solve(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    report = build_case_report(scenario, scenario.options)
    _write_case_outputs(report, Path(args.out), scenario.name, args.format)
    n_valid = report["n_valid"]
    if report.get("collinear"):
        print(f"{scenario.name}: collinear instance; {report['note']}")
    print(f"{scenario.name}: {report['n_solutions']} roots, {n_valid} valid ({report['wall_time_s']:.3f}s)")
    for s in report["solutions"]:
        mark = "*" if s.get("shortest") else " "
        status = "valid" if s["valid"] else f"invalid ({s['reason']})"
        length = f" length={s['path_length']:.6f}" if s["valid"] else ""
        print(f" {mark} type {s['type_id']}: h=({s['h_i']:+.6f},{s['h_f']:+.6f}) {status}{length}")
    return 0 if n_valid >= 1 else 2


def cmd_sweep(args) -> int:
    try:
        var, _, val = args.fix.partition("=")
        spec = SweepSpec(args.mode, (var.strip(), float(val)), steps=args.steps, robust_seeds=args.robust)
    except (ValueError, TypeError) as exc:
        print(f"error: invalid sweep spec: {exc}", file=sys.stderr)
        return 1
    result = run_sweep(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = f"sweep_{spec.mode}_{spec.fixed[0]}_{spec.fixed[1]:g}_{spec.steps}"
    header = [result.axis_names[0], result.axis_names[1], "count", "count_regular", "count_switched", "collinear"]
    _write_csv(out / f"{name}.csv", header, result.rows())
    print(f"{name}: counts {result.counts.min()}..{result.counts.max()} over {spec.steps}x{spec.steps} cells")
    return 0


def cmd_seed_study(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    type_ids = tuple(args.type) if args.type else tuple(range(1, 9))
    try:
        rows = run_seed_study(scenario, args.window, args.resolution, type_ids)
    except ValueError as exc:
        print(f"error: invalid seed study: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario.name}_seed_study.csv"
    _write_csv(
        path,
        ["seed_h_i", "seed_h_f", "type_id", "root_h_i", "root_h_f", "converged"],
        (
            (r.seed_h_i, r.seed_h_f, r.type_id, r.root_h_i if r.converged else "", r.root_h_f if r.converged else "", int(r.converged))
            for r in rows
        ),
    )
    n_conv = sum(r.converged for r in rows)
    print(f"seed study: {n_conv}/{len(rows)} (seed, type) pairs converged -> {path}")
    return 0


def cmd_grad_study(args) -> int:
    try:
        rows = run_gradient_study(args.cases, args.rng_seed)
    except ValueError as exc:
        print(f"error: invalid gradient study: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"grad_study_{args.cases}_{args.rng_seed}.csv"
    _write_csv(
        path,
        ["case", "distance", "direction_angle", "n_with_gradient", "n_without_gradient"],
        ((r.case, r.distance, r.direction_angle, r.n_with_gradient, r.n_without_gradient) for r in rows),
    )
    ge = sum(r.n_with_gradient >= r.n_without_gradient for r in rows)
    print(f"gradient study: with >= without in {ge}/{len(rows)} cases -> {path}")
    return 0


def cmd_contours(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    inst = scenario.instance
    try:
        if args.window is not None:
            window = GridWindow.square(args.window, args.resolution)
        else:
            window = GridWindow.for_instance(inst, args.resolution)
    except ValueError as exc:
        print(f"error: invalid contour window: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    type_ids = tuple(args.type) if args.type else tuple(range(1, 9))
    for cmap in sample_contours(inst, window, map(SolutionType.from_id, type_ids)):
        rows = [
            (float(a), float(b), float(cmap.p_i[i, j]), float(cmap.p_f[i, j]), int(cmap.singular[i, j]))
            for i, a in enumerate(cmap.h_i_nodes)
            for j, b in enumerate(cmap.h_f_nodes)
        ]
        path = out / f"{scenario.name}_contours_type{cmap.stype.type_id}.csv"
        _write_csv(path, ["h_i", "h_f", "p_i", "p_f", "singular"], rows)
    print(f"wrote contour grids for types {list(type_ids)} to {out}")
    return 0


def _check_expectation(exp: ReferenceExpectation, inst: ProblemInstance, report: dict) -> list[tuple[str, bool, str]]:
    """Evaluate one scenario's recorded expectations; returns (check, ok, detail)."""
    sols = report["solutions"]
    valid = [s for s in sols if s["valid"]]
    invalid_types = {s["type_id"] for s in sols if not s["valid"]}
    got = {
        "n_valid": len(valid),
        "valid_types": tuple(sorted(s["type_id"] for s in valid)),
        "valid_regular": sum(1 for s in valid if s["type_id"] <= 4),
        "valid_switched": sum(1 for s in valid if s["type_id"] >= 5),
    }
    checks: list[tuple[str, bool, str]] = []
    for name, n in got.items():
        want = getattr(exp, name)
        if want is not None:
            checks.append((name, n == want, f"expected {want}, got {n}"))
    for tid in exp.invalid_present:
        checks.append((f"invalid_type_{tid}_present", tid in invalid_types, f"filtered roots: {sorted(invalid_types)}"))
    absent = enumerate_all_types(inst, GridWindow.for_instance(inst), map(SolutionType.from_id, exp.absent))
    for tid in exp.absent:
        checks.append((f"type_{tid}_absent", not absent[tid], f"enumeration found {len(absent[tid])} roots"))
    ok_verify = all(s["verify_ok"] for s in valid) if valid else True
    checks.append(("paths_verify", ok_verify, "all valid paths pass geometric verification"))
    return checks


def cmd_fidelity(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    summary = {}
    for exp in REFERENCE_EXPECTATIONS:
        scenario = load_bundled(exp.scenario)
        report = build_case_report(scenario, scenario.options)
        _write_case_outputs(report, out, exp.scenario, "both")
        checks = _check_expectation(exp, scenario.instance, report)
        summary[exp.scenario] = {name: ok for name, ok, _ in checks}
        for name, ok, detail in checks:
            tag = "PASS" if ok else "FAIL"
            print(f"[{tag}] {exp.scenario}.{name}" + ("" if ok else f": {detail}"))
            failures += 0 if ok else 1
    with (out / "fidelity_summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"fidelity: {failures} failing checks" if failures else "fidelity: all checks passed")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dubins3d", description="3D CSC path solver and studies")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory (default: current)")

    p = sub.add_parser("solve", help="solve one scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    seeding = p.add_mutually_exclusive_group()
    seeding.add_argument("--robust", action="store_true", help="multistart seed grid, overriding a scenario's single-seed policy")
    seeding.add_argument("--seed", nargs=2, type=float, metavar=("H_I", "H_F"), help="solve from a single seed instead")
    p.add_argument("--no-gradient", action="store_true", help="finite-difference Jacobian instead of analytic")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="valid-root counts over a 2D slice")
    p.add_argument("--mode", choices=("planar", "nonplanar"), required=True)
    p.add_argument("--fix", required=True, metavar="VAR=VALUE", help="fixed variable: x, z, or angle")
    p.add_argument("--steps", type=int, default=61)
    p.add_argument("--robust", action="store_true", help="seed grid per cell instead of the single (0,0) seed")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("seed-study", help="map seeds to converged roots")
    p.add_argument("scenario")
    p.add_argument("--type", type=int, action="append", choices=range(1, 9), help="restrict to type id (repeatable)")
    p.add_argument("--window", type=float, default=6.0, help="seed grid half-width")
    p.add_argument("--resolution", type=int, default=41, help="seeds per axis")
    add_common(p)
    p.set_defaults(func=cmd_seed_study)

    p = sub.add_parser("grad-study", help="analytic vs finite-difference Jacobian counts")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--rng-seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_grad_study)

    p = sub.add_parser("contours", help="export residual fields on a grid")
    p.add_argument("scenario")
    p.add_argument("--type", type=int, action="append", choices=range(1, 9))
    p.add_argument("--window", type=float, default=None, help="half-width (default: instance-scaled)")
    p.add_argument("--resolution", type=int, default=200)
    add_common(p)
    p.set_defaults(func=cmd_contours)

    p = sub.add_parser("fidelity", help="run all bundled reference scenarios")
    add_common(p)
    p.set_defaults(func=cmd_fidelity)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after a usage error, its
        # message already on stderr; here 2 means no valid solution
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
