"""The benchmark's workloads: inputs drawn from a seed, the timed operation
and the check of each operation's output.

Every workload runs in rounds of a fixed make-up, so the share of failed
operations is the same in every run whatever the seed and the run length.
A round holds seeded operations and, where a named fault of the program
shows, one fixed operation that exhibits it and fails every time.

The same faults also strike some random planar pairs: a type with two
roots, or a shortest path whose root lies beyond the seed window.  Which
pairs those are is decided when a pair is drawn, from the closed-form planar
paths and roots alone (`seeds_reach`), and such a pair is redrawn.  The
program under test has no say in which pairs are timed, and every seeded
pair that fails is counted as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import references as ref

BOX = 6.0  # positions are drawn in [-BOX, BOX]^3
RADIUS = 1.0
PATH_TOL = 1e-8  # geometric path check, times r
LENGTH_TOL = 1e-6  # closed-form length agreement, times r
ROOT_TOL = 1e-6  # solver / oracle root agreement, max norm
AUDIT_RESOLUTION = 400
SWEEP_STEPS = 3
SWEEP_MAX_ITERS = 60  # the iteration limit run_sweep uses
# Sweep slices fix z and sweep x and the goal heading angle.  z lies on an
# even grid over the same +-6 range as x, as a study would take its slices:
# the midpoints of SWEEP_STRATA equal parts, so every round covers the range
# once per mode.  The seed moves each slice by up to SWEEP_JITTER, a tenth of
# a part's width: a slice's cost changes up to 2x across the range, and every
# run must time the same work for runs on different seeds to compare.
SWEEP_Z_RANGE = (-6.0, 6.0)
SWEEP_STRATA = 4
SWEEP_JITTER = 0.15


@dataclass
class Op:
    """One operation: what it runs on and how to list it."""

    kind: str
    label: str
    data: object  # a ProblemInstance, or a SweepSpec
    scenario: dict  # the instance as scenario JSON, or the slice spec
    items: int = 1


@dataclass
class Outcome:
    status: str  # "ok" or "failed"
    reasons: list[str] = field(default_factory=list)


# -- seeded instance generation ---------------------------------------------

def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def draw_pair(rng, planar: bool) -> dict:
    """One start/goal pair as a scenario object, positions in the box.

    Planar pairs put both headings in a random plane through both positions.
    """
    p0 = rng.uniform(-BOX, BOX, 3)
    p1 = rng.uniform(-BOX, BOX, 3)
    if planar:
        e1 = (p1 - p0) / np.linalg.norm(p1 - p0)
        n = rng.normal(size=3)
        n -= n.dot(e1) * e1
        n /= np.linalg.norm(n)
        e2 = np.cross(n, e1)
        a0, a1 = rng.uniform(0.0, 2.0 * math.pi, 2)
        v0 = math.cos(a0) * e1 + math.sin(a0) * e2
        v1 = math.cos(a1) * e1 + math.sin(a1) * e2
    else:
        v0, v1 = _unit_vector(rng), _unit_vector(rng)
    return {
        "start": {"position": p0.tolist(), "direction": v0.tolist()},
        "goal": {"position": p1.tolist(), "direction": v1.tolist()},
        "radius": RADIUS,
    }


def _pose_scenario(p0, v0, p1, v1) -> dict:
    return {
        "start": {"position": list(p0), "direction": list(ref.unit(v0))},
        "goal": {"position": list(p1), "direction": list(ref.unit(v1))},
        "radius": RADIUS,
    }


def _sweep_goal_direction(mode: str, angle: float) -> tuple[float, float, float]:
    if mode == "planar":
        return (-math.sin(angle), 0.0, math.cos(angle))
    return (math.cos(angle), math.sin(angle), 0.0)


# Named fault 1: roots beyond the seed window.  The shortest path (LSR,
# length 7.996) has h_i = -35.9 against a seed half-width of 8.96, and
# solve_all returns 9.946 as the shortest.
PLAN_FAULT = _pose_scenario((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (-3.3, 0.0, -3.7), _sweep_goal_direction("planar", 1.1))
# Named fault 2: an in-window root missed by the 9 x 9 seed grid.  The
# oracle finds a type-6 root at (-1.299, 2.066), inside the half-width 6.60;
# solve_all does not.
AUDIT_FAULT = _pose_scenario((-3.2, 0.2, 2.4), (-0.4, -0.2, -0.9), (-1.4, -0.6, 4.1), (-0.9, 0.4, -0.2))


def poses(inst):
    s, g = inst.start, inst.goal
    return s.position.as_tuple(), s.direction.as_tuple(), g.position.as_tuple(), g.direction.as_tuple()


def planar_pose(sp, sd, gp, gd):
    """A planar pair in its own plane: goal position and both headings, with
    the start at the origin."""
    chord = ref.sub(gp, sp)
    normal = max((ref.cross(sd, chord), ref.cross(gd, chord), ref.cross(sd, gd)), key=ref.norm)
    e1, e2 = ref.planar_frame(sp, gp, ref.unit(normal))
    return ref.to_plane(gp, sp, e1, e2), ref.heading_in_plane(sd, e1, e2), ref.heading_in_plane(gd, e1, e2)


def closed_form(inst) -> dict:
    """Closed-form planar CSC paths of a planar instance, in its own plane."""
    p1, th0, th1 = planar_pose(*poses(inst))
    return ref.csc_paths_2d((0.0, 0.0), th0, p1, th1, inst.radius)


def seeds_reach(scn: dict) -> bool:
    """Whether the default seed grid finds a planar pair's roots, judged from
    the closed-form paths and roots alone.

    solve_all loses roots in two ways (the named faults): a root beyond the
    seed window (chord + 4 r) is never seeded, and when a type has two roots
    it may return only one of them.  Every seeded miss seen on random planar
    pairs was one of these (see README).  So the pair qualifies when each of
    the eight types has exactly one closed-form root and the shortest
    closed-form path's root lies inside the window.
    """
    sp, sd = scn["start"]["position"], scn["start"]["direction"]
    gp, gd = scn["goal"]["position"], scn["goal"]["direction"]
    r = scn["radius"]
    p1, th0, th1 = planar_pose(sp, sd, gp, gd)
    types = sorted(t for t, _, _ in ref.planar_roots_2d((0.0, 0.0), th0, p1, th1, r))
    shortest = min(ref.csc_paths_2d((0.0, 0.0), th0, p1, th1, r).values(), key=lambda q: q["length"])
    half_width = ref.norm(ref.sub(gp, sp)) + 4.0 * r
    return types == list(range(1, 9)) and max(abs(shortest["h_i"]), abs(shortest["h_f"])) <= half_width


def _path_reasons(pkg, inst, cands) -> list[str]:
    """Extract every directionally valid root's path and check it; the
    reasons any path failed."""
    sp, sd, gp, gd = poses(inst)
    reasons = []
    for cand in cands:
        if not pkg.path.check_directionality(cand).valid:
            continue
        p = pkg.path.extract_path(cand, inst)
        bad = ref.path_failures(p, sp, sd, gp, gd, inst.radius, PATH_TOL)
        if bad:
            reasons.append(f"type {cand.type_id} path at ({cand.hp.h_i:.6g}, {cand.hp.h_f:.6g}) fails {bad}")
    return reasons


def seed_half_width(inst) -> float:
    """Half-width of the default seed grid and oracle window: chord + 4 r."""
    return inst.chord + 4.0 * inst.radius


# -- workloads ---------------------------------------------------------------

class Workload:
    """A round make-up, its seeded draws, the timed operation and its check."""

    name = ""
    round_kinds: tuple[tuple[str, int], ...] = ()
    # latency_tail_ms reads this percentile, fixed per workload so that a
    # faster program is read at the same point: a whole percentile with at
    # least ten operations beyond it in every 30-second run measured here;
    # below 40 operations a run has no tail and the median stands in
    tail_percentile = 50

    def __init__(self, pkg):
        self.pkg = pkg

    @staticmethod
    def draw(rng, kind: str, k: int) -> dict:
        """The k-th seeded pair of a kind as a scenario object; planar pairs
        are redrawn until the default seed grid reaches their roots."""
        while True:
            scn = draw_pair(rng, kind == "planar")
            if kind != "planar" or seeds_reach(scn):
                return scn

    def make_op(self, kind: str, k: int, scn: dict) -> Op:
        inst = self.pkg.scenarios.parse_scenario(scn, name=f"{kind}-{k}").instance
        return Op(kind, f"{kind} #{k}", inst, scn)

    def fixed_ops(self) -> list[Op]:
        return []

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Outcome:
        raise NotImplementedError


class Plan(Workload):
    """One start/goal pair planned at a time, shortest valid path picked."""

    name = "plan"
    round_kinds = (("nonplanar", 7), ("planar", 7))
    tail_percentile = 95  # 285 to 495 operations per run

    def fixed_ops(self) -> list[Op]:
        inst = self.pkg.scenarios.parse_scenario(PLAN_FAULT, name="plan-fault").instance
        return [Op("planar", "fixed: root beyond the seed window", inst, PLAN_FAULT)]

    def run(self, op: Op):
        pkg, inst = self.pkg, op.data
        paths, rejected = [], []
        for cand in pkg.solver.solve_all(inst):
            if pkg.path.check_directionality(cand).valid:
                p = pkg.path.extract_path(cand, inst)
                (paths if pkg.path.verify_path(p, inst).ok else rejected).append(p)
        best = min(paths, key=lambda p: p.total_length) if paths else None
        return best, paths, rejected

    def check(self, op: Op, out) -> Outcome:
        best, paths, rejected = out
        inst = op.data
        sp, sd, gp, gd = poses(inst)
        r = inst.radius
        reasons = []
        for p in paths + rejected:
            bad = ref.path_failures(p, sp, sd, gp, gd, r, PATH_TOL)
            if bad:
                reasons.append(f"path of length {p.total_length:.9g} fails {bad}")
        if rejected and not reasons:
            reasons.append(f"verify_path rejected {len(rejected)} path(s) the reference check accepts")
        if best is None:
            return Outcome("failed", reasons + ["no valid path"])
        if op.kind != "planar" or reasons:
            return Outcome("failed" if reasons else "ok", reasons)
        word, cf = min(closed_form(inst).items(), key=lambda kv: kv[1]["length"])
        if abs(best.total_length - cf["length"]) <= LENGTH_TOL * r:
            return Outcome("ok")
        return Outcome("failed", [
            f"shortest returned {best.total_length:.9g} != closed-form {word} {cf['length']:.9g}"
            f" at h = ({cf['h_i']:.6g}, {cf['h_f']:.6g}), seed half-width {seed_half_width(inst):.6g}"
        ])


class Audit(Workload):
    """The grid oracle against the multistart solver, type by type."""

    name = "audit"
    round_kinds = (("planar", 4),)
    tail_percentile = 80  # 55 to 75 operations per run

    def fixed_ops(self) -> list[Op]:
        inst = self.pkg.scenarios.parse_scenario(AUDIT_FAULT, name="audit-fault").instance
        return [Op("nonplanar", "fixed: in-window root missed by the seed grid", inst, AUDIT_FAULT)]

    def run(self, op: Op):
        pkg, inst = self.pkg, op.data
        window = pkg.oracle.GridWindow.for_instance(inst, AUDIT_RESOLUTION)
        roots = pkg.oracle.enumerate_all_types(inst, window)
        cands = pkg.solver.solve_all(inst)
        return window, roots, cands

    def check(self, op: Op, out) -> Outcome:
        window, roots, cands = out
        inst = op.data
        reasons = _path_reasons(self.pkg, inst, cands)
        missed = []
        for type_id in range(1, 9):
            found = [c.hp for c in cands if c.type_id == type_id and window.contains(c.hp)]
            oracle = list(roots.get(type_id, []))
            for hp in found:
                match = [o for o in oracle if max(abs(o.h_i - hp.h_i), abs(o.h_f - hp.h_f)) < ROOT_TOL]
                if len(match) != 1:
                    reasons.append(f"type {type_id} solver root ({hp.h_i:.6g}, {hp.h_f:.6g}) matches {len(match)} oracle roots")
                    continue
                oracle.remove(match[0])
            missed += [f"type {type_id} oracle root ({o.h_i:.6g}, {o.h_f:.6g}) not found by solve_all" for o in oracle]
        reasons += missed
        return Outcome("failed" if reasons else "ok", reasons)


class Sweep(Workload):
    """Robust solution-space sweeps over small slices of both modes."""

    name = "sweep"
    round_kinds = (("planar", SWEEP_STRATA), ("nonplanar", SWEEP_STRATA))  # 8 operations per run

    @staticmethod
    def draw(rng, kind: str, k: int) -> dict:
        lo, hi = SWEEP_Z_RANGE
        part = (hi - lo) / SWEEP_STRATA
        z = lo + part * (k % SWEEP_STRATA + 0.5) + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
        return {"mode": kind, "z": float(z), "steps": SWEEP_STEPS, "robust_seeds": True}

    def make_op(self, kind: str, k: int, desc: dict) -> Op:
        spec = self.pkg.studies.SweepSpec(kind, ("z", desc["z"]), steps=SWEEP_STEPS, robust_seeds=True)
        return Op(kind, f"{kind} slice #{k}", spec, desc, items=SWEEP_STEPS * SWEEP_STEPS)

    def run(self, op: Op):
        return self.pkg.studies.run_sweep(op.data)

    def reference_count(self, mode: str, x: float, z: float, angle: float) -> int:
        """Directionally valid roots of one cell from solve_all."""
        pkg = self.pkg
        inst = pkg.geom.instance((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (x, 0.0, z), _sweep_goal_direction(mode, angle))
        opts = pkg.solver.SolverOptions(max_iters=SWEEP_MAX_ITERS)
        try:
            cands = pkg.solver.solve_all(inst, opts)
        except pkg.solver.CollinearInstance as col:
            return 1 if col.aligned else 0
        return sum(pkg.path.check_directionality(c).valid for c in cands)

    def check(self, op: Op, out) -> Outcome:
        mode = op.kind
        z = op.data.fixed[1]
        counts = out.counts
        n = len(out.axis_a)
        reasons = []
        if out.axis_names != ("x", "angle") or counts.shape != (n, n):
            return Outcome("failed", [f"unexpected slice layout {out.axis_names} {counts.shape}"])
        for i, x in enumerate(out.axis_a):
            for j, a in enumerate(out.axis_b):
                want = self.reference_count(mode, float(x), z, float(a))
                if counts[i, j] != want:
                    reasons.append(f"cell x={x:.6g} angle={a:.6g}: count {counts[i, j]} != solve_all {want}")
                # mirror image: planar (x, a) -> (-x, -a); nonplanar (x, a) -> (x, -a)
                mi = n - 1 - i if mode == "planar" else i
                mj = (n - j) % n
                if counts[i, j] != counts[mi, mj]:
                    reasons.append(f"cell ({i}, {j}) count {counts[i, j]} != mirror cell ({mi}, {mj}) {counts[mi, mj]}")
        return Outcome("failed" if reasons else "ok", reasons)


WORKLOADS = {w.name: w for w in (Plan, Audit, Sweep)}
