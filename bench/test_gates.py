"""Self-test of the references and proof that each gate of the benchmark can fail.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.Package()


def test_closed_form_paths_flown_piece_by_piece_end_at_the_goal():
    rng = np.random.default_rng(7)
    for _ in range(500):
        p0, p1 = tuple(rng.uniform(-6, 6, 2)), tuple(rng.uniform(-6, 6, 2))
        th0, th1 = rng.uniform(-4, 4, 2)
        r = rng.uniform(0.5, 2.0)
        words = ref.csc_paths_2d(p0, th0, p1, th1, r)
        assert {"LSL", "RSR"} <= set(words)
        for word, q in words.items():
            end, th = ref.fly_2d(p0, th0, word, q["t1"], q["seg"], q["t2"], r)
            assert math.dist(end, p1) <= 1e-12
            assert abs(math.remainder(th - th1, 2 * math.pi)) <= 1e-12


def test_planar_far_closed_form_lengths_and_roots_equal_the_solver_ones(pkg):
    assert run.self_test(pkg) == []


def test_closed_form_roots_solve_the_tangency_equations_and_match_the_oracle(pkg):
    rng = np.random.default_rng(11)
    for k in range(20):
        scn = wl.draw_pair(rng, planar=True)
        inst = pkg.scenarios.parse_scenario(scn).instance
        p1, th0, th1 = wl.planar_pose(*wl.poses(inst))
        roots = ref.planar_roots_2d((0.0, 0.0), th0, p1, th1, inst.radius)
        assert roots
        for type_id, h_i, h_f in roots:
            hp = pkg.residual.HPair(h_i, h_f)
            res, _ = pkg.residual.residuals(inst, pkg.residual.SolutionType.from_id(type_id), hp)
            assert res.max_abs() <= 1e-9 * max(1.0, abs(h_i), abs(h_f))
        if k < 2:
            window = pkg.oracle.GridWindow.for_instance(inst, wl.AUDIT_RESOLUTION)
            found = sorted((t, o.h_i, o.h_f) for t, v in pkg.oracle.enumerate_all_types(inst, window).items() for o in v)
            want = sorted(q for q in roots if window.contains(pkg.residual.HPair(q[1], q[2])))
            assert [q[0] for q in found] == [q[0] for q in want]
            assert all(math.dist(a[1:], b[1:]) < wl.ROOT_TOL for a, b in zip(found, want))


def _plan_op(pkg, scenario):
    inst = pkg.scenarios.parse_scenario(scenario).instance
    return wl.Op("planar", "test", inst, scenario)


def _shift_end(path, dx):
    """The same path with its final arc moved by dx along x."""
    arc = path.arc_end
    move = lambda v: type(v)(v.x + dx, v.y, v.z)  # noqa: E731
    return dataclasses.replace(path, arc_end=dataclasses.replace(arc, center=move(arc.center), start_point=move(arc.start_point)))


def test_plan_gate_fails_a_path_with_a_shifted_end_point(pkg):
    plan = wl.Plan(pkg)
    scn = wl.draw_pair(np.random.default_rng(3), planar=True)
    op = _plan_op(pkg, scn)
    best, paths, rejected = plan.run(op)
    assert plan.check(op, (best, paths, rejected)).status == "ok"
    bad = [_shift_end(p, 1e-6) if p is best else p for p in paths]
    outcome = plan.check(op, (bad[paths.index(best)], bad, rejected))
    assert outcome.status == "failed"
    assert any("goal_position" in r for r in outcome.reasons)


def test_plan_gate_fails_a_longer_shortest_path(pkg):
    plan = wl.Plan(pkg)
    op = _plan_op(pkg, wl.draw_pair(np.random.default_rng(3), planar=True))
    best, paths, rejected = plan.run(op)
    rest = [p for p in paths if p is not best]
    outcome = plan.check(op, (min(rest, key=lambda p: p.total_length), rest, rejected))
    assert outcome.status == "failed"


def test_plan_fixed_fault_pair_fails(pkg):
    plan = wl.Plan(pkg)
    (op,) = plan.fixed_ops()
    outcome = plan.check(op, plan.run(op))
    assert outcome.status == "failed"
    assert "closed-form LSR" in outcome.reasons[0]


@pytest.fixture(scope="module")
def audit_run(pkg):
    audit = wl.Audit(pkg)
    op = _plan_op(pkg, pkg.scenarios.scenario_to_json(pkg.scenarios.load_bundled("planar_far")))
    return audit, op, audit.run(op)


def test_audit_gate_passes_and_fails_a_root_set_with_one_root_dropped(audit_run):
    audit, op, (window, roots, cands) = audit_run
    assert audit.check(op, (window, roots, cands)).status == "ok"
    inside = [c for c in cands if window.contains(c.hp)]
    assert inside
    for dropped in inside:
        outcome = audit.check(op, (window, roots, [c for c in cands if c is not dropped]))
        assert outcome.status == "failed", dropped
    oracle_short = {t: v[1:] if t == inside[0].type_id else v for t, v in roots.items()}
    assert audit.check(op, (window, oracle_short, cands)).status == "failed"


def test_audit_fixed_fault_pair_fails(pkg):
    audit = wl.Audit(pkg)
    (op,) = audit.fixed_ops()
    outcome = audit.check(op, audit.run(op))
    assert outcome.status == "failed"
    assert outcome.reasons == ["type 6 oracle root (-1.29904, 2.06622) not found by solve_all"]


def test_sweep_gate_fails_a_count_off_by_one(pkg):
    sweep = wl.Sweep(pkg)
    op = sweep.make_op("nonplanar", 0, wl.Sweep.draw(np.random.default_rng(5), "nonplanar", 0))
    result = sweep.run(op)
    assert sweep.check(op, result).status == "ok"
    for i, j in ((0, 0), (1, 2)):
        for delta in (1, -1):
            counts = result.counts.copy()
            counts[i, j] += delta
            outcome = sweep.check(op, dataclasses.replace(result, counts=counts))
            assert outcome.status == "failed"


def test_seeded_planar_pairs_are_chosen_from_the_references_alone():
    # the fixed fault pair's shortest root lies beyond the seed window: the
    # rule would never draw it
    assert not wl.seeds_reach(wl.PLAN_FAULT)
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    pairs = [wl.Workload.draw(a, "planar", k) for k in range(50)]
    assert pairs == [wl.Workload.draw(b, "planar", k) for k in range(50)]
    assert all(wl.seeds_reach(p) for p in pairs)


def test_each_sweep_round_covers_every_part_of_the_z_range():
    rng = np.random.default_rng(2)
    lo, hi = wl.SWEEP_Z_RANGE
    part = (hi - lo) / wl.SWEEP_STRATA
    zs = [wl.Sweep.draw(rng, "planar", k)["z"] for k in range(2 * wl.SWEEP_STRATA)]
    assert [int((z - lo) // part) for z in zs] == list(range(wl.SWEEP_STRATA)) * 2
