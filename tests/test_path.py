import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dubins3d.geom import Configuration, ProblemInstance, UnitVec3, Vec3, instance
from dubins3d.path import (
    Arc,
    InvalidCandidate,
    check_directionality,
    extract_path,
    path_length,
    point_at,
    sample_path,
    verify_path,
)
from dubins3d.residual import Geometry, HPair, ResidualPair, SolutionType, residuals
from dubins3d.scenarios import load_bundled
from dubins3d.solver import SolutionCandidate, collinearity, solve_all

# Hand-checkable planar case: start at the origin heading +z, goal on the x
# axis heading -z.  The (regular, -, +) system has a root at offsets (1, -1):
# quarter turn, straight run at height 1, quarter turn.
QUARTER = instance((0, 0, 0), (0, 0, 1), (4, 0, 0), (0, 0, -1))
QUARTER_TYPE = SolutionType.from_id(3)
QUARTER_ROOT = HPair(1.0, -1.0)

# Shrinking the goal to x=2 makes the two quarter circles tangent: the
# straight segment degenerates to a point.
TANGENT = instance((0, 0, 0), (0, 0, 1), (2, 0, 0), (0, 0, -1))


def candidate_at(inst, stype, hp, iterations=0):
    res, geo = residuals(inst, stype, hp)
    return SolutionCandidate(stype, hp, res, geo, iterations, hp)


def synthetic_candidate(switched, c_i, c_f, hdir):
    # the start offset point lies one radius off the segment line through
    # c_i (hdir is perpendicular to y in every use), so r = 1
    stype = SolutionType(switched=switched, start_sign=1, end_sign=1)
    geo = Geometry(Vec3(*c_i) + Vec3(0, 1, 0), Vec3(0, 0, 1), UnitVec3(*hdir), Vec3(*c_i), Vec3(*c_f))
    return SolutionCandidate(stype, HPair(0.0, 1.0), ResidualPair(0.0, 0.0), geo, 0, HPair(0, 0))


def all_valid_candidates(names=("planar_far", "planar_close", "nonplanar_far", "nonplanar_close", "planar_far_2", "planar_close_2", "nonplanar_far_2", "nonplanar_close_2", "seed_sensitivity")):
    for name in names:
        inst = load_bundled(name).instance
        for cand in solve_all(inst):
            if check_directionality(cand).valid:
                yield inst, cand


def test_directionality_sign_conventions():
    forward = synthetic_candidate(False, (0, 0, 0), (0, 0, 5), (0, 0, 1))
    assert check_directionality(forward).valid
    assert check_directionality(forward).reason == "ok"
    sw = synthetic_candidate(True, (0, 0, 0), (0, 0, 5), (0, 0, 1))
    v = check_directionality(sw)
    assert not v.valid and v.reason == "switched_forward"
    back = synthetic_candidate(False, (0, 0, 0), (0, 0, -5), (0, 0, 1))
    v = check_directionality(back)
    assert not v.valid and v.reason == "regular_backward"
    flat = synthetic_candidate(False, (0, 0, 0), (1e-12, 0, 0), (1, 0, 0))
    v = check_directionality(flat)
    assert v.valid and v.reason == "degenerate_segment"


def test_filtered_candidate_rejected():
    inst = load_bundled("nonplanar_close").instance
    bad = [c for c in solve_all(inst) if not check_directionality(c).valid]
    assert bad
    with pytest.raises(InvalidCandidate):
        extract_path(bad[0], inst)


def test_quarter_turn_path_exact():
    cand = candidate_at(QUARTER, QUARTER_TYPE, QUARTER_ROOT)
    assert cand.residual.max_abs() < 1e-12
    assert check_directionality(cand).valid
    p = extract_path(cand, QUARTER)
    assert p.arc_start.angle == pytest.approx(math.pi / 2, abs=1e-12)
    assert p.arc_end.angle == pytest.approx(math.pi / 2, abs=1e-12)
    assert p.arc_start.center.as_tuple() == pytest.approx((1, 0, 0))
    assert p.arc_end.center.as_tuple() == pytest.approx((3, 0, 0))
    assert p.segment.start.as_tuple() == pytest.approx((1, 0, 1))
    assert p.segment.end.as_tuple() == pytest.approx((3, 0, 1))
    assert p.total_length == pytest.approx(2.0 + math.pi)
    assert path_length(p) == pytest.approx(p.total_length)
    assert verify_path(p, QUARTER).ok


def test_quarter_turns_with_longer_run():
    # same construction with the goal at x=7: two quarter turns around a
    # straight run of 5, total 5 + pi
    inst = instance((0, 0, 0), (0, 0, 1), (7, 0, 0), (0, 0, -1))
    p = extract_path(candidate_at(inst, QUARTER_TYPE, QUARTER_ROOT), inst)
    assert p.segment.length == pytest.approx(5.0)
    assert p.total_length == pytest.approx(5.0 + math.pi)
    assert verify_path(p, inst).ok


def test_degenerate_segment_path():
    cand = candidate_at(TANGENT, QUARTER_TYPE, QUARTER_ROOT)
    verdict = check_directionality(cand)
    assert verdict.valid and verdict.reason == "degenerate_segment"
    p = extract_path(cand, TANGENT)
    assert p.segment.length == pytest.approx(0.0, abs=1e-12)
    assert p.total_length == pytest.approx(math.pi)
    report = verify_path(p, TANGENT)
    assert report.ok, report.failures()


def test_long_arc_branch():
    # a valid root with negative start offset turns the long way around
    inst = load_bundled("planar_close_2").instance
    for cand in solve_all(inst):
        if not check_directionality(cand).valid:
            continue
        p = extract_path(cand, inst)
        g = -cand.geometry.hdir if cand.stype.switched else cand.geometry.hdir
        alpha = math.acos(max(-1.0, min(1.0, inst.start.direction.dot(g))))
        if cand.hp.h_i > 0:
            assert p.arc_start.angle == pytest.approx(alpha)
        else:
            assert p.arc_start.angle == pytest.approx(2 * math.pi - alpha)
        assert verify_path(p, inst).ok


def test_segment_runs_along_hdir_with_switch_reversal():
    for inst, cand in all_valid_candidates(("planar_close_2", "seed_sensitivity", "nonplanar_far")):
        p = extract_path(cand, inst)
        if p.segment.length < 1e-12:
            continue
        d = (p.segment.end - p.segment.start) * (1.0 / p.segment.length)
        expect = -cand.geometry.hdir if cand.stype.switched else cand.geometry.hdir
        assert (d - expect).norm() < 1e-9
        assert p.segment.reversed == cand.stype.switched


def test_all_valid_paths_verify():
    count = 0
    for inst, cand in all_valid_candidates():
        report = verify_path(extract_path(cand, inst), inst, tol=1e-8 * inst.radius)
        assert report.ok, (cand.stype, report.failures())
        count += 1
    assert count >= 25


def test_total_length_at_least_chord():
    for inst, cand in all_valid_candidates():
        p = extract_path(cand, inst)
        assert p.total_length >= inst.chord - 1e-12


def test_shortest_path_matches_dense_sampling():
    # arc-length bookkeeping agrees with summed distances of a fine polyline
    inst = load_bundled("planar_far").instance
    lengths = []
    for cand in solve_all(inst):
        if not check_directionality(cand).valid:
            continue
        p = extract_path(cand, inst)
        pts = sample_path(p, 4001)
        polyline = sum((b - a).norm() for a, b in zip(pts, pts[1:]))
        assert polyline == pytest.approx(p.total_length, rel=1e-6)
        lengths.append(p.total_length)
    assert len(lengths) == 4
    assert min(lengths) > 0


def test_sample_path_endpoints_and_spacing():
    inst = QUARTER
    p = extract_path(candidate_at(inst, QUARTER_TYPE, QUARTER_ROOT), inst)
    two = sample_path(p, 2)
    assert (two[0] - inst.start.position).norm() < 1e-9
    assert (two[-1] - inst.goal.position).norm() < 1e-9
    pts = sample_path(p, 57)
    assert (pts[0] - inst.start.position).norm() < 1e-9
    assert (pts[-1] - inst.goal.position).norm() < 1e-9
    target = p.total_length / 56
    for a, b in zip(pts, pts[1:]):
        step = (b - a).norm()
        assert step <= target + 1e-6  # chords never exceed arc length
        assert step >= target * 0.95
    with pytest.raises(ValueError):
        sample_path(p, 1)


def test_arc_samples_stay_on_circle():
    rng = np.random.default_rng(13)
    checked = 0
    for trial in range(40):
        xf = rng.uniform(-6, 6, 3)
        vi = rng.normal(size=3)
        vf = rng.normal(size=3)
        if np.linalg.norm(xf) < 0.5:
            continue
        inst = instance((0, 0, 0), tuple(vi), tuple(xf), tuple(vf), radius=float(rng.uniform(0.5, 2.0)))
        for cand in solve_all(inst):
            if not check_directionality(cand).valid:
                continue
            p = extract_path(cand, inst)
            for arc in (p.arc_start, p.arc_end):
                for t in rng.uniform(0, arc.angle, 8):
                    assert abs((arc.point_at(t) - arc.center).norm() - inst.radius) < 1e-9 * inst.radius
            checked += 1
    assert checked >= 60


def test_point_at_clamps():
    p = extract_path(candidate_at(QUARTER, QUARTER_TYPE, QUARTER_ROOT), QUARTER)
    assert (point_at(p, -1.0) - QUARTER.start.position).norm() < 1e-12
    assert (point_at(p, p.total_length + 5.0) - QUARTER.goal.position).norm() < 1e-9


def test_verify_path_catches_bad_radius():
    inst = QUARTER
    p = extract_path(candidate_at(inst, QUARTER_TYPE, QUARTER_ROOT), inst)
    nudged = Arc(
        p.arc_start.center + Vec3(1e-3, 0, 0),
        p.arc_start.radius,
        p.arc_start.plane_normal,
        p.arc_start.start_point,
        p.arc_start.angle,
    )
    broken = type(p)(nudged, p.segment, p.arc_end, p.total_length)
    report = verify_path(broken, inst)
    assert not report.ok
    assert any("radius" in k or "on_circle" in k for k in report.failures())


def test_rigid_motion_equivariance_of_paths():
    rng = np.random.default_rng(14)
    inst = load_bundled("nonplanar_far").instance
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-4, 4, 3)
    move = lambda p: tuple(q @ np.array(p.as_tuple()) + shift)
    rot = lambda v: tuple(q @ np.array(v.as_tuple()))
    moved = instance(
        move(inst.start.position),
        rot(inst.start.direction),
        move(inst.goal.position),
        rot(inst.goal.direction),
        inst.radius,
    )
    for cand in solve_all(inst):
        if not check_directionality(cand).valid:
            continue
        moved_cand = candidate_at(moved, cand.stype, cand.hp)
        assert check_directionality(moved_cand).valid
        pts = sample_path(extract_path(cand, inst), 101)
        moved_pts = sample_path(extract_path(moved_cand, moved), 101)
        for a, b in zip(pts, moved_pts):
            assert (Vec3(*move(a)) - b).norm() < 1e-9


def scaled(inst, s):
    """inst with every length (positions and radius) multiplied by s."""
    move = lambda c: Configuration(c.position * s, c.direction)
    return ProblemInstance(move(inst.start), move(inst.goal), inst.radius * s)


def valid_paths(inst):
    """(type, validity, root, path or None) for every root solve_all finds."""
    out = []
    for cand in solve_all(inst):
        valid = check_directionality(cand).valid
        out.append((cand.type_id, valid, cand.hp, extract_path(cand, inst) if valid else None))
    return out


coords = st.floats(min_value=-6.0, max_value=6.0)
headings = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.tuples(coords, coords, coords),
    headings,
    st.tuples(coords, coords, coords),
    headings,
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_scale_equivariance_of_solve_all(x_i, v_i, x_f, v_f, radius, log_s):
    # every equation is homogeneous in length: scaling positions and radius
    # by s scales roots and path lengths by s and changes nothing else
    inst = instance(x_i, v_i, x_f, v_f, radius)
    assume(collinearity(inst) is None)
    s = 10.0**log_s
    big = scaled(inst, s)
    base, other = valid_paths(inst), valid_paths(big)
    assert [(t, v) for t, v, _, _ in other] == [(t, v) for t, v, _, _ in base]
    for (_, _, hp, path), (_, _, hp_s, path_s) in zip(base, other):
        for h, h_s in ((hp.h_i, hp_s.h_i), (hp.h_f, hp_s.h_f)):
            assert abs(h_s / s - h) <= 1e-7 * max(abs(h), radius)
        if path is not None:
            assert path_s.total_length / s == pytest.approx(path.total_length, rel=1e-9)
            assert verify_path(path, inst).ok
            report = verify_path(path_s, big)
            assert report.ok, report.failures()


@pytest.mark.parametrize("s", [1e-6, 1e3, 1e6])
def test_nonplanar_close_root_counts_do_not_depend_on_scale(s):
    roots = valid_paths(scaled(load_bundled("nonplanar_close").instance, s))
    assert len(roots) == 8
    assert sum(valid for _, valid, _, _ in roots) == 4


@pytest.mark.parametrize("name", ["nonplanar_close", "nonplanar_close_2", "planar_close", "seed_sensitivity"])
def test_solve_all_at_tiny_scale_raises_nothing(name):
    # survivors are re-verified on the unit-radius instance, where the
    # offset points of a root stay far apart compared with EPS_ZERO
    inst = load_bundled(name).instance
    assert len(solve_all(scaled(inst, 1e-8))) == len(solve_all(inst))


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_verify_path_tangent_tolerance_scales_with_radius(s):
    # a heading error has no unit; 1e-6 of it is a failure at every scale
    inst = scaled(QUARTER, s)
    p = extract_path(candidate_at(inst, QUARTER_TYPE, HPair(s, -s)), inst)
    assert verify_path(p, inst).ok
    tilted = instance(inst.start.position.as_tuple(), (math.sin(1e-6), 0.0, math.cos(1e-6)), inst.goal.position.as_tuple(), inst.goal.direction.as_tuple(), s)
    report = verify_path(p, tilted)
    assert set(report.failures()) == {"start_tangent"}


def test_directionality_band_is_in_units_of_r():
    # a switched_forward type-8 root whose circles are only 0.058 r apart
    # along the segment: an absolute 1e-9 band would call it a degenerate
    # segment once every length is scaled by 1e-8
    inst = instance(
        (-0.9073, 3.1642, 1.6536), (1.6954, 1.8094, 0.1297), (-0.8984, 2.9773, 2.4241), (1.5387, 1.2693, -0.495), 1.65
    )
    near = []
    for cand in solve_all(inst):
        geo = cand.geometry
        if cand.type_id == 8 and abs((geo.c_f - geo.c_i).dot(geo.hdir)) < 0.1 * inst.radius:
            near.append(cand)
    assert [check_directionality(c).reason for c in near] == ["switched_forward"]
    base = [(c.type_id, check_directionality(c).reason) for c in solve_all(inst)]
    for s in (1e-9, 1e-8, 1e6):
        assert [(c.type_id, check_directionality(c).reason) for c in solve_all(scaled(inst, s))] == base
