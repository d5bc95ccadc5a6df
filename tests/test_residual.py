import dataclasses
import math

import numpy as np
import pytest

from dubins3d.geom import Configuration, UnitVec3, Vec3, instance, normalize, point_line_distance
from dubins3d.oracle import GridWindow, enumerate_all_types
from dubins3d.residual import (
    ALL_TYPES,
    CoincidentHPoints,
    HPair,
    ParallelDirections,
    SolutionType,
    jacobian,
    residuals,
    s_direction,
)

S2 = 1 / math.sqrt(2)

PLANAR_FAR = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))


def random_unit(rng):
    v = rng.normal(size=3)
    return normalize(Vec3(*v))


def random_instance(rng):
    return instance(
        tuple(rng.uniform(-6, 6, 3)),
        tuple(rng.normal(size=3)),
        tuple(rng.uniform(-6, 6, 3)),
        tuple(rng.normal(size=3)),
        radius=1.0,
    )


def nonsingular_sample(rng, margin=0.1, h_range=8.0):
    """Random (instance, type, offsets) away from the singular set."""
    while True:
        inst = random_instance(rng)
        stype = ALL_TYPES[rng.integers(0, 8)]
        hp = HPair(float(rng.uniform(-h_range, h_range)), float(rng.uniform(-h_range, h_range)))
        try:
            res, geo = residuals(inst, stype, hp)
        except (CoincidentHPoints, ParallelDirections):
            continue
        g = -geo.hdir if stype.switched else geo.hdir
        sep = (geo.h_pt_f - geo.h_pt_i).norm()
        if sep < 0.5:
            continue
        if inst.start.direction.cross(g).norm() < margin:
            continue
        if inst.goal.direction.cross(g).norm() < margin:
            continue
        return inst, stype, hp, res, geo


# -- type taxonomy


def test_type_table_mapping():
    expected = {
        1: (False, 1, 1),
        2: (False, 1, -1),
        3: (False, -1, 1),
        4: (False, -1, -1),
        5: (True, 1, 1),
        6: (True, 1, -1),
        7: (True, -1, 1),
        8: (True, -1, -1),
    }
    for tid, (switched, si, sf) in expected.items():
        st = SolutionType.from_id(tid)
        assert (st.switched, st.start_sign, st.end_sign) == (switched, si, sf)
        assert st.type_id == tid
    assert len(set(ALL_TYPES)) == 8


# -- elementary operations


def test_h_point_examples():
    cfg = Configuration(Vec3(0, 0, 0), UnitVec3(0, 0, 1))
    assert cfg.point_along(2.0).as_tuple() == (0, 0, 2)
    assert cfg.point_along(0.0) == cfg.position
    cfg2 = Configuration(Vec3(1, 0, 0), UnitVec3(1, 0, 0))
    assert cfg2.point_along(-1.0).as_tuple() == (0, 0, 0)


def test_s_direction_examples():
    assert s_direction(Vec3(0, 0, 0), Vec3(0, 0, 5)).as_tuple() == (0, 0, 1)
    u = s_direction(Vec3(1, 1, 1), Vec3(2, 2, 2))
    assert u.as_tuple() == pytest.approx((1 / math.sqrt(3),) * 3)
    with pytest.raises(CoincidentHPoints):
        s_direction(Vec3(0, 0, 0), Vec3(0, 0, 0))


def test_circle_center_perpendicular_case():
    # at (0, 0) the segment runs along +x, perpendicular to the +z start ray
    inst = instance((0, 0, 0), (0, 0, 1), (5, 0, 0), (0, 1, 0))
    _, plus = residuals(inst, SolutionType(False, +1, +1), HPair(0.0, 0.0))
    _, minus = residuals(inst, SolutionType(False, -1, +1), HPair(0.0, 0.0))
    assert plus.c_i.as_tuple() == pytest.approx((-1, 0, 1))
    assert minus.c_i.as_tuple() == pytest.approx((1, 0, -1))
    with pytest.raises(ParallelDirections):
        residuals(instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (1, 0, 0)), ALL_TYPES[0], HPair(0.0, 0.0))


def test_circle_center_tangent_to_both_lines():
    # the center sits at distance r from both the ray and the segment line,
    # at any radius
    rng = np.random.default_rng(3)
    for _ in range(200):
        inst, stype, hp, _, _ = nonsingular_sample(rng)
        r = float(rng.uniform(0.2, 3.0))
        inst = dataclasses.replace(inst, radius=r)
        _, geo = residuals(inst, stype, hp)
        for c, cfg, h_pt in ((geo.c_i, inst.start, geo.h_pt_i), (geo.c_f, inst.goal, geo.h_pt_f)):
            assert point_line_distance(c, h_pt, cfg.direction) == pytest.approx(r, abs=1e-9 * r)
            assert point_line_distance(c, h_pt, geo.hdir) == pytest.approx(r, abs=1e-9 * r)


def test_tangency_scalar_examples():
    # at h_i = 2 the segment runs along +x, perpendicular to the +z start ray
    inst = instance((0, 0, 0), (0, 0, 1), (5, 0, 2), (0, 1, 0))
    assert residuals(inst, SolutionType(False, +1, +1), HPair(2.0, 0.0))[0].p_i == pytest.approx(3.0)
    assert residuals(inst, SolutionType(False, -1, +1), HPair(2.0, 0.0))[0].p_i == pytest.approx(1.0)
    # at (0, 0) it runs along (1, 0, 1) / sqrt(2)
    diag = instance((0, 0, 0), (0, 0, 1), (5, 0, 5), (0, 1, 0))
    got = residuals(diag, SolutionType(False, +1, +1), HPair(0.0, 0.0))[0].p_i
    assert got == pytest.approx(math.sqrt(2) - 1.0)


def test_tangency_sign_structure():
    # regular scalars: + lies at or above the offset, - at or below
    rng = np.random.default_rng(4)
    for _ in range(300):
        inst, _, hp, _, _ = nonsingular_sample(rng, margin=1e-3)
        inst = dataclasses.replace(inst, radius=float(rng.uniform(0.2, 3.0)))
        plus, _ = residuals(inst, SolutionType(False, +1, +1), hp)
        minus, _ = residuals(inst, SolutionType(False, -1, -1), hp)
        assert plus.p_i >= hp.h_i and plus.p_f >= hp.h_f
        assert minus.p_i <= hp.h_i and minus.p_f <= hp.h_f


def test_switched_equals_regular_when_perpendicular():
    # a goal placed so that the segment at (h_i, h_f) is perpendicular to
    # the start ray
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = random_unit(rng)
        w = rng.normal(size=3)
        w = Vec3(*w) - Vec3(*w).dot(v) * v  # orthogonalize against v
        if w.norm() < 1e-6:
            continue
        v_f = random_unit(rng)
        h_i, h_f = (float(h) for h in rng.uniform(-3, 3, 2))
        goal = h_i * v + w - h_f * v_f
        inst = instance((0, 0, 0), v.as_tuple(), goal.as_tuple(), v_f.as_tuple())
        if v_f.cross(normalize(w)).norm() < 1e-6:
            continue
        for sign in (+1, -1):
            a, _ = residuals(inst, SolutionType(False, sign, +1), HPair(h_i, h_f))
            b, _ = residuals(inst, SolutionType(True, sign, +1), HPair(h_i, h_f))
            assert a.p_i == pytest.approx(b.p_i, abs=1e-12)


# -- the residual system


def test_residuals_vanish_at_enumerated_roots():
    # grid enumeration (independent of any seed choice) followed by local
    # refinement gives four regular roots; the residuals must vanish there
    window = GridWindow.square(10.0, 400)
    total = 0
    for stype in ALL_TYPES[:4]:
        roots = enumerate_all_types(PLANAR_FAR, window, (stype,))[stype.type_id]
        assert len(roots) >= 1
        best = roots[0]
        res, _ = residuals(PLANAR_FAR, stype, best)
        assert abs(res.p_i) < 1e-9 and abs(res.p_f) < 1e-9
        total += len(roots)
    assert total >= 4


def test_residuals_nonzero_far_from_roots():
    res, _ = residuals(PLANAR_FAR, SolutionType.from_id(1), HPair(7.0, -7.0))
    assert math.isfinite(res.p_i) and math.isfinite(res.p_f)
    assert res.max_abs() > 0.1


def test_residuals_parallel_direction_reports_end():
    # start heading +z and both offset points on the z axis
    inst = instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (1, 0, 0))
    with pytest.raises(ParallelDirections) as err:
        residuals(inst, SolutionType.from_id(1), HPair(1.0, 0.0))
    assert err.value.end == "start"


def test_residuals_coincident_h_points():
    inst = instance((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, -1))
    with pytest.raises(CoincidentHPoints):
        residuals(inst, SolutionType.from_id(1), HPair(1.0, 1.0))


def test_geometry_tangency_invariant():
    # both centers keep distance r from their ray and from the segment line
    rng = np.random.default_rng(6)
    for _ in range(150):
        inst, stype, hp, res, geo = nonsingular_sample(rng)
        r = inst.radius
        for c, cfg, h_pt in ((geo.c_i, inst.start, geo.h_pt_i), (geo.c_f, inst.goal, geo.h_pt_f)):
            assert point_line_distance(c, cfg.position, cfg.direction) == pytest.approx(r, abs=1e-9 * r)
            assert point_line_distance(c, h_pt, geo.hdir) == pytest.approx(r, abs=1e-9 * r)


def test_rigid_motion_leaves_residuals_unchanged():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst, stype, hp, res, _ = nonsingular_sample(rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-5, 5, 3)

        def move(p):
            return tuple(q @ np.array(p.as_tuple()) + shift)

        def rot(v):
            return tuple(q @ np.array(v.as_tuple()))

        moved = instance(
            move(inst.start.position),
            rot(inst.start.direction),
            move(inst.goal.position),
            rot(inst.goal.direction),
            inst.radius,
        )
        res2, _ = residuals(moved, stype, hp)
        assert res2.p_i == pytest.approx(res.p_i, abs=1e-9)
        assert res2.p_f == pytest.approx(res.p_f, abs=1e-9)


# -- analytic Jacobian


def fd_jacobian(inst, stype, hp, step=1e-6):
    vals = []
    for dhi, dhf in ((step, 0.0), (0.0, step)):
        plus, _ = residuals(inst, stype, HPair(hp.h_i + dhi, hp.h_f + dhf))
        minus, _ = residuals(inst, stype, HPair(hp.h_i - dhi, hp.h_f - dhf))
        vals.append(((plus.p_i - minus.p_i) / (2 * step), (plus.p_f - minus.p_f) / (2 * step)))
    return vals[0][0], vals[1][0], vals[0][1], vals[1][1]


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(250):
        inst, stype, hp, _, _ = nonsingular_sample(rng)
        jac, _ = jacobian(inst, stype, hp)
        fd = fd_jacobian(inst, stype, hp)
        for got, want in zip((jac.dpi_dhi, jac.dpi_dhf, jac.dpf_dhi, jac.dpf_dhf), fd):
            assert abs(got - want) / max(1.0, abs(want)) < 1e-6


def test_direction_derivatives_orthogonal_to_hdir():
    rng = np.random.default_rng(9)
    for _ in range(150):
        inst, stype, hp, _, geo = nonsingular_sample(rng)
        _, aderiv = jacobian(inst, stype, hp)
        assert abs(aderiv.a_i.dot(geo.hdir)) < 1e-10
        assert abs(aderiv.a_f.dot(geo.hdir)) < 1e-10


def test_jacobian_mirror_identity_on_symmetric_instance():
    # mirror-symmetric instance (matching headings, goal offset along +x):
    # swapping ends maps p_f at (a, b) to -p_i at (-b, -a) within the same
    # type, hence equal diagonal partials at mirrored points
    sym = instance((0, 0, 0), (0, 0, 1), (2, 0, 0), (0, 0, 1))
    for tid in (2, 3):
        stype = SolutionType.from_id(tid)
        for a, b in ((0.7, -0.3), (-1.2, 0.5), (0.25, 1.5)):
            r1, _ = residuals(sym, stype, HPair(a, b))
            r2, _ = residuals(sym, stype, HPair(-b, -a))
            assert r1.p_f == pytest.approx(-r2.p_i, abs=1e-12)
            j1, _ = jacobian(sym, stype, HPair(a, b))
            j2, _ = jacobian(sym, stype, HPair(-b, -a))
            assert j1.dpf_dhf == pytest.approx(j2.dpi_dhi, abs=1e-12)
