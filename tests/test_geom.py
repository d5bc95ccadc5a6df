import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dubins3d.geom import (
    MAX_CHORD_RADII,
    Configuration,
    ProblemInstance,
    UnitVec3,
    Vec3,
    ZeroVector,
    check_finite,
    instance,
    normalize,
    point_line_distance,
)
from dubins3d.solver import solve_all

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.builds(Vec3, finite_floats, finite_floats, finite_floats)


def test_normalize_345():
    u = normalize(Vec3(3, 4, 0))
    assert u.as_tuple() == pytest.approx((0.6, 0.8, 0.0), abs=1e-15)


def test_normalize_axis():
    assert normalize(Vec3(0, 0, 2)).as_tuple() == (0, 0, 1)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        normalize(Vec3(0, 0, 0))
    with pytest.raises(ZeroVector):
        normalize(Vec3(1e-10, 0, 0))


@given(vectors)
def test_normalize_unit_norm(v):
    if v.norm() <= 1e-9:
        return
    u = normalize(v)
    assert abs(u.dot(u) - 1.0) <= 1e-12


def test_unitvec_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVec3(1.0, 1.0, 0.0)


def test_point_line_distance_examples():
    zhat = UnitVec3(0, 0, 1)
    assert point_line_distance(Vec3(1, 0, 0), Vec3(0, 0, 0), zhat) == pytest.approx(1.0)
    assert point_line_distance(Vec3(0, 0, 7.3), Vec3(0, 0, 0), zhat) == pytest.approx(0.0, abs=1e-12)
    assert point_line_distance(Vec3(1, 1, 0), Vec3(0, 0, 0), zhat) == pytest.approx(math.sqrt(2))


@given(vectors, vectors, vectors, st.floats(min_value=-100, max_value=100))
def test_point_line_distance_invariances(p, origin, shift, t):
    direction = UnitVec3(0.6, 0.0, 0.8)
    base = point_line_distance(p, origin, direction)
    translated = point_line_distance(p + shift, origin + shift, direction)
    assert translated == pytest.approx(base, abs=1e-6 * max(1.0, base))
    flipped = point_line_distance(p, origin, -direction)
    assert flipped == pytest.approx(base, abs=1e-9 * max(1.0, base))
    # sliding the origin along the line changes nothing
    slid = point_line_distance(p, origin + t * direction, direction)
    assert slid == pytest.approx(base, abs=1e-6 * max(1.0, base))


def test_vector_arithmetic():
    a = Vec3(1, 2, 3)
    b = Vec3(-2, 0.5, 4)
    assert (a + b).as_tuple() == (-1, 2.5, 7)
    assert (a - b).as_tuple() == (3, 1.5, -1)
    assert (2.0 * a).as_tuple() == (2, 4, 6)
    assert a.dot(b) == pytest.approx(-2 + 1 + 12)
    assert a.cross(b).as_tuple() == pytest.approx((2 * 4 - 3 * 0.5, 3 * -2 - 1 * 4, 1 * 0.5 - 2 * -2))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Vec3(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Vec3(0, float("inf"), 0)


def test_instance_validation():
    cfg = Configuration(Vec3(0, 0, 0), UnitVec3(0, 0, 1))
    with pytest.raises(ValueError):
        ProblemInstance(cfg, cfg, radius=0.0)
    with pytest.raises(ValueError):
        ProblemInstance(cfg, cfg, radius=-1.0)
    inst = ProblemInstance(cfg, Configuration(Vec3(3, 4, 0), UnitVec3(0, 0, 1)), radius=2.0)
    assert inst.chord == pytest.approx(5.0)


# 10**400: an int too large for a float, on which math.isfinite overflows
HUGE = pytest.param(10**400, id="10**400")


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1.0", None, 1j, math.nan, math.inf, -np.inf, HUGE])
def test_check_finite_rejects_bools_non_numbers_and_non_finite_values(bad):
    with pytest.raises(ValueError, match="speed"):
        check_finite("speed", bad)


@pytest.mark.parametrize("good", [0, -3, 2.5, np.float64(1e300), np.float32(-2.0), np.int16(7)])
def test_check_finite_accepts_finite_python_and_numpy_numbers(good):
    check_finite("speed", good)


def test_problem_instance_rejects_a_bool_radius():
    cfg = Configuration(Vec3(0, 0, 0), UnitVec3(0, 0, 1))
    for bad in (True, math.nan, "1", 10**400):
        with pytest.raises(ValueError, match="radius"):
            ProblemInstance(cfg, cfg, radius=bad)
        with pytest.raises(ValueError, match="radius"):
            instance((0, 0, 0), (0, 0, 1), (3, 1, 2), (1, 0, 0), radius=bad)


@pytest.mark.parametrize("ray", range(4))
@pytest.mark.parametrize("bad", [True, math.inf, "2", HUGE])
def test_instance_rejects_a_bool_or_non_finite_component(ray, bad):
    rays = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [3.0, 1.0, 2.0], [1.0, 0.0, 0.0]]
    rays[ray][1] = bad
    name = ("start_position", "start_direction", "goal_position", "goal_direction")[ray]
    with pytest.raises(ValueError, match=rf"{name}\[1\]"):
        instance(*rays)


# start/goal pairs whose chord in units of r the kernel cannot represent: not
# finite (a subnormal radius), or past MAX_CHORD_RADII (its squares overflow)
UNREPRESENTABLE = [((3, 0, 1), 1e-310), ((3e155, 0, 1), 1.0)]


@pytest.mark.parametrize("goal, radius", UNREPRESENTABLE)
def test_instance_rejects_chords_the_kernel_cannot_represent(goal, radius):
    with pytest.raises(ValueError, match="chord"):
        instance((0, 0, 0), (0, 0, 1), goal, (0.6, 0, 0.8), radius=radius)


def test_largest_chord_solves_without_warning():
    # tier-1 turns a RuntimeWarning, such as an overflow, into an error
    inst = instance((0, 0, 0), (1, 0, 0), (1.5e150, 0, 2e150), (0, 1, 0), radius=2.5)
    assert inst.chord / inst.radius == MAX_CHORD_RADII
    assert len(solve_all(inst)) == 8
