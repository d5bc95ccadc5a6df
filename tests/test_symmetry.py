"""Reflection and path-reversal symmetry of the tangency system.

The residuals depend on a start/goal pair only through a few rigid-motion
invariants (see `batch`), which a reflection keeps.  Reversing the path,
start (x_f, -v_f) and goal (x_i, -v_i), swaps the two ends: a root (h_i, h_f)
of type (direction, s_i, s_f) becomes the root (-h_f, -h_i) of type
(direction, -s_f, -s_i), which swaps types 1 and 4 and types 5 and 8.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from dubins3d.batch import RayBatch, eval_ahead, eval_residuals
from dubins3d.geom import Configuration, ProblemInstance, instance
from dubins3d.path import check_directionality
from dubins3d.residual import ALL_TYPES, SolutionType
from dubins3d.solver import collinearity, solve_all

REVERSED = {t: SolutionType(t.switched, -t.end_sign, -t.start_sign) for t in ALL_TYPES}

coords = st.floats(min_value=-6.0, max_value=6.0)
headings = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
pairs = st.tuples(st.tuples(coords, coords, coords), headings, st.tuples(coords, coords, coords), headings)
radii = st.floats(min_value=0.5, max_value=2.0)


def reversed_path(inst):
    """The instance travelled backwards: start and goal swapped, headings negated."""
    start, goal = inst.start, inst.goal
    return ProblemInstance(Configuration(goal.position, -goal.direction), Configuration(start.position, -start.direction), inst.radius)


def reflected(inst, normal):
    """The instance mirrored through the plane through the origin with the given normal."""
    n = np.asarray(normal) / np.linalg.norm(normal)
    flip = lambda v: tuple(np.asarray(v.as_tuple()) - 2.0 * np.dot(n, v.as_tuple()) * n)
    return instance(
        flip(inst.start.position), flip(inst.start.direction), flip(inst.goal.position), flip(inst.goal.direction), inst.radius
    )


def roots(inst, rename=lambda t, h_i, h_f: (t, h_i, h_f)):
    return sorted(rename(c.stype.type_id, c.hp.h_i, c.hp.h_f) + (check_directionality(c).valid,) for c in solve_all(inst))


def assert_same_roots(got, want, r):
    assert [(t, v) for t, _, _, v in got] == [(t, v) for t, _, _, v in want]
    for (_, hi, hf, _), (_, hi_w, hf_w, _) in zip(got, want):
        for h, h_w in ((hi, hi_w), (hf, hf_w)):
            assert abs(h - h_w) <= 1e-7 * max(abs(h_w), r)


def close(got, want, tol):
    """|got - want| <= tol max(1, |want|), NaN where want is NaN."""
    return np.array_equal(np.isnan(got), np.isnan(want)) and np.all(
        np.abs(got - want)[~np.isnan(want)] <= tol * np.fmax(1.0, np.abs(want[~np.isnan(want)]))
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs, radii, st.integers(0, 2**32 - 1))
def test_kernel_reversal_symmetry(pair, radius, rng_seed):
    inst = instance(*pair, radius)
    rev = reversed_path(inst)
    rng = np.random.default_rng(rng_seed)
    hi, hf = rng.uniform(-8, 8, (2, 16))
    batch, rev_batch = RayBatch.from_instance(inst), RayBatch.from_instance(rev)
    for stype in ALL_TYPES:
        code, rev_code = stype.type_id - 1, REVERSED[stype].type_id - 1
        p_i, p_f, _ = eval_residuals(batch, code, hi, hf)
        q_i, q_f, _ = eval_residuals(rev_batch, rev_code, -hf, -hi)
        # in units of r: the residuals swap and change sign
        assert close(q_i, -p_f, 1e-12) and close(q_f, -p_i, 1e-12), stype
        # the separation d + sigma (s_i T_i - s_f T_f) is unchanged, to
        # rounding of its largest term
        scale = np.fmax(1.0, np.fmax(np.abs(p_i - hi), np.abs(p_f - hf)))
        ahead = eval_ahead(batch, code, hi, hf) / scale
        assert close(eval_ahead(rev_batch, rev_code, -hf, -hi) / scale, ahead, 1e-12), stype


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs, radii)
def test_solve_all_reversal_maps_root_sets(pair, radius):
    inst = instance(*pair, radius)
    assume(collinearity(inst) is None)
    mapped = roots(inst, lambda t, h_i, h_f: (REVERSED[SolutionType.from_id(t)].type_id, -h_f, -h_i))
    assert_same_roots(roots(reversed_path(inst)), mapped, radius)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs, radii, headings)
def test_solve_all_reflection_keeps_root_sets(pair, radius, normal):
    inst = instance(*pair, radius)
    assume(collinearity(inst) is None)
    assert_same_roots(roots(reflected(inst, normal)), roots(inst), radius)
