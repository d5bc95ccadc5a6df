"""The vectorized evaluation core must agree with the scalar reference."""

import math

import numpy as np
import pytest

from dubins3d.batch import RayBatch, directionally_valid, eval_ahead, eval_fd_jacobian, eval_residuals, newton
from dubins3d.geom import EPS_ZERO, instance
from dubins3d.path import check_directionality
from dubins3d.residual import (
    ALL_TYPES,
    CoincidentHPoints,
    HPair,
    ParallelDirections,
    jacobian,
    residuals,
)
from dubins3d.solver import SolutionCandidate


def random_instance(rng):
    return instance(
        tuple(rng.uniform(-6, 6, 3)),
        tuple(rng.normal(size=3)),
        tuple(rng.uniform(-6, 6, 3)),
        tuple(rng.normal(size=3)),
        radius=float(rng.uniform(0.5, 2.0)),
    )


def test_batch_matches_scalar_reference():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng)
        his = rng.uniform(-8, 8, 32)
        hfs = rng.uniform(-8, 8, 32)
        # the kernel works in units of r: offsets in are divided by r, and
        # residuals and separations out are multiplied by it
        r = inst.radius
        rb = RayBatch.from_instance(inst, 32)
        for stype in ALL_TYPES:
            p_i, p_f, J = eval_residuals(rb, stype, his / r, hfs / r, jac=True)
            p_i, p_f = p_i * r, p_f * r
            ahead = eval_ahead(rb, stype, his / r, hfs / r)
            valid = directionally_valid(stype, ahead)
            ahead = ahead * r
            for k in range(32):
                try:
                    res, geo = residuals(inst, stype, HPair(his[k], hfs[k]))
                except (CoincidentHPoints, ParallelDirections):
                    assert not np.isfinite(p_i[k]) or not np.isfinite(p_f[k])
                    continue
                assert p_i[k] == pytest.approx(res.p_i, rel=1e-12, abs=1e-12)
                assert p_f[k] == pytest.approx(res.p_f, rel=1e-12, abs=1e-12)
                jac_ref, _ = jacobian(inst, stype, HPair(his[k], hfs[k]))
                ref = (jac_ref.dpi_dhi, jac_ref.dpi_dhf, jac_ref.dpf_dhi, jac_ref.dpf_dhf)
                for got, want in zip((J[0][k], J[1][k], J[2][k], J[3][k]), ref):
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)
                want_ahead = (geo.c_f - geo.c_i).dot(geo.hdir)
                assert ahead[k] == pytest.approx(want_ahead, rel=1e-11, abs=1e-11)
                hp = HPair(his[k], hfs[k])
                assert valid[k] == check_directionality(SolutionCandidate(stype, hp, res, geo, 0, hp)).valid
                checked += 1
    assert checked > 2000


def test_directionally_valid_boundary_and_singular():
    # a separation within EPS_ZERO is a degenerate segment, valid for both
    # kinds (as in check_directionality); NaN marks singular geometry
    ahead = np.array([-1.0, -0.5 * EPS_ZERO, 0.0, 0.5 * EPS_ZERO, 1.0, np.nan])
    assert directionally_valid(ALL_TYPES[0], ahead).tolist() == [False, True, True, True, True, False]
    assert directionally_valid(ALL_TYPES[4], ahead).tolist() == [True, True, True, True, False, False]


def test_fd_jacobian_close_to_analytic():
    rng = np.random.default_rng(12)
    inst = random_instance(rng)
    rb = RayBatch.from_instance(inst, 64)
    his = rng.uniform(-4, 4, 64)
    hfs = rng.uniform(-4, 4, 64)
    for stype in ALL_TYPES[:2]:
        _, _, J = eval_residuals(rb, stype, his, hfs, jac=True)
        F = eval_fd_jacobian(rb, stype, his, hfs)
        for a, f in zip(J, F):
            mask = np.isfinite(a) & np.isfinite(f)
            assert np.all(np.abs(a[mask] - f[mask]) <= 1e-5 * np.maximum(1.0, np.abs(f[mask])))


def test_newton_polishes_seeds_near_roots():
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb = RayBatch.from_instance(inst, 2)
    stype = ALL_TYPES[0]
    res = newton(rb, stype, np.array([-0.3, 5.0]), np.array([-0.8, 5.0]), 1e-9)
    assert res.converged[0]
    assert max(abs(res.p_i[0]), abs(res.p_f[0])) <= 1e-9
    # re-check through the scalar path
    ref, _ = residuals(inst, stype, HPair(float(res.h_i[0]), float(res.h_f[0])))
    assert ref.max_abs() <= 1e-9


def test_newton_zero_iterations_at_root():
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb = RayBatch.from_instance(inst, 1)
    stype = ALL_TYPES[0]
    first = newton(rb, stype, np.array([0.0]), np.array([0.0]), 1e-9)
    assert first.converged[0]
    again = newton(rb, stype, first.h_i, first.h_f, 1e-9)
    assert again.converged[0]
    assert again.iterations[0] <= 2


def test_newton_gradient_flag_switches_jacobian_path(monkeypatch):
    import dubins3d.batch as batch_mod

    calls = {"fd": 0}
    real = batch_mod.eval_fd_jacobian

    def spy(*args, **kwargs):
        calls["fd"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "eval_fd_jacobian", spy)
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb = RayBatch.from_instance(inst, 1)
    res = newton(rb, ALL_TYPES[0], np.array([0.0]), np.array([0.0]), 1e-9, use_gradient=False)
    assert res.converged[0]
    assert calls["fd"] > 0
    calls["fd"] = 0
    newton(rb, ALL_TYPES[0], np.array([0.0]), np.array([0.0]), 1e-9, use_gradient=True)
    assert calls["fd"] == 0


def test_newton_instance_arrays_per_element():
    # one batch solving two different goal positions at once
    zs = np.array([3.0, 4.0])
    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (np.array([-1.0, -1.0]), np.zeros(2), zs), (math.sqrt(0.5), 0.0, math.sqrt(0.5)), 2)
    res = newton(rb, ALL_TYPES[0], np.zeros(2), np.zeros(2), 1e-9)
    assert res.converged.all()
    for k, z in enumerate(zs):
        inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, z), (1, 0, 1))
        ref, _ = residuals(inst, ALL_TYPES[0], HPair(float(res.h_i[k]), float(res.h_f[k])))
        assert ref.max_abs() <= 1e-9
    assert res.h_i[0] != res.h_i[1]
