import numpy as np
import pytest

from dubins3d.geom import instance
from dubins3d.oracle import GridWindow, build_contours, enumerate_all_types, enumerate_roots, refine_roots
from dubins3d.path import check_directionality
from dubins3d.residual import ALL_TYPES, REGULAR_TYPES, HPair, SolutionType, residuals
from dubins3d.scenarios import load_bundled
from dubins3d.solver import DEFAULT_DEDUP_TOL, NotConverged, SeedGrid, SingleSeed, SolverOptions, solve_all, solve_type

PLANAR_FAR = load_bundled("planar_far").instance
PLANAR_CLOSE = load_bundled("planar_close").instance
SEED_SENSITIVITY = load_bundled("seed_sensitivity").instance


def test_window_validation():
    with pytest.raises(ValueError):
        GridWindow((1.0, -1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        GridWindow((-1.0, 1.0), (-1.0, 1.0), resolution=8)
    win = GridWindow.for_instance(PLANAR_FAR)
    assert win.h_i_range[1] == pytest.approx(PLANAR_FAR.chord + 4.0)


def test_contours_have_both_curve_families():
    win = GridWindow.square(10.0, 200)
    for stype in REGULAR_TYPES:
        cmap = build_contours(PLANAR_FAR, stype, win)
        assert cmap.crossings_i.any()
        assert cmap.crossings_f.any()
        assert cmap.p_i.shape == (201, 201)
        assert not cmap.singular.all()


def test_no_type3_intersection_for_planar_close():
    win = GridWindow.for_instance(PLANAR_CLOSE, resolution=400)
    cmap = build_contours(PLANAR_CLOSE, SolutionType.from_id(3), win)
    assert cmap.intersection_cells().shape[0] == 0
    assert enumerate_roots(PLANAR_CLOSE, SolutionType.from_id(3), win) == []


def test_far_separation_straightens_contours():
    # with the start pulled far away, each family's zero set approaches an
    # axis-aligned line: crossing columns (rows) become nearly constant
    far = instance((0, 0, -100), (1, 0, 0), (0, 0, 0), (1, 0, 0))
    win = GridWindow.square(8.0, 160)
    cmap = build_contours(far, SolutionType.from_id(1), win)
    i_cells, j_cells = np.nonzero(cmap.crossings_i)
    assert i_cells.size > 0
    assert i_cells.max() - i_cells.min() <= 2  # p_i = 0 is near-vertical
    i2, j2 = np.nonzero(cmap.crossings_f)
    assert j2.size > 0
    assert j2.max() - j2.min() <= 2  # p_f = 0 is near-horizontal


def test_planar_far_has_exactly_four_regular_roots():
    win = GridWindow.square(10.0, 400)
    per_type = {t.type_id: enumerate_roots(PLANAR_FAR, t, win) for t in REGULAR_TYPES}
    # one valid root per regular type; type 3 carries one extra (filtered) root
    for tid in (1, 2, 4):
        assert len(per_type[tid]) == 1
    assert len(per_type[3]) == 2
    valid = 0
    for tid, roots in per_type.items():
        for hp in roots:
            res, geo = residuals(PLANAR_FAR, SolutionType.from_id(tid), hp)
            assert res.max_abs() <= 1e-9
            from dubins3d.solver import SolutionCandidate

            cand = SolutionCandidate(SolutionType.from_id(tid), hp, res, geo, 0, hp)
            valid += check_directionality(cand).valid
    assert valid == 4


def test_seed_sensitivity_type6_roots():
    # ground truth for the default window: three roots of the switched (+,-)
    # system, two of them directionally valid, one of which sits at the
    # recorded near-degenerate offsets (-1.804, 3.004)
    from dubins3d.solver import SolutionCandidate

    win = GridWindow.for_instance(SEED_SENSITIVITY)
    t6 = SolutionType.from_id(6)
    roots = enumerate_roots(SEED_SENSITIVITY, t6, win)
    assert len(roots) == 3
    flags = []
    for hp in roots:
        res, geo = residuals(SEED_SENSITIVITY, t6, hp)
        cand = SolutionCandidate(t6, hp, res, geo, 0, hp)
        flags.append(check_directionality(cand).valid)
    assert sum(flags) == 2
    assert any(abs(hp.h_i + 1.804) < 1e-2 and abs(hp.h_f - 3.004) < 1e-2 for hp in roots)


def _refine_per_cell(inst, cmap):
    """Scalar reference for refine_roots: one solve_type per intersection
    cell, seeded at its centre, kept when inside the window and first seen."""
    opts = SolverOptions(max_iters=60, seed_policy=SingleSeed())
    roots = []
    for i, j in cmap.intersection_cells():
        seed = HPair(
            0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1]),
            0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1]),
        )
        try:
            hp = solve_type(inst, cmap.stype, seed, opts).hp
        except NotConverged:
            continue
        if cmap.window.contains(hp) and all(
            max(abs(hp.h_i - o.h_i), abs(hp.h_f - o.h_f)) >= DEFAULT_DEDUP_TOL for o in roots
        ):
            roots.append(hp)
    return sorted(roots, key=lambda p: (p.h_i, p.h_f))


def test_batched_refine_matches_per_cell_solve_type():
    t6 = SolutionType.from_id(6)
    cases = [(SEED_SENSITIVITY, t6, GridWindow.for_instance(SEED_SENSITIVITY))]
    cases += [(PLANAR_CLOSE, t, GridWindow.for_instance(PLANAR_CLOSE)) for t in ALL_TYPES]
    # seven cells of this window refine to the type-6 root (-3.327, 1.936)
    # just outside it, which both paths must discard
    cases.append((SEED_SENSITIVITY, t6, GridWindow.square(3.0, 64)))
    for inst, stype, window in cases:
        cmap = build_contours(inst, stype, window)
        batched = refine_roots(inst, cmap)
        scalar = _refine_per_cell(inst, cmap)
        assert len(batched) == len(scalar), (stype, batched, scalar)
        for a, b in zip(batched, scalar):
            assert max(abs(a.h_i - b.h_i), abs(a.h_f - b.h_f)) <= 1e-8, (stype, a, b)


def test_roots_reevaluate_below_tolerance():
    win = GridWindow.for_instance(PLANAR_CLOSE)
    for stype in ALL_TYPES:
        for hp in enumerate_roots(PLANAR_CLOSE, stype, win):
            res, _ = residuals(PLANAR_CLOSE, stype, hp)
            assert res.max_abs() <= 1e-9


def test_resolution_refinement_keeps_roots():
    for name in ("planar_far", "nonplanar_close_2"):
        inst = load_bundled(name).instance
        coarse_win = GridWindow.for_instance(inst, resolution=128)
        fine_win = GridWindow.for_instance(inst, resolution=256)
        for stype in ALL_TYPES:
            coarse = enumerate_roots(inst, stype, coarse_win)
            fine = enumerate_roots(inst, stype, fine_win)
            for hp in coarse:
                assert any(max(abs(hp.h_i - o.h_i), abs(hp.h_f - o.h_f)) < 1e-6 for o in fine)


def test_agreement_with_solver_on_random_instances():
    rng = np.random.default_rng(21)
    opts = SolverOptions(seed_policy=SeedGrid())
    for _ in range(6):
        inst = random_noncollinear(rng)
        win = GridWindow.for_instance(inst)
        sol = solve_all(inst, opts)
        for stype in ALL_TYPES:
            mine = [c.hp for c in sol if c.stype == stype and win.contains(c.hp)]
            oracle = enumerate_roots(inst, stype, win)
            assert len(mine) == len(oracle), (inst, stype, mine, oracle)
            for hp in mine:
                assert any(max(abs(hp.h_i - o.h_i), abs(hp.h_f - o.h_f)) < 1e-6 for o in oracle)


def random_noncollinear(rng):
    while True:
        xi = np.zeros(3)
        xf = rng.uniform(-6, 6, 3)
        vi = rng.normal(size=3)
        vi /= np.linalg.norm(vi)
        vf = rng.normal(size=3)
        vf /= np.linalg.norm(vf)
        if np.linalg.norm(xf - xi) < 0.3:
            continue
        u = (xf - xi) / np.linalg.norm(xf - xi)
        if np.linalg.norm(np.cross(vi, vf)) < 1e-2 and np.linalg.norm(np.cross(u, vi)) < 1e-2:
            continue
        return instance(tuple(xi), tuple(vi), tuple(xf), tuple(vf))


def test_collinear_instance_yields_empty_fields():
    col = instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, 1))
    win = GridWindow.square(5.0, 64)
    cmap = build_contours(col, SolutionType.from_id(1), win)
    assert cmap.singular.all()
    assert enumerate_roots(col, SolutionType.from_id(1), win) == []


def test_enumerate_all_types_keys():
    win = GridWindow.square(6.0, 64)
    res = enumerate_all_types(PLANAR_CLOSE, win)
    assert sorted(res) == list(range(1, 9))
