import math

import numpy as np
import pytest

from dubins3d import batch, studies
from dubins3d.geom import instance
from dubins3d.path import check_directionality
from dubins3d.scenarios import Scenario, load_bundled
from dubins3d.solver import CollinearInstance, SolverOptions, solve_all
from dubins3d.studies import (
    SweepSpec,
    axis_values,
    run_gradient_study,
    run_seed_study,
    run_sweep,
)


def test_axis_values_symmetric_positions():
    vals = axis_values("x", 61)
    assert vals[0] == -6.0 and vals[-1] == 6.0
    # mirrored indices carry exactly negated coordinates
    assert all(vals[i] == -vals[60 - i] for i in range(61))
    assert vals[30] == 0.0


def test_axis_values_half_open_angles():
    vals = axis_values("angle", 61)
    assert vals[0] == 0.0
    assert vals[-1] < 2 * math.pi
    assert np.allclose(np.diff(vals), 2 * math.pi / 61)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("diagonal", ("x", 0.0))
    with pytest.raises(ValueError):
        SweepSpec("planar", ("w", 0.0))
    with pytest.raises(ValueError):
        SweepSpec("planar", ("x", 0.0), steps=1)
    spec = SweepSpec("planar", ("angle", 0.0), steps=21)
    assert spec.swept == ("x", "z")


def test_planar_aligned_slice_symmetric():
    spec = SweepSpec("planar", ("angle", 0.0), steps=21)
    result = run_sweep(spec)
    assert np.array_equal(result.counts, result.counts[::-1, :])
    assert result.counts.max() >= 4
    # the x = 0 column is collinear: flagged, counted via the straight path
    mid = 10
    assert result.collinear[mid, :].all()
    assert not result.collinear[0, :].any()
    z_vals = result.axis_b
    for j, z in enumerate(z_vals):
        assert result.counts[mid, j] == (1 if z >= 0 else 0)
        assert result.counts_regular[mid, j] == 0


def test_nonplanar_axis_slice_constant_in_angle():
    spec = SweepSpec("nonplanar", ("x", 0.0), steps=13)
    result = run_sweep(spec)
    assert result.axis_names == ("z", "angle")
    for i in range(13):
        row = result.counts[i, :]
        assert (row == row[0]).all()


def test_counts_split_regular_switched():
    spec = SweepSpec("planar", ("angle", math.pi), steps=9)
    result = run_sweep(spec)
    total = result.counts_regular + result.counts_switched
    free = result.collinear == 0
    assert np.array_equal(result.counts[free], total[free])
    rows = list(result.rows())
    assert len(rows) == 81
    assert all(len(r) == 6 for r in rows)


def test_robust_seeds_find_no_fewer():
    spec1 = SweepSpec("planar", ("z", 3.0), steps=7)
    spec2 = SweepSpec("planar", ("z", 3.0), steps=7, robust_seeds=True)
    a = run_sweep(spec1)
    b = run_sweep(spec2)
    assert (b.counts >= a.counts).all()


@pytest.mark.parametrize("mode, fixed", [("planar", ("angle", 0.0)), ("nonplanar", ("angle", 2.0))])
def test_robust_sweep_counts_equal_solve_all_per_cell(mode, fixed):
    # the planar aligned slice includes the collinear x = 0 column
    result = run_sweep(SweepSpec(mode, fixed, steps=5, robust_seeds=True))
    assert result.axis_names == ("x", "z")
    for i, x in enumerate(result.axis_a):
        for j, z in enumerate(result.axis_b):
            theta = fixed[1]
            goal_dir = (-math.sin(theta), 0.0, math.cos(theta)) if mode == "planar" else (math.cos(theta), math.sin(theta), 0.0)
            inst = instance((0, 0, 0), (0, 0, 1), (float(x), 0.0, float(z)), goal_dir)
            try:
                valid = [c for c in solve_all(inst, SolverOptions(max_iters=60)) if check_directionality(c).valid]
            except CollinearInstance as col:
                assert result.collinear[i, j] == 1
                assert result.counts[i, j] == int(col.aligned)
                continue
            assert result.collinear[i, j] == 0
            assert result.counts[i, j] == len(valid)
            assert result.counts_regular[i, j] == sum(not c.stype.switched for c in valid)
            assert result.counts_switched[i, j] == sum(c.stype.switched for c in valid)


@pytest.mark.parametrize("mode, fixed", [("planar", ("z", -1.5)), ("nonplanar", ("angle", 2.0))])
def test_robust_sweep_seeds_are_the_solver_grid_per_cell(mode, fixed, monkeypatch):
    seeds = []
    newton = batch.newton

    def record(rb, stype, h_i, h_f, *args, **kwargs):
        seeds.append((h_i.copy(), h_f.copy()))
        return newton(rb, stype, h_i, h_f, *args, **kwargs)

    monkeypatch.setattr(studies, "newton", record)
    result = run_sweep(SweepSpec(mode, fixed, steps=5, robust_seeds=True))
    sweep_hi, sweep_hf = seeds[0]
    k = sweep_hi.size // 25
    monkeypatch.setattr(batch, "newton", record)  # the one solve_all calls
    names = result.axis_names
    for i, a in enumerate(result.axis_a):
        for j, b in enumerate(result.axis_b):
            if result.collinear[i, j]:
                continue  # solve_all raises CollinearInstance before seeding
            v = {fixed[0]: fixed[1], names[0]: float(a), names[1]: float(b)}
            theta = v["angle"]
            goal_dir = (-math.sin(theta), 0.0, math.cos(theta)) if mode == "planar" else (math.cos(theta), math.sin(theta), 0.0)
            seeds.clear()
            solve_all(instance((0, 0, 0), (0, 0, 1), (v["x"], 0.0, v["z"]), goal_dir))
            solver_hi, solver_hf = seeds[0]
            cell = slice((i * 5 + j) * k, (i * 5 + j + 1) * k)
            assert sweep_hi[cell].tobytes() == solver_hi[:k].tobytes()
            assert sweep_hf[cell].tobytes() == solver_hf[:k].tobytes()


def test_seed_study_maps_seed_to_root():
    scenario = load_bundled("seed_sensitivity")
    rows = run_seed_study(scenario, half_width=4.0, resolution=9, type_ids=(6,))
    assert len(rows) == 81
    converged = [r for r in rows if r.converged]
    assert converged
    # a seed placed essentially on a root must return that root
    root = min(converged, key=lambda r: abs(r.seed_h_i - r.root_h_i) + abs(r.seed_h_f - r.root_h_f))
    exact = run_seed_study(
        Scenario(scenario.name, scenario.instance, scenario.options),
        half_width=0.0001,
        resolution=2,
        type_ids=(6,),
    )
    # tiny grid around (0,0): all four seeds behave identically
    assert len({(r.converged, None if r.root_h_i is None else round(r.root_h_i, 6)) for r in exact}) == 1


def test_seed_study_singular_seeds_no_crash():
    # goal on the start axis: offset points with h_f = 0 sit on the start ray,
    # making the segment direction parallel to the start heading
    import dubins3d as d

    inst = d.instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (1, 0, 0))
    rows = run_seed_study(Scenario("singular", inst, SolverOptions()), half_width=0.0, resolution=2, type_ids=(1,))
    assert all(not r.converged for r in rows)
    assert all(r.root_h_i is None for r in rows)


def test_gradient_study_deterministic():
    a = run_gradient_study(5, rng_seed=123)
    b = run_gradient_study(5, rng_seed=123)
    assert a == b
    c = run_gradient_study(5, rng_seed=124)
    assert a != c
    with pytest.raises(ValueError):
        run_gradient_study(0, rng_seed=1)


def test_gradient_study_columns_sane():
    rows = run_gradient_study(40, rng_seed=7)
    assert len(rows) == 40
    for r in rows:
        assert 0.0 <= r.distance <= math.sqrt(3) * 6 + 1e-9
        assert 0.0 <= r.direction_angle <= math.pi
        assert 0 <= r.n_with_gradient <= 8
        assert 0 <= r.n_without_gradient <= 8
    ge = sum(r.n_with_gradient >= r.n_without_gradient for r in rows)
    assert ge >= 0.8 * len(rows)
