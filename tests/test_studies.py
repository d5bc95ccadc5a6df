import math
import tracemalloc

import numpy as np
import pytest

from dubins3d import batch, studies
from dubins3d.batch import RayBatch, directionally_valid, eval_ahead
from dubins3d.geom import instance
from dubins3d.path import check_directionality, extract_path, verify_path
from dubins3d.residual import ALL_TYPES, HPair
from dubins3d.scenarios import Scenario, load_bundled
from dubins3d.solver import CollinearInstance, SolverOptions, dedup, runaway_limit, solve_all
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


@pytest.mark.parametrize("bad", [3.5, 3.0, True, np.float64(3.0)])
def test_sweep_spec_rejects_non_integer_steps(bad):
    with pytest.raises(ValueError, match="steps"):
        SweepSpec("planar", ("x", 0.0), steps=bad)


def test_sweep_spec_accepts_numpy_integer_steps():
    got = run_sweep(SweepSpec("nonplanar", ("angle", 1.0), steps=np.int64(3)))
    want = run_sweep(SweepSpec("nonplanar", ("angle", 1.0), steps=3))
    assert list(got.rows()) == list(want.rows())


@pytest.mark.parametrize("bad", [True, math.nan, "1.0", pytest.param(10**400, id="10**400")])
def test_sweep_spec_rejects_a_bool_or_non_finite_fixed_value(bad):
    with pytest.raises(ValueError, match=r"fixed\[1\]"):
        SweepSpec("planar", ("x", bad))


@pytest.mark.parametrize("bad", [True, math.inf, "4.0"])
def test_seed_study_rejects_a_bool_or_non_finite_half_width(bad):
    with pytest.raises(ValueError, match="half_width"):
        run_seed_study(load_bundled("planar_far"), half_width=bad, resolution=3)


def test_study_counts_reject_non_integers():
    scenario = load_bundled("planar_far")
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="resolution"):
            run_seed_study(scenario, half_width=4.0, resolution=bad)
        with pytest.raises(ValueError, match="n_cases"):
            run_gradient_study(bad, 0)


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


def test_sweep_collinear_flags_are_solve_alls():
    # x = 5e-10 is within EPS_ZERO of the z axis, but the goal is on the
    # start's line only where |x| <= EPS_ZERO |D|: the sweep flags a cell
    # collinear exactly where solve_all raises CollinearInstance.  That test
    # comes before any seeding, so one seed per cell is enough here.
    x = 5e-10
    result = run_sweep(SweepSpec("planar", ("x", x), 61))
    assert result.axis_names == ("z", "angle")
    opts = SolverOptions(seed=HPair(0.0, 0.0))
    flagged = 0
    for i, z in enumerate(result.axis_a):
        for j, theta in enumerate(result.axis_b):
            inst = instance((0, 0, 0), (0, 0, 1), (x, 0.0, float(z)), (-math.sin(theta), 0.0, math.cos(theta)))
            try:
                solve_all(inst, opts)
                raised = False
            except CollinearInstance:
                raised = True
            assert result.collinear[i, j] == raised, (z, theta)
            flagged += raised
    assert 0 < flagged < 61


@pytest.mark.parametrize("mode, fixed", [("planar", ("z", -1.5)), ("nonplanar", ("angle", 2.0))])
def test_robust_sweep_seeds_are_the_solver_grid_per_cell(mode, fixed, monkeypatch):
    seeds = []
    newton = batch.newton

    def record(rb, stype, h_i, h_f, *args, **kwargs):
        seeds.append((h_i.copy(), h_f.copy()))
        return newton(rb, stype, h_i, h_f, *args, **kwargs)

    monkeypatch.setattr(batch, "newton", record)  # the one run_sweep and solve_all call
    result = run_sweep(SweepSpec(mode, fixed, steps=5, robust_seeds=True))
    sweep_hi, sweep_hf = seeds[0]
    k = sweep_hi.size // (25 * 8)  # type-major: type 1's block is cell-major
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


NEWTON_FIELDS = ("h_i", "h_f", "p_i", "p_f", "converged", "iterations", "halvings")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec("planar", ("angle", 0.0), steps=7, robust_seeds=True),
        SweepSpec("nonplanar", ("z", -1.5), steps=5, robust_seeds=True),
        SweepSpec("nonplanar", ("angle", 2.0), steps=9),
    ],
)
def test_fused_sweep_equals_per_type_loop_bitwise(spec, monkeypatch):
    # the loop run_sweep replaced: per type, one Newton batch over every
    # (cell, seed), dedup grouped by cell and one directional test
    calls = []
    newton = batch.newton

    def record(rb, stype, h_i, h_f, *args, **kwargs):
        res = newton(rb, stype, h_i, h_f, *args, **kwargs)
        calls.append((rb, h_i.copy(), h_f.copy(), args, kwargs, res))
        return res

    monkeypatch.setattr(batch, "newton", record)
    result = run_sweep(spec)
    [(rb, hi0, hf0, args, kwargs, fused)] = calls
    n = spec.steps**2
    k = hi0.size // (8 * n)
    cell = np.repeat(np.arange(n), k)
    counts = {False: np.zeros(n, np.int64), True: np.zeros(n, np.int64)}
    for t, stype in enumerate(ALL_TYPES):
        block = np.arange(t * n * k, (t + 1) * n * k)
        sub = rb.take(block)
        code = stype.type_id - 1
        one = newton(sub, np.full(block.size, code, np.int8), hi0[block], hf0[block], *args, **kwargs)
        for name in NEWTON_FIELDS:
            assert _same_bits(getattr(fused, name)[block], getattr(one, name)), (stype, name)
        kept = dedup(np.flatnonzero(one.converged), cell, one.h_i, one.h_f, one.max_abs())
        ahead = eval_ahead(sub.take(kept), code, one.h_i[kept], one.h_f[kept])
        np.add.at(counts[stype.switched], cell[kept[directionally_valid(code, ahead)]], 1)
    free = result.collinear.ravel() == 0
    assert _same_bits(result.counts_regular.ravel()[free], counts[False][free])
    assert _same_bits(result.counts_switched.ravel()[free], counts[True][free])


def test_fused_seed_study_equals_per_type_loop():
    scenario = load_bundled("seed_sensitivity")
    inst, r = scenario.instance, scenario.instance.radius
    vals = np.linspace(-4.0, 4.0, 7)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    hi0, hf0 = a.ravel(), b.ravel()
    want = []
    for tid in (6, 1, 8):
        res = batch.newton(RayBatch.from_instance(inst), np.full(hi0.size, tid - 1, np.int8), hi0 / r, hf0 / r)
        for q in range(hi0.size):
            conv = bool(res.converged[q])
            root = (float(res.h_i[q] * r), float(res.h_f[q] * r)) if conv else (None, None)
            want.append((float(hi0[q]), float(hf0[q]), tid, conv, *root))
    got = run_seed_study(scenario, 4.0, 7, type_ids=(6, 1, 8))
    assert [(r.seed_h_i, r.seed_h_f, r.type_id, r.converged, r.root_h_i, r.root_h_f) for r in got] == want


def test_fused_gradient_study_equals_per_type_loop():
    rng = np.random.default_rng(99)
    n = 30
    xf = rng.uniform(-6.0, 6.0, size=(n, 3))
    vf = rng.normal(size=(n, 3))
    vf /= np.linalg.norm(vf, axis=1, keepdims=True)
    chord = np.linalg.norm(xf, axis=1)
    span = chord + 4.0
    seed = rng.uniform(-1.0, 1.0, size=(n, 2))
    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(xf.T), tuple(vf.T))
    counts = {True: np.zeros(n, np.int64), False: np.zeros(n, np.int64)}
    for stype in ALL_TYPES:
        code = stype.type_id - 1
        for use_gradient in (True, False):
            res = batch.newton(
                rb, np.full(n, code, np.int8), seed[:, 0] * span, seed[:, 1] * span,
                use_gradient=use_gradient, h_limit=runaway_limit(float(span.max())),
            )
            counts[use_gradient] += res.converged & directionally_valid(code, eval_ahead(rb, code, res.h_i, res.h_f))
    rows = run_gradient_study(n, rng_seed=99)
    assert [r.n_with_gradient for r in rows] == counts[True].tolist()
    assert [r.n_without_gradient for r in rows] == counts[False].tolist()
    assert 0 < counts[True].sum() and 0 < counts[False].sum()


def test_robust_sweep_slice_memory_bound():
    # fusing the eight types' batches once raised the benchmark's sweep RSS
    # by 11%; the invariant kernel keeps one slice's Python-side peak low
    spec = SweepSpec("nonplanar", ("z", -4.5), steps=3, robust_seeds=True)
    run_sweep(spec)  # imports and numpy's small-array caches
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20, peak


def test_chunked_sweep_equals_one_batch(monkeypatch):
    # 25 cells of 656 elements; 7 cells a chunk gives chunks of 7, 7, 7 and 4
    spec = SweepSpec("planar", ("angle", 0.0), steps=5, robust_seeds=True)
    whole = run_sweep(spec)
    calls = []
    newton = batch.newton

    def record(rb, types, h_i, h_f, *args, **kwargs):
        calls.append(h_i.size)
        return newton(rb, types, h_i, h_f, *args, **kwargs)

    monkeypatch.setattr(batch, "newton", record)
    monkeypatch.setattr(studies, "SWEEP_CHUNK_ELEMS", 7 * 656 + 100)
    chunked = run_sweep(spec)
    assert calls == [7 * 656] * 3 + [4 * 656]
    assert whole.collinear.any()
    for name in ("counts", "counts_regular", "counts_switched", "collinear"):
        assert _same_bits(getattr(chunked, name), getattr(whole, name)), name
    assert list(chunked.rows()) == list(whole.rows())


def test_solve_all_keeps_kernel_roots_where_the_scalar_residual_cancels():
    # at x = 5e-10 the four regular roots sit at h ~ +-1.25e-9 with a kernel
    # residual of about 1e-17; solve_all accepts them on that residual
    x, z = 5e-10, 0.2
    result = run_sweep(SweepSpec("planar", ("x", x), 61))
    i = int(np.flatnonzero(result.axis_a == z)[0])
    assert result.axis_b[0] == 0.0 and result.collinear[i, 0] == 0 and result.counts[i, 0] == 4
    inst = instance((0, 0, 0), (0, 0, 1), (x, 0, z), (0, 0, 1))
    valid = [c for c in solve_all(inst) if check_directionality(c).valid]
    assert len(valid) == result.counts[i, 0]
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]
    for c in valid:
        assert verify_path(extract_path(c, inst), inst).ok
