import numpy as np
import pytest

from dubins3d import batch
from dubins3d.batch import RayBatch, newton
from dubins3d.geom import instance
from dubins3d.path import check_directionality
from dubins3d.residual import ALL_TYPES, HPair, SolutionType, residuals
from dubins3d.scenarios import load_bundled
from dubins3d.solver import (
    DEFAULT_DEDUP_TOL,
    DEFAULT_RESIDUAL_TOL,
    CollinearInstance,
    NotConverged,
    SolverOptions,
    _candidate,
    collinearity,
    dedup,
    multistart,
    runaway_limit,
    seed_grid,
    solve_all,
    solve_type,
)

SEED_SENSITIVITY = load_bundled("seed_sensitivity").instance
PLANAR_FAR = load_bundled("planar_far").instance
BUNDLED = (
    "planar_far",
    "planar_close",
    "nonplanar_far",
    "nonplanar_close",
    "planar_far_2",
    "planar_close_2",
    "nonplanar_far_2",
    "nonplanar_close_2",
    "seed_sensitivity",
)


def test_solve_type_reaches_recorded_root():
    # switched (+,-) system of the seed-sensitivity case has a root at the
    # recorded offsets; a nearby seed must land on it
    cand = solve_type(SEED_SENSITIVITY, SolutionType.from_id(6), HPair(-1.8, 3.0))
    assert cand.hp.h_i == pytest.approx(-1.804, abs=1e-2)
    assert cand.hp.h_f == pytest.approx(3.004, abs=1e-2)
    assert cand.residual.max_abs() <= 1e-9


def test_solve_type_two_roots_by_seed():
    a = solve_type(SEED_SENSITIVITY, SolutionType.from_id(6), HPair(-3.0, 1.5))
    b = solve_type(SEED_SENSITIVITY, SolutionType.from_id(6), HPair(-1.8, 3.0))
    assert max(abs(a.hp.h_i - b.hp.h_i), abs(a.hp.h_f - b.hp.h_f)) > 0.5


def test_solve_type_fixed_point():
    cand = solve_type(PLANAR_FAR, SolutionType.from_id(2), HPair(0.0, 0.0))
    again = solve_type(PLANAR_FAR, SolutionType.from_id(2), cand.hp)
    assert again.iterations <= 2
    assert again.hp.h_i == pytest.approx(cand.hp.h_i, abs=1e-9)


def test_solve_type_not_converged():
    # the regular (+,+) system of the seed-sensitivity case has no root
    # reachable from the origin seed
    with pytest.raises(NotConverged):
        solve_type(SEED_SENSITIVITY, SolutionType.from_id(1), HPair(0.0, 0.0))


def test_solve_all_planar_far_counts():
    cands = solve_all(PLANAR_FAR)
    valid = [c for c in cands if check_directionality(c).valid]
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]


def test_solve_all_reports_both_type6_roots():
    cands = solve_all(SEED_SENSITIVITY)
    t6 = [c for c in cands if c.type_id == 6]
    valid_t6 = [c for c in t6 if check_directionality(c).valid]
    # multiple distinct same-type roots survive deduplication
    assert len(valid_t6) >= 2
    hs = sorted(c.hp.h_i for c in valid_t6)
    assert any(abs(h - -3.3269) < 1e-3 for h in hs)
    assert any(abs(h - -1.8037) < 1e-3 for h in hs)


def test_candidates_reverify_from_scratch():
    opts = SolverOptions()
    for name in ("planar_far", "nonplanar_close", "planar_close_2"):
        inst = load_bundled(name).instance
        for cand in solve_all(inst, opts):
            res, _ = residuals(inst, cand.stype, cand.hp)
            assert res.max_abs() <= DEFAULT_RESIDUAL_TOL * inst.radius


def test_solve_all_deterministic():
    a = solve_all(SEED_SENSITIVITY)
    b = solve_all(SEED_SENSITIVITY)
    assert [(c.type_id, c.hp.h_i, c.hp.h_f) for c in a] == [(c.type_id, c.hp.h_i, c.hp.h_f) for c in b]
    order = [(c.type_id, c.hp.h_i) for c in a]
    assert order == sorted(order)


def test_grid_seeds_find_at_least_single_seed_roots():
    for name in ("planar_far", "planar_close", "nonplanar_close_2"):
        inst = load_bundled(name).instance
        single = solve_all(inst, SolverOptions(seed=HPair(0.0, 0.0)))
        grid = solve_all(inst, SolverOptions(seed=None))
        n_single = len([c for c in single if check_directionality(c).valid])
        n_grid = len([c for c in grid if check_directionality(c).valid])
        assert n_grid >= n_single


def _dedup(h_i, h_f, resid, group=None, tol=1e-6):
    n = len(h_i)
    group = np.zeros(n, np.int64) if group is None else np.asarray(group)
    kept = dedup(np.arange(n), group, np.asarray(h_i, float), np.asarray(h_f, float), np.asarray(resid, float), tol)
    return sorted(kept.tolist())


def test_dedup_merges_copies_keeps_best():
    c = solve_all(PLANAR_FAR)[0]
    shifted = HPair(c.hp.h_i + 1e-8, c.hp.h_f - 1e-8)
    res, _ = residuals(PLANAR_FAR, c.stype, shifted)
    assert res.max_abs() > c.residual.max_abs()
    # the copy merges into the root with the smaller residual, in either order
    pair = [(c.hp, c.residual.max_abs()), (shifted, res.max_abs())]
    for first in (0, 1):
        (a, ra), (b, rb) = pair[first], pair[1 - first]
        assert _dedup([a.h_i, b.h_i], [a.h_f, b.h_f], [ra, rb]) == [first]
    none = np.array([], np.int64)
    assert dedup(none, none, np.array([]), np.array([]), np.array([]), 1e-6).size == 0
    # distinct roots of one type survive
    t6 = [c for c in solve_all(SEED_SENSITIVITY) if c.type_id == 6]
    kept = _dedup([c.hp.h_i for c in t6], [c.hp.h_f for c in t6], [c.residual.max_abs() for c in t6])
    assert kept == list(range(len(t6)))
    # equal residuals: the lower index wins
    assert _dedup([0.0, 1e-8], [0.0, 0.0], [1e-12, 1e-12]) == [0]
    # equal offsets in different groups both survive
    assert _dedup([1.0, 1.0], [2.0, 2.0], [1e-12, 1e-12], group=[0, 1]) == [0, 1]
    # chain A-B-C: neighbours 0.6 tol apart, A and C 1.2 tol apart
    chain = [0.0, 0.6e-6, 1.2e-6]
    assert _dedup(chain, [0.0] * 3, [2e-12, 1e-12, 3e-12]) == [1]
    assert _dedup(chain, [0.0] * 3, [1e-12, 2e-12, 3e-12]) == [0, 2]


def test_collinear_detection():
    aligned = instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, 1))
    col = collinearity(aligned)
    assert col is not None and col.aligned and col.distance == pytest.approx(5.0)
    with pytest.raises(CollinearInstance):
        solve_all(aligned)

    behind = instance((0, 0, 0), (0, 0, 1), (0, 0, -5), (0, 0, 1))
    col = collinearity(behind)
    assert col is not None and not col.aligned

    reversed_goal = instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, -1))
    assert collinearity(reversed_goal) is not None

    off_axis = instance((0, 0, 0), (0, 0, 1), (1, 0, 5), (0, 0, 1))
    assert collinearity(off_axis) is None
    same_point = instance((0, 0, 0), (0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert collinearity(same_point) is None

    # the length tests are in units of r: the same instances at r = 1e-10
    s = 1e-10
    assert collinearity(instance((0, 0, 0), (0, 0, 1), (s, 0, 5 * s), (0, 0, 1), radius=s)) is None
    col = collinearity(instance((0, 0, 0), (0, 0, 1), (0, 0, -5 * s), (0, 0, 1), radius=s))
    assert col is not None and not col.aligned


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(4.0), "5"])
def test_options_reject_non_integer_max_iters(bad):
    # a float would pass a bound check, then fail in newton's range()
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=bad)


@pytest.mark.parametrize("bad", [True, False, np.True_])
def test_options_reject_bool_max_iters(bad):
    # True is an int, and would run one iteration
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=bad)


def test_options_accept_numpy_integer_max_iters():
    inst = instance((0, 0, 0), (1, 0, 0), (4, 3, 1), (0, 1, 0))
    want = solve_all(inst, SolverOptions(max_iters=7))
    got = solve_all(inst, SolverOptions(max_iters=np.int32(7)))
    assert [(c.stype, c.hp, c.iterations) for c in got] == [(c.stype, c.hp, c.iterations) for c in want]


def solve_all_per_type(inst, opts):
    """solve_all with one Newton batch per type, the runs concatenated
    type-major before the merge: the layout the fused batch replaced."""
    r = inst.radius
    if opts.seed is None:
        hi0, hf0 = seed_grid(inst.span)
    else:
        hi0, hf0 = np.array([opts.seed.h_i]), np.array([opts.seed.h_f])
    rb = RayBatch.from_instance(inst)
    kw = dict(max_iters=opts.max_iters, use_gradient=opts.use_gradient, h_limit=runaway_limit(inst.span / r))
    runs = [newton(rb, np.full(len(hi0), t.type_id - 1, np.int8), hi0 / r, hf0 / r, **kw) for t in ALL_TYPES]
    k = len(hi0)
    group = np.repeat(np.arange(len(ALL_TYPES)), k)
    h_i = np.concatenate([run.h_i for run in runs])
    h_f = np.concatenate([run.h_f for run in runs])
    resid = np.concatenate([run.max_abs() for run in runs])
    iterations = np.concatenate([run.iterations for run in runs])
    converged = np.concatenate([run.converged for run in runs])
    unit = inst.in_radius_units()
    out = []
    for q in dedup(np.flatnonzero(converged), group, h_i, h_f, resid, DEFAULT_DEDUP_TOL):
        stype = ALL_TYPES[group[q]]
        hp = HPair(float(h_i[q]), float(h_f[q]))
        res, geo = residuals(unit, stype, hp)
        seed = HPair(float(hi0[q % k]), float(hf0[q % k]))
        out.append(_candidate(r, stype, hp, res, geo, int(iterations[q]), seed))
    out.sort(key=lambda c: (c.type_id, c.hp.h_i, c.hp.h_f))
    return out


def test_fused_solve_all_equals_per_type_batches():
    rng = np.random.default_rng(31)
    cases = [load_bundled(name).instance for name in BUNDLED]
    for r in (1e-3, 1.0, 1e3):
        for _ in range(3):
            xf = rng.uniform(-6, 6, 3) * r
            cases.append(instance((0, 0, 0), tuple(rng.normal(size=3)), tuple(xf), tuple(rng.normal(size=3)), r))
    options = (SolverOptions(), SolverOptions(use_gradient=False), SolverOptions(seed=HPair(0.0, 0.0)))
    roots = 0
    for inst in cases:
        for opts in options:
            got = solve_all(inst, opts)
            # candidates compare every float exactly: offsets, residuals,
            # geometry, iterations and seed
            assert got == solve_all_per_type(inst, opts), (inst, opts)
            roots += len(got)
    assert roots > 300


def test_multistart_layout_is_type_major(monkeypatch):
    # element q solves type q // (n k) on instance (q // k) % n from seed q % k
    calls = []
    real = batch.newton

    def record(rb, types, hi0, hf0, *args, **kwargs):
        calls.append((rb.row, types, hi0, hf0))
        return real(rb, types, hi0, hf0, *args, **kwargs)

    monkeypatch.setattr(batch, "newton", record)
    n, k = 3, 2
    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (np.array([-1.0, 2.0, 3.0]), np.zeros(n), np.ones(n)), (1.0, 0.0, 0.0))
    hi0, hf0 = np.arange(n * k, dtype=float).reshape(n, k), -np.arange(n * k, dtype=float).reshape(n, k)
    run, types, rows, seeds = multistart(rb, hi0, hf0, 60)
    [(row, codes, hi, hf)] = calls
    assert codes.dtype == np.int8
    assert codes.tolist() == [t for t in range(8) for _ in range(n * k)]
    assert row.tolist() == [m for _ in range(8) for m in range(n) for _ in range(k)]
    assert hi.tolist() == hi0.ravel().tolist() * 8 and hf.tolist() == hf0.ravel().tolist() * 8
    assert types.dtype == np.int8 and run.h_i.size == types.size == rows.size == seeds.size > 0


@pytest.mark.parametrize("robust", [True, False])
def test_multistart_many_instances_equal_one_call_per_instance_bitwise(robust):
    # random pairs in units of r and one collinear pair (singular everywhere),
    # seeded from the solver's grid (82 seeds) or from (0, 0) alone
    rng = np.random.default_rng(41)
    n = 7
    pos = rng.uniform(-6, 6, (2, 3, n))
    dirs = rng.normal(size=(2, 3, n))
    pos[:, :, -1], dirs[:, :, -1] = [[0, 0, 0], [0, 0, 5]], [[0, 0, 1], [0, 0, 1]]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rb = RayBatch.build(tuple(pos[0]), tuple(dirs[0]), tuple(pos[1]), tuple(dirs[1]))
    span = np.linalg.norm(pos[1] - pos[0], axis=0) + 4.0
    hi0, hf0 = seed_grid(span) if robust else (np.zeros((n, 1)), np.zeros((n, 1)))
    kw = dict(max_iters=60, h_limit=runaway_limit(float(span.max())))

    def kept(run, types, rows, seeds, instance=None):
        """(type, instance, seed) -> the bits of h_i, h_f, iterations and halvings."""
        rows = rows if instance is None else np.full(rows.size, instance)
        fields = (run.h_i, run.h_f, run.iterations, run.halvings)
        return {(int(t), int(m), int(s)): tuple(f[q].tobytes() for f in fields) for q, (t, m, s) in enumerate(zip(types, rows, seeds))}

    fused = kept(*multistart(rb, hi0, hf0, **kw))
    alone = {}
    for m in range(n):
        one = RayBatch(rb.inv[:, m], None)
        alone.update(kept(*multistart(one, hi0[m], hf0[m], **kw), instance=m))
    assert fused == alone
    assert {m for _, m, _ in fused} == set(range(n - 1))  # nothing converges on the collinear pair
    assert len(fused) > 4 * (n - 1)
