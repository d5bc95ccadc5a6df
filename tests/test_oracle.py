import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dubins3d import oracle
from dubins3d.batch import RayBatch, eval_residuals, newton
from dubins3d.geom import Configuration, ProblemInstance, instance
from dubins3d.oracle import (
    ZERO_SNAP,
    ContourMap,
    GridWindow,
    _cell_crossings,
    enumerate_all_types,
    sample_contours,
)
from dubins3d.path import check_directionality
from dubins3d.residual import ALL_TYPES, REGULAR_TYPES, SWITCHED_TYPES, HPair, SolutionType, residuals
from dubins3d.scenarios import SEED_SENSITIVITY_ROOT, SEED_SENSITIVITY_ROOT_TOL, SEED_SENSITIVITY_SCENARIO, load_bundled
from dubins3d.solver import (
    DEFAULT_DEDUP_TOL,
    NotConverged,
    SolverOptions,
    dedup,
    solve_all,
    solve_type,
)

PLANAR_FAR = load_bundled("planar_far").instance
PLANAR_CLOSE = load_bundled("planar_close").instance
SEED_SENSITIVITY = load_bundled(SEED_SENSITIVITY_SCENARIO).instance


def test_window_validation():
    with pytest.raises(ValueError):
        GridWindow((1.0, -1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        GridWindow((-1.0, 1.0), (-1.0, 1.0), resolution=8)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            GridWindow((-1.0, bad), (-1.0, 1.0))
        with pytest.raises(ValueError):
            GridWindow((-1.0, 1.0), (bad, 1.0))
        with pytest.raises(ValueError):
            GridWindow.square(bad)
    win = GridWindow.for_instance(PLANAR_FAR)
    assert win.h_i_range[1] == pytest.approx(PLANAR_FAR.chord + 4.0)


@pytest.mark.parametrize("bad", [False, True, np.bool_(False), "-1", pytest.param(10**400, id="10**400")])
def test_window_rejects_a_bool_or_non_number_range_end(bad):
    with pytest.raises(ValueError, match=r"h_i_range\[0\]"):
        GridWindow((bad, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError, match=r"h_f_range\[0\]"):
        GridWindow((-1.0, 1.0), (bad, 1.0))


@pytest.mark.parametrize("bad", [16.5, 32.0, True, np.float64(32.0)])
def test_window_rejects_non_integer_resolution(bad):
    with pytest.raises(ValueError, match="resolution"):
        GridWindow((-1.0, 1.0), (-1.0, 1.0), resolution=bad)


def test_window_accepts_numpy_integer_resolution():
    win = GridWindow.square(2.0, np.int16(16))
    assert all((a == b).all() for a, b in zip(win.nodes(), GridWindow.square(2.0, 16).nodes()))


def test_contours_have_both_curve_families():
    win = GridWindow.square(10.0, 200)
    for stype in REGULAR_TYPES:
        cmap = next(sample_contours(PLANAR_FAR, win, (stype,)))
        assert cmap.crossings_i.any()
        assert cmap.crossings_f.any()
        assert cmap.p_i.shape == (201, 201)
        assert not cmap.singular.all()


def test_no_type3_intersection_for_planar_close():
    win = GridWindow.for_instance(PLANAR_CLOSE, resolution=400)
    cmap = next(sample_contours(PLANAR_CLOSE, win, (SolutionType.from_id(3),)))
    assert cmap.intersection_cells().shape[0] == 0
    assert enumerate_all_types(PLANAR_CLOSE, win, (SolutionType.from_id(3),))[3] == []


def test_far_separation_straightens_contours():
    # with the start pulled far away, each family's zero set approaches an
    # axis-aligned line: crossing columns (rows) become nearly constant
    far = instance((0, 0, -100), (1, 0, 0), (0, 0, 0), (1, 0, 0))
    win = GridWindow.square(8.0, 160)
    cmap = next(sample_contours(far, win, (SolutionType.from_id(1),)))
    i_cells, j_cells = np.nonzero(cmap.crossings_i)
    assert i_cells.size > 0
    assert i_cells.max() - i_cells.min() <= 2  # p_i = 0 is near-vertical
    i2, j2 = np.nonzero(cmap.crossings_f)
    assert j2.size > 0
    assert j2.max() - j2.min() <= 2  # p_f = 0 is near-horizontal


def test_planar_far_has_exactly_four_regular_roots():
    win = GridWindow.square(10.0, 400)
    per_type = enumerate_all_types(PLANAR_FAR, win, REGULAR_TYPES)
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
    # recorded near-degenerate offsets SEED_SENSITIVITY_ROOT
    from dubins3d.solver import SolutionCandidate

    win = GridWindow.for_instance(SEED_SENSITIVITY)
    t6 = SolutionType.from_id(6)
    roots = enumerate_all_types(SEED_SENSITIVITY, win, (t6,))[t6.type_id]
    assert len(roots) == 3
    flags = []
    for hp in roots:
        res, geo = residuals(SEED_SENSITIVITY, t6, hp)
        cand = SolutionCandidate(t6, hp, res, geo, 0, hp)
        flags.append(check_directionality(cand).valid)
    assert sum(flags) == 2
    (h_i, h_f), tol = SEED_SENSITIVITY_ROOT, SEED_SENSITIVITY_ROOT_TOL
    assert any(abs(hp.h_i - h_i) < tol and abs(hp.h_f - h_f) < tol for hp in roots)


def _refine_per_cell(inst, cmap):
    """Scalar reference for enumerate_all_types: one solve_type per intersection
    cell, seeded at its centre, kept when inside the window and first seen."""
    opts = SolverOptions(max_iters=60, seed=HPair(0.0, 0.0))
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
        cmap = next(sample_contours(inst, window, (stype,)))
        batched = enumerate_all_types(inst, window, (stype,))[stype.type_id]
        scalar = _refine_per_cell(inst, cmap)
        assert len(batched) == len(scalar), (stype, batched, scalar)
        for a, b in zip(batched, scalar):
            assert max(abs(a.h_i - b.h_i), abs(a.h_f - b.h_f)) <= 1e-8, (stype, a, b)


def test_roots_reevaluate_below_tolerance():
    win = GridWindow.for_instance(PLANAR_CLOSE)
    for stype in ALL_TYPES:
        for hp in enumerate_all_types(PLANAR_CLOSE, win, (stype,))[stype.type_id]:
            res, _ = residuals(PLANAR_CLOSE, stype, hp)
            assert res.max_abs() <= 1e-9


def test_resolution_refinement_keeps_roots():
    for name in ("planar_far", "nonplanar_close_2"):
        inst = load_bundled(name).instance
        coarse_win = GridWindow.for_instance(inst, resolution=128)
        fine_win = GridWindow.for_instance(inst, resolution=256)
        for stype in ALL_TYPES:
            coarse = enumerate_all_types(inst, coarse_win, (stype,))[stype.type_id]
            fine = enumerate_all_types(inst, fine_win, (stype,))[stype.type_id]
            for hp in coarse:
                assert any(max(abs(hp.h_i - o.h_i), abs(hp.h_f - o.h_f)) < 1e-6 for o in fine)


def test_agreement_with_solver_on_random_instances():
    rng = np.random.default_rng(21)
    opts = SolverOptions(seed=None)
    for _ in range(6):
        inst = random_noncollinear(rng)
        win = GridWindow.for_instance(inst)
        sol = solve_all(inst, opts)
        for stype in ALL_TYPES:
            mine = [c.hp for c in sol if c.stype == stype and win.contains(c.hp)]
            oracle = enumerate_all_types(inst, win, (stype,))[stype.type_id]
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
    cmap = next(sample_contours(col, win, (SolutionType.from_id(1),)))
    assert cmap.singular.all()
    assert enumerate_all_types(col, win, (SolutionType.from_id(1),))[1] == []


def test_enumerate_all_types_keys():
    win = GridWindow.square(6.0, 64)
    res = enumerate_all_types(PLANAR_CLOSE, win)
    assert sorted(res) == list(range(1, 9))


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


def scaled(inst, s):
    """inst with every length (positions and radius) multiplied by s."""
    move = lambda c: Configuration(c.position * s, c.direction)
    return ProblemInstance(move(inst.start), move(inst.goal), inst.radius * s)


def _minmax_crossings(field):
    """The fmin/fmax crossing rule the boolean one replaced."""
    snapped = np.where(np.abs(field) < ZERO_SNAP, 0.0, field)
    c00, c10, c01, c11 = snapped[:-1, :-1], snapped[1:, :-1], snapped[:-1, 1:], snapped[1:, 1:]
    finite = np.isfinite(c00) & np.isfinite(c10) & np.isfinite(c01) & np.isfinite(c11)
    lo = np.fmin(np.fmin(c00, c10), np.fmin(c01, c11))
    hi = np.fmax(np.fmax(c00, c10), np.fmax(c01, c11))
    return finite & (((lo < 0.0) & (hi > 0.0)) | (lo == 0.0) | (hi == 0.0))


def _per_type_contours(inst, stype, window):
    """The per-type sampler sample_contours replaced: eval_residuals for one
    type on the tiled meshgrid, in units of r, with the fmin/fmax rule."""
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    a, b = np.meshgrid(hi_nodes / r, hf_nodes / r, indexing="ij")
    p_i, p_f = eval_residuals(RayBatch.from_instance(inst), stype.type_id - 1, a.ravel(), b.ravel())
    p_i, p_f = p_i.reshape(a.shape), p_f.reshape(a.shape)
    singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
    cross_i, cross_f = _minmax_crossings(p_i), _minmax_crossings(p_f)
    return ContourMap(stype, window, hi_nodes, hf_nodes, p_i * r, p_f * r, singular, cross_i, cross_f)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _refine_one_map(inst, cmap):
    """The roots of one map, refined by one Newton batch for its type alone
    and merged on their own: the per-map path the batch over all types
    replaced."""
    r = inst.radius
    i, j = cmap.intersection_cells().T
    hi0 = 0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1])
    hf0 = 0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1])
    rb = RayBatch.from_instance(inst)
    res = newton(rb, np.full(hi0.size, cmap.stype.type_id - 1, np.int8), hi0 / r, hf0 / r, max_iters=60)
    res.h_i *= r
    res.h_f *= r
    cand = np.flatnonzero(res.converged & cmap.window.contains(res, 1e-9 * r))
    kept = dedup(cand, np.zeros(hi0.size, np.int64), res.h_i, res.h_f, res.max_abs(), DEFAULT_DEDUP_TOL * r)
    return sorted((HPair(float(res.h_i[q]), float(res.h_f[q])) for q in kept), key=lambda p: (p.h_i, p.h_f))


def _equivalence_cases():
    """(instance, window) for the bundled scenarios and eight random pairs
    scaled from 1e-3 to 1e3."""
    rng = np.random.default_rng(5)
    cases = [load_bundled(name).instance for name in BUNDLED]
    cases += [scaled(random_noncollinear(rng), r) for r in (1e-3, 0.5, 2.0, 1e3) for _ in range(2)]
    return [(inst, GridWindow.for_instance(inst, 128)) for inst in cases]


def test_sample_contours_bitwise_equals_per_type_sampling():
    fields = ("h_i_nodes", "h_f_nodes", "p_i", "p_f", "singular", "crossings_i", "crossings_f")
    for inst, window in _equivalence_cases():
        maps = list(sample_contours(inst, window))
        assert [c.stype for c in maps] == list(ALL_TYPES)
        refs = {t: _per_type_contours(inst, t, window) for t in ALL_TYPES}
        for cmap in maps + [next(sample_contours(inst, window, (t,))) for t in ALL_TYPES]:
            ref = refs[cmap.stype]
            for name in fields:
                assert _same_bits(getattr(cmap, name), getattr(ref, name)), (inst, cmap.stype, name)
        every = enumerate_all_types(inst, window)
        # one Newton batch over all eight maps' cells equals one per map
        assert every == {t.type_id: _refine_one_map(inst, refs[t]) for t in ALL_TYPES}


@pytest.fixture(scope="module")
def all_types_roots():
    """(instance, window, roots of all eight types) per equivalence case."""
    return [(inst, window, enumerate_all_types(inst, window)) for inst, window in _equivalence_cases()]


SUBSETS = {f"type{t.type_id}": (t,) for t in ALL_TYPES} | {"regular": REGULAR_TYPES, "switched": SWITCHED_TYPES, "none": ()}


@pytest.mark.parametrize("subset", list(SUBSETS.values()), ids=list(SUBSETS))
def test_enumerate_all_types_on_a_subset_equals_the_all_types_roots_restricted(subset, all_types_roots):
    for inst, window, every in all_types_roots:
        got = enumerate_all_types(inst, window, subset)
        assert got == {t.type_id: every[t.type_id] for t in subset}
        # and each type's roots are those refined from the per-type sampler's map
        for t in subset:
            assert got[t.type_id] == _refine_one_map(inst, _per_type_contours(inst, t, window))


def test_sample_contours_yields_requested_types_by_family():
    window = GridWindow.square(4.0, 32)
    types = [SolutionType.from_id(k) for k in (6, 1, 6, 4)]
    maps = list(sample_contours(SEED_SENSITIVITY, window, types))
    assert [c.stype.type_id for c in maps] == [1, 4, 6, 6]
    # fields are read-only
    with pytest.raises(ValueError):
        maps[0].p_i[0, 0] = 0.0


def test_boolean_crossing_rule_matches_minmax_rule_on_edge_values():
    z = ZERO_SNAP
    inside = np.nextafter(z, 0.0)
    values = [1.0, -1.0, z, -z, inside, -inside, np.nextafter(z, 1.0), 0.0, -0.0, np.nan, np.inf, -np.inf]
    # every 2x2 field over the edge values, one cell each
    for nodes in itertools.product(values, repeat=4):
        field = np.array(nodes).reshape(2, 2)
        assert _same_bits(_cell_crossings(field), _minmax_crossings(field)), nodes
    # cells at exactly +-ZERO_SNAP are not crossings; a node inside the band is
    assert not _cell_crossings(np.full((2, 2), z)).any()
    assert not _cell_crossings(np.full((2, 2), -z)).any()
    assert _cell_crossings(np.array([[z, z], [z, inside]])).all()
    rng = np.random.default_rng(3)
    for _ in range(2000):
        field = rng.choice(values, size=(3, 3))
        assert _same_bits(_cell_crossings(field), _minmax_crossings(field)), field


def test_window_slack_is_in_units_of_r():
    # the type-6 root at (-0.1157 r, 0.0697 r) lies 0.05 r beyond the
    # window's upper h_i edge: it must stay out at every scale
    t6 = SolutionType.from_id(6)
    base = GridWindow.for_instance(SEED_SENSITIVITY, 100)
    r = SEED_SENSITIVITY.radius
    found = {}
    for s in (1.0, 1e-8):
        inst = scaled(SEED_SENSITIVITY, s)
        window = GridWindow(
            (s * base.h_i_range[0], s * (-0.1157 - 0.05) * r), tuple(s * x for x in base.h_f_range), base.resolution
        )
        found[s] = [(hp.h_i / (s * r), hp.h_f / (s * r)) for hp in enumerate_all_types(inst, window, (t6,))[t6.type_id]]
    assert len(found[1.0]) == 2
    assert len(found[1e-8]) == 2
    for a, b in zip(found[1.0], found[1e-8]):
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 1e-6


def _around_type1_root(resolution, size, i, j):
    """A window on planar_far of cells of the given size whose type-1 root
    lies i cells above its lower h_i edge and j cells above its lower h_f
    edge."""
    root = enumerate_all_types(PLANAR_FAR, GridWindow.for_instance(PLANAR_FAR, 400), (SolutionType.from_id(1),))[1][0]
    lo_i, lo_f = root.h_i - i * size, root.h_f - j * size
    return GridWindow((lo_i, lo_i + resolution * size), (lo_f, lo_f + resolution * size), resolution)


def _boundary_window():
    """A 200-cell window on planar_far, wholly in h_f < 0, whose type-1 root
    lies in cell row 80: the last row of the first block of the (+, +)
    quadrant, which spans all 201 h_f nodes (81 node rows plus the overlap
    row at the default BLOCK_NODES)."""
    return _around_type1_root(200, 0.003, 80.5, 100.3)


def _whole_blocks_window():
    """A 400-cell window on planar_far wholly in h_i < 0 and h_f < 0, so the
    (+, +) quadrant is the whole grid: its 401 h_f nodes give blocks of 40
    cell rows, ten whole blocks, and the type-1 root lies in cell row 159,
    the last of the fourth."""
    return _around_type1_root(400, 0.001, 159.5, 200.3)


def _single_row_window():
    """A 128-cell window on planar_far wholly in h_i < 0 and h_f < 0, so the
    (+, +) quadrant is the whole grid: its 129 h_f nodes give blocks of 127
    cell rows, and the last block holds the one cell row 127, where the
    type-1 root lies."""
    return _around_type1_root(128, 0.002, 127.5, 64.3)


def _straddle_window():
    """A 32-cell window on planar_far whose cell row 16, with h_i nodes at
    -0.1 and 0.1, holds the type-2 root at h_i = -0.090 and the type-4 root
    at h_i = 0.095: the last row of the (+, -) quadrant and the first of the
    (-, -) one."""
    return GridWindow((-3.3, 3.1), (-2.7, 3.7), 32)


def _block_cases():
    """(instance, window): planar_far and nonplanar_close_2 at resolutions
    16, 400 and 128, whose quadrants the walk samples in one block or in
    three with a shorter last one; a collinear pair; a root's crossing cell
    next to a block boundary; roots in the cell row straddling h_i = 0; and
    a quadrant whose rows divide into whole blocks and one that leaves a
    last block of a single cell row, each with a root in a block's last
    row."""
    cases = []
    for name in ("planar_far", "nonplanar_close_2"):
        inst = load_bundled(name).instance
        cases += [(inst, GridWindow.for_instance(inst, res)) for res in (16, 400, 128)]
    cases.append((instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, 1)), GridWindow.square(5.0, 128)))
    for window in (_boundary_window(), _straddle_window(), _whole_blocks_window(), _single_row_window()):
        cases.append((PLANAR_FAR, window))
    return cases


def _walked_quadrants(inst, window):
    """((r0, r1), (c0, c1), step) for each quadrant the walk samples: its
    cell rows and columns and the cell rows of its blocks."""
    hi, hf = (nodes / inst.radius for nodes in window.nodes())
    walked = []
    for s_i, s_f in itertools.product((1, -1), repeat=2):
        (r0, r1), (c0, c1) = oracle._reach(hi, s_i), oracle._reach(hf, s_f)
        if r0 < r1 and c0 < c1:
            walked.append(((r0, r1), (c0, c1), max(1, oracle.BLOCK_NODES // (c1 - c0 + 1))))
    return walked


def test_block_cases_cover_one_block_whole_blocks_a_single_last_row_and_a_boundary():
    # per quadrant the walk samples: its cell rows, those of its last block
    # and those of a block
    last = lambda rows, step: rows - step * ((rows - 1) // step)
    walked = [q for inst, w in _block_cases() for q in _walked_quadrants(inst, w)]
    shapes = [(r1 - r0, last(r1 - r0, step), step) for (r0, r1), _, step in walked]
    assert any(rows <= step for rows, _, step in shapes)
    assert any(rows > step and tail == step for rows, tail, step in shapes)
    assert any(rows > step and tail == 1 for rows, tail, step in shapes)
    # the type-1 root's cell is the last row of a block of the (+, +)
    # quadrant: the first of three, the fourth of ten, and the one-row last
    for window, quadrant, row in (
        (_boundary_window(), ((0, 169), (0, 200), 81), 80),
        (_whole_blocks_window(), ((0, 400), (0, 400), 40), 159),
        (_single_row_window(), ((0, 128), (0, 128), 127), 127),
    ):
        assert _walked_quadrants(PLANAR_FAR, window)[0] == quadrant
        _, i, _ = oracle._intersection_cells(PLANAR_FAR, window, [SolutionType.from_id(1)])
        assert list(i) == [row]
    # the roots of types 2 and 4 lie in the one cell row both h_i quadrants share
    window = _straddle_window()
    hi = window.nodes()[0]
    (row,) = np.flatnonzero((hi[:-1] < 0.0) & (hi[1:] > 0.0))
    assert oracle._reach(hi, 1)[1] == row + 1 and oracle._reach(hi, -1)[0] == row
    for t in (SolutionType.from_id(2), SolutionType.from_id(4)):
        (cell,) = next(sample_contours(PLANAR_FAR, window, (t,))).intersection_cells()
        assert cell[0] == row
        (root,) = enumerate_all_types(PLANAR_FAR, window, (t,))[t.type_id]
        assert hi[row] < root.h_i < hi[row + 1]


def test_block_sampler_equals_whole_grid_sampling_bitwise(monkeypatch):
    cases = _block_cases()
    walk = lambda inst, w: (oracle._intersection_cells(inst, w, list(ALL_TYPES)), enumerate_all_types(inst, w))
    blocked = [walk(inst, w) for inst, w in cases]
    monkeypatch.setattr(oracle, "BLOCK_NODES", 1 << 30)
    for (inst, window), (cells, roots) in zip(cases, blocked):
        # one block per quadrant
        assert all(step >= r1 - r0 for (r0, r1), _, step in _walked_quadrants(inst, window))
        whole_cells, whole_roots = walk(inst, window)
        assert all(_same_bits(a, b) for a, b in zip(cells, whole_cells)), (inst, window)
        assert roots == whole_roots, (inst, window)
    collinear = blocked[-5]
    assert collinear[0][0].size == 0 and not any(collinear[1].values())
    assert [len(blocked[k][1][1]) for k in (-4, -2, -1)] == [1, 1, 1]
    assert [len(blocked[-3][1][t]) for t in (2, 4)] == [1, 1]


def test_enumerate_all_types_forms_no_whole_grid_field():
    # a 401^2 float64 field is 1.29 MB; the whole-grid sampler peaked at 18.4 MB
    window = GridWindow.for_instance(PLANAR_FAR, 400)
    enumerate_all_types(PLANAR_FAR, window)  # numpy's small-array caches
    tracemalloc.start()
    try:
        enumerate_all_types(PLANAR_FAR, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_streamed_contour_maps_peak_under_4_mb():
    # a 201^2 float64 field is 0.32 MB; maps that shared whole-window fields
    # of every type peaked at 5.8 MB here
    window = GridWindow.for_instance(PLANAR_FAR, 200)
    for _ in sample_contours(PLANAR_FAR, window):  # numpy's small-array caches
        pass
    tracemalloc.start()
    try:
        for _ in sample_contours(PLANAR_FAR, window):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def _quadrant_windows(r):
    """64-cell windows in units of r at the edges of the quadrant walk:
    wholly in h_i > 0, wholly in h_f < 0, with a node exactly at 0 on both
    axes, and with one node within ZERO_SNAP of 0 on each side."""
    w = lambda a, b: GridWindow((a[0] * r, a[1] * r), (b[0] * r, b[1] * r), 64)
    return [
        w((0.5, 6.0), (-5.0, 5.0)),
        w((-5.0, 5.0), (-6.0, -0.25)),
        w((-4.0, 4.0), (-3.0, 5.0)),
        w((-4.0 + 3e-13, 4.0 + 3e-13), (-3.0 - 3e-13, 5.0 - 3e-13)),
    ]


def test_quadrant_windows_reach_their_edge_cases():
    for r in (1e-3, 1e3):
        wins = _quadrant_windows(r)
        (hi, hf), (hi0, hf0), (hi1, hf1) = (w.nodes() for w in (wins[0], wins[2], wins[3]))
        assert hi.min() > 0.0 and wins[1].h_f_range[1] < 0.0
        assert 0.0 in hi0 / r and 0.0 in hf0 / r
        assert ((0.0 < hi1 / r) & (hi1 / r < ZERO_SNAP)).any()
        assert ((-ZERO_SNAP < hf1 / r) & (hf1 / r < 0.0)).any()


def _quadrant_cases():
    cases = _equivalence_cases()
    for name in ("planar_far", "nonplanar_close_2", "seed_sensitivity"):
        for r in (1e-3, 1e3):
            inst = scaled(load_bundled(name).instance, r)
            cases += [(inst, window) for window in _quadrant_windows(r)]
    return cases


def test_quadrant_walk_collects_the_intersection_cells_of_the_whole_grid():
    for inst, window in _quadrant_cases():
        maps = list(sample_contours(inst, window))
        owner, i, j = oracle._intersection_cells(inst, window, list(ALL_TYPES))
        cells = i * window.resolution + j
        for k, cmap in enumerate(maps):
            want = np.flatnonzero(cmap.crossings_i & cmap.crossings_f)
            assert _same_bits(cells[owner == k], want), (inst, window, cmap.stype)
        if window.resolution == 64:
            assert enumerate_all_types(inst, window) == {c.stype.type_id: _refine_one_map(inst, c) for c in maps}
