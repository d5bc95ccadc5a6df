"""Acceptance suite: one test per acceptance criterion (sub-split where a
criterion covers several scenarios).  Each test prints a PASS/FAIL line.

Four tests (the ``*_recorded_*`` ones) check scenarios whose reference
outcomes, as the paper reports them, differ from what the implemented
equations give: a filtered type-6 root in planar_close, a valid switched
root in nonplanar_close, a valid type-1 root in nonplanar_close_2, and
exactly two type-6 roots in the seed-sensitivity window.  Each of these
tests asserts the exact root set the equations do have and carries its own
evidence against the reported value: the root is absent from a wider
enumeration window, the residual stays bounded away from zero, or the extra
root is nondegenerate.  Every valid root behind them passes geometric path
verification (criterion 5) and matches the grid oracle (criterion 4).  The
reported values sit next to this evidence in scenarios.py.
"""

import math
import time

import numpy as np

from dubins3d.geom import instance
from dubins3d.oracle import GridWindow, build_contours, enumerate_all_types, enumerate_roots, refine_roots
from dubins3d.path import check_directionality, extract_path, verify_path
from dubins3d.residual import ALL_TYPES, HPair, SolutionType, jacobian, residuals
from dubins3d.scenarios import load_bundled
from dubins3d.solver import SolutionCandidate, SolverOptions, solve_all
from dubins3d.studies import SweepSpec, run_gradient_study, run_sweep


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


def solved(name: str):
    inst = load_bundled(name).instance
    t0 = time.perf_counter()
    cands = solve_all(inst)
    wall = time.perf_counter() - t0
    valid = [c for c in cands if check_directionality(c).valid]
    invalid = [c for c in cands if not check_directionality(c).valid]
    return inst, cands, valid, invalid, wall


def root_table(cands):
    """(type id, h_i, h_f, filter reason) for each candidate, sorted."""
    return sorted((c.type_id, c.hp.h_i, c.hp.h_f, check_directionality(c).reason) for c in cands)


def same_roots(table, expected, tol=1e-3) -> bool:
    """table equals expected root by root: same type and reason, offsets within tol."""
    return len(table) == len(expected) and all(
        t == et and r == er and abs(a - ea) <= tol and abs(b - eb) <= tol
        for (t, a, b, r), (et, ea, eb, er) in zip(table, expected)
    )


def residual_floor(cmap) -> float:
    """Smallest sampled max(|p_i|, |p_f|) of a contour map."""
    return float(np.nanmin(np.maximum(np.abs(cmap.p_i), np.abs(cmap.p_f))))


# ----------------------------------------------------------------------------
# criterion 1: per-scenario solution counts (runtime < 1 s each)


def test_c1_planar_far():
    inst, cands, valid, _, wall = solved("planar_far")
    ok = sorted(c.type_id for c in valid) == [1, 2, 3, 4] and wall < 1.0
    report("criterion 1: planar_far", ok, f"valid={sorted(c.type_id for c in valid)} wall={wall:.3f}s")
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]
    assert wall < 1.0


def test_c1_planar_close_counts():
    inst, cands, valid, _, wall = solved("planar_close")
    no_t3 = enumerate_roots(inst, SolutionType.from_id(3), GridWindow.for_instance(inst))
    ok = len(valid) == 3 and len(no_t3) == 0 and wall < 1.0
    report("criterion 1: planar_close", ok, f"n_valid={len(valid)} type3_roots={len(no_t3)} wall={wall:.3f}s")
    assert len(valid) == 3
    assert no_t3 == []
    assert wall < 1.0


def test_c1_planar_close_recorded_invalid_type6():
    # Reported: a type-6 root exists and is filtered as invalid.  The
    # switched (+,-) system has no root within twice the default window (nor
    # six times it), and its residual stays far from zero there; the filtered
    # roots are one each of types 5, 7 and 8, all switched roots whose
    # segment runs forward.
    inst, cands, valid, invalid, _ = solved("planar_close")
    valid_ids = sorted(c.type_id for c in valid)
    filtered = [(t, r) for t, _, _, r in root_table(invalid)]
    t6 = SolutionType.from_id(6)
    wide = GridWindow.square(2 * (inst.chord + 4.0 * inst.radius), 800)
    t6_map = build_contours(inst, t6, wide)
    t6_roots = refine_roots(inst, t6_map)
    t6_floor = residual_floor(t6_map)
    expected = [(5, "switched_forward"), (7, "switched_forward"), (8, "switched_forward")]
    ok = valid_ids == [1, 2, 4] and filtered == expected and not t6_roots and t6_floor >= 1.0
    detail = f"valid={valid_ids} filtered={filtered} t6_roots={len(t6_roots)} t6_floor={t6_floor:.3f}"
    report("criterion 1: planar_close type-6 record", ok, detail)
    assert valid_ids == [1, 2, 4]
    assert filtered == expected
    assert t6_roots == []
    assert t6_floor >= 1.0, f"type-6 residual sampled down to {t6_floor} over +-{wide.h_i_range[1]:.2f}"


def test_c1_nonplanar_far():
    inst, cands, valid, _, wall = solved("nonplanar_far")
    report("criterion 1: nonplanar_far", sorted(c.type_id for c in valid) == [1, 2, 3, 4], f"wall={wall:.3f}s")
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]
    assert wall < 1.0


def test_c1_nonplanar_close_recorded_composition():
    # Reported: 3 valid regular + 1 valid switched, filtered types including
    # 5, 7 and 8.  Each regular type has one valid root and no switched root
    # is valid: types 5 and 6 have no root at all (none within six times the
    # window either).  In the window the filter rejects a second root of
    # types 1 and 3 (segment runs backward) and a type-7 root (runs
    # forward); a filtered type-8 root lies far outside it, at (1.713, 18.719).
    inst, cands, valid, invalid, wall = solved("nonplanar_close")
    window = GridWindow.for_instance(inst)
    valid_ids = sorted(c.type_id for c in valid)
    n_sw = sum(1 for c in valid if c.type_id >= 5)
    filtered_in_window = root_table(c for c in invalid if window.contains(c.hp))
    no_switched = {tid: enumerate_roots(inst, SolutionType.from_id(tid), window) for tid in (5, 6)}
    expected = [
        (1, -1.549, -6.968, "regular_backward"),
        (3, 5.396, -1.315, "regular_backward"),
        (7, 0.711, -1.737, "switched_forward"),
    ]
    same = same_roots(filtered_in_window, expected)
    ok = valid_ids == [1, 2, 3, 4] and n_sw == 0 and same and no_switched == {5: [], 6: []}
    detail = f"valid={valid_ids} sw={n_sw} filtered={sorted({c.type_id for c in invalid})} wall={wall:.3f}s"
    report("criterion 1: nonplanar_close record", ok, detail)
    assert wall < 1.0
    assert valid_ids == [1, 2, 3, 4]
    assert n_sw == 0
    assert {1, 3, 7} <= {c.type_id for c in invalid}
    assert same, filtered_in_window
    assert no_switched == {5: [], 6: []}


def test_c1_planar_far_2():
    inst, cands, valid, _, wall = solved("planar_far_2")
    report("criterion 1: planar_far_2", sorted(c.type_id for c in valid) == [1, 2, 3, 4], f"wall={wall:.3f}s")
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]
    assert wall < 1.0


def test_c1_planar_close_2():
    inst, cands, valid, _, wall = solved("planar_close_2")
    n_reg = sum(1 for c in valid if c.type_id <= 4)
    n_sw = sum(1 for c in valid if c.type_id >= 5)
    report("criterion 1: planar_close_2", n_reg == 2 and n_sw == 2, f"reg={n_reg} sw={n_sw} wall={wall:.3f}s")
    assert n_reg == 2 and n_sw == 2
    assert wall < 1.0


def test_c1_nonplanar_far_2():
    inst, cands, valid, invalid, wall = solved("nonplanar_far_2")
    filtered_ids = {c.type_id for c in invalid}
    ok = sorted(c.type_id for c in valid) == [1, 2, 3, 4] and {3, 4} <= filtered_ids
    report("criterion 1: nonplanar_far_2", ok, f"filtered={sorted(filtered_ids)} wall={wall:.3f}s")
    assert sorted(c.type_id for c in valid) == [1, 2, 3, 4]
    assert {3, 4} <= filtered_ids  # extra same-type roots found and filtered
    assert wall < 1.0


def test_c1_nonplanar_close_2_recorded_types():
    # Reported: valid solutions of types 1, 2, 5 and 6.  The (regular, +, +)
    # system has no root: its two residual curves run side by side through
    # a chain of cells where both fields change sign, and Newton converges in
    # none of them.  Sampled finely inside those cells, max(|p_i|, |p_f|)
    # stays near 0.046 (a true local minimum of |p| sits at (-1.150,
    # -1.186)), so the valid set is {2, 5, 6}.
    inst, cands, valid, invalid, wall = solved("nonplanar_close_2")
    got = sorted(c.type_id for c in valid)
    t1 = SolutionType.from_id(1)
    window = GridWindow.for_instance(inst)
    cmap = build_contours(inst, t1, window)
    t1_roots = refine_roots(inst, cmap)
    cells = cmap.intersection_cells()
    h_i, h_f = cmap.h_i_nodes, cmap.h_f_nodes
    cell_windows = [GridWindow((h_i[i], h_i[i + 1]), (h_f[j], h_f[j + 1]), 32) for i, j in cells]
    floor = min((residual_floor(build_contours(inst, t1, w)) for w in cell_windows), default=math.inf)
    expected_filtered = [
        (3, 0.458, -5.236, "regular_backward"),
        (5, -0.382, -1.496, "switched_forward"),
        (7, 0.288, -1.773, "switched_forward"),
    ]
    same = same_roots(root_table(invalid), expected_filtered)
    ok = got == [2, 5, 6] and not t1_roots and len(cells) > 0 and floor >= 0.04 and same
    detail = f"valid={got} t1_cells={len(cells)} t1_floor={floor:.4f} wall={wall:.3f}s"
    report("criterion 1: nonplanar_close_2 record", ok, detail)
    assert wall < 1.0
    assert got == [2, 5, 6]
    assert same, root_table(invalid)
    assert t1_roots == []
    assert len(cells) > 0  # the near-miss is in the window, so the floor below is not vacuous
    assert floor >= 0.04, f"type-1 residual sampled down to {floor} inside its sign-change cells"


# ----------------------------------------------------------------------------
# criterion 2: seed-sensitivity case


def test_c2_recorded_type6_root_count_in_default_window():
    # Reported: exactly 2 type-6 roots in the window.  The window holds
    # three roots of the switched (+,-) system: the two directionally valid
    # ones (the recorded root among them) and a small filtered root near the
    # origin.  That third root is nondegenerate (det J near 1), so it is a
    # true root of the equations, and the solver must find all three.
    inst = load_bundled("seed_sensitivity").instance
    t6 = SolutionType.from_id(6)
    window = GridWindow.for_instance(inst)
    roots = enumerate_roots(inst, t6, window)
    cands = [SolutionCandidate(t6, hp, *residuals(inst, t6, hp), 0, hp) for hp in roots]
    table = root_table(cands)
    expected = [
        (6, -3.327, 1.936, "ok"),
        (6, -1.804, 3.003, "ok"),
        (6, -0.116, 0.070, "switched_forward"),
    ]
    filtered = [c for c in cands if not check_directionality(c).valid]
    dets = [jacobian(inst, t6, c.hp)[0].det() for c in filtered]
    mine = [c.hp for c in solve_all(inst) if c.stype == t6 and window.contains(c.hp)]
    found_all = len(mine) == len(roots) and all(
        any(max(abs(a.h_i - b.h_i), abs(a.h_f - b.h_f)) < 1e-6 for a in mine) for b in roots
    )
    ok = same_roots(table, expected) and len(dets) == 1 and abs(dets[0]) > 0.5 and found_all
    report("criterion 2: type-6 root count record", ok, f"found {len(roots)} roots, filtered det J={dets}")
    assert same_roots(table, expected), table
    assert sum(check_directionality(c).valid for c in cands) == 2
    assert len(dets) == 1 and abs(dets[0]) > 0.5
    assert all(c.residual.max_abs() <= 1e-9 * inst.radius for c in cands)
    assert found_all, (mine, roots)


def test_c2_two_valid_type6_roots_and_recorded_offsets():
    inst = load_bundled("seed_sensitivity").instance
    t6 = SolutionType.from_id(6)
    roots = enumerate_roots(inst, t6, GridWindow.for_instance(inst))
    valid = []
    for hp in roots:
        res, geo = residuals(inst, t6, hp)
        cand = SolutionCandidate(t6, hp, res, geo, 0, hp)
        if check_directionality(cand).valid:
            valid.append(hp)
    recorded = [c for c in solve_all(inst) if abs(c.hp.h_i + 1.804) <= 1e-2 and abs(c.hp.h_f - 3.004) <= 1e-2]
    ok = len(valid) == 2 and len(recorded) >= 1
    report("criterion 2: valid pair + recorded root", ok, f"valid_t6={len(valid)} recorded_found={len(recorded)}")
    assert len(valid) == 2
    assert recorded, "solver did not reproduce the recorded root (-1.804, 3.004)"


# ----------------------------------------------------------------------------
# criterion 3: analytic Jacobian vs central finite differences, 1000 samples


def test_c3_jacobian_finite_difference_1000():
    rng = np.random.default_rng(2024)
    step = 1e-6
    checked = 0
    worst = 0.0
    while checked < 1000:
        inst = instance(
            tuple(rng.uniform(-6, 6, 3)),
            tuple(rng.normal(size=3)),
            tuple(rng.uniform(-6, 6, 3)),
            tuple(rng.normal(size=3)),
        )
        stype = ALL_TYPES[rng.integers(0, 8)]
        hp = HPair(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        try:
            _, geo = residuals(inst, stype, hp)
        except Exception:
            continue
        g = -geo.hdir if stype.switched else geo.hdir
        if (geo.h_pt_f - geo.h_pt_i).norm() < 0.5:
            continue
        if inst.start.direction.cross(g).norm() < 0.1 or inst.goal.direction.cross(g).norm() < 0.1:
            continue
        jac, _ = jacobian(inst, stype, hp)
        fd = []
        for dhi, dhf in ((step, 0.0), (0.0, step)):
            plus, _ = residuals(inst, stype, HPair(hp.h_i + dhi, hp.h_f + dhf))
            minus, _ = residuals(inst, stype, HPair(hp.h_i - dhi, hp.h_f - dhf))
            fd.append(((plus.p_i - minus.p_i) / (2 * step), (plus.p_f - minus.p_f) / (2 * step)))
        pairs = zip((jac.dpi_dhi, jac.dpf_dhi, jac.dpi_dhf, jac.dpf_dhf), (*fd[0], *fd[1]))
        for got, want in pairs:
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
        checked += 1
    report("criterion 3: jacobian vs finite differences", worst < 1e-6, f"worst rel err {worst:.2e} over 1000")
    assert worst < 1e-6


# ----------------------------------------------------------------------------
# criterion 4: solver/oracle root-set agreement on 100 random instances


def random_noncollinear_instance(rng):
    while True:
        xi = rng.uniform(-6, 6, 3)
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


def test_c4_solver_oracle_agreement_100():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    opts = SolverOptions(seed=None)
    mismatches = []
    for case in range(100):
        inst = random_noncollinear_instance(rng)
        window = GridWindow.for_instance(inst)
        sol = solve_all(inst, opts)
        every = enumerate_all_types(inst, window)
        for stype in ALL_TYPES:
            mine = [c.hp for c in sol if c.stype == stype and window.contains(c.hp)]
            oracle = every[stype.type_id]
            match = len(mine) == len(oracle) and all(
                any(max(abs(a.h_i - b.h_i), abs(a.h_f - b.h_f)) < 1e-6 for b in oracle) for a in mine
            )
            if not match:
                mismatches.append((case, stype.type_id, mine, oracle))
    wall = time.perf_counter() - t0
    ok = not mismatches and wall < 300.0
    report("criterion 4: solver/oracle agreement", ok, f"{len(mismatches)} mismatches, {wall:.0f}s")
    assert not mismatches, mismatches[:3]
    assert wall < 300.0


# ----------------------------------------------------------------------------
# criterion 5: every valid solution yields a geometrically verified path


def test_c5_path_validity_suite():
    names = (
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
    checked = 0
    for name in names:
        inst = load_bundled(name).instance
        for cand in solve_all(inst):
            if not check_directionality(cand).valid:
                continue
            rep = verify_path(extract_path(cand, inst), inst, tol=1e-8 * inst.radius)
            assert rep.ok, (name, cand.stype, rep.failures())
            checked += 1
    report("criterion 5: path validity suite", True, f"{checked} paths verified at 1e-8")
    assert checked >= 29


# ----------------------------------------------------------------------------
# criterion 6: sweep symmetries at 61x61, single (0,0) seed


def test_c6_planar_aligned_slice_mirror():
    result = run_sweep(SweepSpec("planar", ("angle", 0.0), steps=61))
    same = np.array_equal(result.counts, result.counts[::-1, :])
    report("criterion 6: planar aligned-heading mirror", same)
    assert same


def test_c6_nonplanar_axis_slice_constant():
    result = run_sweep(SweepSpec("nonplanar", ("x", 0.0), steps=61))
    constant = all((result.counts[i, :] == result.counts[i, 0]).all() for i in range(61))
    report("criterion 6: on-axis slice constant in angle", constant)
    assert constant


def test_c6_nonplanar_angle_pair_mirror():
    a = run_sweep(SweepSpec("nonplanar", ("angle", 2.0), steps=61))
    b = run_sweep(SweepSpec("nonplanar", ("angle", math.pi - 2.0), steps=61))
    same = np.array_equal(a.counts, b.counts[::-1, :])
    report("criterion 6: angle-pair mirror slices", same)
    assert same


# ----------------------------------------------------------------------------
# criterion 7: gradient ablation on 1000 random cases


def test_c7_gradient_ablation_1000():
    rows = run_gradient_study(1000, rng_seed=4242)
    ge = sum(r.n_with_gradient >= r.n_without_gradient for r in rows)
    frac_ge = ge / len(rows)
    strict = [r for r in rows if r.n_with_gradient > r.n_without_gradient]
    near = sum(1 for r in strict if r.distance < 4.0)
    concentrated = (near / len(strict) >= 0.5) if strict else True
    detail = f"with>=without in {frac_ge:.1%}; {len(strict)} strict wins, {near} below 4r"
    report("criterion 7: gradient ablation", frac_ge >= 0.90 and concentrated, detail)
    assert frac_ge >= 0.90
    assert concentrated


# ----------------------------------------------------------------------------
# criterion 8: performance ceiling


def test_c8_performance_ceiling():
    names = ("planar_far", "planar_close", "nonplanar_far", "nonplanar_close", "seed_sensitivity")
    details = []
    worst = 0.0
    for name in names:
        inst = load_bundled(name).instance
        solve_all(inst)  # warm
        t0 = time.perf_counter()
        solve_all(inst)
        wall = time.perf_counter() - t0
        worst = max(worst, wall)
        details.append(f"{name}={wall * 1e3:.0f}ms")
    report("criterion 8: performance", worst < 1.0, " ".join(details) + " (target 0.2s, ceiling 1s)")
    assert worst < 1.0  # binding ceiling; 0.2 s is the reported target
