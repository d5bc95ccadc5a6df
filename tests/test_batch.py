"""The vectorized evaluation core must agree with the scalar reference."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from dubins3d import batch as batch_mod
from dubins3d.batch import (
    LADDER_ELEMS,
    MAX_HALVINGS,
    PAD_STEP,
    NewtonResult,
    RayBatch,
    directionally_valid,
    eval_ahead,
    eval_fd_jacobian,
    eval_jacobian,
    eval_residuals,
    frame,
    _pad,
    _pad_size,
    newton,
)
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
from dubins3d.oracle import GridWindow, sample_contours
from dubins3d.solver import SolutionCandidate, solve_all
from dubins3d.studies import SweepSpec, run_sweep


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
        rb = RayBatch.from_instance(inst)
        for stype in ALL_TYPES:
            code = stype.type_id - 1
            p_i, p_f = eval_residuals(rb, code, his / r, hfs / r)
            J = eval_jacobian(rb, code, his / r, hfs / r)
            p_i, p_f = p_i * r, p_f * r
            ahead = eval_ahead(rb, code, his / r, hfs / r)
            valid = directionally_valid(code, ahead)
            ahead = ahead * r
            for k in range(32):
                try:
                    res, geo = residuals(inst, stype, HPair(his[k], hfs[k]))
                except (CoincidentHPoints, ParallelDirections):
                    assert not np.isfinite(p_i[k]) or not np.isfinite(p_f[k])
                    continue
                assert p_i[k] == pytest.approx(res.p_i, rel=1e-12, abs=1e-12)
                assert p_f[k] == pytest.approx(res.p_f, rel=1e-12, abs=1e-12)
                jac_ref = jacobian(inst, stype, HPair(his[k], hfs[k]))
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
    assert directionally_valid(0, ahead).tolist() == [False, True, True, True, True, False]
    assert directionally_valid(4, ahead).tolist() == [True, True, True, True, False, False]


def test_fd_jacobian_close_to_analytic():
    rng = np.random.default_rng(12)
    inst = random_instance(rng)
    rb = RayBatch.from_instance(inst)
    his = rng.uniform(-4, 4, 64)
    hfs = rng.uniform(-4, 4, 64)
    for code in (0, 1):
        J = eval_jacobian(rb, code, his, hfs)
        F = eval_fd_jacobian(rb, code, his, hfs)
        for a, f in zip(J, F):
            mask = np.isfinite(a) & np.isfinite(f)
            assert np.all(np.abs(a[mask] - f[mask]) <= 1e-5 * np.maximum(1.0, np.abs(f[mask])))


def test_newton_polishes_seeds_near_roots():
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb = RayBatch.from_instance(inst)
    stype = ALL_TYPES[0]
    res = newton(rb, codes([stype] * 2), np.array([-0.3, 5.0]), np.array([-0.8, 5.0]))
    assert res.converged[0]
    assert max(abs(res.p_i[0]), abs(res.p_f[0])) <= 1e-9
    # re-check through the scalar path
    ref, _ = residuals(inst, stype, HPair(float(res.h_i[0]), float(res.h_f[0])))
    assert ref.max_abs() <= 1e-9


def test_newton_zero_iterations_at_root():
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb = RayBatch.from_instance(inst)
    stype = ALL_TYPES[0]
    first = newton(rb, codes([stype]), np.array([0.0]), np.array([0.0]))
    assert first.converged[0]
    again = newton(rb, codes([stype]), first.h_i, first.h_f)
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
    rb = RayBatch.from_instance(inst)
    res = newton(rb, codes(ALL_TYPES[:1]), np.array([0.0]), np.array([0.0]), use_gradient=False)
    assert res.converged[0]
    assert calls["fd"] > 0
    calls["fd"] = 0
    newton(rb, codes(ALL_TYPES[:1]), np.array([0.0]), np.array([0.0]), use_gradient=True)
    assert calls["fd"] == 0


def test_newton_instance_arrays_per_element():
    # one batch solving two different goal positions at once
    zs = np.array([3.0, 4.0])
    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (np.array([-1.0, -1.0]), np.zeros(2), zs), (math.sqrt(0.5), 0.0, math.sqrt(0.5)))
    res = newton(rb, codes(ALL_TYPES[:1] * 2), np.zeros(2), np.zeros(2))
    assert res.converged.all()
    for k, z in enumerate(zs):
        inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, z), (1, 0, 1))
        ref, _ = residuals(inst, ALL_TYPES[0], HPair(float(res.h_i[k]), float(res.h_f[k])))
        assert ref.max_abs() <= 1e-9
    assert res.h_i[0] != res.h_i[1]


def codes(stypes):
    """The type code of every type in stypes."""
    return np.array([t.type_id - 1 for t in stypes], np.int8)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


NEWTON_FIELDS = tuple(f.name for f in dataclasses.fields(NewtonResult))


def batch_of(insts, per=1):
    """The instances in units of r, each as per consecutive elements."""
    units = [inst.in_radius_units() for inst in insts]
    rays = [(u.start.position, u.start.direction, u.goal.position, u.goal.direction) for u in units]
    joined = lambda f: tuple(np.repeat([ray[f].as_tuple()[k] for ray in rays], per) for k in range(3))
    return RayBatch.build(joined(0), joined(1), joined(2), joined(3))


def mixed_batch(rng, per=40):
    """Elements on six random pairs and one collinear (everywhere singular)
    pair, each element with a random type and random offsets in units of r."""
    insts = [random_instance(rng) for _ in range(6)] + [instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, 1))]
    n = per * len(insts)
    rb = batch_of(insts, per)
    stypes = [ALL_TYPES[t] for t in rng.integers(0, 8, n)]
    return rb, stypes, rng.uniform(-8, 8, n), rng.uniform(-8, 8, n)


def per_type(stypes):
    """(type, indices of its elements) for every type present."""
    for stype in ALL_TYPES:
        sel = np.flatnonzero([t == stype for t in stypes])
        if sel.size:
            yield stype, sel


def test_mixed_type_evaluations_equal_per_type_calls_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(4):
        rb, stypes, hi, hf = mixed_batch(rng)
        types = codes(stypes)
        fused = {
            "res": eval_residuals(rb, types, hi, hf),
            "jac": eval_jacobian(rb, types, hi, hf),
            "fd": eval_fd_jacobian(rb, types, hi, hf),
        }
        ahead = eval_ahead(rb, types, hi, hf)
        assert np.isnan(ahead).any() and np.isfinite(ahead).any()
        valid = directionally_valid(types, ahead)
        for stype, sel in per_type(stypes):
            sub = rb.take(sel)
            code = stype.type_id - 1
            want = {
                "res": eval_residuals(sub, code, hi[sel], hf[sel]),
                "jac": eval_jacobian(sub, code, hi[sel], hf[sel]),
                "fd": eval_fd_jacobian(sub, code, hi[sel], hf[sel]),
            }
            for name in want:
                for a, b in zip(fused[name], want[name]):
                    assert _same_bits(a[sel], b), (stype, name)
            sub_ahead = eval_ahead(sub, code, hi[sel], hf[sel])
            assert _same_bits(ahead[sel], sub_ahead), stype
            assert _same_bits(valid[sel], directionally_valid(code, sub_ahead)), stype
            # an array of one code is the same as the code itself
            assert _same_bits(eval_ahead(sub, codes([stype] * sel.size), hi[sel], hf[sel]), sub_ahead)


@pytest.mark.parametrize("use_gradient,max_iters,h_limit", [(True, 100, 40.0), (False, 100, np.inf), (True, 4, np.inf)])
def test_mixed_type_newton_equals_per_type_newton_bitwise(use_gradient, max_iters, h_limit):
    # elements converge, run away, plateau, hit singular geometry or run
    # out of iterations at different steps, so every shrink mixes types
    rng = np.random.default_rng(22)
    rb, stypes, hi, hf = mixed_batch(rng, per=60)
    kw = dict(max_iters=max_iters, use_gradient=use_gradient, h_limit=h_limit)
    fused = newton(rb, codes(stypes), hi, hf, **kw)
    assert 0 < fused.converged.sum() < hi.size
    for stype, sel in per_type(stypes):
        one = newton(rb.take(sel), codes([stype] * sel.size), hi[sel], hf[sel], **kw)
        for name in NEWTON_FIELDS:
            assert _same_bits(getattr(fused, name)[sel], getattr(one, name)), (stype, name)


@pytest.mark.parametrize("kw", [dict(h_limit=40.0), dict(use_gradient=False), dict(max_iters=4)])
def test_newton_batch_equals_one_element_runs_bitwise(kw):
    # a shrinking batch is padded with copies of live elements; a batch of
    # one is never padded, and elements never interact
    rng = np.random.default_rng(23)
    rb, stypes, hi, hf = mixed_batch(rng, per=12)
    whole = newton(rb, codes(stypes), hi, hf, **kw)
    assert 0 < whole.converged.sum() < hi.size
    for q in range(hi.size):
        one = newton(rb.take(np.array([q])), codes(stypes[q : q + 1]), hi[q : q + 1], hf[q : q + 1], **kw)
        for name in NEWTON_FIELDS:
            assert _same_bits(getattr(whole, name)[q : q + 1], getattr(one, name)), (q, name)


def reference_newton(rb, code, hi, hf, max_iters=100, use_gradient=True, h_limit=np.inf):
    """newton's rules for one element, with one-element evaluations and one
    step length per evaluation: its (h_i, h_f, p_i, p_f, converged,
    iterations, halvings), as newton gives them, and the rule that ended it."""
    one = lambda x: np.array([x], float)
    types = np.array([code], np.int8)
    tol = batch_mod.DEFAULT_RESIDUAL_TOL
    h = one(hi), one(hf)
    p = batch_mod.eval_residuals(rb, types, *h)
    fn = np.hypot(*p)
    halvings = 0

    def end(rule, k=None):
        hp = (one(hi), one(hf), one(np.nan), one(np.nan)) if k is None else h + p
        out = (*hp, np.array([k is not None]), np.array([k or 0], np.int64), np.array([halvings], np.int64))
        return out, rule

    if not np.isfinite(fn[0]):
        return end("singular start")
    hist = [fn]
    for k in range(max_iters + 1):
        if max(abs(p[0][0]), abs(p[1][0])) <= tol:
            return end({0: "converged at 0", max_iters: "converged at max_iters"}.get(k, "converged"), k)
        if k == max_iters:
            return end("out of iterations")
        jac = batch_mod.eval_jacobian if use_gradient else batch_mod.eval_fd_jacobian
        jii, jif, jfi, jff = jac(rb, types, *h)
        det = jii * jff - jif * jfi
        if not (np.isfinite(det[0]) and abs(det[0]) > 1e-14):
            return end("degenerate Jacobian")
        dhi = (-p[0] * jff + p[1] * jif) / det
        dhf = (-p[1] * jii + p[0] * jfi) / det
        for j in range(MAX_HALVINGS):
            t = h[0] + 0.5**j * dhi, h[1] + 0.5**j * dhf
            tp = batch_mod.eval_residuals(rb, types, *t)
            tfn = np.hypot(*tp)
            if np.isfinite(tfn[0]) and tfn[0] < fn[0]:
                h, p, fn = t, tp, tfn
                halvings += j
                break
        else:
            halvings += MAX_HALVINGS
            return end("no step")
        near = max(abs(p[0][0]), abs(p[1][0])) <= tol
        if len(hist) >= batch_mod.PLATEAU_WINDOW and not fn[0] <= batch_mod.PLATEAU_FACTOR * hist[-batch_mod.PLATEAU_WINDOW][0]:
            return end("plateau within tolerance" if near else "plateau")
        if abs(h[0][0]) > h_limit or abs(h[1][0]) > h_limit:
            return end("runaway within tolerance" if near else "runaway")
        hist = (hist + [fn])[-batch_mod.PLATEAU_WINDOW :]


def crafted_batch():
    """Elements, in units of r, that fire the rules a random batch seldom
    does: a type-5 root and seeds near roots with |h| about 55 on a far
    pair (r = 1), and a seed 1e-6 above the singular line h_f = -1 of a
    planar pair, where a central difference lands on that line."""
    far = instance((0, 0, 0), (1, 0, 0), (100, 3, 2), (1, 0, 0))
    planar = instance((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    root = -55.488041523684686
    elements = [(far, 4, root, root), (far, 4, root + 1e-3, root - 1e-3), (far, 7, 1e-3 - root, -root), (planar, 0, 0.3, 1e-6 - 1)]
    insts, stypes, hi, hf = zip(*elements)
    return batch_of(insts), [ALL_TYPES[c] for c in stypes], np.array(hi), np.array(hf)


RULES = {
    "singular start",
    "converged at 0",
    "converged",
    "converged at max_iters",
    "out of iterations",
    "degenerate Jacobian",
    "no step",
    "plateau",
    "plateau within tolerance",
    "runaway",
    "runaway within tolerance",
}


def check_reference(rb, stypes, hi, hf, **kw):
    """Assert that newton gives every element reference_newton's bits;
    returns the rules that fired."""
    got = newton(rb, codes(stypes), hi, hf, **kw)
    fired = set()
    for q in range(hi.size):
        want, rule = reference_newton(rb.take(np.array([q])), stypes[q].type_id - 1, hi[q], hf[q], **kw)
        fired.add(rule)
        for name, w in zip(NEWTON_FIELDS, want):
            assert _same_bits(getattr(got, name)[q : q + 1], w), (kw, q, name, rule)
    return fired


def test_newton_equals_per_element_reference_bitwise(monkeypatch):
    # each element of a mixed and a crafted batch under the settings of the
    # other bitwise tests
    rng = np.random.default_rng(28)
    fired = set()
    for use_gradient, max_iters, h_limit in [(True, 100, 40.0), (False, 100, np.inf), (True, 4, np.inf)]:
        kw = dict(max_iters=max_iters, use_gradient=use_gradient, h_limit=h_limit)
        for case in (mixed_batch(rng, per=30), crafted_batch()):
            fired |= check_reference(*case, **kw)
    # a Jacobian 400 times too steep cuts the residual by 0.25% a step, so
    # from 1.0063e-9 it plateaus on the step that brings it within
    # tolerance, and is dropped there
    inst = instance((0, 0, 0), (0, 0, 1), (-1, 0, 3), (1, 0, 1))
    rb, types = batch_of([inst]), codes(ALL_TYPES[:1])
    root = newton(rb, types, np.zeros(1), np.zeros(1))
    jac = np.array(eval_jacobian(rb, types, root.h_i, root.h_f)).reshape(2, 2)
    dhi, dhf = np.linalg.solve(jac, [1.0063e-9, 0.0])
    real = batch_mod.eval_jacobian
    monkeypatch.setattr(batch_mod, "eval_jacobian", lambda *a: tuple(400.0 * j for j in real(*a)))
    fired |= check_reference(rb, ALL_TYPES[:1], root.h_i + dhi, root.h_f + dhf)
    assert fired == RULES, RULES - fired


def test_pad_ladder():
    for m, cap, size in [(0, 8, 0), (1, 8, 1), (3, 8, 4), (5, 5, 5), (16, 99, 16), (17, 99, 32), (33, 40, 40), (600, 656, 608)]:
        pos = 3 * np.arange(m)
        got = _pad(pos, cap)
        assert got.size == size and (got[:m] == pos).all() and set(got[m:].tolist()) <= set(pos.tolist())


def on_ladder(size, cap):
    return size == cap or (size <= PAD_STEP and size & (size - 1) == 0) or size % PAD_STEP == 0


def test_newton_evaluates_ladder_sizes_only(monkeypatch):
    sizes = set()
    real = batch_mod.eval_residuals

    def counting(batch, stype, hi, hf):
        sizes.add(np.size(hi))
        return real(batch, stype, hi, hf)

    monkeypatch.setattr(batch_mod, "eval_residuals", counting)
    rng = np.random.default_rng(24)
    for _ in range(5):
        solve_all(random_instance(rng))
    # 8 types x 82 seeds, then ladder sizes only
    assert 656 in sizes and len(sizes) > 5
    assert all(on_ladder(s, 656) for s in sizes), sorted(sizes)


def test_line_search_holds_to_its_element_budget(monkeypatch):
    # a robust 3x3 slice is one Newton batch of 8 types x 82 seeds x 9 cells,
    # so the budget, not the batch's first size, bounds its ladders
    searches = []  # per line search: pending elements, cap, call sizes
    calls = None  # the sizes of the running line search's calls
    real_search, real_eval = batch_mod._line_search, batch_mod.eval_residuals

    def search(*args):
        nonlocal calls
        calls = []
        searches.append((args[-2].size, args[-1], calls))
        try:
            return real_search(*args)
        finally:
            calls = None

    def counting(batch, stype, hi, hf):
        if calls is not None:
            calls.append(np.size(hi))
        return real_eval(batch, stype, hi, hf)

    monkeypatch.setattr(batch_mod, "_line_search", search)
    monkeypatch.setattr(batch_mod, "eval_residuals", counting)
    run_sweep(SweepSpec("planar", ("z", 1.0), steps=3, robust_seeds=True))
    assert searches and {cap for _, cap, _ in searches} == {8 * 82 * 9}
    bound = 0
    for n, cap, sizes in searches:
        assert sizes and all(on_ladder(s, cap) and s <= max(LADDER_ELEMS, _pad_size(n, cap)) for s in sizes), (n, sizes)
        # the first call tests min(cap, LADDER_ELEMS) // n rungs, at least
        # one and at most MAX_HALVINGS
        rungs = max(1, min(LADDER_ELEMS // n, MAX_HALVINGS))
        assert sizes[0] == _pad_size(n * rungs, cap), (n, sizes)
        bound += min(cap // n, MAX_HALVINGS) > rungs
    assert bound > 0


def sequential_line_search(batch, types, hi, hf, p_i, p_f, fn, dhi, dhf, pend, cap):
    """The line search without the step ladder: all pending elements try one
    step length per kernel call, halved after every call."""
    spent = np.full(hi.size, MAX_HALVINGS)
    lam = 1.0
    for k in range(MAX_HALVINGS):
        if pend.size == 0:
            break
        at = _pad(pend, hi.size)
        thi = hi[at] + lam * dhi[at]
        thf = hf[at] + lam * dhf[at]
        tpi, tpf = batch_mod.eval_residuals(batch.take(at), types[at], thi, thf)
        tfn = np.hypot(tpi, tpf)
        good = np.isfinite(tfn) & (tfn < fn[at])
        sel = at[good]
        hi[sel] = thi[good]
        hf[sel] = thf[good]
        p_i[sel] = tpi[good]
        p_f[sel] = tpf[good]
        fn[sel] = tfn[good]
        spent[sel] = k
        pend = pend[~good[: pend.size]]
        lam *= 0.5
    return spent


def many_instance_batch(rng, n=160):
    """n random pairs in units of r, one element each."""
    pos = lambda: tuple(rng.uniform(-6, 6, (3, n)))
    unit = lambda: tuple((v := rng.normal(size=(3, n))) / np.linalg.norm(v, axis=0))
    return RayBatch.build(pos(), unit(), pos(), unit()), rng.uniform(-8, 8, n), rng.uniform(-8, 8, n)


@pytest.mark.parametrize("kw", [dict(h_limit=40.0), dict(use_gradient=False), dict(max_iters=4)])
def test_step_ladder_equals_sequential_halving_bitwise(kw, monkeypatch):
    rng = np.random.default_rng(26)
    rb, stypes, hi, hf = mixed_batch(rng, per=30)
    many, mhi, mhf = many_instance_batch(rng)
    # above the ladder's element budget: budget-bound calls first, then
    # ladders of many rungs for the stragglers
    large, lhi, lhf = many_instance_batch(rng, n=3000)
    cases = [
        (rb, codes(stypes), hi, hf),
        (many, codes(ALL_TYPES[2:3] * mhi.size), mhi, mhf),
        (large, rng.integers(0, 8, lhi.size).astype(np.int8), lhi, lhf),
    ]
    calls = {"n": 0}
    real = batch_mod.eval_residuals

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "eval_residuals", counting)
    ladder = [newton(*case, **kw) for case in cases]
    ladder_calls, calls["n"] = calls["n"], 0
    monkeypatch.setattr(batch_mod, "_line_search", sequential_line_search)
    for case, got in zip(cases, ladder):
        want = newton(*case, **kw)
        assert (want.halvings > 0).any() and 0 < want.converged.sum() < want.converged.size
        for name in NEWTON_FIELDS:
            assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert ladder_calls < calls["n"]


def test_many_instance_frame_equals_single_instance_frame_bitwise():
    # the collinear pair of the mixed batch is singular everywhere
    rng = np.random.default_rng(27)
    rb, _, hi, hf = mixed_batch(rng, per=8)
    many = frame(rb, hi, hf)
    assert np.isnan(many[3]).any() and np.isfinite(many[3]).any()
    for q in range(hi.size):
        one = frame(RayBatch(rb.inv[:, rb.row[q]], None), hi[q : q + 1], hf[q : q + 1])
        for got, want in zip(many, one):
            assert _same_bits(got[q : q + 1], np.broadcast_to(want, (1,))), q
    # on one planar instance, singular on the line h_f = -1 (w parallel to
    # v_i) and the line h_i = 1 (w parallel to v_f): a column of h_i and a
    # row of h_f, as the oracle's blocks, and the oracle's (2, 1, m) x
    # (1, 2, m) corners of m cells, each against the gathered path
    single = RayBatch.from_instance(instance((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
    nodes = np.linspace(-3, 3, 7), np.linspace(-4, 2, 7)
    i, j = np.divmod(np.arange(36), 6)
    corner = np.array([[0], [1]])
    cases = [
        (nodes[0][:, None], nodes[1][None, :], 13),
        (nodes[0][i + corner][:, None], nodes[1][j + corner][None], 44),
    ]
    for col, row, singular in cases:
        shared = frame(single, col, row)
        shape = np.broadcast_shapes(col.shape, row.shape)
        h_i, h_f = (np.ravel(v) for v in np.broadcast_arrays(col, row))
        flat = frame(RayBatch(single.inv[:, None], np.zeros(h_i.size, np.intp)), h_i, h_f)
        assert np.isnan(flat[3]).sum() == singular and np.isfinite(flat[3]).any()
        for got, want in zip(shared, flat):
            assert _same_bits(np.broadcast_to(got, shape).ravel(), want)


def test_kernel_emits_no_runtime_warning():
    # singular elements come out NaN without a division by zero, also in a
    # branch np.where does not select: the collinear pair of the mixed batch
    # is singular everywhere, and the aligned planar slice has a collinear
    # column.  At (0, 0) the grazing pair's segment is 3e-9 rad off the
    # start heading: regular, not singular, but d rounds to |A| exactly, so
    # d - |A| is 0 there
    rng = np.random.default_rng(25)
    collinear = instance((0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 0, 1))
    grazing = instance((0, 0, 0), (0, 0, 1), (1.5e-8, 0, 5), (1, 0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zeros = np.zeros(8)
        gb, gtypes = RayBatch.from_instance(grazing), codes(ALL_TYPES)
        p_i, p_f = eval_residuals(gb, gtypes, zeros, zeros)
        J = eval_jacobian(gb, gtypes, zeros, zeros)
        assert np.isfinite(p_i).all() and np.isfinite(p_f).all() and all(np.isfinite(j).all() for j in J)
        for kw in (dict(h_limit=40.0), dict(use_gradient=False)):
            rb, stypes, hi, hf = mixed_batch(rng)
            types = codes(stypes)
            p_i, _ = eval_residuals(rb, types, hi, hf)
            J = eval_jacobian(rb, types, hi, hf)
            assert np.isnan(p_i).any() and np.isnan(J[1]).any()
            eval_fd_jacobian(rb, types, hi, hf)
            eval_ahead(rb, types, hi, hf)
            newton(rb, types, hi, hf, **kw)
        assert all(np.isnan(c.p_i).all() for c in sample_contours(collinear, GridWindow.square(6.0, 32)))
        run_sweep(SweepSpec("planar", ("angle", 0.0), steps=21))
