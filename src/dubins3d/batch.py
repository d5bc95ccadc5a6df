"""Vectorized evaluation and damped-Newton iteration over element batches.

A batch couples per-element problem data (start/goal rays, each component a
scalar or an (N,) array) and per-element solution types (the three signs of
`SolutionType`, each a scalar or an (N,) array) with per-element offsets, so
the same machinery serves every workload: all types from many seeds on one
problem (multistart), seeds on many problems at once (parameter sweeps), and
grid refinement of every type's cells.  Singular evaluations yield NaN and
the owning element is dropped rather than patched; `newton` pads what is left
with copies of live elements to a few fixed sizes.  A batch holds instances
scaled to unit radius, so offsets, residuals, tolerances and floors here are
all in units of r.

The formulas duplicate the scalar reference in `residual`; the test suite
pins the two implementations against each other, and every root `solve_all`
accepts is re-verified through the scalar path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geom import EPS_ZERO, ProblemInstance
from .residual import EPS_SING, SolutionType

# Step control: halve the Newton step until the residual norm decreases, at
# most this many times, then give up on the element.
MAX_HALVINGS = 20
# Elements whose residual norm has not improved by 1% over this many
# iterations are abandoned as non-converging (they hug singular ridges).
PLATEAU_WINDOW = 3
PLATEAU_FACTOR = 0.99
# Batch sizes newton shrinks to: powers of two up to PAD_STEP, then
# multiples of PAD_STEP (see _pad).
PAD_STEP = 16

Components = tuple[np.ndarray, np.ndarray, np.ndarray]


def _as_components(v, n: int) -> Components:
    arrs = tuple(np.broadcast_to(np.asarray(c, float), (n,)) for c in v)
    return arrs  # type: ignore[return-value]


@dataclass
class RayBatch:
    """Per-element problem data as component arrays of a common length."""

    xi: Components
    vi: Components
    xf: Components
    vf: Components

    @classmethod
    def build(cls, xi, vi, xf, vf, n: int) -> "RayBatch":
        return cls(_as_components(xi, n), _as_components(vi, n), _as_components(xf, n), _as_components(vf, n))

    @classmethod
    def from_instance(cls, inst: ProblemInstance, n: int) -> "RayBatch":
        """One problem instance, scaled to unit radius, broadcast to n
        elements."""
        u = inst.in_radius_units()
        rays = (u.start.position, u.start.direction, u.goal.position, u.goal.direction)
        return cls.build(*(v.as_tuple() for v in rays), n)

    def take(self, sel: np.ndarray) -> "RayBatch":
        pick = lambda v: tuple(c[sel] for c in v)
        return RayBatch(pick(self.xi), pick(self.vi), pick(self.xf), pick(self.vf))

    def __len__(self) -> int:
        return self.xi[0].shape[0]


@dataclass
class TypeBatch:
    """Per-element solution types as (N,) arrays of their three signs:
    direction (-1.0 where switched), start_sign and end_sign.

    The evaluations below read a type only through these three attributes,
    which a `SolutionType` has as scalars, so they take one type for every
    element (numpy broadcasts it) or a TypeBatch alike.
    """

    direction: np.ndarray
    start_sign: np.ndarray
    end_sign: np.ndarray

    @classmethod
    def build(cls, stype: "SolutionType | TypeBatch", n: int) -> "TypeBatch":
        """stype's signs broadcast to n elements."""
        signs = (stype.direction, stype.start_sign, stype.end_sign)
        return cls(*(np.broadcast_to(np.asarray(c, float), (n,)) for c in signs))

    @classmethod
    def repeat(cls, stypes: Sequence[SolutionType], counts) -> "TypeBatch":
        """Type-major blocks: stypes[t] for counts[t] elements, or for counts
        elements each when it is an int."""
        signs = ([t.direction for t in stypes], [t.start_sign for t in stypes], [t.end_sign for t in stypes])
        return cls(*(np.repeat(np.asarray(c, float), counts) for c in signs))

    def take(self, sel: np.ndarray) -> "TypeBatch":
        return TypeBatch(self.direction[sel], self.start_sign[sel], self.end_sign[sel])


def _geometry(batch: RayBatch, stype: SolutionType | TypeBatch, hi: np.ndarray, hf: np.ndarray):
    """Geometry shared by the residuals and the directional test.

    Returns (pt_i, pt_f, d, g, ends, bad): the offset points, their distance
    d, the segment direction g = (pt_f - pt_i) / d (reversed for switched
    types), per end the tuple (v x g, |v x g|, g . v), and the mask of
    singular elements, whose d and cross norms are set to 1.  At Newton batch sizes it does not matter which
    parts a caller keeps: holding the whole tuple and dropping the offset
    points early both cost about 1 minor page fault per `solve_all` (656
    elements) and 2 per robust 3 x 3 sweep (738 per batch), with peak RSS
    within 0.15 MB.  On large grids keep only what is used, as
    `oracle.sample_contours` does.
    """
    xi, vi, xf, vf = batch.xi, batch.vi, batch.xf, batch.vf
    pt_i = (xi[0] + hi * vi[0], xi[1] + hi * vi[1], xi[2] + hi * vi[2])
    pt_f = (xf[0] + hf * vf[0], xf[1] + hf * vf[1], xf[2] + hf * vf[2])
    w = (pt_f[0] - pt_i[0], pt_f[1] - pt_i[1], pt_f[2] - pt_i[2])
    d = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    bad = d <= EPS_SING
    d = np.where(bad, 1.0, d)
    sgn = stype.direction
    g = (sgn * w[0] / d, sgn * w[1] / d, sgn * w[2] / d)
    ends = []
    for v in (vi, vf):
        cx = (v[1] * g[2] - v[2] * g[1], v[2] * g[0] - v[0] * g[2], v[0] * g[1] - v[1] * g[0])
        n = np.sqrt(cx[0] * cx[0] + cx[1] * cx[1] + cx[2] * cx[2])
        bad = bad | (n <= EPS_SING)
        n = np.where(n <= EPS_SING, 1.0, n)
        gv = g[0] * v[0] + g[1] * v[1] + g[2] * v[2]
        ends.append((cx, n, gv))
    return pt_i, pt_f, d, g, ends, bad


def eval_residuals(
    batch: RayBatch, stype: SolutionType | TypeBatch, hi: np.ndarray, hf: np.ndarray, jac: bool = False
):
    """Residual pair (and optionally Jacobian entries) for every element.

    Returns (p_i, p_f, J) with NaN where the geometry is singular; J is None
    unless requested, else the tuple (dpi_dhi, dpi_dhf, dpf_dhi, dpf_dhf).
    """
    vi, vf = batch.vi, batch.vf
    _, _, d, (gx, gy, gz), ends, bad = _geometry(batch, stype, hi, hf)
    (_, n_i, gv_i), (_, n_f, gv_f) = ends
    p_i = np.where(bad, np.nan, hi + stype.start_sign * (1.0 / n_i) * (1.0 - gv_i))
    p_f = np.where(bad, np.nan, hf + stype.end_sign * (1.0 / n_f) * (1.0 - gv_f))
    if not jac:
        return p_i, p_f, None

    # direction derivatives a_i, a_f, reversed for switched types
    sgn = stype.direction
    hvi = gv_i * sgn  # hdir . v_i
    hvf = gv_f * sgn
    hx, hy, hz = sgn * gx, sgn * gy, sgn * gz
    bix = sgn * (hx * hvi - vi[0]) / d
    biy = sgn * (hy * hvi - vi[1]) / d
    biz = sgn * (hz * hvi - vi[2]) / d
    bfx = sgn * (vf[0] - hx * hvf) / d
    bfy = sgn * (vf[1] - hy * hvf) / d
    bfz = sgn * (vf[2] - hz * hvf) / d

    entries = []
    for (v, sign), ((cxx, cxy, cxz), n, gv) in zip(((vi, stype.start_sign), (vf, stype.end_sign)), ends):
        for bx, by, bz in ((bix, biy, biz), (bfx, bfy, bfz)):
            exx = v[1] * bz - v[2] * by
            exy = v[2] * bx - v[0] * bz
            exz = v[0] * by - v[1] * bx
            dot_cb = cxx * exx + cxy * exy + cxz * exz
            bv = bx * v[0] + by * v[1] + bz * v[2]
            entries.append(sign * (-bv / n - (1.0 - gv) * dot_cb / (n * n * n)))
    J = (
        np.where(bad, np.nan, entries[0] + 1.0),
        np.where(bad, np.nan, entries[1]),
        np.where(bad, np.nan, entries[2]),
        np.where(bad, np.nan, entries[3] + 1.0),
    )
    return p_i, p_f, J


def eval_ahead(batch: RayBatch, stype: SolutionType | TypeBatch, hi: np.ndarray, hf: np.ndarray) -> np.ndarray:
    """Signed separation (c_f - c_i) . hdir used by directional validity.

    NaN where the geometry is singular.
    """
    vi, vf = batch.vi, batch.vf
    pt_i, pt_f, _, g, ends, bad = _geometry(batch, stype, hi, hf)
    sgn = stype.direction
    h = (sgn * g[0], sgn * g[1], sgn * g[2])
    centers = []
    for v, off, sign, (_, n, _) in zip((vi, vf), (pt_i, pt_f), (stype.start_sign, stype.end_sign), ends):
        scale = sign / n
        centers.append(tuple(off[k] + scale * (v[k] - g[k]) for k in range(3)))
    c_i, c_f = centers
    ahead = sum((c_f[k] - c_i[k]) * h[k] for k in range(3))
    return np.where(bad, np.nan, ahead)


def directionally_valid(stype: SolutionType | TypeBatch, ahead: np.ndarray) -> np.ndarray:
    """Array form of `path.check_directionality` on eval_ahead's output.

    Regular roots need the goal-side circle ahead, switched roots behind it,
    both within EPS_ZERO r; NaN (singular geometry) is never valid.
    """
    return stype.direction * ahead >= -EPS_ZERO


def eval_fd_jacobian(
    batch: RayBatch, stype: SolutionType | TypeBatch, hi: np.ndarray, hf: np.ndarray, step: float = 1e-6
):
    """Central finite-difference Jacobian (the gradient-free solver mode)."""
    pi_a, pf_a, _ = eval_residuals(batch, stype, hi + step, hf)
    pi_b, pf_b, _ = eval_residuals(batch, stype, hi - step, hf)
    pi_c, pf_c, _ = eval_residuals(batch, stype, hi, hf + step)
    pi_d, pf_d, _ = eval_residuals(batch, stype, hi, hf - step)
    inv = 0.5 / step
    return ((pi_a - pi_b) * inv, (pi_c - pi_d) * inv, (pf_a - pf_b) * inv, (pf_c - pf_d) * inv)


def _pad(pos: np.ndarray, cap: int) -> np.ndarray:
    """pos followed by a repeat of its first entries, up to the next size of
    a fixed ladder (powers of two up to PAD_STEP, then multiples of it) but
    at most cap.

    A repeated element is an exact copy and evolves exactly like its
    original, so padding changes no result.  It keeps a shrinking batch to
    a few array sizes: numpy caches up to seven freed buffers of every byte
    size under 1 KB, and unpadded 656-element solve_all batches, shrinking
    through every size, grew the malloc heap by 1.2 MB over the first 600
    `plan` operations of the benchmark; padded, it does not grow.
    """
    m = pos.size
    if m == 0:
        return pos
    size = min(1 << (m - 1).bit_length() if m <= PAD_STEP else -(-m // PAD_STEP) * PAD_STEP, cap)
    # size < 2 m, so one partial repeat fills it
    return pos if size == m else np.concatenate((pos, pos[: size - m]))


@dataclass
class NewtonResult:
    h_i: np.ndarray
    h_f: np.ndarray
    p_i: np.ndarray
    p_f: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    def max_abs(self) -> np.ndarray:
        """max(|p_i|, |p_f|) per element (NaN where not converged)."""
        return np.fmax(np.abs(self.p_i), np.abs(self.p_f))


def newton(
    batch: RayBatch,
    stype: SolutionType | TypeBatch,
    hi0: np.ndarray,
    hf0: np.ndarray,
    tol: float,
    max_iters: int = 100,
    use_gradient: bool = True,
    h_limit: float = np.inf,
) -> NewtonResult:
    """Damped Newton iteration on every element of the batch.

    stype is one type for every element or a TypeBatch of one type per
    element; elements never interact, so each one's iterates, residuals and
    iteration count do not depend on what else is in the batch.  An element
    converges when max(|p_i|, |p_f|) <= tol.  Elements are dropped
    when the geometry turns singular with no acceptable backtracked step,
    when the Jacobian degenerates, when progress plateaus, or when the
    iterate runs past h_limit.  What is left is padded with copies of live
    elements to a ladder size (`_pad`); a copy writes the same results to
    the same output slot as its original.
    """
    n_total = len(hi0)
    hi = np.asarray(hi0, float).copy()
    hf = np.asarray(hf0, float).copy()
    out = NewtonResult(
        h_i=hi.copy(),
        h_f=hf.copy(),
        p_i=np.full(n_total, np.nan),
        p_f=np.full(n_total, np.nan),
        converged=np.zeros(n_total, bool),
        iterations=np.zeros(n_total, np.int64),
    )
    # positions [0, live) hold distinct elements, the rest copies of them
    idx, live = np.arange(n_total), n_total
    cur, types = batch, TypeBatch.build(stype, n_total)
    chi, chf = hi, hf
    cpi, cpf, _ = eval_residuals(cur, types, chi, chf)
    cfn = np.hypot(cpi, cpf)
    alive = np.isfinite(cfn)
    hist: list[np.ndarray] = [cfn]

    def shrink(keep: np.ndarray) -> np.ndarray:
        """Keep the distinct elements where `keep` holds, padded with
        fresh copies; returns their positions in the old batch."""
        nonlocal idx, live, cur, types, chi, chf, cpi, cpf, cfn, hist
        sel = np.flatnonzero(keep[:live])
        live = sel.size
        sel = _pad(sel, idx.size)
        idx = idx[sel]
        cur = cur.take(sel)
        types = types.take(sel)
        chi = chi[sel]
        chf = chf[sel]
        cpi = cpi[sel]
        cpf = cpf[sel]
        cfn = cfn[sel]
        hist = [h[sel] for h in hist]
        return sel

    shrink(alive)
    for k in range(max_iters + 1):
        if idx.size == 0:
            break
        done = np.fmax(np.abs(cpi), np.abs(cpf)) <= tol
        if done.any():
            sel = idx[done]
            out.converged[sel] = True
            out.h_i[sel] = chi[done]
            out.h_f[sel] = chf[done]
            out.p_i[sel] = cpi[done]
            out.p_f[sel] = cpf[done]
            out.iterations[sel] = k
            shrink(~done)
            if idx.size == 0:
                break
        if k == max_iters:
            break
        if use_gradient:
            _, _, J = eval_residuals(cur, types, chi, chf, jac=True)
        else:
            J = eval_fd_jacobian(cur, types, chi, chf)
        jii, jif, jfi, jff = J
        det = jii * jff - jif * jfi
        ok = np.isfinite(det) & (np.abs(det) > 1e-14)
        if not ok.all():
            sel = shrink(ok)
            if idx.size == 0:
                break
            jii, jif, jfi, jff, det = (a[sel] for a in (jii, jif, jfi, jff, det))
        dhi = (-cpi * jff + cpf * jif) / det
        dhf = (-cpf * jii + cpi * jfi) / det

        lam = np.ones(idx.size)
        accepted = np.zeros(idx.size, bool)
        nhi, nhf = chi.copy(), chf.copy()
        npi, npf, nfn = cpi.copy(), cpf.copy(), cfn.copy()
        pend = np.arange(live)
        for _ in range(MAX_HALVINGS):
            if pend.size == 0:
                break
            at = _pad(pend, idx.size)
            thi = chi[at] + lam[at] * dhi[at]
            thf = chf[at] + lam[at] * dhf[at]
            tpi, tpf, _ = eval_residuals(cur.take(at), types.take(at), thi, thf)
            tfn = np.hypot(tpi, tpf)
            good = np.isfinite(tfn) & (tfn < cfn[at])
            sel = at[good]
            nhi[sel] = thi[good]
            nhf[sel] = thf[good]
            npi[sel] = tpi[good]
            npf[sel] = tpf[good]
            nfn[sel] = tfn[good]
            accepted[sel] = True
            pend = pend[~good[: pend.size]]
            lam[pend] *= 0.5
        keep = accepted
        if len(hist) >= PLATEAU_WINDOW:
            # never plateau-kill an element that just crossed the tolerance
            near = np.fmax(np.abs(npi), np.abs(npf)) <= tol
            keep = keep & ((nfn <= PLATEAU_FACTOR * hist[-PLATEAU_WINDOW]) | near)
        keep = keep & (np.abs(nhi) <= h_limit) & (np.abs(nhf) <= h_limit)
        chi, chf, cpi, cpf, cfn = nhi, nhf, npi, npf, nfn
        hist = (hist + [cfn])[-PLATEAU_WINDOW:]
        shrink(keep)
    return out
