"""Vectorized evaluation and damped-Newton iteration over element batches.

One kernel serves all types from many seeds on one problem (multistart),
seeds on many problems at once (sweeps) and the oracle's grid fields, on
instances scaled to unit radius: every length here is in units of r.  A
batch is a RayBatch of problem data, the type codes of its elements
(type_id - 1, an int8 array indexed as the offsets are; an evaluation also
takes one code for all) and the offset arrays, which set its element
count.  `newton` is the one iteration over it: an element leaves its batch
in one place, at the seeds or at the end of an iteration, converged within
DEFAULT_RESIDUAL_TOL or dropped.  `solver.multistart` lays out the batches
of (type, instance, seed) elements that the solver and the studies run.

The tangency system depends on a start/goal pair only through rigid-motion
invariants: with D = x_f - x_i, a = D.v_i, b = D.v_f, c = v_i.v_f and the
components of u_i = D x v_i, u_f = D x v_f and e = v_f x v_i.  At offsets
(h_i, h_f) the segment w = D + h_f v_f - h_i v_i has A = w.v_i =
a + c h_f - h_i, B = w.v_f = b - c h_i + h_f, Q_i = |w x v_i|^2 =
|u_i + h_f e|^2, Q_f = |w x v_f|^2 = |u_f + h_i e|^2 and length
d = sqrt(Q_i + A^2).  A type's residuals are p_i = h_i + s_i T_i and
p_f = h_f + s_f T_f, with T_i = tan(phi_i / 2) = (d - sigma A)/sqrt(Q_i),
formed as sqrt(Q_i)/(d + sigma A) where sigma A > 0 so nothing cancels, and
T_f the same in B and Q_f; sigma is the type's direction.  The geometric
formulas stay in `residual`, the independent reference the tests pin this
kernel against and through which `solve_all` reports its roots' residuals
and geometry.
Singular evaluations (d <= EPS_SING, or sqrt(Q) <= EPS_SING d at either
end) yield NaN and the owning element is dropped.

Numpy call overhead, not arithmetic, sets the kernel's cost, so `newton`
makes few, large calls: its line search tests a ladder of step sizes 2^-k
for every pending element in one call, as many as fit in LADDER_ELEMS
elements (or the Newton batch's first size, if smaller), and a batch of
many instances gathers its invariants once per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geom import EPS_ZERO, ProblemInstance
from .residual import ALL_TYPES, EPS_SING

# Step control: take the first of the steps 2^-k times the Newton step,
# k < MAX_HALVINGS, that lowers the residual norm, else give up on the
# element.  One kernel call tests several k for every pending element, as
# many as fit in LADDER_ELEMS elements, or in the Newton batch's first size
# if that is smaller (see _line_search).
MAX_HALVINGS = 20
# Element budget of one line-search call.  A kernel call's fixed numpy
# overhead costs about as much as evaluating 2,048 elements (~75 ns each),
# so a wider ladder spends more on rungs past the accepted one than the
# call it saves.
LADDER_ELEMS = 2048
# Elements whose residual norm has not improved by 1% over this many
# iterations are abandoned as non-converging (they hug singular ridges).
PLATEAU_WINDOW = 3
PLATEAU_FACTOR = 0.99
# Batch sizes newton shrinks to: powers of two up to PAD_STEP, then
# multiples of PAD_STEP (see _pad).
PAD_STEP = 16
# newton stops an element once max(|p_i|, |p_f|) <= DEFAULT_RESIDUAL_TOL.
DEFAULT_RESIDUAL_TOL = 1e-9
# Offset step of eval_fd_jacobian's central differences.
FD_STEP = 1e-6


@dataclass(frozen=True)
class RayBatch:
    """Per-instance invariants (a, b, c, u_i, u_f, e; see the module
    docstring) as a float64 array: (12,) for one instance that every
    element shares (row is None), or (12, m) for m instances, with row the
    (N,) instance of every element, which take() alone indexes."""

    inv: np.ndarray
    row: np.ndarray | None

    @classmethod
    def build(cls, xi, vi, xf, vf) -> "RayBatch":
        """Rays given by components, each a float or an (n,) array: n
        instances, element q being instance q, or one instance that every
        element shares when every component is a float."""
        dot = lambda u, v: u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
        cross = lambda u, v: (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        dx = (xf[0] - xi[0], xf[1] - xi[1], xf[2] - xi[2])
        inv = (dot(dx, vi), dot(dx, vf), dot(vi, vf), *cross(dx, vi), *cross(dx, vf), *cross(vf, vi))
        inv = np.stack(np.broadcast_arrays(*(np.asarray(v, float) for v in inv)))
        return cls(inv, None if inv.ndim == 1 else np.arange(inv.shape[1]))

    @classmethod
    def from_instance(cls, inst: ProblemInstance) -> "RayBatch":
        """One problem instance, scaled to unit radius, shared by every element."""
        u = inst.in_radius_units()
        rays = (u.start.position, u.start.direction, u.goal.position, u.goal.direction)
        return cls.build(*(v.as_tuple() for v in rays))

    def take(self, sel: np.ndarray) -> "RayBatch":
        """The elements at the indices sel."""
        return RayBatch(self.inv, None if self.row is None else self.row[sel])


# direction, start_sign and end_sign of every type, by type code (type_id - 1)
_SIGNS = np.array([(t.direction, t.start_sign, t.end_sign) for t in ALL_TYPES]).T


def frame(batch: RayBatch, hi, hf):
    """(A, B, c, d, Q_i, Q_f, sqrt(Q_i), sqrt(Q_f)) at the offsets, d NaN
    where the geometry is singular, so all formed from it is NaN there with
    no division by zero.

    One formula path: g is the shared instance's (12,) array viewed as
    (12, 1, ..., 1), so it broadcasts against offsets of any shape, or the
    elements' own invariants, gathered once as (12, N).  Q_i is the sum
    over g's first axis of the squares of u_i + h_f e, (x^2 + y^2) + z^2,
    and Q_f likewise, so with one instance a column of h_i and a row of h_f
    give them per node and the rest per grid point.
    """
    if batch.row is None:
        g = batch.inv.reshape((12,) + (1,) * max(np.ndim(hi), np.ndim(hf)))
    else:
        g = np.take(batch.inv, batch.row, axis=1)
    # c copied: a view would keep all of a gathered g alive with it
    a, b, c, e = g[0], g[1], g[2].copy(), g[9:12]
    q_i = np.square(g[3:6] + hf * e).sum(axis=0)
    q_f = np.square(g[6:9] + hi * e).sum(axis=0)
    # B mirrors A, so reversing the path (ends swapped, directions negated)
    # swaps A and B exactly
    A = a + c * hf - hi
    B = b - c * hi + hf
    d = np.sqrt(q_i + A * A)
    r_i, r_f = np.sqrt(q_i), np.sqrt(q_f)
    floor = EPS_SING * d
    d = np.where((d <= EPS_SING) | (r_i <= floor) | (r_f <= floor), np.nan, d)
    return A, B, c, d, q_i, q_f, r_i, r_f


def half_angles(lin, d, r):
    """(P, 1/P) with P = (d + |lin|)/r, each formed by one division: tan of
    the half turn at one end is P where sigma lin <= 0, else 1/P."""
    big = d + np.abs(lin)
    return big / r, r / big


def _tangents(batch: RayBatch, types, hi, hf):
    """frame()'s values, then the types' direction, start_sign and end_sign
    and their T_i and T_f."""
    A, B, c, d, q_i, q_f, r_i, r_f = frame(batch, hi, hf)
    # np.take: indexing with an int8 array takes numpy's slow fancy path
    sig, s_i, s_f = np.take(_SIGNS, types, axis=1)
    t_i = np.where(sig * A <= 0.0, *half_angles(A, d, r_i))
    t_f = np.where(sig * B <= 0.0, *half_angles(B, d, r_f))
    return A, B, c, d, q_i, q_f, r_i, r_f, sig, s_i, s_f, t_i, t_f


def _jacobian(A, B, c, d, q_i, q_f, r_i, r_f, sig, s_i, s_f, t_i, t_f):
    """(dpi_dhi, dpi_dhf, dpf_dhi, dpf_dhf) from _tangents' values."""
    # d'(h_i) = -A/d, d'(h_f) = B/d; Q_i'(h_f) = 2 (B - A c), Q_f'(h_i) = 2 (B c - A)
    sc = sig * c
    return (
        1.0 + s_i * sig * t_i / d,
        s_i * ((B / d - sc) / r_i - t_i * (B - A * c) / q_i),
        s_f * ((sc - A / d) / r_f - t_f * (B * c - A) / q_f),
        1.0 - s_f * sig * t_f / d,
    )


def eval_residuals(batch: RayBatch, types, hi: np.ndarray, hf: np.ndarray):
    """Residual pair (p_i, p_f) for every element, NaN where the geometry is
    singular.

    types is a type code, or an array of one code per element.
    """
    s_i, s_f, t_i, t_f = _tangents(batch, types, hi, hf)[-4:]
    return hi + s_i * t_i, hf + s_f * t_f


def eval_jacobian(batch: RayBatch, types, hi: np.ndarray, hf: np.ndarray):
    """Jacobian entries (dpi_dhi, dpi_dhf, dpf_dhi, dpf_dhf) of
    eval_residuals for every element, NaN where the geometry is singular."""
    return _jacobian(*_tangents(batch, types, hi, hf))


def eval_ahead(batch: RayBatch, types, hi: np.ndarray, hf: np.ndarray) -> np.ndarray:
    """Signed separation (c_f - c_i) . hdir used by directional validity:
    d + sigma (s_i T_i - s_f T_f), at any offsets.

    NaN where the geometry is singular.
    """
    A, B, c, d, q_i, q_f, r_i, r_f, sig, s_i, s_f, t_i, t_f = _tangents(batch, types, hi, hf)
    return d + sig * (s_i * t_i - s_f * t_f)


def directionally_valid(types, ahead: np.ndarray) -> np.ndarray:
    """The directional-validity rule on separations in units of r, as
    eval_ahead gives them; `path.check_directionality` applies it to one
    root.

    Regular roots need the goal-side circle ahead, switched roots behind it,
    both within EPS_ZERO r; NaN (singular geometry) is never valid.
    """
    return np.take(_SIGNS[0], types) * ahead >= -EPS_ZERO


def eval_fd_jacobian(batch: RayBatch, types, hi: np.ndarray, hf: np.ndarray):
    """Central finite-difference Jacobian, step FD_STEP (the gradient-free
    solver mode)."""
    pi_a, pf_a = eval_residuals(batch, types, hi + FD_STEP, hf)
    pi_b, pf_b = eval_residuals(batch, types, hi - FD_STEP, hf)
    pi_c, pf_c = eval_residuals(batch, types, hi, hf + FD_STEP)
    pi_d, pf_d = eval_residuals(batch, types, hi, hf - FD_STEP)
    inv = 0.5 / FD_STEP
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
    m, size = pos.size, _pad_size(pos.size, cap)
    # size < 2 m, so one partial repeat fills it
    return pos if size == m else np.concatenate((pos, pos[: size - m]))


def _pad_size(m: int, cap: int) -> int:
    """The size _pad pads m entries to."""
    if m == 0:
        return 0
    return min(1 << (m - 1).bit_length() if m <= PAD_STEP else -(-m // PAD_STEP) * PAD_STEP, cap)


def _line_search(batch, types, hi, hf, p_i, p_f, fn, dhi, dhf, pend, cap):
    """Take for each element at the positions pend the first step 2^-k
    (dhi, dhf), k < MAX_HALVINGS, that lowers the residual norm below fn,
    and write it into hi, hf, p_i, p_f and fn.

    Returns the halvings k spent per position: MAX_HALVINGS where no step
    was accepted, and at every position not in pend (not searched).  Each
    kernel call tests a ladder of consecutive step sizes for every pending
    element, as many as fit in min(cap, LADDER_ELEMS) elements (at least
    one rung, at most the halvings left), padded to a `_pad` size: cap is
    the Newton batch's first size, so a call never holds more than the
    larger of that budget and the padded pending elements, and a few
    stragglers in a shrunk batch still test many rungs per call.  Each 2^-k
    is exact, so the result is that of halving one step at a time.
    """
    spent = np.full(hi.size, MAX_HALVINGS)
    k = 0
    while pend.size and k < MAX_HALVINGS:
        n = pend.size
        rungs = max(1, min(min(cap, LADDER_ELEMS) // n, MAX_HALVINGS - k))
        # rung-major: flat position j tests element pend[j % n] at
        # 2^-(k + j // n); resize wraps round to the first entries, as _pad does
        m = _pad_size(n * rungs, cap)
        at = np.resize(pend, m)
        lam = np.resize(np.repeat(np.ldexp(1.0, -np.arange(k, k + rungs)), n), m)
        thi = hi[at] + lam * dhi[at]
        thf = hf[at] + lam * dhf[at]
        tpi, tpf = eval_residuals(batch.take(at), types[at], thi, thf)
        tfn = np.hypot(tpi, tpf)
        good = (np.isfinite(tfn) & (tfn < fn[at]))[: n * rungs].reshape(rungs, n)
        hit = good.any(axis=0)
        col = np.flatnonzero(hit)
        first = good.argmax(axis=0)[col]
        src = first * n + col
        sel = pend[col]
        hi[sel] = thi[src]
        hf[sel] = thf[src]
        p_i[sel] = tpi[src]
        p_f[sel] = tpf[src]
        fn[sel] = tfn[src]
        spent[sel] = k + first
        pend = pend[~hit]
        k += rungs
    return spent


@dataclass
class NewtonResult:
    h_i: np.ndarray
    h_f: np.ndarray
    p_i: np.ndarray
    p_f: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    # step halvings spent by the element's line searches, summed over its
    # iterations: a full step counts 0, a search with no accepted step
    # MAX_HALVINGS
    halvings: np.ndarray

    def max_abs(self) -> np.ndarray:
        """max(|p_i|, |p_f|) per element (NaN where not converged)."""
        return np.fmax(np.abs(self.p_i), np.abs(self.p_f))

    def take(self, sel: np.ndarray) -> "NewtonResult":
        """The elements at the indices sel."""
        return NewtonResult(*(getattr(self, f.name)[sel] for f in fields(self)))


def newton(
    batch: RayBatch,
    types: np.ndarray,
    hi0: np.ndarray,
    hf0: np.ndarray,
    max_iters: int = 100,
    use_gradient: bool = True,
    h_limit: float = np.inf,
) -> NewtonResult:
    """Damped Newton iteration on every element of the batch.

    types is the (N,) array of the elements' type codes, indexed as the
    offsets are.  Elements never interact, so each one's iterates, residuals
    and iteration count do not depend on what else is in the batch.  An
    element leaves the batch in one place (`leave`), at its seed and at the
    end of each iteration k: converged after k iterations when
    max(|p_i|, |p_f|) <= DEFAULT_RESIDUAL_TOL, or dropped when its seed is
    singular, its Jacobian degenerates, no backtracked step is accepted,
    progress plateaus, or the iterate runs past h_limit, even within
    tolerance.  What is left is padded with copies of live elements to a
    ladder size (`_pad`); a copy writes the same results to the same output
    slot as its original.
    """
    n_total = len(hi0)
    out = NewtonResult(
        h_i=np.array(hi0, float),
        h_f=np.array(hf0, float),
        p_i=np.full(n_total, np.nan),
        p_f=np.full(n_total, np.nan),
        converged=np.zeros(n_total, bool),
        iterations=np.zeros(n_total, np.int64),
        halvings=np.zeros(n_total, np.int64),
    )
    # positions [0, live) hold distinct elements, the rest copies of them
    idx, live = np.arange(n_total), n_total
    # leave() copies chi and chf before the line search writes into them
    cur = batch
    chi, chf = out.h_i, out.h_f
    cpi, cpf = eval_residuals(cur, types, chi, chf)
    cfn = np.hypot(cpi, cpf)
    hist: list[np.ndarray] = [cfn]

    def leave(keep: np.ndarray, k: int) -> None:
        """Record the kept elements within tolerance as converged after k
        iterations; keep the others (keep is False at copies), padded anew."""
        nonlocal idx, live, cur, types, chi, chf, cpi, cpf, cfn, hist
        done = keep & (np.fmax(np.abs(cpi), np.abs(cpf)) <= DEFAULT_RESIDUAL_TOL)
        if done.any():
            sel = idx[done]
            out.converged[sel] = True
            out.h_i[sel] = chi[done]
            out.h_f[sel] = chf[done]
            out.p_i[sel] = cpi[done]
            out.p_f[sel] = cpf[done]
            out.iterations[sel] = k
            keep = keep & ~done
        sel = np.flatnonzero(keep[:live])
        live = sel.size
        sel = _pad(sel, idx.size)
        idx = idx[sel]
        cur = cur.take(sel)
        types = types[sel]
        chi = chi[sel]
        chf = chf[sel]
        cpi = cpi[sel]
        cpf = cpf[sel]
        cfn = cfn[sel]
        hist = [h[sel] for h in hist]

    leave(np.isfinite(cfn), 0)
    for k in range(1, max_iters + 1):
        if idx.size == 0:
            break
        if use_gradient:
            jii, jif, jfi, jff = eval_jacobian(cur, types, chi, chf)
        else:
            jii, jif, jfi, jff = eval_fd_jacobian(cur, types, chi, chf)
        det = jii * jff - jif * jfi
        ok = np.isfinite(det) & (np.abs(det) > 1e-14)
        # not searched, a degenerate element leaves; its step divides by 1, not 0
        det = np.where(ok, det, 1.0)
        dhi = (-cpi * jff + cpf * jif) / det
        dhf = (-cpf * jii + cpi * jfi) / det
        del jii, jif, jfi, jff, det
        pend = np.flatnonzero(ok[:live])
        # updated in place: leave() made these arrays, and nothing else holds them
        spent = _line_search(cur, types, chi, chf, cpi, cpf, cfn, dhi, dhf, pend, n_total)
        out.halvings[idx[pend]] += spent[pend]
        keep = spent < MAX_HALVINGS
        if len(hist) >= PLATEAU_WINDOW:
            # never plateau-kill an element that just crossed the tolerance
            near = np.fmax(np.abs(cpi), np.abs(cpf)) <= DEFAULT_RESIDUAL_TOL
            keep = keep & ((cfn <= PLATEAU_FACTOR * hist[-PLATEAU_WINDOW]) | near)
        keep = keep & (np.abs(chi) <= h_limit) & (np.abs(chf) <= h_limit)
        hist = (hist + [cfn])[-PLATEAU_WINDOW:]
        leave(keep, k)
    return out
