"""Multistart damped-Newton root finding over the eight solution types.

Each type's 2x2 tangency system is solved from a set of seeds: a single seed,
or the grid of `seed_grid` spanning the instance scale, which `run_sweep`
seeds its cells from as well.  `multistart` is the one layout of such a
solve: one Newton batch over every (type, instance, seed) element, its
converged iterates merged per (type, instance) by `dedup`, the smallest
residual winning each cluster.  `solve_all` runs it on one instance and
accepts the survivors on the kernel's residual, reporting only their
residuals and geometry from the scalar evaluation path; they come back in a
deterministic order.  `collinear` is the one test for
instances the two-offset parametrization cannot express.  Directional
validity is a separate concern handled by the `path` module.  Every solve
runs on the instance scaled to unit radius, so tolerances are in units of r
and the roots do not depend on the unit of length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from .batch import DEFAULT_RESIDUAL_TOL  # noqa: F401  the bound every solve_all root meets
from .geom import EPS_ZERO, DubinsError, ProblemInstance, check_count, check_radii
from .residual import ALL_TYPES, Geometry, HPair, ResidualPair, SolutionType, residuals

# In units of the turn radius: roots closer than DEFAULT_DEDUP_TOL merge.
# Newton stops at batch.DEFAULT_RESIDUAL_TOL, the kernel residual every
# solve_all root meets.
DEFAULT_DEDUP_TOL = 1e-6
# Seeds wandering beyond this multiple of the seeding half-width are abandoned.
RUNAWAY_SCALE = 100.0
# Newton iteration limit of the grid-seeded batches: every (cell, seed) of a
# sweep and every crossing cell of the oracle (SolverOptions defaults to 100).
GRID_MAX_ITERS = 60


class NotConverged(DubinsError):
    """Newton iteration failed to reach a root from the given seed."""


class CollinearInstance(DubinsError):
    """Start and goal rays lie on one line, so the two-offset parametrization
    is singular everywhere; the only candidate is the straight connection."""

    def __init__(self, aligned: bool, distance: float):
        self.aligned = aligned  # goal ahead of start with matching heading
        self.distance = distance
        detail = "straight path applies" if aligned else "no forward straight path"
        super().__init__(f"collinear start/goal rays ({detail})")


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings.  seed, in the instance's units, is the one starting
    point of every type; None seeds each type from `seed_grid`."""

    max_iters: int = 100
    use_gradient: bool = True
    seed: HPair | None = None

    def __post_init__(self) -> None:
        check_count("max_iters", self.max_iters, 1)
        # a truthy string would run with the gradient, and a tuple seed
        # would fail only inside solve_all
        if not isinstance(self.use_gradient, (bool, np.bool_)):
            raise ValueError(f"use_gradient must be a bool, got {self.use_gradient!r}")
        if self.seed is not None and not isinstance(self.seed, HPair):
            raise ValueError(f"seed must be None or an HPair, got {self.seed!r}")


@dataclass(frozen=True)
class SolutionCandidate:
    """A converged root of one type's tangency system."""

    stype: SolutionType
    hp: HPair
    residual: ResidualPair
    geometry: Geometry
    iterations: int
    seed: HPair

    @property
    def type_id(self) -> int:
        return self.stype.type_id


def collinear(batch: _batch.RayBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per instance of the batch, whether its start and goal rays share one
    line, and whether the straight connection is then a forward path (goal
    ahead of the start, headings matching).

    From the invariants, in units of r: the rays share a line when
    |e| = |v_f x v_i| <= EPS_ZERO and either |D| <= EPS_ZERO or
    |u_i| = |D x v_i| <= EPS_ZERO |D|, with |D| = hypot(a, |u_i|); the
    straight connection is forward when c > 0 and a >= -EPS_ZERO.
    """
    inv = np.reshape(batch.inv, (12, -1))
    a, c = inv[0], inv[2]
    u_i = np.sqrt(np.square(inv[3:6]).sum(axis=0))
    e = np.sqrt(np.square(inv[9:12]).sum(axis=0))
    d = np.hypot(a, u_i)
    col = (e <= EPS_ZERO) & ((d <= EPS_ZERO) | (u_i <= EPS_ZERO * d))
    return col, col & (c > 0.0) & (a >= -EPS_ZERO)


def collinearity(inst: ProblemInstance) -> CollinearInstance | None:
    """The CollinearInstance of an instance whose start and goal rays share
    one line (see `collinear`), else None."""
    col, aligned = collinear(_batch.RayBatch.from_instance(inst))
    return CollinearInstance(bool(aligned[0]), inst.chord) if col[0] else None


def seed_grid(span: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multistart seeds over +-span: the origin, then a 9 x 9 grid of
    np.linspace(-span, span, 9) per axis, h_i major.

    span is a scalar or an (N,) array; returns (h_i, h_f) of shape (82,), or
    (N, 82) with row n spanning span[n].
    """
    vals = np.linspace(-span, span, 9, axis=-1)
    origin = np.zeros_like(vals[..., :1])
    return (
        np.concatenate([origin, np.repeat(vals, 9, axis=-1)], axis=-1),
        np.concatenate([origin, np.tile(vals, 9)], axis=-1),
    )


def runaway_limit(span: float) -> float:
    """Offset magnitude past which a Newton iterate seeded over +-span is
    abandoned as running away; both in units of r."""
    return max(1e3, RUNAWAY_SCALE * span)


def _candidate(
    r: float, stype: SolutionType, hp: HPair, res: ResidualPair, geo: Geometry, iters: int, seed: HPair
) -> SolutionCandidate:
    """A root of the unit-radius instance and its scalar evaluation there,
    with every length multiplied by r (seed is in the caller's units)."""
    hp, res = HPair(hp.h_i * r, hp.h_f * r), ResidualPair(res.p_i * r, res.p_f * r)
    geo = Geometry(geo.h_pt_i * r, geo.h_pt_f * r, geo.hdir, geo.c_i * r, geo.c_f * r)
    return SolutionCandidate(stype, hp, res, geo, iters, seed)


def _check_seed(seed: HPair, r: float) -> None:
    """ValueError naming the offset unless each of the seed's is at most
    MAX_CHORD_RADII r in magnitude (`geom.check_radii`)."""
    check_radii("seed.h_i", seed.h_i, r)
    check_radii("seed.h_f", seed.h_f, r)


def solve_type(
    inst: ProblemInstance,
    stype: SolutionType,
    seed: HPair,
    opts: SolverOptions | None = None,
) -> SolutionCandidate:
    """Newton iteration for one type from one seed.

    Raises NotConverged when the iteration stalls, hits persistent singular
    geometry, or exhausts max_iters, and ValueError for a seed the kernel
    cannot represent (`_check_seed`).
    """
    opts = opts or SolverOptions()
    r = inst.radius
    _check_seed(seed, r)
    rb = _batch.RayBatch.from_instance(inst)
    seeds = (np.array([seed.h_i / r]), np.array([seed.h_f / r]))
    code = np.array([stype.type_id - 1], np.int8)
    res = _batch.newton(rb, code, *seeds, max_iters=opts.max_iters, use_gradient=opts.use_gradient)
    if not res.converged[0]:
        raise NotConverged(f"{stype} from seed ({seed.h_i}, {seed.h_f})")
    hp = HPair(float(res.h_i[0]), float(res.h_f[0]))
    return _candidate(r, stype, hp, *residuals(inst.in_radius_units(), stype, hp), int(res.iterations[0]), seed)


def dedup(
    cand: np.ndarray,
    group: np.ndarray,
    h_i: np.ndarray,
    h_f: np.ndarray,
    resid: np.ndarray,
    tol: float = DEFAULT_DEDUP_TOL,
) -> np.ndarray:
    """The indices in `cand` that survive merging within each group.

    group, h_i, h_f and resid are indexed by element.  Candidates of one
    group whose offsets differ by < tol in max-norm merge and the smallest
    residual wins, ties going to the lower index: each round keeps every
    group's smallest-residual remaining candidate and drops the remaining
    ones within tol of it.
    """
    order = cand[np.lexsort((cand, resid[cand], group[cand]))]
    kept = [order[:0]]
    while order.size:
        starts = np.r_[True, group[order[1:]] != group[order[:-1]]]
        lead = order[starts][np.cumsum(starts) - 1]
        dist = np.fmax(np.abs(h_i[order] - h_i[lead]), np.abs(h_f[order] - h_f[lead]))
        kept.append(order[starts])
        order = order[dist >= tol]
    return np.concatenate(kept)


def multistart(
    batch: _batch.RayBatch,
    hi0: np.ndarray,
    hf0: np.ndarray,
    max_iters: int,
    use_gradient: bool = True,
    h_limit: float = np.inf,
) -> tuple[_batch.NewtonResult, np.ndarray, np.ndarray, np.ndarray]:
    """All eight types of every instance of the batch from its seeds, in one
    Newton batch, merged by `dedup` within each (type, instance).

    hi0 and hf0, in units of r, are (n, k): row m seeds instance m of the
    batch's n instances (a one-instance batch takes (k,) seeds).  Element q
    of the Newton batch solves type q // (n k) on instance (q // k) % n from
    seed q % k, so the layout is type-major and (q // k) is its
    (type, instance) group.  Returns the NewtonResult of the surviving
    converged elements, in `dedup`'s order, and their type codes, instances
    and seed indices.
    """
    hi0, hf0 = np.atleast_2d(hi0), np.atleast_2d(hf0)
    n, k = hi0.shape
    n_types = len(ALL_TYPES)
    group = np.arange(n_types * n * k) // k
    run = _batch.newton(
        batch.take(group % n),
        np.repeat(np.arange(n_types, dtype=np.int8), n * k),
        np.tile(hi0.ravel(), n_types),
        np.tile(hf0.ravel(), n_types),
        max_iters=max_iters,
        use_gradient=use_gradient,
        h_limit=h_limit,
    )
    kept = dedup(np.flatnonzero(run.converged), group, run.h_i, run.h_f, run.max_abs())
    return run.take(kept), (group[kept] // n).astype(np.int8), group[kept] % n, kept % k


def solve_all(inst: ProblemInstance, opts: SolverOptions | None = None) -> list[SolutionCandidate]:
    """Find roots of all eight types from every seed, deduplicated and sorted
    by (type, h_i, h_f).

    Raises CollinearInstance up front when the two-offset parametrization is
    singular everywhere; callers handle the straight-line special case.
    Raises ValueError for a seed the kernel cannot represent (`_check_seed`).
    """
    opts = opts or SolverOptions()
    rb = _batch.RayBatch.from_instance(inst)
    col, aligned = collinear(rb)
    if col[0]:
        raise CollinearInstance(bool(aligned[0]), inst.chord)
    r = inst.radius
    if opts.seed is None:
        hi0, hf0 = seed_grid(inst.span)
    else:
        _check_seed(opts.seed, r)
        hi0, hf0 = np.array([opts.seed.h_i]), np.array([opts.seed.h_f])
    h_limit = runaway_limit(inst.span / r)
    run, types, _, seeds = multistart(rb, hi0 / r, hf0 / r, opts.max_iters, opts.use_gradient, h_limit)

    unit = inst.in_radius_units()
    out: list[SolutionCandidate] = []
    for q, (t, s) in enumerate(zip(types, seeds)):
        stype = ALL_TYPES[t]
        hp = HPair(float(run.h_i[q]), float(run.h_f[q]))
        # accepted on the kernel's residual, which newton bounds by
        # DEFAULT_RESIDUAL_TOL; the scalar path, the independent reference,
        # only reports the residual and the geometry
        res, geo = residuals(unit, stype, hp)
        seed = HPair(float(hi0[s]), float(hf0[s]))
        out.append(_candidate(r, stype, hp, res, geo, int(run.iterations[q]), seed))
    out.sort(key=lambda c: (c.type_id, c.hp.h_i, c.hp.h_f))
    return out
