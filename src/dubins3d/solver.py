"""Multistart damped-Newton root finding over the eight solution types.

Each type's 2x2 tangency system is solved from a set of seeds: a single seed,
or the grid of `seed_grid` spanning the instance scale, which `run_sweep`
seeds its cells from as well.  One Newton batch carries every (type, seed)
pair, the type given per element.  The converged iterates of all types are
merged in arrays first, the smallest residual winning each cluster; only the
survivors are then re-verified through the scalar evaluation path, and they
come back in a deterministic order.  Directional validity is a separate
concern handled by the `path` module.  Every solve runs on the instance
scaled to unit radius, so tolerances are in units of r and the roots do not
depend on the unit of length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from .geom import EPS_ZERO, DubinsError, ProblemInstance
from .residual import ALL_TYPES, Geometry, HPair, ResidualPair, SolutionType, residuals

# Both in units of the turn radius: roots closer than DEFAULT_DEDUP_TOL merge,
# and Newton stops once max(|p_i|, |p_f|) <= DEFAULT_RESIDUAL_TOL.
DEFAULT_DEDUP_TOL = 1e-6
DEFAULT_RESIDUAL_TOL = 1e-9
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def collinearity(inst: ProblemInstance) -> CollinearInstance | None:
    """Detect instances whose start and goal rays share a single line."""
    v_i = inst.start.direction
    v_f = inst.goal.direction
    if v_i.cross(v_f).norm() > EPS_ZERO:
        return None
    u = inst.goal.position - inst.start.position
    d = u.norm()
    eps = EPS_ZERO * inst.radius
    if d > eps and u.cross(v_i).norm() / d > EPS_ZERO:
        return None
    along = u.dot(v_i)
    aligned = v_f.dot(v_i) > 0.0 and along >= -eps
    return CollinearInstance(aligned, d)


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


def solve_type(
    inst: ProblemInstance,
    stype: SolutionType,
    seed: HPair,
    opts: SolverOptions | None = None,
) -> SolutionCandidate:
    """Newton iteration for one type from one seed.

    Raises NotConverged when the iteration stalls, hits persistent singular
    geometry, or exhausts max_iters.
    """
    opts = opts or SolverOptions()
    r = inst.radius
    rb = _batch.RayBatch.from_instance(inst, 1)
    seeds = (np.array([seed.h_i / r]), np.array([seed.h_f / r]))
    res = _batch.newton(
        rb, stype, *seeds, DEFAULT_RESIDUAL_TOL, max_iters=opts.max_iters, use_gradient=opts.use_gradient
    )
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


def solve_all(inst: ProblemInstance, opts: SolverOptions | None = None) -> list[SolutionCandidate]:
    """Find roots of all eight types from every seed, deduplicated and sorted
    by (type, h_i, h_f).

    Raises CollinearInstance up front when the two-offset parametrization is
    singular everywhere; callers handle the straight-line special case.
    """
    opts = opts or SolverOptions()
    col = collinearity(inst)
    if col is not None:
        raise col
    r = inst.radius
    if opts.seed is None:
        hi0, hf0 = seed_grid(inst.span)
    else:
        hi0, hf0 = np.array([opts.seed.h_i]), np.array([opts.seed.h_f])
    # element q is type ALL_TYPES[q // k] from seed q % k, in units of r
    k = len(hi0)
    n = len(ALL_TYPES) * k
    group = np.arange(n) // k
    run = _batch.newton(
        _batch.RayBatch.from_instance(inst, n),
        _batch.TypeBatch.repeat(ALL_TYPES, k),
        np.tile(hi0 / r, len(ALL_TYPES)),
        np.tile(hf0 / r, len(ALL_TYPES)),
        DEFAULT_RESIDUAL_TOL,
        max_iters=opts.max_iters,
        use_gradient=opts.use_gradient,
        h_limit=runaway_limit(inst.span / r),
    )

    unit = inst.in_radius_units()
    out: list[SolutionCandidate] = []
    for q in dedup(np.flatnonzero(run.converged), group, run.h_i, run.h_f, run.max_abs()):
        stype = ALL_TYPES[group[q]]
        hp = HPair(float(run.h_i[q]), float(run.h_f[q]))
        res, geo = residuals(unit, stype, hp)
        # re-verified through the scalar path; drop anything that drifted
        if res.max_abs() <= DEFAULT_RESIDUAL_TOL:
            seed = HPair(float(hi0[q % k]), float(hf0[q % k]))
            out.append(_candidate(r, stype, hp, res, geo, int(run.iterations[q]), seed))
    out.sort(key=lambda c: (c.type_id, c.hp.h_i, c.hp.h_f))
    return out
