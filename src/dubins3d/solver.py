"""Multistart damped-Newton root finding over the eight solution types.

Each type's 2x2 tangency system is solved from a set of seeds (a single seed
or a grid spanning the instance scale), converged iterates are re-verified
through the scalar evaluation path, near-identical roots are merged, and the
survivors come back in a deterministic order.  Directional validity is a
separate concern handled by the `path` module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import batch as _batch
from .geom import EPS_ZERO, DubinsError, ProblemInstance
from .residual import ALL_TYPES, Geometry, HPair, ResidualPair, SolutionType, residuals

DEFAULT_DEDUP_TOL = 1e-6
# Residual tolerance defaults to this multiple of the turn radius.
RESIDUAL_TOL_SCALE = 1e-9
# Seeds wandering beyond this multiple of the seeding half-width are abandoned.
RUNAWAY_SCALE = 100.0


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


@dataclass(frozen=True, slots=True)
class SingleSeed:
    """Solve each type from exactly one starting point."""

    h_i: float = 0.0
    h_f: float = 0.0


@dataclass(frozen=True, slots=True)
class SeedGrid:
    """Solve each type from an n x n grid of seeds plus the origin.

    window is the half-width of the grid per axis; None scales it to the
    instance as chord + 4 r.
    """

    n: int = 9
    window: float | None = None

    def half_width(self, inst: ProblemInstance) -> float:
        if self.window is not None:
            return self.window
        return inst.chord + 4.0 * inst.radius


SeedPolicy = Union[SingleSeed, SeedGrid]


@dataclass(frozen=True)
class SolverOptions:
    residual_tol: float | None = None  # None resolves to 1e-9 * radius
    max_iters: int = 100
    seed_policy: SeedPolicy = field(default_factory=SeedGrid)
    dedup_tol: float = DEFAULT_DEDUP_TOL
    use_gradient: bool = True

    def __post_init__(self) -> None:
        if self.residual_tol is not None and self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.dedup_tol <= 0:
            raise ValueError("dedup_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def resolved_tol(self, inst: ProblemInstance) -> float:
        return self.residual_tol if self.residual_tol is not None else RESIDUAL_TOL_SCALE * inst.radius


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
    if d > EPS_ZERO and u.cross(v_i).norm() / d > EPS_ZERO:
        return None
    along = u.dot(v_i)
    aligned = v_f.dot(v_i) > 0.0 and along >= -EPS_ZERO
    return CollinearInstance(aligned, d)


def _seed_arrays(inst: ProblemInstance, policy: SeedPolicy) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(policy, SingleSeed):
        return np.array([policy.h_i]), np.array([policy.h_f])
    w = policy.half_width(inst)
    vals = np.linspace(-w, w, policy.n)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    return (
        np.concatenate([[0.0], a.ravel()]),
        np.concatenate([[0.0], b.ravel()]),
    )


def runaway_limit(span: float) -> float:
    """Offset magnitude past which a Newton iterate seeded over +-span is
    abandoned as running away."""
    return max(1e3, RUNAWAY_SCALE * span)


def _candidate(inst: ProblemInstance, stype: SolutionType, hp: HPair, iterations: int, seed: HPair) -> SolutionCandidate:
    res, geom = residuals(inst, stype, hp)
    return SolutionCandidate(stype, hp, res, geom, iterations, seed)


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
    tol = opts.resolved_tol(inst)
    rb = _batch.RayBatch.from_instance(inst, 1)
    res = _batch.newton(
        rb,
        stype,
        np.array([seed.h_i]),
        np.array([seed.h_f]),
        tol,
        max_iters=opts.max_iters,
        use_gradient=opts.use_gradient,
    )
    if not res.converged[0]:
        raise NotConverged(f"{stype} from seed ({seed.h_i}, {seed.h_f})")
    hp = HPair(float(res.h_i[0]), float(res.h_f[0]))
    return _candidate(inst, stype, hp, int(res.iterations[0]), seed)


def dedup(cands: list[SolutionCandidate], tol: float = DEFAULT_DEDUP_TOL) -> list[SolutionCandidate]:
    """Merge same-type candidates whose offsets differ by < tol in max-norm,
    keeping the one with the smaller residual."""
    kept: list[SolutionCandidate] = []
    for cand in cands:
        for i, other in enumerate(kept):
            if other.stype != cand.stype:
                continue
            if max(abs(other.hp.h_i - cand.hp.h_i), abs(other.hp.h_f - cand.hp.h_f)) < tol:
                if cand.residual.max_abs() < other.residual.max_abs():
                    kept[i] = cand
                break
        else:
            kept.append(cand)
    return kept


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
    tol = opts.resolved_tol(inst)
    hi0, hf0 = _seed_arrays(inst, opts.seed_policy)
    rb = _batch.RayBatch.from_instance(inst, len(hi0))
    h_limit = runaway_limit(inst.chord + 4.0 * inst.radius)

    out: list[SolutionCandidate] = []
    for stype in ALL_TYPES:
        res = _batch.newton(
            rb,
            stype,
            hi0,
            hf0,
            tol,
            max_iters=opts.max_iters,
            use_gradient=opts.use_gradient,
            h_limit=h_limit,
        )
        cands = []
        for q in np.flatnonzero(res.converged):
            hp = HPair(float(res.h_i[q]), float(res.h_f[q]))
            cand = _candidate(inst, stype, hp, int(res.iterations[q]), HPair(float(hi0[q]), float(hf0[q])))
            # re-verified through the scalar path; drop anything that drifted
            if cand.residual.max_abs() <= tol:
                cands.append(cand)
        out.extend(dedup(cands, opts.dedup_tol))
    out.sort(key=lambda c: (c.type_id, c.hp.h_i, c.hp.h_f))
    return out
