"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: residual fields are sampled
on a dense grid, cells where both fields change sign are detected in
marching-squares fashion, and one Newton batch refines from the centre of
every such cell.  Used to audit solver completeness and to export residual
fields for plotting.  As in `solver`, both run in units of the radius;
windows, fields and roots are in the instance's own units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from .batch import RayBatch, eval_residuals
from .geom import ProblemInstance
from .residual import ALL_TYPES, HPair, SolutionType
from .solver import DEFAULT_DEDUP_TOL, DEFAULT_RESIDUAL_TOL, dedup
from .solver import solve_type  # noqa: F401  unused here; bench/tracing.py wraps oracle.solve_type

# Node values this close to zero (in units of r) count as crossings so roots
# sitting exactly on grid lines are not silently dropped.
ZERO_SNAP = 1e-12

DEFAULT_RESOLUTION = 400


@dataclass(frozen=True)
class GridWindow:
    """Rectangular offset window with a cell resolution per axis."""

    h_i_range: tuple[float, float]
    h_f_range: tuple[float, float]
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        if self.h_i_range[0] >= self.h_i_range[1] or self.h_f_range[0] >= self.h_f_range[1]:
            raise ValueError("window ranges must have lo < hi")
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")

    @classmethod
    def square(cls, half_width: float, resolution: int = DEFAULT_RESOLUTION) -> "GridWindow":
        return cls((-half_width, half_width), (-half_width, half_width), resolution)

    @classmethod
    def for_instance(cls, inst: ProblemInstance, resolution: int = DEFAULT_RESOLUTION) -> "GridWindow":
        """Default window scaled to the instance: `ProblemInstance.span`."""
        return cls.square(inst.span, resolution)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.h_i_range[0], self.h_i_range[1], self.resolution + 1),
            np.linspace(self.h_f_range[0], self.h_f_range[1], self.resolution + 1),
        )

    def contains(self, hp, slack: float = 1e-9):
        """Whether hp lies in the window; hp is anything with h_i and h_f,
        either floats (an HPair) or arrays (a NewtonResult, elementwise)."""
        return (
            (self.h_i_range[0] - slack <= hp.h_i)
            & (hp.h_i <= self.h_i_range[1] + slack)
            & (self.h_f_range[0] - slack <= hp.h_f)
            & (hp.h_f <= self.h_f_range[1] + slack)
        )


@dataclass(frozen=True)
class ContourMap:
    """Sampled residual fields on a window, with per-cell crossing masks.

    Fields are indexed [i, j] for node (h_i_nodes[i], h_f_nodes[j]); entries
    are NaN where the evaluation is singular.  crossings_* mark cells (one
    smaller per axis) where the respective field changes sign; cells touching
    a singular node are never marked.
    """

    stype: SolutionType
    window: GridWindow
    h_i_nodes: np.ndarray
    h_f_nodes: np.ndarray
    p_i: np.ndarray
    p_f: np.ndarray
    singular: np.ndarray
    crossings_i: np.ndarray
    crossings_f: np.ndarray

    def intersection_cells(self) -> np.ndarray:
        """Index pairs of cells where both fields change sign."""
        return np.argwhere(self.crossings_i & self.crossings_f)


def _cell_crossings(field: np.ndarray) -> np.ndarray:
    snapped = np.where(np.abs(field) < ZERO_SNAP, 0.0, field)
    c00 = snapped[:-1, :-1]
    c10 = snapped[1:, :-1]
    c01 = snapped[:-1, 1:]
    c11 = snapped[1:, 1:]
    finite = np.isfinite(c00) & np.isfinite(c10) & np.isfinite(c01) & np.isfinite(c11)
    lo = np.fmin(np.fmin(c00, c10), np.fmin(c01, c11))
    hi = np.fmax(np.fmax(c00, c10), np.fmax(c01, c11))
    return finite & (((lo < 0.0) & (hi > 0.0)) | (lo == 0.0) | (hi == 0.0))


def build_contours(inst: ProblemInstance, stype: SolutionType, window: GridWindow) -> ContourMap:
    """Sample both residual fields over the window and mark sign changes
    (of the fields in units of r; the map holds them multiplied by r)."""
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    a, b = np.meshgrid(hi_nodes / r, hf_nodes / r, indexing="ij")
    p_i, p_f, _ = eval_residuals(RayBatch.from_instance(inst, a.size), stype, a.ravel(), b.ravel())
    p_i = p_i.reshape(a.shape)
    p_f = p_f.reshape(a.shape)
    singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
    crossings_i, crossings_f = _cell_crossings(p_i), _cell_crossings(p_f)
    p_i *= r
    p_f *= r
    return ContourMap(stype, window, hi_nodes, hf_nodes, p_i, p_f, singular, crossings_i, crossings_f)


def refine_roots(inst: ProblemInstance, cmap: ContourMap) -> list[HPair]:
    """All roots of the map's type inside its window, found by one Newton
    batch seeded at the centre of every cell where both residual fields
    change sign.

    Refined roots that escape the window are discarded; the rest are merged
    within DEFAULT_DEDUP_TOL r (smallest residual wins) and returned sorted
    by (h_i, h_f).
    """
    r = inst.radius
    i, j = cmap.intersection_cells().T
    hi0 = 0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1])
    hf0 = 0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1])
    rb = RayBatch.from_instance(inst, hi0.size)
    res = _batch.newton(rb, cmap.stype, hi0 / r, hf0 / r, DEFAULT_RESIDUAL_TOL, max_iters=60)
    res.h_i *= r
    res.h_f *= r
    cand = np.flatnonzero(res.converged & cmap.window.contains(res))
    kept = dedup(cand, np.zeros(hi0.size, np.int64), res.h_i, res.h_f, res.max_abs(), DEFAULT_DEDUP_TOL * r)
    roots = [HPair(float(res.h_i[q]), float(res.h_f[q])) for q in kept]
    roots.sort(key=lambda p: (p.h_i, p.h_f))
    return roots


def enumerate_roots(inst: ProblemInstance, stype: SolutionType, window: GridWindow) -> list[HPair]:
    """All roots of one type inside the window: refine_roots on a freshly
    sampled contour map of it."""
    return refine_roots(inst, build_contours(inst, stype, window))


def enumerate_all_types(inst: ProblemInstance, window: GridWindow) -> dict[int, list[HPair]]:
    """enumerate_roots for every type, keyed by type id."""
    return {t.type_id: enumerate_roots(inst, t, window) for t in ALL_TYPES}
