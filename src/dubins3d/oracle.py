"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: residual fields are sampled
on a dense grid, cells where both fields change sign are detected in
marching-squares fashion, and each such cell is polished by a local Newton
refinement.  Used to audit solver completeness and to export residual fields
for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import RayBatch, eval_residuals
from .geom import ProblemInstance
from .residual import HPair, SolutionType
from .solver import DEFAULT_DEDUP_TOL, RESIDUAL_TOL_SCALE, NotConverged, SingleSeed, SolverOptions, solve_type

# Node values this close to zero count as crossings so roots sitting exactly
# on grid lines are not silently dropped.
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
        """Default window scaled to the instance: chord + 4 radius per side."""
        return cls.square(inst.chord + 4.0 * inst.radius, resolution)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.h_i_range[0], self.h_i_range[1], self.resolution + 1),
            np.linspace(self.h_f_range[0], self.h_f_range[1], self.resolution + 1),
        )

    def contains(self, hp: HPair, slack: float = 1e-9) -> bool:
        return (
            self.h_i_range[0] - slack <= hp.h_i <= self.h_i_range[1] + slack
            and self.h_f_range[0] - slack <= hp.h_f <= self.h_f_range[1] + slack
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
    """Sample both residual fields over the window and mark sign changes."""
    hi_nodes, hf_nodes = window.nodes()
    a, b = np.meshgrid(hi_nodes, hf_nodes, indexing="ij")
    p_i, p_f, _ = eval_residuals(RayBatch.from_instance(inst, a.size), stype, a.ravel(), b.ravel())
    p_i = p_i.reshape(a.shape)
    p_f = p_f.reshape(a.shape)
    singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
    return ContourMap(
        stype,
        window,
        hi_nodes,
        hf_nodes,
        p_i,
        p_f,
        singular,
        _cell_crossings(p_i),
        _cell_crossings(p_f),
    )


def refine_roots(
    inst: ProblemInstance,
    cmap: ContourMap,
    residual_tol: float | None = None,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
) -> list[HPair]:
    """All roots of the map's type inside its window, found by refining
    every cell where both residual fields change sign.

    Refined roots that escape the window are discarded; the rest are merged
    within dedup_tol and returned sorted by (h_i, h_f).
    """
    tol = residual_tol if residual_tol is not None else RESIDUAL_TOL_SCALE * inst.radius
    opts = SolverOptions(residual_tol=tol, max_iters=60, seed_policy=SingleSeed())
    roots: list[HPair] = []
    for i, j in cmap.intersection_cells():
        seed = HPair(
            0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1]),
            0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1]),
        )
        try:
            cand = solve_type(inst, cmap.stype, seed, opts)
        except NotConverged:
            continue
        hp = cand.hp
        if not cmap.window.contains(hp):
            continue
        if all(max(abs(hp.h_i - o.h_i), abs(hp.h_f - o.h_f)) >= dedup_tol for o in roots):
            roots.append(hp)
    roots.sort(key=lambda p: (p.h_i, p.h_f))
    return roots


def enumerate_roots(
    inst: ProblemInstance,
    stype: SolutionType,
    window: GridWindow,
    residual_tol: float | None = None,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
) -> list[HPair]:
    """All roots of one type inside the window: refine_roots on a freshly
    sampled contour map of it."""
    return refine_roots(inst, build_contours(inst, stype, window), residual_tol, dedup_tol)


def enumerate_all_types(
    inst: ProblemInstance,
    window: GridWindow,
    residual_tol: float | None = None,
) -> dict[int, list[HPair]]:
    """enumerate_roots for every type, keyed by type id."""
    from .residual import ALL_TYPES

    return {t.type_id: enumerate_roots(inst, t, window, residual_tol) for t in ALL_TYPES}
