"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: the residual fields of all
requested types are sampled on a dense grid from one geometry pass
(`sample_contours`), cells where both fields change sign are detected in
marching-squares fashion, and one Newton batch refines from the centre of
every such cell of every type.  Used to audit solver completeness and to
export residual fields for plotting.  As in `solver`, both run in units of the radius;
windows, fields and roots are in the instance's own units.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from .batch import RayBatch
from .batch import eval_residuals  # noqa: F401  unused here; bench/tracing.py wraps oracle.eval_residuals
from .geom import ProblemInstance
from .residual import ALL_TYPES, HPair, SolutionType
from .solver import DEFAULT_DEDUP_TOL, DEFAULT_RESIDUAL_TOL, GRID_MAX_ITERS, dedup
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
    a singular node are never marked.  The fields are read-only: maps of one
    family from one `sample_contours` call share them.
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
    """Cells whose four nodes are finite and neither all >= ZERO_SNAP nor
    all <= -ZERO_SNAP: a sign change, or a node within ZERO_SNAP of zero."""

    def every(node: np.ndarray) -> np.ndarray:
        rows = node[:-1] & node[1:]
        return rows[:, :-1] & rows[:, 1:]

    return every(np.isfinite(field)) & ~every(field >= ZERO_SNAP) & ~every(field <= -ZERO_SNAP)


def sample_contours(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> Iterator[ContourMap]:
    """The contour map of every requested type, from one geometry pass over
    the window: regular types first, then switched, each family in the
    requested order.

    The h_i nodes form a column and the h_f nodes a row, so the offset
    points are computed per node and broadcast.  A switched type negates the
    segment direction g, which flips g . v exactly and keeps |v x g|, so the
    regular geometry gives all eight types' fields bit for bit.  Each
    distinct field (per family, one per start sign for p_i and one per end
    sign for p_f) is formed once, its crossings marked in units of r, then
    scaled by r; maps of one family share these read-only arrays, and only
    one family's are held at a time.
    """
    stypes = tuple(stypes)
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    hi, hf = (hi_nodes / r)[:, None], (hf_nodes / r)[None, :]
    ends, bad = _batch._geometry(RayBatch.from_instance(inst, 1), ALL_TYPES[0], hi, hf)[-2:]
    # keep only |v x g| and g . v per end: holding the rest of the geometry
    # while the fields are formed costs page faults and peak RSS
    (n_i, gv_i), (n_f, gv_f) = [end[1:] for end in ends]
    del ends
    for switched in (False, True):
        family = [t for t in stypes if t.switched == switched]
        if not family:
            continue
        sgn = -1.0 if switched else 1.0
        fields = {}
        for end, h, n, gv, signs in (
            ("i", hi, n_i, gv_i, {t.start_sign for t in family}),
            ("f", hf, n_f, gv_f, {t.end_sign for t in family}),
        ):
            q = (1.0 / n) * (1.0 - sgn * gv)
            for sign in signs:
                p = np.where(bad, np.nan, h + sign * q)
                crossings = _cell_crossings(p)
                p *= r
                p.flags.writeable = False
                fields[end, sign] = p, crossings
        for t in family:
            p_i, crossings_i = fields["i", t.start_sign]
            p_f, crossings_f = fields["f", t.end_sign]
            singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
            yield ContourMap(t, window, hi_nodes, hf_nodes, p_i, p_f, singular, crossings_i, crossings_f)


def build_contours(inst: ProblemInstance, stype: SolutionType, window: GridWindow) -> ContourMap:
    """Sample both residual fields of one type over the window and mark
    sign changes: `sample_contours` for that type alone."""
    return next(sample_contours(inst, window, (stype,)))


def _cell_centres(cmap: ContourMap) -> tuple[np.ndarray, np.ndarray]:
    """The centre of every cell of the map where both fields change sign."""
    i, j = cmap.intersection_cells().T
    return 0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1]), 0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1])


def _refine(
    inst: ProblemInstance, window: GridWindow, seeds: list[tuple[SolutionType, np.ndarray, np.ndarray]]
) -> dict[int, list[HPair]]:
    """`refine_roots` for every (type, h_i seeds, h_f seeds) entry, keyed by
    type id: one Newton batch over all their seeds, roots merged per type."""
    r = inst.radius
    counts = [hi.size for _, hi, _ in seeds]
    hi0 = np.concatenate([hi for _, hi, _ in seeds])
    hf0 = np.concatenate([hf for _, _, hf in seeds])
    rb = RayBatch.from_instance(inst, hi0.size)
    types = _batch.TypeBatch.repeat([t for t, _, _ in seeds], counts)
    res = _batch.newton(rb, types, hi0 / r, hf0 / r, DEFAULT_RESIDUAL_TOL, max_iters=GRID_MAX_ITERS)
    res.h_i *= r
    res.h_f *= r
    cand = np.flatnonzero(res.converged & window.contains(res, 1e-9 * r))
    group = np.repeat(np.arange(len(seeds)), counts)
    roots: dict[int, list[HPair]] = {t.type_id: [] for t, _, _ in seeds}
    for q in dedup(cand, group, res.h_i, res.h_f, res.max_abs(), DEFAULT_DEDUP_TOL * r):
        roots[seeds[group[q]][0].type_id].append(HPair(float(res.h_i[q]), float(res.h_f[q])))
    for found in roots.values():
        found.sort(key=lambda p: (p.h_i, p.h_f))
    return roots


def refine_roots(inst: ProblemInstance, cmap: ContourMap) -> list[HPair]:
    """All roots of the map's type inside its window, found by one Newton
    batch seeded at the centre of every cell where both residual fields
    change sign.

    Refined roots that escape the window by more than 1e-9 r are discarded;
    the rest are merged within DEFAULT_DEDUP_TOL r (smallest residual wins)
    and returned sorted by (h_i, h_f).
    """
    return _refine(inst, cmap.window, [(cmap.stype, *_cell_centres(cmap))])[cmap.stype.type_id]


def enumerate_roots(inst: ProblemInstance, stype: SolutionType, window: GridWindow) -> list[HPair]:
    """All roots of one type inside the window: refine_roots on a freshly
    sampled contour map of it."""
    return refine_roots(inst, build_contours(inst, stype, window))


def enumerate_all_types(inst: ProblemInstance, window: GridWindow) -> dict[int, list[HPair]]:
    """refine_roots for every type, keyed by type id: the cell centres of all
    eight maps are collected while one sampling pass (`sample_contours`)
    yields them, so only one family's fields are alive at a time, and one
    Newton batch refines them all, merging roots per type."""
    return _refine(inst, window, [(cmap.stype, *_cell_centres(cmap)) for cmap in sample_contours(inst, window)])
