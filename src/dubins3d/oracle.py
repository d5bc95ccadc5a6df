"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: the residual fields of all
requested types are sampled on a dense grid from one pass of the batch
kernel's invariants (`sample_contours`), cells where both fields change sign
are detected in marching-squares fashion, and one Newton batch refines from
the centre of every such cell of every type (`enumerate_all_types`, for all
eight types or any subset).  Used to audit solver completeness and to
export residual fields for plotting.  As in `solver`, both run in units of
the radius; windows, fields and roots are in the instance's own units.
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
from .solver import DEFAULT_DEDUP_TOL, GRID_MAX_ITERS, dedup
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
    """The contour map of every requested type, from one pass of the
    batch kernel's invariants over the window: regular types first, then
    switched, each family in the requested order.

    The h_i nodes form a column and the h_f nodes a row, so A, B and d are
    formed per grid point, Q_i per h_f node and Q_f per h_i node
    (`batch.frame`).  A type reads them only through its direction, which
    picks one of each end's two half-angle tangents, and its signs, so they
    give all eight types' fields bit for bit as `batch.eval_residuals`
    does.  Each distinct field (per family, one per start sign for p_i and
    one per end sign for p_f) is formed once, its crossings marked in units
    of r, then scaled by r; maps of one family share these read-only
    arrays, and only one family's are held at a time.
    """
    stypes = tuple(stypes)
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    hi, hf = (hi_nodes / r)[:, None], (hf_nodes / r)[None, :]
    A, B, _, d, _, _, r_i, r_f = _batch.frame(RayBatch.from_instance(inst), hi, hf)
    # per end, the two candidate half-angle tangents and where A (or B) <= 0
    # and >= 0, the conditions sigma A <= 0 of the two families
    ends = {}
    for end, lin, root in (("i", A, r_i), ("f", B, r_f)):
        ends[end] = _batch.half_angles(lin, d, root), {False: lin <= 0.0, True: lin >= 0.0}
    del A, B, d
    for switched in (False, True):
        family = [t for t in stypes if t.switched == switched]
        if not family:
            continue
        fields = {}
        for end, h, signs in (("i", hi, {t.start_sign for t in family}), ("f", hf, {t.end_sign for t in family})):
            tangents, low = ends[end]
            tan = np.where(low[switched], *tangents)
            for sign in signs:
                p = h + sign * tan
                crossings = _cell_crossings(p)
                p *= r
                p.flags.writeable = False
                fields[end, sign] = p, crossings
        for t in family:
            p_i, crossings_i = fields["i", t.start_sign]
            p_f, crossings_f = fields["f", t.end_sign]
            singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
            yield ContourMap(t, window, hi_nodes, hf_nodes, p_i, p_f, singular, crossings_i, crossings_f)


def enumerate_all_types(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> dict[int, list[HPair]]:
    """All roots of every requested type inside the window, keyed by type id
    in the order `sample_contours` yields the types; no types give {}.

    The centre of every cell where both fields of a type's map change sign
    is collected while one sampling pass yields the maps, so only one
    family's fields are alive at a time, and one Newton batch refines them
    all.  Refined roots that escape the window by more than 1e-9 r are
    discarded; the rest are merged per type within DEFAULT_DEDUP_TOL r
    (smallest residual wins) and returned sorted by (h_i, h_f).
    """
    stypes = tuple(stypes)
    if not stypes:
        return {}
    r = inst.radius
    found, hi0, hf0 = [], [], []
    for cmap in sample_contours(inst, window, stypes):
        i, j = cmap.intersection_cells().T
        found.append(cmap.stype)
        hi0.append(0.5 * (cmap.h_i_nodes[i] + cmap.h_i_nodes[i + 1]))
        hf0.append(0.5 * (cmap.h_f_nodes[j] + cmap.h_f_nodes[j + 1]))
    types = _batch.TypeBatch.repeat(found, [hi.size for hi in hi0])
    hi0, hf0 = np.concatenate(hi0) / r, np.concatenate(hf0) / r
    res = _batch.newton(RayBatch.from_instance(inst), types, hi0, hf0, max_iters=GRID_MAX_ITERS)
    res.h_i *= r
    res.h_f *= r
    cand = np.flatnonzero(res.converged & window.contains(res, 1e-9 * r))
    roots: dict[int, list[HPair]] = {t.type_id: [] for t in found}
    for q in dedup(cand, types.code, res.h_i, res.h_f, res.max_abs(), DEFAULT_DEDUP_TOL * r):
        roots[ALL_TYPES[types.code[q]].type_id].append(HPair(float(res.h_i[q]), float(res.h_f[q])))
    for hps in roots.values():
        hps.sort(key=lambda p: (p.h_i, p.h_f))
    return roots
