"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: the residual fields of the
requested types are sampled on a dense grid from the batch kernel's
invariants, cells where both of a type's fields change sign are detected
in marching-squares fashion, and one Newton batch refines from the centre
of every such cell of every type (`enumerate_all_types`, for all eight
types or any subset).  `sample_contours` exports each type's fields for
plotting, one `batch.eval_residuals` call per type on the whole window.

`enumerate_all_types` samples only where a root can lie.  p_i = h_i +
s_i T_i with T_i >= 0, and fl(h + T) >= h, so p_i >= ZERO_SNAP wherever
s_i = +1 and h_i >= ZERO_SNAP (and <= -ZERO_SNAP wherever s_i = -1 and
h_i <= -ZERO_SNAP): no such cell crosses, and p_f likewise.  So the types
of each sign pair (s_i, s_f) sample their dense p_i fields only on that
quadrant's node rows and columns (`_reach`), and p_f only at the corners
of their p_i crossing cells.  `_intersection_cells` walks those nodes in
blocks of h_i node rows, one `batch.frame` per block for all of a
quadrant's types: a 401^2 float64 field is 1.29 MB, so a whole-grid pass
is bound by memory bandwidth.  Every node value is the whole grid's, so
the cells, and the roots, are exactly those of `sample_contours`' maps.
As in `solver`, both run in units of the radius; windows, fields and
roots are in the instance's own units.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from . import solver as _solver
from .batch import RayBatch
from .batch import eval_residuals  # noqa: F401  unused here; bench/tracing.py wraps oracle.eval_residuals
from .geom import ProblemInstance, check_count, check_finite
from .residual import ALL_TYPES, HPair, SolutionType
from .solver import DEFAULT_DEDUP_TOL, GRID_MAX_ITERS
from .solver import solve_type  # noqa: F401  unused here; bench/tracing.py wraps oracle.solve_type

# Node values this close to zero (in units of r) count as crossings so roots
# sitting exactly on grid lines are not silently dropped.
ZERO_SNAP = 1e-12

DEFAULT_RESOLUTION = 400
# Grid nodes per sampled block: a block's float64 field is 128 KB, so its
# working set stays in cache where a whole 401^2 grid's does not.
BLOCK_NODES = 1 << 14


@dataclass(frozen=True)
class GridWindow:
    """Rectangular offset window with a cell resolution per axis."""

    h_i_range: tuple[float, float]
    h_f_range: tuple[float, float]
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        for name in ("h_i_range", "h_f_range"):
            for k, v in enumerate(getattr(self, name)):
                check_finite(f"{name}[{k}]", v)
        if self.h_i_range[0] >= self.h_i_range[1] or self.h_f_range[0] >= self.h_f_range[1]:
            raise ValueError("window ranges must have lo < hi")
        check_count("resolution", self.resolution, 16)

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
    a singular node are never marked.  The fields are read-only.
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
    all <= -ZERO_SNAP: a sign change, or a node within ZERO_SNAP of zero.

    The first two axes of field index the h_i and h_f nodes, so a node grid
    gives its cells and a (2, 2, m) array of the corners of m cells gives
    those m cells, as (1, 1, m).
    """

    def every(node: np.ndarray) -> np.ndarray:
        rows = node[:-1] & node[1:]
        return rows[:, :-1] & rows[:, 1:]

    return every(np.isfinite(field)) & ~every(field >= ZERO_SNAP) & ~every(field <= -ZERO_SNAP)


def _reach(h: np.ndarray, sign: int) -> tuple[int, int]:
    """The cells [lo, hi) between the nodes h (in units of r) where a field
    h + sign T, T >= 0, can cross: those with a node below ZERO_SNAP for
    sign +1 and above -ZERO_SNAP for sign -1, since fl(h + T) >= h.  Empty
    as (0, 0)."""
    near = np.minimum(h[:-1], h[1:]) < ZERO_SNAP if sign > 0 else np.maximum(h[:-1], h[1:]) > -ZERO_SNAP
    cells = np.flatnonzero(near)
    return (int(cells[0]), int(cells[-1]) + 1) if cells.size else (0, 0)


def sample_contours(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> Iterator[ContourMap]:
    """The contour map of every requested type: regular types first, then
    switched, each family in the requested order.

    Each map's fields come from one `batch.eval_residuals` call on the
    whole window; their crossings are taken in units of r, then the fields
    are scaled by r and made read-only.
    """
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    hi, hf = (hi_nodes / r)[:, None], (hf_nodes / r)[None, :]
    rb = RayBatch.from_instance(inst)
    for t in sorted(stypes, key=lambda t: t.switched):  # stable: regular first
        p_i, p_f = _batch.eval_residuals(rb, t.type_id - 1, hi, hf)
        crossings_i, crossings_f = _cell_crossings(p_i), _cell_crossings(p_f)
        for p in (p_i, p_f):
            p *= r
            p.flags.writeable = False
        singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
        yield ContourMap(t, window, hi_nodes, hf_nodes, p_i, p_f, singular, crossings_i, crossings_f)


def _intersection_cells(inst: ProblemInstance, window: GridWindow, found: list[SolutionType]):
    """(owner, i, j): the row and column of every cell where both fields of
    a type cross, and the position in found of that type, in the order of
    found and then row-major.

    The sign of T_i >= 0 bounds where p_i can cross (`_reach`), so the
    types of each (start_sign, end_sign) quadrant sample the dense p_i
    fields and crossings only on its node rows and columns, in blocks of
    max(1, BLOCK_NODES // columns) node rows plus the first row of the
    next, so every cell lies in exactly one block.  Each block forms
    `batch.frame` and `batch.half_angles` once for all of the quadrant's
    types; a type reads them only through its direction, which picks one
    of the two tangents where sigma A <= 0, and its start sign, so every
    value has the bits `batch.eval_residuals` gives.  p_f is then formed
    only at the four corners of each type's p_i crossing cells, all types
    in one `batch.eval_residuals` call, and tested by the same crossing
    rule.  Node values are the whole grid's, so the cells are exactly those
    of `sample_contours`' maps.
    """
    hi, hf = (nodes / inst.radius for nodes in window.nodes())
    rb = RayBatch.from_instance(inst)
    # per type, the row and column of each of its p_i crossing cells, row-major
    ij = [(np.empty(0, np.intp),) * 2] * len(found)
    quadrants: dict[tuple[int, int], list[int]] = {}
    for k, t in enumerate(found):
        quadrants.setdefault((t.start_sign, t.end_sign), []).append(k)
    for (s_i, s_f), quad in quadrants.items():
        (r0, r1), (c0, c1) = _reach(hi, s_i), _reach(hf, s_f)
        if r0 == r1 or c0 == c1:
            continue
        rows, cols = hi[r0 : r1 + 1, None], hf[None, c0 : c1 + 1]
        width, step = c1 - c0, max(1, BLOCK_NODES // cols.size)
        flat = {k: [] for k in quad}
        for row in range(0, r1 - r0, step):
            h = rows[row : row + step + 1]
            frame = _batch.frame(rb, h, cols)
            A, tangents = frame[0], _batch.half_angles(frame[0], frame[3], frame[6])
            # h - tan has the bits of h + (-1) tan
            tans = (np.where(A >= 0.0 if found[k].switched else A <= 0.0, *tangents) for k in quad)
            fields = [h + tan if s_i > 0 else h - tan for tan in tans]
            # The frame, fields and crossings stay bound until the next
            # block's are formed, and the tangents go before the crossings,
            # so the malloc heap reuses the block's pages: freeing arrays
            # early cost 4.7 times the minor faults and 23% more time per
            # all-types call at resolution 400, one type at a time 4-13%.
            del tangents
            crossings = [_cell_crossings(p) for p in fields]
            for k, c in zip(quad, crossings):
                # flat indices: np.nonzero of a 2D block takes ten times as long
                flat[k].append(np.flatnonzero(c) + row * width)
        for k, parts in flat.items():
            i, j = np.divmod(np.concatenate(parts), width)
            ij[k] = i + r0, j + c0
    owner = np.repeat(np.arange(len(found)), [i.size for i, _ in ij])
    i, j = (np.concatenate(a) for a in zip(*ij))
    # p_f at the corners of those cells, each under its cell's type, as a
    # (2, 2, m) array indexed as a cell's nodes are
    corner = np.array([[0], [1]])
    codes = np.array([t.type_id - 1 for t in found], np.int8)
    _, p_f = _batch.eval_residuals(rb, codes[owner], hi[i + corner][:, None], hf[j + corner][None])
    hit = _cell_crossings(p_f)[0, 0]
    return owner[hit], i[hit], j[hit]


def enumerate_all_types(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> dict[int, list[HPair]]:
    """All roots of every requested type inside the window, keyed by type id
    in the order `sample_contours` yields the types; no types give {}.

    One Newton batch refines from the centre of every cell where both
    fields of a type change sign (`_intersection_cells`, which never forms
    a field of the whole grid).  Refined roots that escape the window by
    more than 1e-9 r are discarded; the rest are merged per type within
    DEFAULT_DEDUP_TOL r (smallest residual wins) and returned sorted by
    (h_i, h_f).
    """
    found = sorted(stypes, key=lambda t: t.switched)  # sample_contours' order
    if not found:
        return {}
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    owner, i, j = _intersection_cells(inst, window, found)
    types = np.array([t.type_id - 1 for t in found], np.int8)[owner]
    hi0 = 0.5 * (hi_nodes[i] + hi_nodes[i + 1]) / r
    hf0 = 0.5 * (hf_nodes[j] + hf_nodes[j + 1]) / r
    res = _batch.newton(RayBatch.from_instance(inst), types, hi0, hf0, max_iters=GRID_MAX_ITERS)
    res.h_i *= r
    res.h_f *= r
    cand = np.flatnonzero(res.converged & window.contains(res, 1e-9 * r))
    roots: dict[int, list[HPair]] = {t.type_id: [] for t in found}
    for q in _solver.dedup(cand, types, res.h_i, res.h_f, res.max_abs(), DEFAULT_DEDUP_TOL * r):
        roots[int(types[q]) + 1].append(HPair(float(res.h_i[q]), float(res.h_f[q])))
    for hps in roots.values():
        hps.sort(key=lambda p: (p.h_i, p.h_f))
    return roots
