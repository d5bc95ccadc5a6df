"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: the residual fields of all
requested types are sampled on a dense grid from the batch kernel's
invariants, cells where both fields change sign are detected in
marching-squares fashion, and one Newton batch refines from the centre of
every such cell of every type (`enumerate_all_types`, for all eight types or
any subset); `sample_contours` exports the fields for plotting.  Both read
one sampler that walks the grid in blocks of h_i node rows
(`_sample_blocks`): a 401^2 float64 field is 1.29 MB, so a whole-grid
pass is bound by memory bandwidth, and `enumerate_all_types` never forms a
field of the whole grid.  As in `solver`, both run in units of the radius;
windows, fields and roots are in the instance's own units.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from . import solver as _solver
from .batch import RayBatch
from .batch import eval_residuals  # noqa: F401  unused here; bench/tracing.py wraps oracle.eval_residuals
from .geom import ProblemInstance
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


def _sample_blocks(inst: ProblemInstance, window: GridWindow, stypes: list[SolutionType]):
    """The requested types' distinct fields over the window, in units of r,
    one block of h_i node rows at a time.

    Yields (first node row, fields), fields mapping (end, switched, sign) to
    the block's field and its cell crossings: per family, one field per
    start sign for p_i and one per end sign for p_f.  A block holds
    max(1, BLOCK_NODES // (resolution + 1)) node rows plus the first row of
    the next, so every cell lies in exactly one block.  The h_i nodes form
    a column and the h_f nodes a row, so A, B and d are formed per grid
    point, Q_i per h_f node and Q_f per h_i node (`batch.frame`).  A type
    reads them only through its direction, which picks one of each end's
    two half-angle tangents where sigma A (or B) <= 0, and its signs, so
    every value has the bits `batch.eval_residuals` gives.

    A block's arrays stay bound until the next block is formed, so the
    malloc heap reuses their pages: freeing them at the yield let it trim
    and fault them back in, with 4.7 times the minor faults and 23% more
    time per all-types `enumerate_all_types` call at resolution 400.
    """
    # a dict, not a set: the same order, so the same allocations, on every run
    keys = dict.fromkeys(k for t in stypes for k in (("i", t.switched, t.start_sign), ("f", t.switched, t.end_sign)))
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    hi, hf = (hi_nodes / r)[:, None], (hf_nodes / r)[None, :]
    rb = RayBatch.from_instance(inst)
    step = max(1, BLOCK_NODES // hf.size)
    for row in range(0, window.resolution, step):
        h_blk = hi[row : row + step + 1]
        A, B, _, d, _, _, r_i, r_f = _batch.frame(rb, h_blk, hf)
        fields = {}
        for end, h, lin, root in (("i", h_blk, A, r_i), ("f", hf, B, r_f)):
            tangents = _batch.half_angles(lin, d, root)
            for switched in (False, True):
                signs = [s for e, sw, s in keys if e == end and sw == switched]
                if not signs:
                    continue
                tan = np.where(lin >= 0.0 if switched else lin <= 0.0, *tangents)
                for sign in signs:
                    p = h + sign * tan
                    fields[end, switched, sign] = p, _cell_crossings(p)
        yield row, fields


def sample_contours(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> Iterator[ContourMap]:
    """The contour map of every requested type: regular types first, then
    switched, each family in the requested order.

    The distinct fields of all requested types are assembled from one
    block-by-block pass (`_sample_blocks`, the sampler `enumerate_all_types`
    reads) and scaled by r once whole; maps of one family share these
    read-only arrays.
    """
    order = sorted(stypes, key=lambda t: t.switched)  # stable: regular first
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    n = hi_nodes.size
    full = {}
    for row, fields in _sample_blocks(inst, window, order):
        for key, (p, crossings) in fields.items():
            if key not in full:
                full[key] = np.empty((n, n)), np.empty((n - 1, n - 1), bool)
            full[key][0][row : row + p.shape[0]] = p
            full[key][1][row : row + crossings.shape[0]] = crossings
    for p, _ in full.values():
        p *= r
        p.flags.writeable = False
    for t in order:
        p_i, crossings_i = full["i", t.switched, t.start_sign]
        p_f, crossings_f = full["f", t.switched, t.end_sign]
        singular = ~(np.isfinite(p_i) & np.isfinite(p_f))
        yield ContourMap(t, window, hi_nodes, hf_nodes, p_i, p_f, singular, crossings_i, crossings_f)


def enumerate_all_types(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> dict[int, list[HPair]]:
    """All roots of every requested type inside the window, keyed by type id
    in the order `sample_contours` yields the types; no types give {}.

    The centre of every cell where both fields of a type change sign is
    collected block by block from `_sample_blocks`, so no field of the whole
    grid is ever formed, and one Newton batch refines them all.  Refined
    roots that escape the window by more than 1e-9 r are discarded; the rest
    are merged per type within DEFAULT_DEDUP_TOL r (smallest residual wins)
    and returned sorted by (h_i, h_f).
    """
    found = sorted(stypes, key=lambda t: t.switched)  # sample_contours' order
    if not found:
        return {}
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    # cells by flat index, row-major as np.argwhere would list them
    cols = window.resolution
    cells = [[] for _ in found]
    for row, fields in _sample_blocks(inst, window, found):
        for t, blocks in zip(found, cells):
            crossings = fields["i", t.switched, t.start_sign][1] & fields["f", t.switched, t.end_sign][1]
            blocks.append(np.flatnonzero(crossings) + row * cols)
    cells = [np.concatenate(blocks) for blocks in cells]
    types = np.repeat(np.array([t.type_id - 1 for t in found], np.int8), [c.size for c in cells])
    i, j = np.divmod(np.concatenate(cells), cols)
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
