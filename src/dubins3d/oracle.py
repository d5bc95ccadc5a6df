"""Brute-force enumeration of tangency-system roots over an offset window.

Independent of the multistart solver's seeding: the residual fields of the
requested types are sampled on a dense grid from the batch kernel's
invariants, cells where both of a type's fields change sign are detected
in marching-squares fashion, and one Newton batch refines from the centre
of every such cell of every type (`enumerate_all_types`, for all eight
types or any subset); `sample_contours` exports the fields for plotting.
Both read one sampler that walks nodes in blocks of h_i node rows
(`_sample_blocks`): a 401^2 float64 field is 1.29 MB, so a whole-grid
pass is bound by memory bandwidth.

`enumerate_all_types` samples only where a root can lie.  p_i = h_i +
s_i T_i with T_i >= 0, and fl(h + T) >= h, so p_i >= ZERO_SNAP wherever
s_i = +1 and h_i >= ZERO_SNAP (and <= -ZERO_SNAP wherever s_i = -1 and
h_i <= -ZERO_SNAP): no such cell crosses, and p_f likewise.  So the types
of each sign pair (s_i, s_f) sample their dense p_i fields only on that
quadrant's node rows and columns (`_reach`), and p_f only at the corners
of their p_i crossing cells.  Every node value is the whole grid's, so the
cells, and the roots, are exactly those of `sample_contours`' maps.  As in
`solver`, both run in units of the radius; windows, fields and roots are
in the instance's own units.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from . import solver as _solver
from .batch import RayBatch
from .batch import eval_residuals  # noqa: F401  unused here; bench/tracing.py wraps oracle.eval_residuals
from .geom import ProblemInstance, check_count
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
        if not np.isfinite((*self.h_i_range, *self.h_f_range)).all():
            raise ValueError("window ranges must be finite")
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


def _fields(frame, end: str, h, keys) -> dict:
    """The fields of the keys (end, switched, sign) of one end, in units of
    r: p_i = h_i + s_i T_i where end is "i", p_f = h_f + s_f T_f where "f",
    from `batch.frame`'s values and that end's offsets h.

    A type reads the frame only through its direction, which picks one of
    the end's two half-angle tangents where sigma A (or B) <= 0, and its
    sign, so every value has the bits `batch.eval_residuals` gives.
    """
    keys = [(sw, s) for e, sw, s in keys if e == end]
    if not keys:
        return {}
    A, B, _, d, _, _, r_i, r_f = frame
    lin, root = (A, r_i) if end == "i" else (B, r_f)
    tangents = _batch.half_angles(lin, d, root)
    fields = {}
    for switched in (False, True):
        signs = [s for sw, s in keys if sw == switched]
        if signs:
            tan = np.where(lin >= 0.0 if switched else lin <= 0.0, *tangents)
            for sign in signs:
                # h - tan has the bits of h + (-1) tan
                fields[end, switched, sign] = h + tan if sign > 0 else h - tan
    return fields


def _sample_blocks(rb: RayBatch, hi: np.ndarray, hf: np.ndarray, keys: list):
    """The fields keys (end, switched, sign) on the nodes hi x hf, in units
    of r, one block of h_i node rows at a time.

    hi is a column of h_i nodes and hf a row of h_f nodes: a window's, or a
    node sub-range of it.  Yields (first node row, fields), fields mapping
    each key to the block's field and its cell crossings.  A block holds
    max(1, BLOCK_NODES // hf.size) node rows plus the first row of the
    next, so every cell lies in exactly one block.  A, B and d are formed
    per node, Q_i per h_f node and Q_f per h_i node (`batch.frame`).

    A block's arrays stay bound until the next block is formed, so the
    malloc heap reuses their pages: freeing them at the yield let it trim
    and fault them back in, with 4.7 times the minor faults and 23% more
    time per all-types `enumerate_all_types` call at resolution 400.
    """
    step = max(1, BLOCK_NODES // hf.size)
    for row in range(0, hi.shape[0] - 1, step):
        h_blk = hi[row : row + step + 1]
        frame = _batch.frame(rb, h_blk, hf)
        fields = {}
        for end, h in (("i", h_blk), ("f", hf)):
            for key, p in _fields(frame, end, h, keys).items():
                fields[key] = p, _cell_crossings(p)
        yield row, fields


def sample_contours(
    inst: ProblemInstance, window: GridWindow, stypes: Iterable[SolutionType] = ALL_TYPES
) -> Iterator[ContourMap]:
    """The contour map of every requested type: regular types first, then
    switched, each family in the requested order.

    The distinct fields of all requested types are assembled from one
    block-by-block pass over the whole window (`_sample_blocks`) and scaled
    by r once whole; maps of one family share these read-only arrays.
    """
    order = sorted(stypes, key=lambda t: t.switched)  # stable: regular first
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    n = hi_nodes.size
    # a dict, not a set: the same order, so the same allocations, on every run
    keys = dict.fromkeys(k for t in order for k in (("i", t.switched, t.start_sign), ("f", t.switched, t.end_sign)))
    full = {}
    rb = RayBatch.from_instance(inst)
    for row, fields in _sample_blocks(rb, (hi_nodes / r)[:, None], (hf_nodes / r)[None, :], list(keys)):
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


def _intersection_cells(inst: ProblemInstance, window: GridWindow, found: list[SolutionType]):
    """(owner, i, j): the row and column of every cell where both fields of
    a type cross, and the position in found of that type, in the order of
    found and then row-major.

    The sign of T_i >= 0 bounds where p_i can cross (`_reach`), so the
    types of each (start_sign, end_sign) quadrant sample the dense p_i
    fields and crossings only on its node rows and columns, block by block
    (`_sample_blocks`).  p_f is then formed only at the four corners of
    each type's p_i crossing cells, all types in one
    `batch.eval_residuals` call, and tested by the same crossing rule.  Node
    values are the whole grid's, so the cells are exactly those of
    `sample_contours`' maps.
    """
    r = inst.radius
    hi_nodes, hf_nodes = window.nodes()
    hi, hf = hi_nodes / r, hf_nodes / r
    rb = RayBatch.from_instance(inst)
    # per type, the row and column of each of its p_i crossing cells, row-major
    ij = [(np.empty(0, np.intp),) * 2] * len(found)
    for s_i, s_f in dict.fromkeys((t.start_sign, t.end_sign) for t in found):
        (r0, r1), (c0, c1) = _reach(hi, s_i), _reach(hf, s_f)
        if r0 == r1 or c0 == c1:
            continue
        quad = {k: [] for k, t in enumerate(found) if (t.start_sign, t.end_sign) == (s_i, s_f)}
        keys = list(dict.fromkeys(("i", found[k].switched, s_i) for k in quad))
        width = c1 - c0
        for row, fields in _sample_blocks(rb, hi[r0 : r1 + 1, None], hf[None, c0 : c1 + 1], keys):
            for k, flat in quad.items():
                # flat indices: np.nonzero of a 2D block takes ten times as long
                flat.append(np.flatnonzero(fields["i", found[k].switched, s_i][1]) + row * width)
        for k, flat in quad.items():
            i, j = np.divmod(np.concatenate(flat), width)
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
