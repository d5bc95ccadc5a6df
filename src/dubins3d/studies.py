"""Solution-space studies: parameter sweeps, seed sensitivity, gradient use.

Each study runs one Newton batch (the gradient study one per Jacobian
mode, a sweep one per chunk of at most SWEEP_CHUNK_ELEMS elements).  A
sweep and the gradient study run `solver.multistart`, the multistart of
`solve_all`, with one instance per cell or case: a sweep over every (type,
cell, seed), each cell's roots of a type merged (smallest residual wins),
the gradient study from one seed per case.  A robust sweep
seeds each cell with `solver.seed_grid`, the seeds `solve_all` uses, and
every sweep flags collinear cells with `solver.collinear`, the test
`solve_all` makes.  The seed study keeps every seed's own outcome, so it
runs one batch over every (type, seed) itself.  All are deterministic for
fixed inputs.  Sweeps and the gradient study are defined in units of the
turn radius (r = 1); the seed study takes a scenario's own radius and
reports seeds and roots in its units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import RayBatch, directionally_valid, eval_ahead, newton
from .geom import check_count, check_finite, check_radii, offset_span
from .residual import ALL_TYPES, REGULAR_TYPES, SolutionType
from .scenarios import Scenario
from .solver import GRID_MAX_ITERS, collinear, multistart, runaway_limit, seed_grid

SWEEP_MODES = ("planar", "nonplanar")
# Swept axis ranges: positions on [-6, 6] (inclusive, symmetric about 0) and
# angles on [0, 2 pi) (half-open).
POSITION_RANGE = 6.0
# Newton elements per sweep chunk: run_sweep runs whole cells, at most this
# many (type, cell, seed) elements at a time (at least one cell), so its
# memory does not grow with the slice.
SWEEP_CHUNK_ELEMS = 1 << 16


@dataclass(frozen=True)
class SweepSpec:
    """A 2D slice of the 3-variable end-configuration family, in units of
    the turn radius.

    planar mode: start at the origin heading +z, goal at [x, 0, z] heading
    [-sin(theta), 0, cos(theta)] (theta = 0 aligns the headings).
    nonplanar mode: same start, goal heading [cos(phi), sin(phi), 0].
    One of the three variables (x, z, angle) is fixed; the other two sweep.
    """

    mode: str
    fixed: tuple[str, float]
    steps: int = 61
    robust_seeds: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be one of {SWEEP_MODES}")
        if self.fixed[0] not in ("x", "z", "angle"):
            raise ValueError("fixed variable must be x, z, or angle")
        check_finite("fixed[1]", self.fixed[1])
        check_count("steps", self.steps, 2)

    @property
    def swept(self) -> tuple[str, str]:
        return tuple(v for v in ("x", "z", "angle") if v != self.fixed[0])  # type: ignore[return-value]


def axis_values(name: str, steps: int) -> np.ndarray:
    """Grid values for one axis.

    Positions are built as (k - mid) * step so that mirrored indices carry
    exactly negated coordinates; angles tile [0, 2 pi) half-open.
    """
    if name == "angle":
        return np.arange(steps) * (2.0 * math.pi / steps)
    mid = (steps - 1) // 2
    step = 2.0 * POSITION_RANGE / (steps - 1)
    return (np.arange(steps) - mid) * step


def _goal_direction(mode: str, angle: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if mode == "planar":
        return (-np.sin(angle), np.zeros_like(angle), np.cos(angle))
    return (np.cos(angle), np.sin(angle), np.zeros_like(angle))


@dataclass
class SweepResult:
    spec: SweepSpec
    axis_names: tuple[str, str]
    axis_a: np.ndarray
    axis_b: np.ndarray
    counts: np.ndarray  # total valid roots per cell
    counts_regular: np.ndarray
    counts_switched: np.ndarray
    collinear: np.ndarray

    def rows(self):
        """Row tuples (a, b, count, count_regular, count_switched, collinear)
        in deterministic cell order."""
        for i, a in enumerate(self.axis_a):
            for j, b in enumerate(self.axis_b):
                yield (
                    float(a),
                    float(b),
                    int(self.counts[i, j]),
                    int(self.counts_regular[i, j]),
                    int(self.counts_switched[i, j]),
                    int(self.collinear[i, j]),
                )


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Count directionally valid roots for every cell of the slice.

    Each cell is solved from the single seed (0, 0), or with robust_seeds
    from `solver.seed_grid` over its own span, the seeds `solve_all` gives
    the cell's instance.  `solver.multistart` runs every (type, cell, seed)
    of a chunk of whole cells, at most SWEEP_CHUNK_ELEMS elements, in one
    Newton batch and merges each cell's roots of a type (smallest residual
    wins), and one more evaluation tests the survivors for direction.
    Elements never interact and the runaway limit is the whole slice's, so
    the counts do not depend on the chunking.  Collinear cells
    (`solver.collinear`: start and goal rays on one line) cannot be
    expressed in the two-offset parametrization; they are flagged and given
    count 1 when the straight connection itself is a valid path.
    """
    name_a, name_b = spec.swept
    axis_a = axis_values(name_a, spec.steps)
    axis_b = axis_values(name_b, spec.steps)
    grid_a, grid_b = np.meshgrid(axis_a, axis_b, indexing="ij")
    values = {spec.fixed[0]: np.full(grid_a.size, float(spec.fixed[1]))}
    values[name_a] = grid_a.ravel()
    values[name_b] = grid_b.ravel()

    x, z, angle = values["x"], values["z"], values["angle"]
    n = x.size
    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (x, np.zeros(n), z), _goal_direction(spec.mode, angle))
    flagged, straight_ok = collinear(rb)

    span = offset_span(np.sqrt(x * x + z * z))
    # seeds (0, 0), or with robust_seeds the solver's grid over each cell's span
    hi0, hf0 = seed_grid(span) if spec.robust_seeds else (np.zeros((n, 1)), np.zeros((n, 1)))
    h_limit = runaway_limit(float(span.max()))
    step = max(1, SWEEP_CHUNK_ELEMS // (len(ALL_TYPES) * hi0.shape[1]))
    types, cells, valid = [], [], []
    for c0 in range(0, n, step):
        chunk = rb.take(np.arange(c0, min(c0 + step, n)))
        run, t, c, _ = multistart(chunk, hi0[c0 : c0 + step], hf0[c0 : c0 + step], GRID_MAX_ITERS, h_limit=h_limit)
        valid.append(directionally_valid(t, eval_ahead(chunk.take(c), t, run.h_i, run.h_f)))
        types.append(t)
        cells.append(c + c0)
    types, cells, valid = (np.concatenate(v) for v in (types, cells, valid))
    switched = types >= len(REGULAR_TYPES)
    counts_reg = np.bincount(cells[valid & ~switched], minlength=n)
    counts_sw = np.bincount(cells[valid & switched], minlength=n)
    counts_reg[flagged] = 0
    counts_sw[flagged] = 0
    total = counts_reg + counts_sw
    total[straight_ok] = 1
    shape = (spec.steps, spec.steps)
    return SweepResult(
        spec,
        (name_a, name_b),
        axis_a,
        axis_b,
        total.reshape(shape),
        counts_reg.reshape(shape),
        counts_sw.reshape(shape),
        flagged.reshape(shape).astype(np.int64),
    )


@dataclass(frozen=True)
class SeedStudyRow:
    seed_h_i: float
    seed_h_f: float
    type_id: int
    converged: bool
    root_h_i: float | None
    root_h_f: float | None


def run_seed_study(
    scenario: Scenario,
    half_width: float,
    resolution: int,
    type_ids: tuple[int, ...] = tuple(range(1, 9)),
) -> list[SeedStudyRow]:
    """Map every seed on a grid to the root it converges to, per type.

    half_width, seeds and roots are in the scenario's units.  half_width
    must be positive, and at most MAX_CHORD_RADII r (`geom.check_radii`).
    """
    check_finite("half_width", half_width)
    if not half_width > 0.0:
        raise ValueError(f"half_width must be positive, got {half_width!r}")
    check_count("resolution", resolution, 1)
    inst = scenario.instance
    r = inst.radius
    check_radii("half_width", half_width, r)
    vals = np.linspace(-half_width, half_width, resolution)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    hi0 = a.ravel()
    hf0 = b.ravel()
    # one batch over every (type, seed), type-major
    m, n = hi0.size, len(type_ids) * hi0.size
    codes = [SolutionType.from_id(tid).type_id - 1 for tid in type_ids]  # rejects ids outside 1-8
    types = np.repeat(np.array(codes, np.int8), m)
    seeds = np.tile(hi0 / r, len(type_ids)), np.tile(hf0 / r, len(type_ids))
    opts = dict(max_iters=scenario.options.max_iters, use_gradient=scenario.options.use_gradient)
    res = newton(RayBatch.from_instance(inst), types, *seeds, **opts)
    conv, root_hi, root_hf = res.converged, res.h_i * r, res.h_f * r
    return [
        SeedStudyRow(
            float(hi0[q % m]),
            float(hf0[q % m]),
            type_ids[q // m],
            bool(conv[q]),
            float(root_hi[q]) if conv[q] else None,
            float(root_hf[q]) if conv[q] else None,
        )
        for q in range(n)
    ]


@dataclass(frozen=True)
class GradientStudyRow:
    case: int
    distance: float
    direction_angle: float
    n_with_gradient: int
    n_without_gradient: int


def run_gradient_study(n_cases: int, rng_seed: int) -> list[GradientStudyRow]:
    """Valid-root counts with analytic versus finite-difference Jacobians.

    Each case fixes the start at the origin heading +z and draws a goal
    position uniformly in [-6, 6]^3, a goal heading uniformly on the sphere,
    and one random seed scaled to the case; both solver modes run from that
    same seed.  Deterministic for a fixed rng_seed.
    """
    check_count("n_cases", n_cases, 1)
    rng = np.random.default_rng(rng_seed)
    xf = rng.uniform(-POSITION_RANGE, POSITION_RANGE, size=(n_cases, 3))
    vf = rng.normal(size=(n_cases, 3))
    vf /= np.linalg.norm(vf, axis=1, keepdims=True)
    chord = np.linalg.norm(xf, axis=1)
    span = offset_span(chord)
    seed_frac = rng.uniform(-1.0, 1.0, size=(n_cases, 2))
    hi0 = seed_frac[:, 0] * span
    hf0 = seed_frac[:, 1] * span

    rb = RayBatch.build((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(xf.T), tuple(vf.T))
    h_limit = runaway_limit(float(span.max()))
    counts = {}
    for use_gradient in (True, False):
        # one seed per case, so the merge keeps every converged element
        run, types, cases, _ = multistart(rb, hi0[:, None], hf0[:, None], 100, use_gradient, h_limit)
        valid = directionally_valid(types, eval_ahead(rb.take(cases), types, run.h_i, run.h_f))
        counts[use_gradient] = np.bincount(cases[valid], minlength=n_cases)
    angles = np.arccos(np.clip(vf[:, 2], -1.0, 1.0))  # angle from the +z start heading
    return [
        GradientStudyRow(k, float(chord[k]), float(angles[k]), int(counts[True][k]), int(counts[False][k]))
        for k in range(n_cases)
    ]
