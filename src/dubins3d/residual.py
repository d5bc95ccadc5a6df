"""Two-variable parametrization of 3D CSC paths.

A candidate path is located by two signed offsets (h_i, h_f) along the start
and goal rays.  The offset points define the carrier line of the straight
segment; for each end there are two circles of radius r tangent to both the
end's ray and that line, giving eight sign/direction combinations (solution
types).  Each type yields a pair of tangency scalars (p_i, p_f) that vanish
exactly when the tangent points coincide with the start and goal positions,
so solving a type means finding a root of a 2x2 system.  The system has
closed-form partial derivatives, implemented here and verified against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .geom import (
    EPS_ZERO,
    DubinsError,
    ProblemInstance,
    UnitVec3,
    Vec3,
)

# Threshold on ||v x h|| below which the tangent-circle construction divides
# by ~0; evaluation fails cleanly and the solver backtracks.
EPS_SING = 1e-9


class CoincidentHPoints(DubinsError):
    """The two offset points coincide, so the segment direction is undefined."""


class ParallelDirections(DubinsError):
    """An end direction is parallel to the segment line; the tangent circle
    construction is singular there."""

    def __init__(self, end: str):
        super().__init__(f"{end} direction parallel to the segment line")
        self.end = end


@dataclass(frozen=True, slots=True)
class SolutionType:
    """One of the eight CSC solution types.

    switched selects travel along the reversed segment direction; start_sign
    and end_sign (+1/-1) select which of the two tangent circles is used at
    each end.
    """

    switched: bool
    start_sign: int
    end_sign: int

    def __post_init__(self) -> None:
        if self.start_sign not in (1, -1) or self.end_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    @property
    def direction(self) -> float:
        """-1.0 for switched types, whose travel reverses the segment
        direction, else 1.0."""
        return -1.0 if self.switched else 1.0

    @property
    def type_id(self) -> int:
        """Type number 1-8: regular types are 1-4, switched 5-8; within each
        family the start sign is the column and the end sign the row."""
        base = 5 if self.switched else 1
        return base + (0 if self.start_sign > 0 else 2) + (0 if self.end_sign > 0 else 1)

    @classmethod
    def from_id(cls, type_id: int) -> "SolutionType":
        if not 1 <= type_id <= 8:
            raise ValueError(f"type_id must be 1..8, got {type_id}")
        k = type_id - 1
        return cls(switched=k >= 4, start_sign=1 if (k % 4) < 2 else -1, end_sign=1 if (k % 2) == 0 else -1)

    def __str__(self) -> str:
        fam = "switched" if self.switched else "regular"
        return f"Type{self.type_id}({fam},{'+' if self.start_sign > 0 else '-'},{'+' if self.end_sign > 0 else '-'})"


ALL_TYPES: tuple[SolutionType, ...] = tuple(SolutionType.from_id(k) for k in range(1, 9))
REGULAR_TYPES: tuple[SolutionType, ...] = ALL_TYPES[:4]
SWITCHED_TYPES: tuple[SolutionType, ...] = ALL_TYPES[4:]


@dataclass(frozen=True, slots=True)
class HPair:
    """Signed offsets along the start and goal rays (the two unknowns)."""

    h_i: float
    h_f: float

    def __post_init__(self) -> None:
        if not (isfinite(self.h_i) and isfinite(self.h_f)):
            raise ValueError(f"offsets must be finite, got ({self.h_i}, {self.h_f})")


@dataclass(frozen=True, slots=True)
class ResidualPair:
    """Tangency scalars for one type; a root has both equal to zero."""

    p_i: float
    p_f: float

    def max_abs(self) -> float:
        return max(abs(self.p_i), abs(self.p_f))


@dataclass(frozen=True, slots=True)
class Jacobian2x2:
    """Partial derivatives of (p_i, p_f) with respect to (h_i, h_f)."""

    dpi_dhi: float
    dpi_dhf: float
    dpf_dhi: float
    dpf_dhf: float

    def det(self) -> float:
        return self.dpi_dhi * self.dpf_dhf - self.dpi_dhf * self.dpf_dhi


@dataclass(frozen=True, slots=True)
class HDirectionDerivatives:
    """Derivatives of the segment direction with respect to each offset."""

    a_i: Vec3
    a_f: Vec3


@dataclass(frozen=True, slots=True)
class Geometry:
    """Derived geometry of one evaluation: offset points, segment direction
    (always oriented from the start offset point to the goal one), and the
    two arc centers for the evaluated type."""

    h_pt_i: Vec3
    h_pt_f: Vec3
    hdir: UnitVec3
    c_i: Vec3
    c_f: Vec3


def s_direction(h_pt_i: Vec3, h_pt_f: Vec3) -> UnitVec3:
    """Unit direction of the segment carrier line, from h_pt_i toward h_pt_f.

    Raises CoincidentHPoints when the points are closer than EPS_ZERO.
    """
    w = h_pt_f - h_pt_i
    d = w.norm()
    if d <= EPS_ZERO:
        raise CoincidentHPoints(f"offset points coincide (separation {d!r})")
    return UnitVec3(w.x / d, w.y / d, w.z / d)


def _effective_dir(hdir: UnitVec3, switched: bool) -> UnitVec3:
    return -hdir if switched else hdir


def residuals(inst: ProblemInstance, stype: SolutionType, hp: HPair) -> tuple[ResidualPair, Geometry]:
    """Evaluate the tangency scalars and derived geometry for one type.

    Raises CoincidentHPoints or ParallelDirections (naming the failing end)
    on singular geometry.
    """
    h_pt_i = inst.start.point_along(hp.h_i)
    h_pt_f = inst.goal.point_along(hp.h_f)
    hdir = s_direction(h_pt_i, h_pt_f)
    g = _effective_dir(hdir, stype.switched)
    r = inst.radius

    v_i = inst.start.direction
    n_i = v_i.cross(g).norm()
    if n_i <= EPS_SING:
        raise ParallelDirections("start")
    v_f = inst.goal.direction
    n_f = v_f.cross(g).norm()
    if n_f <= EPS_SING:
        raise ParallelDirections("goal")

    p_i = hp.h_i + stype.start_sign * (r / n_i) * (1.0 - g.dot(v_i))
    p_f = hp.h_f + stype.end_sign * (r / n_f) * (1.0 - g.dot(v_f))
    c_i = h_pt_i + (stype.start_sign * r / n_i) * (v_i - g)
    c_f = h_pt_f + (stype.end_sign * r / n_f) * (v_f - g)
    return ResidualPair(p_i, p_f), Geometry(h_pt_i, h_pt_f, hdir, c_i, c_f)


def jacobian(inst: ProblemInstance, stype: SolutionType, hp: HPair) -> tuple[Jacobian2x2, HDirectionDerivatives]:
    """Analytic partial derivatives of the residual pair.

    With w the vector between offset points and hdir = w/||w||, the direction
    derivatives are a_i = ((hdir.v_i) hdir - v_i)/||w|| and
    a_f = (v_f - (hdir.v_f) hdir)/||w||; both are orthogonal to hdir.  Each
    residual's derivative then follows from differentiating
    p = h + sign * r (1 - g.v)/||v x g|| with g the (possibly reversed)
    segment direction, the sign applying to the whole derivative of the
    second term, plus 1 on the diagonal from the leading h.
    """
    h_pt_i = inst.start.point_along(hp.h_i)
    h_pt_f = inst.goal.point_along(hp.h_f)
    w = h_pt_f - h_pt_i
    d = w.norm()
    if d <= EPS_ZERO:
        raise CoincidentHPoints(f"offset points coincide (separation {d!r})")
    hdir = UnitVec3(w.x / d, w.y / d, w.z / d)
    v_i = inst.start.direction
    v_f = inst.goal.direction

    a_i = (1.0 / d) * (hdir.dot(v_i) * hdir - v_i)
    a_f = (1.0 / d) * (v_f - hdir.dot(v_f) * hdir)

    g = _effective_dir(hdir, stype.switched)
    b_i, b_f = (-a_i, -a_f) if stype.switched else (a_i, a_f)
    r = inst.radius

    entries = []
    for v, sign, end in ((v_i, stype.start_sign, "start"), (v_f, stype.end_sign, "goal")):
        cx = v.cross(g)
        n = cx.norm()
        if n <= EPS_SING:
            raise ParallelDirections(end)
        gv = g.dot(v)
        for b in (b_i, b_f):
            term = -b.dot(v) / n - (1.0 - gv) * cx.dot(v.cross(b)) / n**3
            entries.append(sign * r * term)
    return (
        Jacobian2x2(entries[0] + 1.0, entries[1], entries[2], entries[3] + 1.0),
        HDirectionDerivatives(a_i, a_f),
    )
