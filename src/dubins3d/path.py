"""Directional validity filtering and concrete path extraction.

A converged root fixes the two arc circles and the segment carrier line; this
module rejects roots whose straight segment would run away from the goal-side
circle, and turns the accepted ones into sampled, verifiable arc-segment-arc
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .batch import directionally_valid
from .geom import EPS_ZERO, DubinsError, ProblemInstance, UnitVec3, Vec3, normalize
from .solver import SolutionCandidate


class InvalidCandidate(DubinsError):
    """Raised when a path is requested for a directionally invalid root."""


@dataclass(frozen=True, slots=True)
class ValidityVerdict:
    valid: bool
    reason: str


@dataclass(frozen=True, slots=True)
class Arc:
    """Circular arc traversed right-handedly about plane_normal.

    The point at turn angle t in [0, angle] is
    center + cos(t) u + sin(t) (plane_normal x u) with u = start_point - center,
    so the travel tangent at t is the derivative of that expression.  A zero
    angle marks a degenerate (point) arc.
    """

    center: Vec3
    radius: float
    plane_normal: UnitVec3
    start_point: Vec3
    angle: float

    @property
    def length(self) -> float:
        return self.radius * self.angle

    def point_at(self, t: float) -> Vec3:
        u = self.start_point - self.center
        return self.center + math.cos(t) * u + math.sin(t) * self.plane_normal.cross(u)

    def tangent_at(self, t: float) -> Vec3:
        u = (1.0 / self.radius) * (self.start_point - self.center)
        return math.cos(t) * self.plane_normal.cross(u) - math.sin(t) * u

    @property
    def end_point(self) -> Vec3:
        return self.point_at(self.angle)


@dataclass(frozen=True, slots=True)
class Segment:
    start: Vec3
    end: Vec3
    reversed: bool  # True when travel runs against the segment carrier direction

    @property
    def length(self) -> float:
        return (self.end - self.start).norm()


@dataclass(frozen=True, slots=True)
class CscPath:
    arc_start: Arc
    segment: Segment
    arc_end: Arc
    total_length: float


def check_directionality(cand: SolutionCandidate) -> ValidityVerdict:
    """Classify a root by the travel direction its straight segment implies.

    Regular roots need the goal-side circle ahead along the segment direction,
    switched roots behind it; a separation within EPS_ZERO r is a valid path
    whose segment degenerates to a point.  The radius r is read off the
    candidate: the start circle's centre lies r from the segment line.  The
    separation in units of r goes to `batch.directionally_valid`, the one
    form of the rule.
    """
    geo = cand.geometry
    r = (geo.c_i - geo.h_pt_i).cross(geo.hdir).norm()
    ahead = (geo.c_f - geo.c_i).dot(geo.hdir) / r
    if not directionally_valid(cand.stype.type_id - 1, ahead):
        return ValidityVerdict(False, "switched_forward" if cand.stype.switched else "regular_backward")
    return ValidityVerdict(True, "degenerate_segment" if abs(ahead) <= EPS_ZERO else "ok")


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def _arc(center: Vec3, radius: float, start_point: Vec3, start_tangent: UnitVec3, angle: float) -> Arc:
    u = start_point - center
    normal = normalize(u.cross(start_tangent))
    return Arc(center, radius, normal, start_point, angle)


def extract_path(cand: SolutionCandidate, inst: ProblemInstance) -> CscPath:
    """Build the concrete arc-segment-arc path for a valid root.

    The start arc leaves the start position along its heading and meets the
    segment line tangentially; the end arc does the mirror image.  Arc turn
    angles pick the short or long way around from the sign relation between
    each tangency scalar and its offset; the relation is mirrored between the
    two ends because the end arc is traversed toward, not away from, its
    tangent point (verified geometrically by `verify_path`).
    """
    verdict = check_directionality(cand)
    if not verdict.valid:
        raise InvalidCandidate(f"{cand.stype} root is {verdict.reason}")
    geo = cand.geometry
    g = -geo.hdir if cand.stype.switched else geo.hdir
    r = inst.radius
    x_i = inst.start.position
    x_f = inst.goal.position
    v_i = inst.start.direction
    v_f = inst.goal.direction

    d_i = geo.h_pt_i + (geo.c_i - geo.h_pt_i).dot(geo.hdir) * geo.hdir
    d_f = geo.h_pt_f + (geo.c_f - geo.h_pt_f).dot(geo.hdir) * geo.hdir

    alpha_i = _clamped_acos(v_i.dot(g))
    alpha_f = _clamped_acos(v_f.dot(g))
    theta_i = alpha_i if cand.residual.p_i < cand.hp.h_i else 2.0 * math.pi - alpha_i
    theta_f = alpha_f if cand.residual.p_f > cand.hp.h_f else 2.0 * math.pi - alpha_f

    arc_start = _arc(geo.c_i, r, x_i, v_i, theta_i)
    arc_end = _arc(geo.c_f, r, d_f, g, theta_f)
    segment = Segment(d_i, d_f, reversed=cand.stype.switched)
    total = r * theta_i + segment.length + r * theta_f
    return CscPath(arc_start, segment, arc_end, total)


def path_length(path: CscPath) -> float:
    """Total length recomputed from the pieces."""
    return path.arc_start.length + path.segment.length + path.arc_end.length


def point_at(path: CscPath, s: float) -> Vec3:
    """Point at arc length s from the path start (clamped to the ends)."""
    s = min(max(s, 0.0), path.total_length)
    l1 = path.arc_start.length
    if s <= l1:
        return path.arc_start.point_at(s / path.arc_start.radius if l1 > 0 else 0.0)
    s -= l1
    l2 = path.segment.length
    if s <= l2:
        if l2 == 0.0:
            return path.segment.start
        t = s / l2
        return path.segment.start + t * (path.segment.end - path.segment.start)
    s -= l2
    t = min(s / path.arc_end.radius, path.arc_end.angle)
    return path.arc_end.point_at(t)


def sample_path(path: CscPath, n: int) -> list[Vec3]:
    """n waypoints at equal arc-length spacing from start to goal."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    step = path.total_length / (n - 1)
    return [point_at(path, k * step) for k in range(n)]


@dataclass(frozen=True)
class PathReport:
    """Per-check errors from verify_path, each a length; ok when all are in
    tolerance."""

    errors: dict[str, float]
    tol: float

    @property
    def ok(self) -> bool:
        return all(e <= self.tol for e in self.errors.values())

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in self.errors.items() if v > self.tol}


def verify_path(path: CscPath, inst: ProblemInstance, tol: float | None = None) -> PathReport:
    """Geometric audit of a path against its problem instance.

    Checks endpoint positions and tangents, tangent-continuous junctions,
    arc radii, turn angles within [0, 2 pi], segment/arc consistency, and the
    straight-chord lower bound on the total length.  Tangent and angle
    errors have no unit; they are multiplied by r so that every entry is a
    length, compared with the length tolerance tol (default 1e-8 r).
    """
    r = inst.radius
    if tol is None:
        tol = 1e-8 * r
    a1, seg, a2 = path.arc_start, path.segment, path.arc_end
    errors: dict[str, float] = {}
    errors["start_position"] = (a1.start_point - inst.start.position).norm()
    errors["start_tangent"] = (a1.tangent_at(0.0) - inst.start.direction).norm() * r
    errors["end_position"] = (a2.end_point - inst.goal.position).norm()
    errors["end_tangent"] = (a2.tangent_at(a2.angle) - inst.goal.direction).norm() * r
    errors["junction_start_position"] = (a1.end_point - seg.start).norm()
    errors["junction_end_position"] = (a2.start_point - seg.end).norm()
    if seg.length > tol:
        seg_dir = (1.0 / seg.length) * (seg.end - seg.start)
        errors["junction_start_tangent"] = (a1.tangent_at(a1.angle) - seg_dir).norm() * r
        errors["junction_end_tangent"] = (a2.tangent_at(0.0) - seg_dir).norm() * r
    else:
        # degenerate segment: the arcs must hand off tangent to tangent
        errors["junction_start_tangent"] = (a1.tangent_at(a1.angle) - a2.tangent_at(0.0)).norm() * r
        errors["junction_end_tangent"] = 0.0
    for name, arc in (("start", a1), ("end", a2)):
        errors[f"{name}_arc_radius"] = abs((arc.start_point - arc.center).norm() - r) + abs(arc.radius - r)
        errors[f"{name}_arc_angle_range"] = max(0.0, -arc.angle, arc.angle - 2.0 * math.pi) * r
        worst = 0.0
        for k in range(9):
            t = arc.angle * k / 8.0
            worst = max(worst, abs((arc.point_at(t) - arc.center).norm() - r))
        errors[f"{name}_arc_on_circle"] = worst
    errors["length_consistent"] = abs(path.total_length - path_length(path))
    errors["length_lower_bound"] = max(0.0, inst.chord - path.total_length)
    return PathReport(errors, tol)
