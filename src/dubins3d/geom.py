"""Elementary 3D vector and configuration types shared by all modules.

Positions and lengths are expressed in the same unit as the turn radius;
angles are radians throughout.  The solvers work in units of the radius
(`ProblemInstance.in_radius_units`), so their answers do not depend on it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

# Vectors shorter than this are treated as zero.  The solvers and
# `path.check_directionality` apply it in units of the radius, well below
# geometric noise and well above double rounding; the scalar `residual`
# reference applies it in the instance's own units.
EPS_ZERO = 1e-9

_UNIT_TOL = 1e-12

# Largest chord in units of r the solvers represent: batch.frame squares
# offsets up to solver.runaway_limit = 100 (chord + 4) r, and Newton's trial
# steps beyond it, into doubles below 1.8e308 = (1.3e154)^2, so 1e150 fits.
MAX_CHORD_RADII = 1e150


class DubinsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(DubinsError):
    """Raised when a direction is requested from a (near-)zero vector."""


@dataclass(frozen=True, slots=True)
class Vec3:
    """Immutable 3D vector with finite components."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite vector components: ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class UnitVec3(Vec3):
    """A Vec3 constrained to unit length (within 1e-12)."""

    def __post_init__(self) -> None:
        # explicit base call: slots=True regenerates the class, breaking super()
        Vec3.__post_init__(self)
        if abs(self.norm() - 1.0) > _UNIT_TOL:
            raise ValueError(f"not a unit vector: norm={self.norm()!r}")

    def __neg__(self) -> "UnitVec3":
        return UnitVec3(-self.x, -self.y, -self.z)


def check_count(name: str, value, least: int) -> None:
    """ValueError naming the setting unless value is an integer, Python or
    numpy (not a bool or a float), of at least least."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def check_finite(name: str, value) -> None:
    """ValueError naming the setting unless value is a finite real number,
    Python or numpy (not a bool, nor an int too large for a float)."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def normalize(v: Vec3) -> UnitVec3:
    """Return v / ||v||.

    Raises ZeroVector if ||v|| <= EPS_ZERO.
    """
    n = v.norm()
    if n <= EPS_ZERO:
        raise ZeroVector(f"cannot normalize near-zero vector (norm={n!r})")
    return UnitVec3(v.x / n, v.y / n, v.z / n)


def point_line_distance(p: Vec3, origin: Vec3, direction: UnitVec3) -> float:
    """Distance from point p to the line through origin with unit direction."""
    d = p - origin
    along = d.dot(direction)
    return (d - along * direction).norm()


def offset_span(chord, radius=1.0):
    """chord + 4 radius: the half-width of the offsets searched for a pair
    whose positions are chord apart, for a float or an array of chords."""
    return chord + 4.0 * radius


@dataclass(frozen=True, slots=True)
class Configuration:
    """A position together with a unit heading."""

    position: Vec3
    direction: UnitVec3

    def point_along(self, h: float) -> Vec3:
        """Point at signed offset h along the configuration's ray."""
        return self.position + h * self.direction


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """Start and goal configurations plus the minimum turn radius."""

    start: Configuration
    goal: Configuration
    radius: float

    def __post_init__(self) -> None:
        check_finite("radius", self.radius)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not self.chord / self.radius <= MAX_CHORD_RADII:
            raise ValueError(f"chord {self.chord!r} must be finite and at most {MAX_CHORD_RADII:g} times the radius {self.radius!r}")

    @property
    def chord(self) -> float:
        """Straight-line distance between start and goal positions."""
        return (self.goal.position - self.start.position).norm()

    @property
    def span(self) -> float:
        """Default half-width of the solver's seed grid and the oracle's
        window (`offset_span`)."""
        return offset_span(self.chord, self.radius)

    def in_radius_units(self) -> "ProblemInstance":
        """The same instance with every length divided by the radius."""
        r = self.radius
        scale = lambda c: Configuration(Vec3(c.position.x / r, c.position.y / r, c.position.z / r), c.direction)
        return ProblemInstance(scale(self.start), scale(self.goal), 1.0)


def instance(
    start_position: tuple[float, float, float],
    start_direction: tuple[float, float, float],
    goal_position: tuple[float, float, float],
    goal_direction: tuple[float, float, float],
    radius: float = 1.0,
) -> ProblemInstance:
    """Convenience constructor from raw tuples; directions are normalized."""
    names = ("start_position", "start_direction", "goal_position", "goal_direction")
    for name, ray in zip(names, (start_position, start_direction, goal_position, goal_direction)):
        for k, v in enumerate(ray):
            check_finite(f"{name}[{k}]", v)
    return ProblemInstance(
        Configuration(Vec3(*start_position), normalize(Vec3(*start_direction))),
        Configuration(Vec3(*goal_position), normalize(Vec3(*goal_direction))),
        radius,
    )
