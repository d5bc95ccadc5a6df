"""3D CSC Dubins path solving via a two-offset parametrization.

The search space for an arc-segment-arc path between two oriented points is
reduced to two scalar offsets along the start and goal rays.  This package
provides the residual system and its analytic Jacobian for the eight solution
types, a multistart damped-Newton solver, directional validity filtering,
concrete path extraction with geometric verification, a brute-force grid
enumeration oracle, and a CLI for case solving and solution-space studies.
"""

from .geom import (
    Configuration,
    DubinsError,
    ProblemInstance,
    UnitVec3,
    Vec3,
    ZeroVector,
    instance,
    normalize,
    point_line_distance,
)
from .oracle import (
    ContourMap,
    GridWindow,
    build_contours,
    enumerate_all_types,
    enumerate_roots,
    refine_roots,
    sample_contours,
)
from .path import (
    Arc,
    CscPath,
    InvalidCandidate,
    PathReport,
    Segment,
    ValidityVerdict,
    check_directionality,
    extract_path,
    path_length,
    sample_path,
    verify_path,
)
from .residual import (
    ALL_TYPES,
    REGULAR_TYPES,
    SWITCHED_TYPES,
    CoincidentHPoints,
    Geometry,
    HPair,
    Jacobian2x2,
    ParallelDirections,
    ResidualPair,
    SolutionType,
    jacobian,
    residuals,
)
from .scenarios import Scenario, load_bundled, load_scenario, parse_scenario
from .solver import (
    CollinearInstance,
    NotConverged,
    SolutionCandidate,
    SolverOptions,
    dedup,
    solve_all,
    solve_type,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TYPES",
    "Arc",
    "CoincidentHPoints",
    "CollinearInstance",
    "Configuration",
    "ContourMap",
    "CscPath",
    "DubinsError",
    "Geometry",
    "GridWindow",
    "HPair",
    "InvalidCandidate",
    "Jacobian2x2",
    "NotConverged",
    "ParallelDirections",
    "PathReport",
    "ProblemInstance",
    "REGULAR_TYPES",
    "ResidualPair",
    "SWITCHED_TYPES",
    "Scenario",
    "Segment",
    "SolutionCandidate",
    "SolutionType",
    "SolverOptions",
    "UnitVec3",
    "ValidityVerdict",
    "Vec3",
    "ZeroVector",
    "build_contours",
    "check_directionality",
    "dedup",
    "enumerate_all_types",
    "enumerate_roots",
    "extract_path",
    "instance",
    "jacobian",
    "load_bundled",
    "load_scenario",
    "normalize",
    "parse_scenario",
    "path_length",
    "point_line_distance",
    "refine_roots",
    "residuals",
    "sample_contours",
    "sample_path",
    "solve_all",
    "solve_type",
    "verify_path",
]
