"""Scenario files and the bundled regression suite.

A scenario is a JSON object with start/goal configurations, a turn radius,
and optional solver option overrides (`max_iters`, `use_gradient` and a
`seed_policy` of kind "grid" or "single"); an unknown option key or a value
of the wrong type is a ValueError that names the key.  The package ships a
set of reference scenarios covering planar/non-planar and near/far cases
together with their recorded expected outcomes, runnable as one regression
batch from the CLI.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, Any, Callable

from .geom import Configuration, ProblemInstance, Vec3, normalize
from .residual import HPair
from .solver import SolverOptions

# Loader warns when a scenario direction deviates from unit length by more
# than this before normalization.
DIRECTION_WARN_TOL = 1e-6


@dataclass(frozen=True)
class Scenario:
    name: str
    instance: ProblemInstance
    options: SolverOptions = field(default_factory=SolverOptions)


# float_info.max also bounds integers too large for a float
_NUMBER = ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_POSITIVE = ("a positive number", lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max)
_ANY = ("anything", lambda v: True)
# The keys a scenario's "options" object, and each kind of its "seed_policy"
# object, may hold, with what each value must be; any other key is an error.
_KNOWN_KEYS = {
    "options": {
        "max_iters": ("a positive integer", lambda v: type(v) is int and v >= 1),
        "use_gradient": ("true or false", lambda v: type(v) is bool),
        "seed_policy": ("an object", lambda v: type(v) is dict),
    },
    "single": {"kind": _ANY, "h_i": _NUMBER, "h_f": _NUMBER},
    "grid": {"kind": _ANY},
}


def _checked(value: Any, what: str, rule: tuple[str, Callable[[Any], bool]]) -> Any:
    expect, ok = rule
    if not ok(value):
        raise ValueError(f"{what} must be {expect}, got {value!r}")
    return value


def _check_fields(obj: Any, what: str, known: dict) -> None:
    """A ValueError naming the key, unless obj is an object whose every key
    is known and whose every value meets its key's rule."""
    _checked(obj, what, ("an object", lambda v: type(v) is dict))
    for key, value in obj.items():
        if key not in known:
            raise ValueError(f"unknown key {what}.{key} (known: {', '.join(known)})")
        _checked(value, f"{what}.{key}", known[key])


def _parse_vec(obj: Any, what: str) -> Vec3:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 3):
        raise ValueError(f"{what} must be a 3-element array")
    return Vec3(*(float(_checked(c, f"{what}[{k}]", _NUMBER)) for k, c in enumerate(obj)))


def _parse_configuration(obj: Any, what: str) -> Configuration:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object with position and direction")
    position = _parse_vec(obj.get("position"), f"{what}.position")
    raw = _parse_vec(obj.get("direction"), f"{what}.direction")
    norm = raw.norm()
    if norm > 1e-9 and abs(norm - 1.0) > DIRECTION_WARN_TOL:
        warnings.warn(f"{what}.direction has norm {norm:.6g}; normalizing", stacklevel=3)
    return Configuration(position, normalize(raw))


def _parse_options(obj: Any) -> SolverOptions:
    """Options from their JSON object.  seed_policy {"kind": "grid"} (the
    default) runs the seed grid, {"kind": "single", "h_i": .., "h_f": ..} one
    seed (each offset 0 when left out)."""
    if obj is None:
        return SolverOptions()
    _check_fields(obj, "options", _KNOWN_KEYS["options"])
    kwargs = dict(obj)
    policy = kwargs.pop("seed_policy", {})
    kind = policy.get("kind", "grid")
    if kind not in ("single", "grid"):
        raise ValueError(f"options.seed_policy.kind must be single or grid, got {kind!r}")
    _check_fields(policy, "options.seed_policy", _KNOWN_KEYS[kind])
    seed = HPair(float(policy.get("h_i", 0.0)), float(policy.get("h_f", 0.0))) if kind == "single" else None
    return SolverOptions(**kwargs, seed=seed)


def parse_scenario(data: Any, name: str = "scenario") -> Scenario:
    """A scenario from its JSON object; ValueError on malformed input, naming
    the offending key."""
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    start = _parse_configuration(data.get("start"), "start")
    goal = _parse_configuration(data.get("goal"), "goal")
    radius = float(_checked(data.get("radius", 1.0), "radius", _POSITIVE))
    return Scenario(name, ProblemInstance(start, goal, radius), _parse_options(data.get("options")))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    with path.open() as fh:
        data = json.load(fh)
    return parse_scenario(data, name=path.stem)


def scenario_to_json(scn: Scenario) -> dict:
    def cfg(c: Configuration) -> dict:
        return {"position": list(c.position.as_tuple()), "direction": list(c.direction.as_tuple())}

    return {"start": cfg(scn.instance.start), "goal": cfg(scn.instance.goal), "radius": scn.instance.radius}


def save_scenario(scn: Scenario, fh: IO[str]) -> None:
    json.dump(scenario_to_json(scn), fh, indent=2)
    fh.write("\n")


def bundled_scenario_names() -> list[str]:
    files = resources.files("dubins3d").joinpath("data")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Scenario:
    text = resources.files("dubins3d").joinpath("data", f"{name}.json").read_text()
    return parse_scenario(json.loads(text), name=name)


@dataclass(frozen=True)
class ReferenceExpectation:
    """Recorded reference outcome for a bundled scenario.

    Any field left at None is not checked.  valid_types is the exact sorted
    multiset of type ids among directionally valid roots; invalid_present
    lists type ids that must appear among filtered (invalid) roots; absent
    lists type ids that must have no root in the instance's default
    enumeration window.
    """

    scenario: str
    n_valid: int | None = None
    valid_types: tuple[int, ...] | None = None
    valid_regular: int | None = None
    valid_switched: int | None = None
    invalid_present: tuple[int, ...] = ()
    absent: tuple[int, ...] = ()


# Recorded expected outcomes for the regression suite.  Three scenarios are
# recorded as the equations give them, not as the paper reports them; the
# reported value and the evidence against it (exhaustive window enumeration,
# residual floors, and geometric verification of every extracted path):
#   - planar_close: reported a filtered type-6 root.  The switched (+,-)
#     system has no root within twice (nor six times) the enumeration window,
#     and max(|p_i|, |p_f|) sampled over twice the window stays above 1.4;
#     the filtered roots are of types 5, 7, 8, all switched_forward.
#   - nonplanar_close: reported 3 valid regular + 1 valid switched root with
#     filtered types 5, 7, 8.  The window holds four valid regular roots (one
#     per type 1-4) and no valid switched root; types 5 and 6 have no root
#     within six times the window.  Filtered roots are of types 1, 3
#     (regular_backward) and 7 (switched_forward), plus a type-8 root far
#     outside the window at (1.713, 18.719).
#   - nonplanar_close_2: reported valid types 1, 2, 5, 6.  Type 1 has no root:
#     its residual curves run side by side through 22 sign-change cells and
#     their closest approach, a local minimum at (-1.150, -1.186), misses
#     zero by |p| = 0.065 (0.046 in the max norm); the valid set is {2, 5, 6}.
REFERENCE_EXPECTATIONS: tuple[ReferenceExpectation, ...] = (
    ReferenceExpectation("planar_far", n_valid=4, valid_types=(1, 2, 3, 4)),
    ReferenceExpectation("planar_close", n_valid=3, absent=(3,), invalid_present=(5, 7, 8)),
    ReferenceExpectation("nonplanar_far", n_valid=4, valid_types=(1, 2, 3, 4)),
    ReferenceExpectation("nonplanar_close", valid_types=(1, 2, 3, 4), valid_switched=0, invalid_present=(1, 3, 7)),
    ReferenceExpectation("planar_far_2", n_valid=4, valid_types=(1, 2, 3, 4)),
    ReferenceExpectation("planar_close_2", valid_regular=2, valid_switched=2),
    ReferenceExpectation("nonplanar_far_2", n_valid=4, valid_types=(1, 2, 3, 4), invalid_present=(3, 4)),
    ReferenceExpectation("nonplanar_close_2", n_valid=3, valid_types=(2, 5, 6)),
)

# Separately recorded multi-root case: two directionally valid roots of the
# switched type 6 inside the default window, one of which sits at the
# recorded offsets below (its segment nearly vanishes, so it imitates a
# regular path).  The paper reports exactly two type-6 roots there; the
# window holds a third, nondegenerate one near (-0.116, 0.070) (det J = 0.96)
# that the directional filter rejects, so two is the count of valid roots.
SEED_SENSITIVITY_SCENARIO = "seed_sensitivity"
SEED_SENSITIVITY_ROOT = (-1.804, 3.004)
SEED_SENSITIVITY_ROOT_TOL = 1e-2
