import json
from dataclasses import replace
from pathlib import Path

import pytest

from dubins3d.cli import main
from dubins3d.path import extract_path, verify_path
from dubins3d.residual import HPair, SolutionType, residuals
from dubins3d.scenarios import (
    SEED_SENSITIVITY_ROOT,
    SEED_SENSITIVITY_ROOT_TOL,
    SEED_SENSITIVITY_SCENARIO,
    ReferenceExpectation,
    load_bundled,
    load_scenario,
    save_scenario,
)
from dubins3d.solver import SolutionCandidate, SolverOptions


def write_scenario(tmp_path: Path, name: str) -> Path:
    scn = load_bundled(name)
    path = tmp_path / f"{name}.json"
    with path.open("w") as fh:
        save_scenario(scn, fh)
    return path


def write_raw(tmp_path: Path, name: str, obj) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return path


def test_solve_nonplanar_far(tmp_path, capsys):
    scn = write_scenario(tmp_path, "nonplanar_far")
    code = main(["solve", str(scn), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "nonplanar_far.json").read_text())
    assert report["n_valid"] == 4
    valid_types = sorted(s["type_id"] for s in report["solutions"] if s["valid"])
    assert valid_types == [1, 2, 3, 4]
    assert sum(s["shortest"] for s in report["solutions"]) == 1
    csv_lines = (tmp_path / "nonplanar_far.csv").read_text().splitlines()
    assert csv_lines[0].startswith("type_id,h_i,h_f,valid,reason,path_length")
    assert len(csv_lines) == 1 + report["n_solutions"]


def test_solve_planar_close_2_counts(tmp_path):
    scn = write_scenario(tmp_path, "planar_close_2")
    code = main(["solve", str(scn), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "planar_close_2.json").read_text())
    valid = [s for s in report["solutions"] if s["valid"]]
    assert sum(1 for s in valid if s["type_id"] <= 4) == 2
    assert sum(1 for s in valid if s["type_id"] >= 5) == 2


def test_solve_format_selection(tmp_path):
    scn = write_scenario(tmp_path, "planar_far")
    assert main(["solve", str(scn), "--format", "csv", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "planar_far.csv").exists()
    assert not (tmp_path / "c" / "planar_far.json").exists()
    assert main(["solve", str(scn), "--format", "json", "--out", str(tmp_path / "j")]) == 0
    assert (tmp_path / "j" / "planar_far.json").exists()
    assert not (tmp_path / "j" / "planar_far.csv").exists()


def test_case_report_roundtrip_reverifies(tmp_path):
    scn = write_scenario(tmp_path, "nonplanar_close")
    assert main(["solve", str(scn), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "nonplanar_close.json").read_text())
    inst = load_bundled("nonplanar_close").instance
    for s in report["solutions"]:
        if not s["valid"]:
            continue
        hp = HPair(s["h_i"], s["h_f"])
        res, geo = residuals(inst, SolutionType.from_id(s["type_id"]), hp)
        cand = SolutionCandidate(SolutionType.from_id(s["type_id"]), hp, res, geo, 0, hp)
        path = extract_path(cand, inst)
        assert verify_path(path, inst, tol=1e-8 * inst.radius).ok
        assert path.total_length == pytest.approx(s["path_length"], rel=1e-12)


def test_solve_collinear_straight_path(tmp_path):
    path = write_raw(
        tmp_path,
        "straight",
        {
            "start": {"position": [0, 0, 0], "direction": [0, 0, 1]},
            "goal": {"position": [0, 0, 5], "direction": [0, 0, 1]},
            "radius": 1.0,
        },
    )
    code = main(["solve", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "straight.json").read_text())
    assert report["collinear"] is True
    assert report["straight_path"]["exists"] is True
    assert report["straight_path"]["length"] == pytest.approx(5.0)


def test_solve_collinear_behind_exit_2(tmp_path):
    path = write_raw(
        tmp_path,
        "behind",
        {
            "start": {"position": [0, 0, 0], "direction": [0, 0, 1]},
            "goal": {"position": [0, 0, -5], "direction": [0, 0, 1]},
            "radius": 1.0,
        },
    )
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2


def test_solve_malformed_input_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--out", str(tmp_path)]) == 1
    missing = write_raw(tmp_path, "missing", {"start": {"position": [0, 0, 0]}})
    assert main(["solve", str(missing), "--out", str(tmp_path)]) == 1
    zero_dir = write_raw(
        tmp_path,
        "zerodir",
        {
            "start": {"position": [0, 0, 0], "direction": [0, 0, 0]},
            "goal": {"position": [1, 0, 0], "direction": [0, 0, 1]},
            "radius": 1.0,
        },
    )
    assert main(["solve", str(zero_dir), "--out", str(tmp_path)]) == 1


def test_direction_normalized_with_warning(tmp_path):
    skewed = write_raw(
        tmp_path,
        "skewed",
        {
            "start": {"position": [0, 0, 0], "direction": [0, 0, 2]},
            "goal": {"position": [-1, 0, 3], "direction": [1, 0, 1]},
            "radius": 1.0,
        },
    )
    with pytest.warns(UserWarning, match="normalizing"):
        code = main(["solve", str(skewed), "--out", str(tmp_path)])
    assert code == 0


def test_single_seed_flag(tmp_path):
    scn = write_scenario(tmp_path, SEED_SENSITIVITY_SCENARIO)
    assert main(["solve", str(scn), "--seed", "-1.8", "3.0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{SEED_SENSITIVITY_SCENARIO}.json").read_text())
    t6 = [s for s in report["solutions"] if s["type_id"] == 6]
    assert any(abs(s["h_i"] - SEED_SENSITIVITY_ROOT[0]) < SEED_SENSITIVITY_ROOT_TOL for s in t6)


def test_sweep_csv_deterministic(tmp_path):
    args = ["sweep", "--mode", "planar", "--fix", "angle=0", "--steps", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    name = "sweep_planar_angle_0_7.csv"
    a = (tmp_path / "a" / name).read_bytes()
    b = (tmp_path / "b" / name).read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "x,z,count,count_regular,count_switched,collinear"
    assert len(a.decode().splitlines()) == 1 + 49


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--mode", "planar", "--fix", "z=0", "--steps", "abc"],
        ["sweep", "--fix", "z=0"],
        ["contours", "SCENARIO", "--type", "9"],
        ["solve", "SCENARIO", "--robust", "--seed", "0", "0"],
        ["solve"],
        ["unknown"],
    ],
    ids=" ".join,
)
def test_malformed_arguments_exit_1(tmp_path, capsys, args):
    # argparse's own exit code, 2, means no valid solution here
    scn = write_scenario(tmp_path, "planar_far")
    out = tmp_path / "out"
    assert main([str(scn) if a == "SCENARIO" else a for a in args] + ["--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_sweep_invalid_spec_exit_1(tmp_path):
    for fix in ("q=0", "angle=", "z=nan", "x=inf", "angle=-inf"):
        assert main(["sweep", "--mode", "planar", "--fix", fix, "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["contours", "SCENARIO", "--window", "-3"],
        ["contours", "SCENARIO", "--window", "nan"],
        ["contours", "SCENARIO", "--window", "inf"],
        ["contours", "SCENARIO", "--resolution", "8"],
        ["seed-study", "SCENARIO", "--resolution", "-2"],
        ["seed-study", "SCENARIO", "--window", "nan"],
        ["grad-study", "--cases", "0"],
    ],
    ids=" ".join,
)
def test_study_invalid_arguments_exit_1(tmp_path, capsys, args):
    scn = write_scenario(tmp_path, "planar_far")
    out = tmp_path / "out"
    assert main([str(scn) if a == "SCENARIO" else a for a in args] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_seed_study_cli(tmp_path):
    scn = write_scenario(tmp_path, "seed_sensitivity")
    code = main(
        ["seed-study", str(scn), "--type", "6", "--window", "4", "--resolution", "7", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "seed_sensitivity_seed_study.csv").read_text().splitlines()
    assert lines[0] == "seed_h_i,seed_h_f,type_id,root_h_i,root_h_f,converged"
    assert len(lines) == 1 + 49


def test_grad_study_cli_deterministic(tmp_path):
    args = ["grad-study", "--cases", "1", "--rng-seed", "77"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    name = "grad_study_1_77.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_contours_cli(tmp_path):
    scn = write_scenario(tmp_path, "planar_far")
    code = main(["contours", str(scn), "--type", "1", "--resolution", "32", "--window", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "planar_far_contours_type1.csv").read_text().splitlines()
    assert lines[0] == "h_i,h_f,p_i,p_f,singular"
    assert len(lines) == 1 + 33 * 33


def test_fidelity_runs_and_reports(tmp_path, capsys, monkeypatch):
    code = main(["fidelity", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") >= 20
    assert "[FAIL]" not in out
    assert "fidelity: all checks passed" in out
    summary = json.loads((tmp_path / "fidelity_summary.json").read_text())
    assert set(summary) == {
        "planar_far",
        "planar_close",
        "nonplanar_far",
        "nonplanar_close",
        "planar_far_2",
        "planar_close_2",
        "nonplanar_far_2",
        "nonplanar_close_2",
    }
    assert summary["planar_far"]["n_valid"] is True

    # a record the solver contradicts is reported and exits 2
    monkeypatch.setattr("dubins3d.cli.REFERENCE_EXPECTATIONS", (ReferenceExpectation("planar_far", n_valid=5),))
    code = main(["fidelity", "--out", str(tmp_path / "contradicted")])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] planar_far.n_valid: expected 5, got 4" in out
    assert "fidelity: 1 failing checks" in out
    summary = json.loads((tmp_path / "contradicted" / "fidelity_summary.json").read_text())
    assert summary == {"planar_far": {"n_valid": False, "paths_verify": True}}


BASE_SCENARIO = {
    "start": {"position": [0, 0, 0], "direction": [0, 0, 1]},
    "goal": {"position": [-1, 0, 3], "direction": [0.6, 0, 0.8]},
}
# (scenario changes, the key the error names)
MALFORMED = [
    ({"options": {"max_iter": 5}}, "options.max_iter"),
    ({"options": {"seed_policy": {"kind": "grid", "windw": 3.0}}}, "options.seed_policy.windw"),
    ({"options": {"seed_policy": {"kind": "grid", "n": 9}}}, "options.seed_policy.n"),
    ({"options": {"seed_policy": {"kind": "single", "h_i": 1.0, "h_g": 2.0}}}, "options.seed_policy.h_g"),
    ({"options": {"seed_policy": {"kind": "singel"}}}, "options.seed_policy.kind"),
    ({"options": {"seed_policy": "single"}}, "options.seed_policy"),
    ({"options": {"seed_policy": {"kind": "single", "h_i": "1"}}}, "options.seed_policy.h_i"),
    ({"options": {"max_iters": "60"}}, "options.max_iters"),
    ({"options": {"max_iters": 0}}, "options.max_iters"),
    ({"options": {"use_gradient": "no"}}, "options.use_gradient"),
    ({"options": [1]}, "options"),
    ({"radius": None}, "radius"),
    ({"radius": "1"}, "radius"),
    ({"radius": 10**400}, "radius"),
    ({"goal": {"position": [None, 0, 3], "direction": [0, 0, 1]}}, "goal.position[0]"),
    ({"optoins": {"max_iters": 7}}, "scenario.optoins"),
]
SCENARIO_COMMANDS = {
    "solve": [],
    "seed-study": ["--type", "1", "--resolution", "2"],
    "contours": ["--type", "1", "--resolution", "4"],
}


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
@pytest.mark.parametrize("changes, key", MALFORMED, ids=[key for _, key in MALFORMED])
def test_malformed_scenario_rejected_naming_the_key(tmp_path, capsys, command, changes, key):
    path = write_raw(tmp_path, "bad", {**BASE_SCENARIO, **changes})
    code = main([command, str(path), *SCENARIO_COMMANDS[command], "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot load scenario") and key in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
@pytest.mark.parametrize("goal, radius", [([3, 0, 1], 1e-310), ([3e155, 0, 1], 1.0)])
def test_unrepresentable_scenario_exit_1(tmp_path, capsys, command, goal, radius):
    # a chord the kernel cannot represent in units of r: one error line, no
    # traceback and no overflow
    goal = {"position": goal, "direction": [0.6, 0, 0.8]}
    path = write_raw(tmp_path, "far", {**BASE_SCENARIO, "goal": goal, "radius": radius})
    assert main([command, str(path), *SCENARIO_COMMANDS[command], "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load scenario") and "chord" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_unreadable_scenario_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        assert main([command, str(path), *SCENARIO_COMMANDS[command], "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load scenario")


def test_solve_nan_seed_exit_1(tmp_path, capsys):
    scn = write_scenario(tmp_path, "planar_far")
    assert main(["solve", str(scn), "--seed", "nan", "nan", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load scenario")


def test_scenario_seed_policy_options(tmp_path):
    single = {"seed_policy": {"kind": "single", "h_i": -1.8, "h_f": 3.0}, "max_iters": 60, "use_gradient": False}
    path = write_raw(tmp_path, "single", {**BASE_SCENARIO, "options": single})
    assert load_scenario(path).options == SolverOptions(max_iters=60, use_gradient=False, seed=HPair(-1.8, 3.0))
    path = write_raw(tmp_path, "grid", {**BASE_SCENARIO, "options": {"seed_policy": {"kind": "grid"}}})
    assert load_scenario(path).options == SolverOptions()


@pytest.mark.parametrize(
    "opts",
    [
        SolverOptions(),
        SolverOptions(max_iters=7),
        SolverOptions(use_gradient=False),
        SolverOptions(seed=HPair(-1.8, 3.0)),
        SolverOptions(max_iters=60, use_gradient=False, seed=HPair(0.0, 0.0)),
    ],
)
def test_scenario_options_round_trip(tmp_path, opts):
    scn = replace(load_bundled("seed_sensitivity"), options=opts)
    path = tmp_path / "scn.json"
    with path.open("w") as fh:
        save_scenario(scn, fh)
    assert load_scenario(path).options == opts
    # a scenario on default options is written without an options object
    assert ("options" in json.loads(path.read_text())) == (opts != SolverOptions())
