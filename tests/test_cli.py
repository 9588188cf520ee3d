"""End-to-end tests of the command line driver.

Everything runs in-process through main() so exit codes and streams are
cheap to assert; one subprocess smoke test proves the module entry point
works outside the test harness.
"""

import os
import subprocess
import sys

import pytest

import kinoplan
from kinoplan.cli import main
from kinoplan.gridmap import load_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_map(capsys, path, seed=7, density=0.0, dims=(20, 20, 1)):
    code, _, err = run_cli(
        capsys, "genmap", "--dims", str(dims[0]), str(dims[1]), str(dims[2]),
        "--resolution", "0.5", "--density", str(density), "--seed", str(seed),
        "--out", str(path))
    assert code == 0, err
    return str(path)


PLAN_FLAGS = ["--order", "2", "--tau", "1", "--rho", "1", "--umax", "1",
              "--mu", "1", "--vmax", "2"]


# --------------------------------------------------------------- genmap


def test_genmap_seeded_identical(tmp_path, capsys):
    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    make_map(capsys, a, seed=7, density=0.3)
    make_map(capsys, b, seed=7, density=0.3)
    assert a.read_bytes() == b.read_bytes()


def test_genmap_density_extremes(tmp_path, capsys):
    free = tmp_path / "free.grid"
    full = tmp_path / "full.grid"
    make_map(capsys, free, density=0.0)
    make_map(capsys, full, density=1.0)
    assert set(load_grid(str(free)).cells) == {0}
    assert set(load_grid(str(full)).cells) == {1}


def test_genmap_missing_flags(tmp_path, capsys):
    code, _, err = run_cli(capsys, "genmap", "--dims", "2", "2", "1")
    assert code == 1
    assert "missing required flags" in err


# ----------------------------------------------------------------- plan


def test_plan_solved_exit_zero(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, out, _ = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25", "--goal", "3,1,0.25",
                           *PLAN_FLAGS)
    assert code == 0
    fields = out.strip().split()
    assert fields[0] == "Solved"
    assert float(fields[1]) > 0
    assert int(fields[2]) > 0
    float(fields[3])


def test_plan_summary_deterministic_fields(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid", seed=3, density=0.2)
    args = ("plan", "--map", m, "--start", "1,1,0.25",
            "--goal", "8,8,0.25", "--goal-rest", *PLAN_FLAGS)
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1.split()[:3] == out2.split()[:3]


def test_plan_goal_outside_map_is_no_path(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid", dims=(6, 6, 1))
    code, out, _ = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25", "--goal", "50,50,0.25",
                           *PLAN_FLAGS)
    assert code == 2
    assert out.startswith("NoPath inf ")


def test_plan_expansion_limit_exit(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, out, _ = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25", "--goal", "9,9,0.25",
                           "--heuristic", "zero", "--max-expansions", "3",
                           *PLAN_FLAGS)
    assert code == 3
    assert out.startswith("ExpansionLimit")


def test_plan_missing_vmax_is_usage_error(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, _, err = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25", "--goal", "3,1,0.25",
                           "--order", "2", "--tau", "1", "--rho", "1",
                           "--umax", "1", "--mu", "1")
    assert code == 1
    assert "--vmax" in err


@pytest.mark.parametrize("goal", ["nan,8,0.25", "inf,1,0.25",
                                  "1,-inf,0.25"])
def test_plan_non_finite_goal_is_usage_error(tmp_path, capsys, goal):
    m = make_map(capsys, tmp_path / "m.grid")
    code, out, err = run_cli(capsys, "plan", "--map", m,
                             "--start", "1,1,0.25", "--goal", goal,
                             *PLAN_FLAGS)
    assert code == 1
    assert out == ""
    assert "--goal" in err and "finite" in err


def test_plan_non_finite_start_is_usage_error(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, out, err = run_cli(capsys, "plan", "--map", m,
                             "--start", "1,1,0.25,nan,0,0",
                             "--goal", "3,1,0.25", *PLAN_FLAGS)
    assert code == 1
    assert out == ""
    assert "--start" in err


@pytest.mark.parametrize("flag,value", [
    ("--vmax", "-1"), ("--vmax", "0"), ("--vmax", "nan"),
    ("--amax", "0"), ("--amax", "-2"), ("--dt", "0"), ("--dt", "-0.1"),
])
def test_plan_non_positive_bound_is_usage_error(tmp_path, capsys, flag, value):
    # The map does not exist: the range check must come before it is read.
    flags = dict(zip(PLAN_FLAGS[::2], PLAN_FLAGS[1::2]))
    flags[flag] = value
    argv = [a for kv in flags.items() for a in kv]
    code, out, err = run_cli(capsys, "plan", "--map",
                             str(tmp_path / "missing.grid"),
                             "--start", "1,1,0.25", "--goal", "3,1,0.25",
                             *argv)
    assert code == 1
    assert out == ""
    assert flag in err and "positive" in err


@pytest.mark.parametrize("flag", ["--vmax", "--amax"])
def test_bench_non_positive_bound_is_usage_error(tmp_path, capsys, flag):
    flags = dict(zip(PLAN_FLAGS[::2], PLAN_FLAGS[1::2]))
    flags[flag] = "-1"
    argv = [a for kv in flags.items() for a in kv]
    code, out, err = run_cli(capsys, "bench", "--maps", str(tmp_path),
                             "--cases", str(tmp_path / "missing.txt"),
                             "--report", str(tmp_path / "r.csv"), *argv)
    assert code == 1
    assert out == ""
    assert flag in err and "positive" in err


def test_plan_occupied_start_is_no_path_exit(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid", density=1.0, dims=(4, 4, 1))
    code, out, err = run_cli(capsys, "plan", "--map", m,
                             "--start", "1,1,0.25", "--goal", "1.5,1,0.25",
                             *PLAN_FLAGS)
    assert code == 2
    assert "start infeasible" in err
    assert out.startswith("NoPath inf 0 ")


def test_plan_bad_start_string(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, _, err = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1", "--goal", "3,1,0.25",
                           *PLAN_FLAGS)
    assert code == 1
    assert "--start" in err


def test_plan_writes_outputs(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    csv = tmp_path / "traj.csv"
    segs = tmp_path / "traj.segs"
    code, _, _ = run_cli(capsys, "plan", "--map", m,
                         "--start", "1,1,0.25", "--goal", "4,1,0.25",
                         "--out-csv", str(csv), "--out-segs", str(segs),
                         "--dt", "0.25", *PLAN_FLAGS)
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "t,px,py,pz,vx,vy,vz,ax,ay,az"
    assert segs.read_text().startswith("segtraj v1 monomial\norder 2\n")


def test_plan_refined_outputs(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    csv = tmp_path / "traj.csv"
    segs = tmp_path / "traj.segs"
    code, _, err = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25", "--goal", "4,1,0.25",
                           "--goal-rest", "--refine", "--refine-order", "3",
                           "--post-check",
                           "--out-csv", str(csv), "--out-segs", str(segs),
                           *PLAN_FLAGS)
    assert code == 0
    assert segs.read_text().splitlines()[1] == "order 3"
    assert csv.read_text().splitlines()[0] == \
        "t,px,py,pz,vx,vy,vz,ax,ay,az,jx,jy,jz"
    assert "post-check:" in err


def test_plan_moving_start_six_numbers(tmp_path, capsys):
    m = make_map(capsys, tmp_path / "m.grid")
    code, out, _ = run_cli(capsys, "plan", "--map", m,
                           "--start", "1,1,0.25,1,0,0",
                           "--goal", "5,1,0.25", *PLAN_FLAGS)
    assert code == 0
    assert out.startswith("Solved")


# ---------------------------------------------------------------- bench


def bench_setup(tmp_path, capsys, n_maps=3):
    # Seeds picked so the fixed start and goal cells are free.
    seeds = (3, 5, 6, 7, 8)[:n_maps]
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    names = []
    for seed in seeds:
        name = f"m{seed}.grid"
        make_map(capsys, maps_dir / name, seed=seed, density=0.15)
        names.append(name)
    cases = tmp_path / "cases.txt"
    lines = ["# corpus"]
    for name in names:
        lines.append(f"{name};1,1,0.25;8,8,0.25")
    cases.write_text("\n".join(lines) + "\n")
    return maps_dir, cases


def test_bench_report_and_aggregates(tmp_path, capsys):
    maps_dir, cases = bench_setup(tmp_path, capsys)
    report = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "bench", "--maps", str(maps_dir),
                             "--cases", str(cases), "--report", str(report),
                             "--goal-rest", *PLAN_FLAGS)
    assert code == 0, err
    lines = report.read_text().splitlines()
    assert lines[0] == "map,case,heuristic,status,cost,expanded,seconds"
    assert len(lines) == 1 + 3 * 3
    for name in ("zero", "maxspeed", "lqmt"):
        assert any(line.startswith(f"{name}: solved") for line in out.splitlines())
    assert "ordering expanded(lqmt)<=expanded(maxspeed)<=expanded(zero):" in out


def test_bench_costs_agree_per_case(tmp_path, capsys):
    maps_dir, cases = bench_setup(tmp_path, capsys)
    report = tmp_path / "report.csv"
    code, _, err = run_cli(capsys, "bench", "--maps", str(maps_dir),
                           "--cases", str(cases), "--report", str(report),
                           "--goal-rest", *PLAN_FLAGS)
    assert code == 0
    assert "cost mismatch" not in err
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    by_case = {}
    for row in rows:
        if row[3] == "Solved":
            by_case.setdefault(row[1], []).append(float(row[4]))
    assert by_case
    for costs in by_case.values():
        assert max(costs) - min(costs) <= 1e-9


def test_bench_empty_cases_file(tmp_path, capsys):
    maps_dir, _ = bench_setup(tmp_path, capsys, n_maps=1)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "bench", "--maps", str(maps_dir),
                           "--cases", str(empty), *PLAN_FLAGS)
    assert code == 1
    assert "empty" in err


def test_bench_malformed_cases_line(tmp_path, capsys):
    maps_dir, _ = bench_setup(tmp_path, capsys, n_maps=1)
    bad = tmp_path / "bad.txt"
    bad.write_text("m0.grid;1,1,0.25\n")
    code, _, err = run_cli(capsys, "bench", "--maps", str(maps_dir),
                           "--cases", str(bad), *PLAN_FLAGS)
    assert code == 1
    assert "line 1" in err


# ------------------------------------------------------------ the rest


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_module_entry_point(tmp_path):
    # The child interpreter imports the same kinoplan as this one, whether
    # it comes from PYTHONPATH or from pytest's pythonpath setting.
    src = os.path.dirname(os.path.dirname(kinoplan.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    m = tmp_path / "m.grid"
    r = subprocess.run(
        [sys.executable, "-m", "kinoplan.cli", "genmap", "--dims", "8", "8",
         "1", "--resolution", "0.5", "--density", "0", "--seed", "1",
         "--out", str(m)],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0
    r = subprocess.run(
        [sys.executable, "-m", "kinoplan.cli", "plan", "--map", str(m),
         "--start", "1,1,0.25", "--goal", "3,1,0.25", *PLAN_FLAGS],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert r.stdout.startswith("Solved")


def test_unreadable_map_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "plan", "--map",
                           str(tmp_path / "missing.grid"),
                           "--start", "1,1,0.25", "--goal", "3,1,0.25",
                           *PLAN_FLAGS)
    assert code == 1
    assert "error" in err
