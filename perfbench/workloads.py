"""The benchmark workloads: inputs from a seed, one query, its checks.

A workload turns a seed into a pool of query inputs (`setup`), runs one query
through kinoplan's public API (`execute`), captures what the query left
behind outside the timed window (`collect`), and checks the outcome
(`judge`). Map seeds come from the benchmark seed, never from the vetted
`CORPUS_SEEDS` of the acceptance tests.

Importing this module needs `kinoplan` on the path; `run.py` puts the
checkout's `src` there first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

import kinoplan as kp
from kinoplan import cli
from kinoplan.search import Heuristic, PlanStatus, goal_reached

# Cells carved free at these positions in every 2D map (acceptance corpus).
CORPUS_START = (1.0, 1.0, 0.25)
CORPUS_GOAL = (9.0, 9.0, 0.25)
CUBE_START = (1.25, 1.25, 1.25)
CUBE_GOAL = (2.75, 2.75, 2.75)

# Output is resampled this many times finer than the planner's own
# collision-sample spacing before it counts as clean.
CLEAN_RESAMPLE = 1000
COST_TOL = 1e-9

_STATUS_EXIT = {"Solved": 0, "NoPath": 2, "ExpansionLimit": 3}


# Shared by every workload: the acceptance corpus's map density and cell size,
# and its acceleration-control lattice (order 2, u_max = 1, mu = 1,
# tau = rho = 1).
ORDER = 2
DENSITY = 0.2
RESOLUTION = 0.5
V_MAX = 2.0
TAU = 1.0
RHO = 1.0
U_MAX = 1.0
MU = 1


@dataclass(frozen=True)
class Spec:
    """Everything that defines a workload; the seed picks the maps.

    judged is how many leading queries clean_solve_rate and ok_rate are
    taken over, and on the CLI workload how many solved queries are planned
    again to check their segment files. Every run makes at least that many,
    so a seed gives the same judged queries however fast the planner is,
    and at least 100, so query_ms_tail (p90) always has ten queries beyond
    it.
    """

    name: str
    family: str
    dims: tuple[int, int, int]
    start: tuple[float, float, float]
    goal: tuple[float, float, float]
    heuristic: Heuristic
    max_expansions: int
    pool: int
    judged: int
    via_cli: bool = False

    def config(self) -> kp.PlannerConfig:
        control_dims = 2 if self.dims[2] == 1 else 3
        return kp.PlannerConfig(
            order=ORDER, tau=TAU, rho=RHO,
            control_set=kp.make_control_set(U_MAX, MU, control_dims),
            bounds=kp.DynBounds(v_max=V_MAX),
            goal_pos_tol=0.5, goal_requires_rest=True,
            heuristic=self.heuristic, max_expansions=self.max_expansions)


SPECS = {s.name: s for s in (
    Spec("corpus_lqmt", "grid20", (20, 20, 1), CORPUS_START, CORPUS_GOAL,
         Heuristic.LQMT, 1_000_000, 1024, 240),
    Spec("cli_3d_refine", "grid12cube", (12, 12, 12), CUBE_START, CUBE_GOAL,
         Heuristic.LQMT, 300, 384, 130, via_cli=True),
)}


def map_seeds(family: str, seed: int, count: int) -> list[int]:
    """Map seeds of one family of maps."""
    rng = random.Random(f"perfbench/{family}/{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def carve(grid: kp.OccupancyGrid, *points) -> kp.OccupancyGrid:
    """Free the cells holding the given points; nothing else changes."""
    cells = bytearray(grid.cells)
    nx, ny, _nz = grid.dims
    for p in points:
        ix, iy, iz = grid.cell_index(p)
        cells[ix + nx * (iy + ny * iz)] = 0
    return dataclasses.replace(grid, cells=bytes(cells))


def _fmt(p) -> str:
    return ",".join(repr(float(v)) for v in p)


@dataclass
class Inputs:
    """A workload's prepared inputs: one grid per pool slot."""

    spec: Spec
    cfg: kp.PlannerConfig
    start: kp.State
    goal: kp.GoalSpec
    seeds: list[int]
    grids: list[kp.OccupancyGrid]
    map_paths: list[str]
    out_csv: str = ""
    out_segs: str = ""

    def argv(self, i: int) -> list[str]:
        s = self.spec
        return ["plan", "--map", self.map_paths[i % len(self.map_paths)],
                "--start", _fmt(s.start), "--goal", _fmt(s.goal),
                "--order", str(ORDER), "--tau", repr(TAU),
                "--rho", repr(RHO), "--umax", repr(U_MAX),
                "--mu", str(MU), "--vmax", repr(V_MAX),
                "--heuristic", s.heuristic.value, "--goal-rest",
                "--max-expansions", str(s.max_expansions), "--refine",
                "--out-csv", self.out_csv, "--out-segs", self.out_segs]


def setup(spec: Spec, seed: int, workdir: str) -> Inputs:
    """Generate the map pool (and map files for the CLI workload)."""
    seeds = map_seeds(spec.family, seed, spec.pool)
    grids = [carve(kp.random_grid(spec.dims, RESOLUTION, DENSITY, seed=s),
                   spec.start, spec.goal)
             for s in seeds]
    paths: list[str] = []
    inputs = Inputs(spec, spec.config(), kp.State.rest(ORDER, spec.start),
                    kp.GoalSpec(spec.goal), seeds, grids, paths)
    if spec.via_cli:
        map_dir = os.path.join(workdir, "maps")
        os.makedirs(map_dir, exist_ok=True)
        for j, grid in enumerate(grids):
            path = os.path.join(map_dir, f"m{j:04d}.grid")
            kp.save_grid(grid, path)
            paths.append(path)
        inputs.out_csv = os.path.join(workdir, "q.csv")
        inputs.out_segs = os.path.join(workdir, "q.segs")
    return inputs


# ------------------------------------------------------------------ queries


@dataclass
class Record:
    """One query's outcome; `seconds` is its wall time seen from outside,
    and `ref_s` the time of the benchmark's host-speed loop just before it."""

    index: int
    seconds: float
    ref_s: float = 0.0
    result: Optional[kp.PlanResult] = None
    exit_code: Optional[int] = None
    summary: str = ""
    error: str = ""
    spline: Any = None
    csv_rows: Optional[list[tuple[float, ...]]] = None
    out_bytes: int = 0


def execute(inputs: Inputs, i: int) -> Record:
    """Run query i; only the planner (or CLI) call sits in the timed window."""
    if inputs.spec.via_cli:
        argv = inputs.argv(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a raising query is counted, not fatal
                return Record(i, time.perf_counter() - t0,
                              error=f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
        return Record(i, t1 - t0, exit_code=code, summary=buf.getvalue())
    grid = inputs.grids[i % len(inputs.grids)]
    t0 = time.perf_counter()
    try:
        res = kp.plan(inputs.start, inputs.goal, inputs.cfg, grid)
    except Exception as exc:  # a raising query is counted, not fatal
        return Record(i, time.perf_counter() - t0,
                      error=f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    return Record(i, t1 - t0, result=res)


def collect(inputs: Inputs, rec: Record) -> None:
    """Read a CLI query's files back before the next query overwrites them."""
    if not inputs.spec.via_cli:
        return
    paths = (inputs.out_csv, inputs.out_segs)
    if rec.exit_code == 0:
        try:
            rec.out_bytes = sum(os.path.getsize(p) for p in paths)
            rec.spline = kp.read_segments(inputs.out_segs)
            with open(inputs.out_csv, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
            rec.csv_rows = [tuple(float(v) for v in ln.split(","))
                            for ln in lines[1:]]
        except (OSError, ValueError) as exc:
            rec.error = f"output unreadable: {type(exc).__name__}: {exc}"
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


# --------------------------------------------------------------- checking


def _cells_free(grid: kp.OccupancyGrid, unknown_is_free: bool,
                xs: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> bool:
    r = grid.resolution
    ox, oy, oz = grid.origin
    nx, ny, nz = grid.dims
    ix = np.floor((xs - ox) / r).astype(np.int64)
    iy = np.floor((ys - oy) / r).astype(np.int64)
    iz = np.floor((zs - oz) / r).astype(np.int64)
    inside = ((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
              & (iz >= 0) & (iz < nz))
    if not inside.all():
        return False
    cells = np.frombuffer(grid.cells, dtype=np.uint8)
    vals = cells[ix + nx * (iy + ny * iz)]
    free = vals == kp.CellState.FREE
    if unknown_is_free:
        free |= vals == kp.CellState.UNKNOWN
    return bool(free.all())


def resampled_clean(segments, grid: kp.OccupancyGrid, v_max: float,
                    unknown_is_free: bool = False) -> bool:
    """Every (tau, (px, py, pz)) segment stays free when sampled 1000x finer.

    The planner samples a segment of duration tau at I = ceil(tau v_max / R)
    steps; this check uses 1000 I steps, endpoints included.
    """
    for tau, polys in segments:
        steps = max(1, math.ceil(tau * v_max / grid.resolution))
        ts = np.linspace(0.0, tau, CLEAN_RESAMPLE * steps + 1)
        xs, ys, zs = (np.polynomial.polynomial.polyval(ts, p.coeffs)
                      for p in polys)
        if not _cells_free(grid, unknown_is_free, xs, ys, zs):
            return False
    return True


def check_plan(inputs: Inputs, grid: kp.OccupancyGrid,
               res: kp.PlanResult) -> str:
    """Empty string when the plan result is consistent, else the reason."""
    cfg = inputs.cfg
    if res.status is not PlanStatus.SOLVED:
        if res.primitives or not math.isinf(res.total_cost):
            return "unsolved result carries a plan"
        if (res.status is PlanStatus.EXPANSION_LIMIT
                and res.expanded != cfg.max_expansions):
            return "expansion limit hit below the budget"
        return ""
    prims = res.primitives
    if not prims:
        return "solved with no primitives"
    if prims[0].x0 != inputs.start:
        return "chain does not start at the start state"
    for a, b in zip(prims, prims[1:]):
        if b.x0 != a.end_state():
            return "chain is not continuous"
    if not goal_reached(prims[-1].end_state(), inputs.goal, cfg):
        return "last state is not in the goal region"
    if abs(sum(p.cost for p in prims) - res.total_cost) > COST_TOL:
        return "primitive costs do not sum to total_cost"
    for p in prims:
        if not kp.check_dynamics(p, cfg.bounds):
            return "a primitive fails check_dynamics"
        if not kp.check_collision(p, grid, cfg.bounds.v_max,
                                  cfg.unknown_is_free):
            return "a primitive fails check_collision"
    return ""


def summary_fields(summary: str) -> list[str]:
    lines = summary.strip().splitlines()
    return lines[-1].split() if lines else []


def check_cli(inputs: Inputs, rec: Record) -> str:
    """Exit code, summary line, and the two output files agree."""
    if rec.exit_code not in (0, 2, 3):
        return f"exit code {rec.exit_code}"
    fields = summary_fields(rec.summary)
    if len(fields) != 4 or _STATUS_EXIT.get(fields[0]) != rec.exit_code:
        return f"summary {rec.summary!r} does not match exit {rec.exit_code}"
    if rec.exit_code == 3 and fields[2] != str(inputs.spec.max_expansions):
        return "expansion limit hit below the budget"
    if rec.exit_code != 0:
        return ""
    spline = rec.spline
    if spline is None or rec.csv_rows is None:
        return "solved query left no output"
    if not spline.seg_times:
        return "refined spline has no segments"
    resampled = kp.sample(spline, 0.1).rows
    if len(resampled) != len(rec.csv_rows):
        return "CSV row count differs from sample() of the segments"
    if any(a != b for a, b in zip(resampled, rec.csv_rows)):
        return "CSV values differ from sample() of the read-back segments"
    return ""


def refined_again(inputs: Inputs, i: int):
    """Recompute query i's refined spline in-process.

    SplineTrajectory compares by value, so `==` against the read-back spline
    is a coefficient-for-coefficient check.
    """
    grid = inputs.grids[i % len(inputs.grids)]
    res = kp.plan(inputs.start, inputs.goal, inputs.cfg, grid)
    return kp.refine(kp.waypoints_from_plan(res, 3))


def judge(inputs: Inputs, rec: Record) -> tuple[str, bool]:
    """(failure reason or "", clean solve) for one query record."""
    if rec.error:
        return rec.error, False
    grid = inputs.grids[rec.index % len(inputs.grids)]
    v_max = inputs.cfg.bounds.v_max
    unknown = inputs.cfg.unknown_is_free
    if inputs.spec.via_cli:
        reason = check_cli(inputs, rec)
        if reason or rec.exit_code != 0:
            return reason, False
        # Planning again costs as much as the query, so only the judged
        # queries get this check; every query gets the CSV check above.
        if (rec.index < inputs.spec.judged
                and rec.spline != refined_again(inputs, rec.index)):
            return "segment file differs from the refined spline", False
        segments = zip(rec.spline.seg_times, rec.spline.segments)
        return "", resampled_clean(segments, grid, v_max, unknown)
    res = rec.result
    reason = check_plan(inputs, grid, res)
    if reason or res.status is not PlanStatus.SOLVED:
        return reason, False
    segments = ((p.tau, p.axis_polys) for p in res.primitives)
    return "", resampled_clean(segments, grid, v_max, unknown)
