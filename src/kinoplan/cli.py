"""Command line front end: plan one query, benchmark a corpus, generate maps.

Exit codes: 0 solved, 2 no path, 3 expansion limit, 1 usage or I/O error.
`plan` prints exactly one summary line `status cost expanded seconds` to
standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .gridmap import (DynBounds, MapParseError, OccupancyGrid, load_grid,
                      random_grid, save_grid)
from .lattice import make_control_set
from .lti import NoFiniteMinimumError, State
from .polyalg import Interval, extrema_on
from .refine import SplineTrajectory, refine, waypoints_from_plan
from .search import (GoalSpec, Heuristic, MissingBoundError, PlannerConfig,
                     PlanResult, PlanStatus, StartInfeasibleError, plan)
from .trajio import sample, write_csv, write_segments

_STATUS_EXIT = {PlanStatus.SOLVED: 0, PlanStatus.NO_PATH: 2,
                PlanStatus.EXPANSION_LIMIT: 3}

_HEURISTICS = {"zero": Heuristic.ZERO, "maxspeed": Heuristic.MAX_SPEED,
               "lqmt": Heuristic.LQMT}


class UsageError(ValueError):
    pass


def _parse_floats(text: str, counts: tuple[int, ...], what: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) not in counts:
        raise UsageError(f"{what} needs {' or '.join(map(str, counts))} "
                         f"comma-separated numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{what}: numbers must be finite")
    return vals


def _parse_state(text: str, order: int) -> State:
    vals = _parse_floats(text, (3, 6, 9), "--start")
    if len(vals) > 3 * order:
        raise UsageError(f"--start has {len(vals)} numbers but order {order} "
                         f"uses at most {3 * order}")
    vals = vals + [0.0] * (3 * order - len(vals))
    derivs = [tuple(vals[3 * i:3 * i + 3]) for i in range(order)]
    return State.of(*derivs)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.strip("-").replace("-", "_")) is None]
    if missing:
        raise UsageError("missing required flags: " + " ".join(missing))


def _require_positive(args, names: list[str]) -> None:
    """Reject given flags whose value is not a positive number."""
    for name in names:
        val = getattr(args, name.strip("-"))
        if val is not None and not val > 0.0:
            raise UsageError(f"{name} must be positive, got {val}")


def _planner_config(args, grid: OccupancyGrid, heuristic: Heuristic,
                    weight: float) -> PlannerConfig:
    dims = 2 if grid.dims[2] == 1 else 3
    control_set = make_control_set(args.umax, args.mu, dims)
    bounds = DynBounds(v_max=args.vmax, a_max=args.amax)
    return PlannerConfig(order=args.order, tau=args.tau, rho=args.rho,
                         control_set=control_set, bounds=bounds,
                         goal_pos_tol=args.goal_tol,
                         goal_requires_rest=args.goal_rest,
                         heuristic=heuristic, heuristic_weight=weight,
                         max_expansions=args.max_expansions,
                         unknown_is_free=args.unknown_free)


def _print_summary(status: PlanStatus, cost: float, expanded: int,
                   seconds: float) -> None:
    print(f"{status.value} {cost!r} {expanded} {seconds:.6f}")


def _post_check(traj: SplineTrajectory, grid: OccupancyGrid,
                bounds: DynBounds, unknown_is_free: bool) -> None:
    """Report (never repair) collision or bound violations of a spline."""
    step = grid.resolution / 10.0
    bad_cells = 0
    n_samples = 0
    t = 0.0
    while t <= traj.duration:
        s = traj.state_at(t)
        n_samples += 1
        if not grid.is_free_at(s.pos, unknown_is_free):
            bad_cells += 1
        t += step
    bad_bounds = 0
    span_checks = ((1, bounds.v_max), (2, bounds.a_max), (3, bounds.j_max))
    for tau, polys in zip(traj.seg_times, traj.segments):
        for order, bound in span_checks:
            if bound is None:
                continue
            for p in polys:
                mn, mx = extrema_on(p.derivative(order), Interval(0.0, tau))
                if mn < -bound or mx > bound:
                    bad_bounds += 1
    print(f"post-check: {bad_cells}/{n_samples} samples in collision, "
          f"{bad_bounds} derivative bound violations", file=sys.stderr)


def cmd_plan(args) -> int:
    _require(args, ["--map", "--start", "--goal", "--order", "--tau", "--rho",
                    "--umax", "--mu", "--vmax"])
    _require_positive(args, ["--vmax", "--amax", "--dt"])
    grid = load_grid(args.map)
    start = _parse_state(args.start, args.order)
    goal = GoalSpec(tuple(_parse_floats(args.goal, (3,), "--goal")))
    cfg = _planner_config(args, grid, _HEURISTICS[args.heuristic], args.weight)
    try:
        result = plan(start, goal, cfg, grid)
    except StartInfeasibleError as exc:
        print(f"start infeasible: {exc}", file=sys.stderr)
        _print_summary(PlanStatus.NO_PATH, math.inf, 0, 0.0)
        return 2
    _print_summary(result.status, result.total_cost, result.expanded,
                   result.planning_seconds)
    if result.status is not PlanStatus.SOLVED:
        return _STATUS_EXIT[result.status]

    traj = result.primitives
    if args.refine:
        spec = waypoints_from_plan(result, args.refine_order)
        traj = refine(spec)
        if args.post_check:
            _post_check(traj, grid, cfg.bounds, cfg.unknown_is_free)
    if args.out_csv:
        write_csv(sample(traj, args.dt), args.out_csv)
    if args.out_segs:
        write_segments(traj, args.out_segs)
    return 0


def _load_cases(path: str) -> list[tuple[str, str, str]]:
    cases = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) != 3:
                raise UsageError(f"cases line {lineno}: expected "
                                 "'map;start;goal'")
            cases.append((parts[0].strip(), parts[1].strip(), parts[2].strip()))
    if not cases:
        raise UsageError("cases file is empty")
    return cases


def _aggregate(label: str, runs: list[PlanResult]) -> str:
    solved = [r for r in runs if r.status is PlanStatus.SOLVED]
    if not solved:
        return f"{label}: solved 0/{len(runs)}"
    secs = [r.planning_seconds for r in solved]
    exps = [float(r.expanded) for r in solved]

    def stats(vals):
        n = len(vals)
        avg = sum(vals) / n
        var = sum((v - avg) ** 2 for v in vals) / n
        return avg, math.sqrt(var), max(vals)

    s_avg, s_std, s_max = stats(secs)
    e_avg, e_std, e_max = stats(exps)
    return (f"{label}: solved {len(solved)}/{len(runs)} "
            f"seconds avg {s_avg:.4f} std {s_std:.4f} max {s_max:.4f} "
            f"expanded avg {e_avg:.1f} std {e_std:.1f} max {e_max:.0f}")


def cmd_bench(args) -> int:
    _require(args, ["--maps", "--cases", "--order", "--tau", "--rho",
                    "--umax", "--mu", "--vmax"])
    _require_positive(args, ["--vmax", "--amax"])
    cases = _load_cases(args.cases)
    order = ("zero", "maxspeed", "lqmt")
    results: dict[str, list[PlanResult]] = {name: [] for name in order}
    report_lines = ["map,case,heuristic,status,cost,expanded,seconds"]
    for idx, (map_name, start_text, goal_text) in enumerate(cases):
        grid = load_grid(os.path.join(args.maps, map_name))
        start = _parse_state(start_text, args.order)
        goal = GoalSpec(tuple(_parse_floats(goal_text, (3,), "goal")))
        for name in order:
            cfg = _planner_config(args, grid, _HEURISTICS[name], 1.0)
            try:
                res = plan(start, goal, cfg, grid)
            except StartInfeasibleError:
                res = PlanResult(PlanStatus.NO_PATH, (), math.inf, 0, 0.0)
            results[name].append(res)
            report_lines.append(
                f"{map_name},{idx},{name},{res.status.value},"
                f"{res.total_cost!r},{res.expanded},{res.planning_seconds:.6f}")
        costs = [results[name][idx].total_cost for name in order]
        solved = [c for c, name in zip(costs, order)
                  if results[name][idx].status is PlanStatus.SOLVED]
        if solved and max(solved) - min(solved) > 1e-9:
            print(f"warning: case {idx} ({map_name}) cost mismatch "
                  f"zero/maxspeed/lqmt = {costs}", file=sys.stderr)

    with open(args.report, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(report_lines) + "\n")

    for name in order:
        print(_aggregate(name, results[name]))
    all_solved = [i for i in range(len(cases))
                  if all(results[n][i].status is PlanStatus.SOLVED for n in order)]
    if all_solved:
        ordered = sum(
            1 for i in all_solved
            if results["lqmt"][i].expanded <= results["maxspeed"][i].expanded
            <= results["zero"][i].expanded)
        print(f"ordering expanded(lqmt)<=expanded(maxspeed)<=expanded(zero): "
              f"{ordered / len(all_solved):.3f} over {len(all_solved)} cases")
    return 0


def cmd_genmap(args) -> int:
    _require(args, ["--dims", "--resolution", "--density", "--seed", "--out"])
    nx, ny, nz = args.dims
    grid = random_grid((nx, ny, nz), args.resolution, args.density, args.seed)
    save_grid(grid, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kinoplan",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command")

    def add_planner_flags(p, with_query: bool):
        if with_query:
            p.add_argument("--map")
            p.add_argument("--start")
            p.add_argument("--goal")
        p.add_argument("--order", type=int, choices=(2, 3))
        p.add_argument("--tau", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--umax", type=float)
        p.add_argument("--mu", type=int)
        p.add_argument("--vmax", type=float)
        p.add_argument("--amax", type=float)
        p.add_argument("--goal-tol", type=float, default=0.5)
        p.add_argument("--goal-rest", action="store_true")
        p.add_argument("--unknown-free", action="store_true")
        p.add_argument("--max-expansions", type=int, default=1_000_000)

    p_plan = sub.add_parser("plan", help="plan one start-to-goal query")
    add_planner_flags(p_plan, with_query=True)
    p_plan.add_argument("--heuristic", choices=tuple(_HEURISTICS),
                        default="lqmt")
    p_plan.add_argument("--weight", type=float, default=1.0)
    p_plan.add_argument("--out-csv")
    p_plan.add_argument("--out-segs")
    p_plan.add_argument("--dt", type=float, default=0.1)
    p_plan.add_argument("--refine", action="store_true")
    p_plan.add_argument("--refine-order", type=int, choices=(3, 4), default=3)
    p_plan.add_argument("--post-check", action="store_true")
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="run all heuristics over a corpus")
    p_bench.add_argument("--maps")
    p_bench.add_argument("--cases")
    p_bench.add_argument("--report", default="report.csv")
    add_planner_flags(p_bench, with_query=False)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("genmap", help="generate a random occupancy grid")
    p_gen.add_argument("--dims", type=int, nargs=3)
    p_gen.add_argument("--resolution", type=float)
    p_gen.add_argument("--density", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_genmap)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, MissingBoundError, NoFiniteMinimumError,
            MapParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
