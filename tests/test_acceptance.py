"""Acceptance gate: ten criteria, one printed pass/fail line each.

The corpus is 50 seeded random 20x20x1 maps at resolution 0.5 and obstacle
density 0.2, planned with acceleration control (tau = 1, rho = 1,
u_max = 1, mu = 1, v_max = 2, goal tolerance 0.5) under all three
heuristics. Start and goal are rest states aligned to the induced lattice
(their displacement is integral per axis), and the goal requires rest, so
the goal region contains exactly one reachable state and both heuristics
stay admissible and consistent on every instance. Start and goal cells are
carved free in each map; everything else is untouched.

Collision checking walks every cell a primitive's path meets, so a solved
path enters no occupied cell, not even for an instant. CORPUS_SEEDS holds
the first fifty seeds, ascending from zero, whose maps solve under all
three heuristics; nothing else about the solutions is vetted. Criterion 8
resamples every solution 1000 times finer than one sample per cell.

Each criterion prints `acceptance N <name>: PASS|FAIL` to the real stdout
so the line survives pytest capture.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

import kinoplan as kp
from kinoplan.cli import main as cli_main
from kinoplan.gridmap import random_grid
from kinoplan.lti import BoundaryPair, State
from kinoplan.polyalg import Interval, Poly1, integral_of_square
from kinoplan.refine import refine, refine_constraints
from kinoplan.search import Heuristic, PlanStatus

CORPUS_SEEDS = (
    0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
    21, 22, 23, 24, 25, 26, 27, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
    40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
)
START_P = (1.0, 1.0, 0.25)
GOAL_P = (9.0, 9.0, 0.25)
HEURISTICS = (Heuristic.ZERO, Heuristic.MAX_SPEED, Heuristic.LQMT)


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'}",
              flush=True)


def corpus_config(heuristic):
    return kp.PlannerConfig(
        order=2, tau=1.0, rho=1.0,
        control_set=kp.make_control_set(1.0, 1, 2),
        bounds=kp.DynBounds(v_max=2.0),
        goal_pos_tol=0.5,
        goal_requires_rest=True,
        heuristic=heuristic,
    )


def carve(grid, *points):
    cells = bytearray(grid.cells)
    nx, ny, _nz = grid.dims
    for p in points:
        ix, iy, iz = grid.cell_index(p)
        cells[ix + nx * (iy + ny * iz)] = 0
    return dataclasses.replace(grid, cells=bytes(cells))


def corpus_map(seed):
    return carve(random_grid((20, 20, 1), 0.5, 0.2, seed=seed),
                 START_P, GOAL_P)


@pytest.fixture(scope="module")
def corpus():
    start = State.rest(2, START_P)
    goal = kp.GoalSpec(GOAL_P)
    cases = []
    t0 = time.perf_counter()
    # One config per heuristic, shared by every map, as a caller planning
    # many queries would hold it: the maps share its edge-table rows.
    configs = {h: corpus_config(h) for h in HEURISTICS}
    for seed in CORPUS_SEEDS:
        grid = corpus_map(seed)
        results = {}
        for h in HEURISTICS:
            results[h] = kp.plan(start, goal, configs[h], grid)
        cases.append({"seed": seed, "grid": grid, "results": results})
    wall = time.perf_counter() - t0
    return {"cases": cases, "wall_seconds": wall,
            "start": start, "goal": goal}


def solved_cases(corpus):
    return [c for c in corpus["cases"]
            if all(c["results"][h].status is PlanStatus.SOLVED
                   for h in HEURISTICS)]


# --------------------------------------------------------- criterion 1


def test_criterion_01_oracle_optimality(corpus, capsys):
    ok = corpus["wall_seconds"] < 60.0
    solved = 0
    for case in corpus["cases"]:
        statuses = {case["results"][h].status for h in HEURISTICS}
        if len(statuses) != 1:
            ok = False
            continue
        if statuses == {PlanStatus.SOLVED}:
            solved += 1
            costs = [case["results"][h].total_cost for h in HEURISTICS]
            if max(costs) - min(costs) > 1e-9:
                ok = False
    ok = ok and solved > 0
    report(capsys, 1, "oracle optimality across heuristics", ok)
    assert ok, (corpus["wall_seconds"], solved)


# --------------------------------------------------------- criterion 2


def test_criterion_02_heuristic_ordering(corpus, capsys):
    cases = solved_cases(corpus)
    ordered = sum(
        1 for c in cases
        if c["results"][Heuristic.LQMT].expanded
        <= c["results"][Heuristic.MAX_SPEED].expanded
        <= c["results"][Heuristic.ZERO].expanded)
    ratio = ordered / len(cases)
    mean_lqmt = sum(c["results"][Heuristic.LQMT].expanded
                    for c in cases) / len(cases)
    mean_zero = sum(c["results"][Heuristic.ZERO].expanded
                    for c in cases) / len(cases)
    ok = ratio >= 0.9 and mean_lqmt < 0.5 * mean_zero
    report(capsys, 2, "heuristic expansion ordering", ok)
    assert ok, (ratio, mean_lqmt, mean_zero)


# --------------------------------------------------------- criterion 3


def _enum_best(goal, cfg, max_depth):
    controls = cfg.control_set.controls
    tau, rho, v_max = cfg.tau, cfg.rho, cfg.bounds.v_max
    best = None
    for depth in range(1, max_depth + 1):
        for seq in itertools.product(controls, repeat=depth):
            p, v = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
            cost = 0.0
            ok = True
            for u in seq:
                p2 = tuple(p[i] + v[i] * tau + 0.5 * u[i] * tau * tau
                           for i in range(3))
                v2 = tuple(v[i] + u[i] * tau for i in range(3))
                if any(abs(c) > v_max for c in v) or \
                        any(abs(c) > v_max for c in v2):
                    ok = False
                    break
                cost = cost + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
                               + rho) * tau
                p, v = p2, v2
                if best is not None and cost >= best:
                    ok = False
                    break
            if not ok:
                continue
            if any(abs(p[i] - goal.p_g[i]) > cfg.goal_pos_tol
                   for i in range(3)):
                continue
            if any(abs(c) > 1e-9 for c in v):
                continue
            if best is None or cost < best:
                best = cost
    return best


def test_criterion_03_small_instance_brute_force(capsys):
    free = random_grid((60, 60, 1), 0.5, 0.0, seed=0,
                       origin=(-15.0, -15.0, 0.0))
    rng = random.Random(12)
    ok = True
    checked = 0
    while checked < 10:
        goal_p = (float(rng.randint(-2, 2)), float(rng.randint(-2, 2)), 0.0)
        if goal_p == (0.0, 0.0, 0.0):
            continue
        goal = kp.GoalSpec(goal_p)
        base = dataclasses.replace(corpus_config(Heuristic.ZERO),
                                   goal_pos_tol=0.25)
        want = _enum_best(goal, base, max_depth=4)
        if want is None:
            continue
        checked += 1
        for h in HEURISTICS:
            cfg = dataclasses.replace(base, heuristic=h)
            res = kp.plan(State.rest(2), goal, cfg, free)
            if res.status is not PlanStatus.SOLVED or res.total_cost != want:
                ok = False
    report(capsys, 3, "brute force equality on small instances", ok)
    assert ok


# --------------------------------------------------------- criterion 4


def test_criterion_04_primitive_optimality(capsys):
    rng = random.Random(4040)
    ok = True
    for n in (2, 3):
        done = 0
        while done < 100:
            x0 = State.of(*[tuple(rng.uniform(-2, 2) for _ in range(3))
                            for _ in range(n)])
            u = tuple(rng.uniform(-2, 2) for _ in range(3))
            tau = rng.uniform(0.3, 2.5)
            effort = sum(c * c for c in u) * tau
            if effort < 1e-3:
                continue
            done += 1
            prim = kp.propagate(x0, u, tau, rho=0.0)
            sol = kp.lqmt_fixed_time(
                BoundaryPair(x0, prim.end_state(), tau), rho=0.0)
            for ax in range(3):
                ctrl = sol.axis_polys[ax].derivative(n)
                if abs(ctrl.eval(0.0) - u[ax]) > 1e-6:
                    ok = False
                if any(abs(c) > 1e-6 for c in ctrl.coeffs[1:]):
                    ok = False
            if abs(sol.cost_effort - effort) > 1e-6 * effort:
                ok = False
    report(capsys, 4, "primitive endpoints recover constant control", ok)
    assert ok


# --------------------------------------------------------- criterion 5


def _gramian_simpson(n, T, steps=2000):
    A = np.zeros((3 * n, 3 * n))
    for i in range(n - 1):
        A[3 * i:3 * i + 3, 3 * (i + 1):3 * (i + 1) + 3] = np.eye(3)
    B = np.zeros((3 * n, 3))
    B[3 * (n - 1):, :] = np.eye(3)

    def f(t):
        F, _ = kp.state_transition(n, t)
        M = F @ B
        return M @ M.T

    h = T / steps
    acc = f(0.0) + f(T)
    for i in range(1, steps):
        acc = acc + f(i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def test_criterion_05_closed_form_costs(capsys):
    rng = random.Random(5050)
    ok = True
    for _ in range(100):
        x0 = State.of(tuple(rng.uniform(-3, 3) for _ in range(3)))
        xf = State.of(tuple(rng.uniform(-3, 3) for _ in range(3)))
        T = rng.uniform(0.2, 5.0)
        got = kp.effort_between(x0, xf, T)
        dp = [xf.derivs[0][i] - x0.derivs[0][i] for i in range(3)]
        want = sum(d * d for d in dp) / T
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            ok = False
    for _ in range(100):
        x0 = State.of(*[tuple(rng.uniform(-3, 3) for _ in range(3))
                        for _ in range(2)])
        xf = State.of(*[tuple(rng.uniform(-3, 3) for _ in range(3))
                        for _ in range(2)])
        T = rng.uniform(0.2, 5.0)
        got = kp.effort_between(x0, xf, T)
        dp = [xf.derivs[0][i] - x0.derivs[0][i] - x0.derivs[1][i] * T
              for i in range(3)]
        dv = [xf.derivs[1][i] - x0.derivs[1][i] for i in range(3)]
        want = (12 * sum(d * d for d in dp) / T**3
                - 12 * sum(a * b for a, b in zip(dp, dv)) / T**2
                + 4 * sum(d * d for d in dv) / T)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            ok = False
    for n in (1, 2, 3):
        for T in (0.5, 1.0, 2.0):
            W = kp.gramian(n, T)
            W_num = _gramian_simpson(n, T)
            if not np.allclose(W, W_num, rtol=1e-8, atol=1e-10):
                ok = False
    report(capsys, 5, "printed cost formulas and gramian quadrature", ok)
    assert ok


# --------------------------------------------------------- criterion 6


def _golden(f, a, b):
    gr = (math.sqrt(5) - 1) / 2
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-10 * (1 + abs(a)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return (a + b) / 2


def test_criterion_06_optimal_time(capsys):
    rng = random.Random(6060)
    ok = True
    for _ in range(100):
        x0 = State.of(*[tuple(rng.uniform(-2, 2) for _ in range(3))
                        for _ in range(2)])
        xf = State.of(*[tuple(rng.uniform(-2, 2) for _ in range(3))
                        for _ in range(2)])
        rho = rng.uniform(0.5, 20.0)
        sol = kp.lqmt_optimal_time(x0, xf, rho)

        def cost(T):
            return kp.effort_between(x0, xf, T) + rho * T

        ts = np.linspace(1e-3, 60.0, 2000)
        i = int(np.argmin([cost(float(t)) for t in ts]))
        t_star = _golden(cost, float(ts[max(0, i - 1)]),
                         float(ts[min(len(ts) - 1, i + 1)]))
        if abs(sol.T - t_star) > 1e-6 * max(1.0, t_star):
            ok = False
    rest0 = State.rest(2)
    rest1 = State.rest(2, (1.0, 0.0, 0.0))
    sol = kp.lqmt_optimal_time(rest0, rest1, rho=36.0)
    if abs(sol.T - 1.0) > 1e-9 or abs(sol.cost_total - 48.0) > 1e-9 * 48:
        ok = False
    report(capsys, 6, "quartic optimal time matches golden section", ok)
    assert ok


# --------------------------------------------------------- criterion 7


def test_criterion_07_admissibility_consistency(corpus, capsys):
    goal = corpus["goal"]
    start = corpus["start"]
    ok = True
    for h, hfun in ((Heuristic.MAX_SPEED, kp.h_max_speed),
                    (Heuristic.LQMT, kp.h_lqmt)):
        cfg = corpus_config(h)
        for case in solved_cases(corpus):
            edges = []
            res = kp.plan(start, goal, cfg, case["grid"],
                          edge_hook=lambda s, prim: edges.append((s, prim)))
            if res.status is not PlanStatus.SOLVED:
                ok = False
                continue
            g_along = 0.0
            s = start
            for prim in res.primitives:
                if hfun(s, goal, cfg) > res.total_cost - g_along + 1e-9:
                    ok = False
                g_along += prim.cost
                s = prim.end_state()
            for s, prim in edges:
                if hfun(s, goal, cfg) > \
                        prim.cost + hfun(prim.end_state(), goal, cfg) + 1e-9:
                    ok = False
    report(capsys, 7, "admissibility and consistency audits", ok)
    assert ok


# --------------------------------------------------------- criterion 8


# Resampling factor over one sample per cell at v_max.
FINE = 1000


def clips(prim, grid, v_max):
    """True iff the primitive, sampled FINE times finer than one sample per
    cell, leaves the grid or enters a cell that is not free."""
    steps = FINE * max(1, math.ceil(prim.tau * v_max / grid.resolution))
    ts = np.linspace(0.0, prim.tau, steps + 1)
    ix, iy, iz = (np.floor((np.polynomial.polynomial.polyval(
        ts, prim.axis_polys[ax].coeffs) - grid.origin[ax])
        / grid.resolution).astype(int) for ax in range(3))
    nx, ny, nz = grid.dims
    inside = ((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
              & (iz >= 0) & (iz < nz))
    if not inside.all():
        return True
    cells = np.frombuffer(grid.cells, dtype=np.uint8)
    return bool(cells[ix + nx * (iy + ny * iz)].any())


def test_criterion_08_collision_and_bounds(corpus, capsys):
    ok = True
    v_max = 2.0
    for case in corpus["cases"]:
        grid = case["grid"]
        for h in HEURISTICS:
            res = case["results"][h]
            if res.status is not PlanStatus.SOLVED:
                continue
            for prim in res.primitives:
                if clips(prim, grid, v_max):
                    ok = False
                dense = np.linspace(0.0, prim.tau, 1000)
                for ax in range(3):
                    v = np.polynomial.polynomial.polyval(
                        dense, prim.axis_polys[ax].derivative(1).coeffs)
                    if np.max(np.abs(v)) > v_max + 1e-9:
                        ok = False
    report(capsys, 8, "collision soundness and dynamic bounds", ok)
    assert ok


def test_lqmt_plans_on_unvetted_seeds_never_clip():
    # Every LQMT plan on the first 120 corpus maps, solvable or not.
    start = State.rest(2, START_P)
    goal = kp.GoalSpec(GOAL_P)
    cfg = corpus_config(Heuristic.LQMT)
    solved = clipped = 0
    for seed in range(120):
        grid = corpus_map(seed)
        res = kp.plan(start, goal, cfg, grid)
        if res.status is PlanStatus.SOLVED:
            solved += 1
            clipped += any(clips(p, grid, 2.0) for p in res.primitives)
    assert solved > 100
    assert clipped == 0


# --------------------------------------------------------- criterion 9


def _chain_spec(rng, n_segs):
    pos = [(0.0, 0.0, 0.0)]
    for _ in range(n_segs):
        pos.append(tuple(pos[-1][i] + rng.uniform(-2, 2) for i in range(3)))
    return kp.RefineSpec(
        n_prime=3,
        waypoints=tuple(pos[1:]),
        seg_times=tuple(rng.uniform(0.5, 2.0) for _ in range(n_segs)),
        s0=State.rest(3, pos[0]),
        sg=State.rest(3, pos[-1]),
    )


def _coeff_vectors(traj):
    width = len(traj.segments[0][0].coeffs)
    out = []
    for ax in range(3):
        c = []
        for seg in traj.segments:
            c.extend(list(seg[ax].coeffs) + [0.0] * (width
                                                     - len(seg[ax].coeffs)))
        out.append(np.array(c))
    return out, width


def _effort(c, width, seg_times):
    total = 0.0
    for k, tau in enumerate(seg_times):
        p = Poly1(tuple(float(v) for v in c[k * width:(k + 1) * width]))
        d = p.derivative(3)
        if not d.is_zero():
            total += integral_of_square(d, Interval(0.0, tau))
    return total


def test_criterion_09_refinement(capsys):
    ok = True
    traj = refine(kp.RefineSpec(
        n_prime=3, waypoints=((1.0, 0.0, 0.0),), seg_times=(1.0,),
        s0=State.rest(3), sg=State.rest(3, (1.0, 0.0, 0.0))))
    want = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)
    if any(abs(a - b) > 1e-8 for a, b in
           zip(traj.segments[0][0].coeffs, want)):
        ok = False

    rng = random.Random(9090)
    np_rng = np.random.default_rng(9090)
    for _ in range(20):
        spec = _chain_spec(rng, rng.randint(2, 5))
        traj = refine(spec)
        t_ok = True
        for k, tau in enumerate(spec.seg_times):
            for ax in range(3):
                if abs(traj.segments[k][ax].eval(tau)
                       - spec.waypoints[k][ax]) > 1e-6:
                    t_ok = False
        for k in range(len(spec.seg_times) - 1):
            tau = spec.seg_times[k]
            for ax in range(3):
                for d in range(3):
                    left = traj.segments[k][ax].derivative(d).eval(tau)
                    right = traj.segments[k + 1][ax].derivative(d).eval(0.0)
                    if abs(left - right) > 1e-8:
                        t_ok = False
        A, b = refine_constraints(spec)
        cs, width = _coeff_vectors(traj)
        scale = 1 + np.max(np.abs(b))
        for ax in range(3):
            if np.max(np.abs(A @ cs[ax] - b[:, ax])) > 1e-8 * scale:
                t_ok = False
        _u, s, vh = np.linalg.svd(A)
        null = vh[np.sum(s > 1e-9 * s[0]):].T
        base = [_effort(c, width, spec.seg_times) for c in cs]
        if null.shape[1] > 0:
            for _ in range(100):
                ax = int(np_rng.integers(0, 3))
                w = np_rng.normal(size=null.shape[1])
                step = null @ w
                step *= 1e-3 / np.linalg.norm(step)
                if _effort(cs[ax] + step, width, spec.seg_times) < \
                        base[ax] - 1e-12 * (1 + abs(base[ax])):
                    t_ok = False
        if not t_ok:
            ok = False
    report(capsys, 9, "refinement QP constraints and optimality", ok)
    assert ok


# -------------------------------------------------------- criterion 10


def _mask_plan_stdout(text):
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in ("Solved", "NoPath",
                                              "ExpansionLimit"):
            fields[3] = "<t>"
        lines.append(" ".join(fields))
    return "\n".join(lines)


def _mask_report_csv(text):
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        out.append(line.rsplit(",", 1)[0] + ",<t>")
    return "\n".join(out)


def _mask_bench_stdout(text):
    out = []
    for line in text.splitlines():
        if " seconds avg " in line:
            head, _, tail = line.partition(" seconds avg ")
            _, _, exp_part = tail.partition(" expanded avg ")
            out.append(head + " seconds <t> expanded avg " + exp_part)
        else:
            out.append(line)
    return "\n".join(out)


def test_criterion_10_determinism(tmp_path, capsys):
    ok = True
    mp = tmp_path / "m.grid"
    assert cli_main(["genmap", "--dims", "20", "20", "1", "--resolution",
                        "0.5", "--density", "0.2", "--seed", "3",
                        "--out", str(mp)]) == 0
    capsys.readouterr()

    plan_args = ["plan", "--map", str(mp), "--start", "1,1,0.25",
                 "--goal", "8,8,0.25", "--goal-rest",
                 "--order", "2", "--tau", "1", "--rho", "1",
                 "--umax", "1", "--mu", "1", "--vmax", "2"]
    outs, csvs, segss = [], [], []
    for run in range(2):
        csv = tmp_path / f"t{run}.csv"
        segs = tmp_path / f"t{run}.segs"
        code = cli_main(plan_args + ["--refine", "--out-csv", str(csv),
                                        "--out-segs", str(segs)])
        cap = capsys.readouterr()
        if code != 0:
            ok = False
        outs.append(_mask_plan_stdout(cap.out))
        csvs.append(csv.read_bytes())
        segss.append(segs.read_bytes())
    if outs[0] != outs[1] or csvs[0] != csvs[1] or segss[0] != segss[1]:
        ok = False

    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    names = []
    for seed in (3, 5, 6):
        name = f"m{seed}.grid"
        if cli_main(["genmap", "--dims", "20", "20", "1", "--resolution",
                        "0.5", "--density", "0.15", "--seed", str(seed),
                        "--out", str(maps_dir / name)]) != 0:
            ok = False
        names.append(name)
    capsys.readouterr()
    cases = tmp_path / "cases.txt"
    cases.write_text(
        "".join(f"{n};1,1,0.25;8,8,0.25\n" for n in names))
    bench_outs, reports = [], []
    for run in range(2):
        report_path = tmp_path / f"report{run}.csv"
        code = cli_main(["bench", "--maps", str(maps_dir),
                            "--cases", str(cases),
                            "--report", str(report_path), "--goal-rest",
                            "--order", "2", "--tau", "1", "--rho", "1",
                            "--umax", "1", "--mu", "1", "--vmax", "2"])
        cap = capsys.readouterr()
        if code != 0:
            ok = False
        bench_outs.append(_mask_bench_stdout(cap.out))
        reports.append(_mask_report_csv(report_path.read_text()))
    if bench_outs[0] != bench_outs[1] or reports[0] != reports[1]:
        ok = False
    report(capsys, 10, "deterministic cli outputs", ok)
    assert ok
