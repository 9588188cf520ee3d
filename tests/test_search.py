"""Tests for the lattice A* planner.

The optimality oracle is an exhaustive enumeration over all control
sequences up to a fixed depth, with its own hand-rolled discrete dynamics
(no calls into the lattice module), folding costs in the same order the
planner does so equal plans give bit-equal totals.
"""

import dataclasses
import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest

from kinoplan import search as search_module
from kinoplan.gridmap import (CellState, DynBounds, OccupancyGrid,
                              check_collision, check_dynamics, random_grid)
from kinoplan.lattice import lattice_key, make_control_set, propagate
from kinoplan.lti import State
from kinoplan.search import (
    EdgeTable,
    GoalSpec,
    Heuristic,
    MissingBoundError,
    PlanStatus,
    PlannerConfig,
    StartInfeasibleError,
    get_successors,
    goal_reached,
    h_lqmt,
    h_max_speed,
    plan,
)

FREE_60 = random_grid((60, 60, 1), 0.5, 0.0, seed=0, origin=(-15.0, -15.0, 0.0))


def cfg_2d(heuristic=Heuristic.LQMT, *, tau=1.0, rho=1.0, u_max=1.0, mu=1,
           v_max=2.0, goal_tol=0.25, rest=False, weight=1.0,
           max_expansions=1_000_000):
    return PlannerConfig(
        order=2,
        tau=tau,
        rho=rho,
        control_set=make_control_set(u_max, mu, 2),
        bounds=DynBounds(v_max=v_max),
        goal_pos_tol=goal_tol,
        goal_requires_rest=rest,
        heuristic=heuristic,
        heuristic_weight=weight,
        max_expansions=max_expansions,
    )


def carve_free(grid: OccupancyGrid, *points) -> OccupancyGrid:
    cells = bytearray(grid.cells)
    nx, ny, _ = grid.dims
    for p in points:
        ix, iy, iz = grid.cell_index(p)
        cells[ix + nx * (iy + ny * iz)] = 0
    return dataclasses.replace(grid, cells=bytes(cells))


# --------------------------------------------------- enumeration oracle


def _enum_step(p, v, u, tau):
    p2 = tuple(p[i] + v[i] * tau + 0.5 * u[i] * tau * tau for i in range(3))
    v2 = tuple(v[i] + u[i] * tau for i in range(3))
    return p2, v2


def _enum_feasible(v0, v1, v_max):
    # Order 2: velocity is linear in t, so endpoint checks are exact.
    return all(abs(c) <= v_max for c in v0) and all(abs(c) <= v_max for c in v1)


def enumerate_best(start_p, start_v, goal, cfg, max_depth):
    """Cheapest control sequence of length <= max_depth reaching the goal.

    Returns (cost, sequence) or (None, None). Costs are folded left to
    right with the same per-step expression the planner uses.
    """
    controls = cfg.control_set.controls
    tau, rho = cfg.tau, cfg.rho
    v_max = cfg.bounds.v_max
    best_cost, best_seq = None, None

    def in_goal(p, v):
        if any(abs(p[i] - goal.p_g[i]) > cfg.goal_pos_tol for i in range(3)):
            return False
        if cfg.goal_requires_rest:
            return all(abs(v[i] - goal.v_g[i]) <= 1e-9 for i in range(3))
        return True

    for depth in range(1, max_depth + 1):
        for seq in itertools.product(controls, repeat=depth):
            p, v = start_p, start_v
            cost = 0.0
            ok = True
            for u in seq:
                p2, v2 = _enum_step(p, v, u, tau)
                if not _enum_feasible(v, v2, v_max):
                    ok = False
                    break
                cost = cost + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
                               + rho) * tau
                p, v = p2, v2
                if best_cost is not None and cost >= best_cost:
                    ok = False
                    break
            if ok and in_goal(p, v):
                if best_cost is None or cost < best_cost:
                    best_cost, best_seq = cost, seq
    return best_cost, best_seq


# ------------------------------------------------------- pinned example


def test_plan_example_two_step_optimum():
    start = State.rest(2)
    goal = GoalSpec((2.0, 0.0, 0.0))
    want, seq = enumerate_best((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), goal,
                               cfg_2d(), max_depth=4)
    assert want == 4.0
    assert seq == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    for h in (Heuristic.ZERO, Heuristic.MAX_SPEED):
        res = plan(start, goal, cfg_2d(h), FREE_60)
        assert res.status is PlanStatus.SOLVED
        assert res.total_cost == want
        assert tuple(p.u for p in res.primitives) == seq


def test_plan_brute_force_small_instances():
    rng = random.Random(321)
    checked = 0
    while checked < 10:
        goal_p = (float(rng.randint(-2, 2)), float(rng.randint(-2, 2)), 0.0)
        if goal_p == (0.0, 0.0, 0.0):
            continue
        goal = GoalSpec(goal_p)
        cfg = cfg_2d(Heuristic.ZERO, rest=True, goal_tol=0.25)
        want, _ = enumerate_best((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), goal,
                                 cfg, max_depth=4)
        if want is None:
            continue
        checked += 1
        for h in (Heuristic.ZERO, Heuristic.MAX_SPEED, Heuristic.LQMT):
            res = plan(State.rest(2), goal, cfg_2d(h, rest=True,
                                                   goal_tol=0.25), FREE_60)
            assert res.status is PlanStatus.SOLVED
            assert res.total_cost == want, (goal_p, h)


# ----------------------------------------------------------- successors


def test_successors_all_free():
    cfg = cfg_2d(v_max=100.0)
    succ = get_successors(State.rest(2, (0.0, 0.0, 0.25)), cfg, FREE_60)
    assert len(succ) == 9
    assert [p.u for p in succ] == list(cfg.control_set.controls)


def test_successors_enclosed_keeps_only_coast():
    rows = ["111", "101", "111"]
    body = "\n".join(rows)
    from kinoplan.gridmap import loads_grid
    g = loads_grid("gridmap v1\ndims 3 3 1\nresolution 1.0\n"
                   f"origin 0.0 0.0 0.0\n{body}\n")
    s = State.rest(2, (1.5, 1.5, 0.5))
    succ = get_successors(s, cfg_2d(tau=1.0, v_max=0.4), g)
    assert [p.u for p in succ] == [(0.0, 0.0, 0.0)]


def test_successors_prune_speeding_controls():
    # Moving at v_max along +x: controls accelerating +x violate the bound.
    cfg = cfg_2d(v_max=2.0)
    s = State.of((0.0, 0.0, 0.25), (2.0, 0.0, 0.0))
    succ = get_successors(s, cfg, FREE_60)
    assert succ
    for prim in succ:
        assert prim.u[0] <= 0.0
    expected = [u for u in cfg.control_set.controls if u[0] <= 0.0]
    assert [p.u for p in succ] == expected


# ------------------------------------------ edge table vs brute force


ORACLE_SAMPLES = 2001


def oracle_cells(prim, grid):
    """Every cell the primitive's path meets, found without the planner.

    The path is sampled densely, at its critical points too, so a vertex
    that touches a plane is seen. Between two samples whose cells differ
    by more than one step, as at a corner, bisection closes in on each
    crossing until the two times are adjacent floats, and the cells on
    both sides are kept with every axis read at that time, so the corner
    shows the cells the path passes.
    """
    polys = prim.axis_polys
    r, origin = grid.resolution, grid.origin

    def cell(t):
        return tuple(math.floor((p.eval(t) - o) / r)
                     for p, o in zip(polys, origin))

    tau = prim.tau
    ts = [np.linspace(0.0, tau, ORACLE_SAMPLES)]
    for p in polys:
        dp = p.derivative()
        if any(dp.coeffs):
            ts.append([t.real for t in np.roots(dp.coeffs[::-1])
                       if abs(t.imag) < 1e-12 and 0.0 < t.real < tau])
    ts = np.unique(np.concatenate(ts))
    ks = np.stack([np.floor((np.polynomial.polynomial.polyval(ts, p.coeffs)
                             - o) / r) for p, o in zip(polys, origin)], 1)
    steps = np.flatnonzero((ks[1:] != ks[:-1]).any(axis=1))
    found = {tuple(k) for k in ks[np.r_[0, steps + 1]].astype(int).tolist()}
    # Where one axis moves by one cell between two samples, the cells on
    # both sides of its crossing are those two samples' cells already.
    for i in steps[(np.abs(ks[steps + 1] - ks[steps]).sum(axis=1) > 1)]:
        ta, tb = float(ts[i]), float(ts[i + 1])
        ca, cb = cell(ta), cell(tb)
        while ca != cb:
            # Bisect onto the first change, then go on from there.
            lo, hi = ta, tb
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if cell(mid) == ca:
                    lo = mid
                else:
                    hi = mid
            found.update((cell(lo), cell(hi)))
            ta, ca = hi, cell(hi)
    return found


def oracle_free(prim, grid, unknown_is_free):
    free = (CellState.FREE, CellState.UNKNOWN) if unknown_is_free else (
        CellState.FREE,)
    return all(grid.value(*c) in free for c in oracle_cells(prim, grid))


def brute_successors(s, cfg, grid):
    out = []
    for u in cfg.control_set.controls:
        prim = propagate(s, u, cfg.tau, cfg.rho)
        if (check_dynamics(prim, cfg.bounds)
                and oracle_free(prim, grid, cfg.unknown_is_free)):
            out.append(prim)
    return out


def walk_states(cfg, grid, rng, walks=20, depth=10):
    """States reached by random dynamically feasible control sequences.

    Positions drift over the whole map, so collision prunes some edges and
    not others; velocities revisit the same lattice points along different
    float sums.
    """
    states = []
    nx, ny, nz = grid.dims
    r = grid.resolution
    for _ in range(walks):
        p = (rng.uniform(0, nx * r), rng.uniform(0, ny * r),
             rng.uniform(0, nz * r) if nz > 1 else 0.25)
        s = State.rest(cfg.order, p)
        for _ in range(depth):
            states.append(s)
            feasible = [prim for u in cfg.control_set.controls
                        for prim in [propagate(s, u, cfg.tau, cfg.rho)]
                        if check_dynamics(prim, cfg.bounds)]
            if not feasible:
                break
            s = rng.choice(feasible).end_state()
    return states


def mixed_grid(dims, seed):
    rng = random.Random(seed)
    nx, ny, nz = dims
    cells = bytes(rng.choice((0, 0, 0, 0, 1, 2)) for _ in range(nx * ny * nz))
    return OccupancyGrid((0.0, 0.0, 0.0), 0.5, dims, cells)


def lattice_cfg(order=2, tau=1.0, rho=1.0, u_max=1.0, mu=1, dims=2,
                v_max=2.0, a_max=None, j_max=None, unknown_is_free=False):
    return PlannerConfig(order=order, tau=tau, rho=rho,
                         control_set=make_control_set(u_max, mu, dims),
                         bounds=DynBounds(v_max=v_max, a_max=a_max,
                                          j_max=j_max),
                         goal_pos_tol=0.5, unknown_is_free=unknown_is_free)


EDGE_CASES = {
    "corpus": (lattice_cfg(), random_grid((20, 20, 1), 0.5, 0.2, seed=3)),
    "non_dyadic": (lattice_cfg(tau=0.3, rho=0.7, mu=2, v_max=1.0),
                   random_grid((20, 20, 1), 0.5, 0.2, seed=4)),
    "3d_27_controls": (lattice_cfg(dims=3),
                       random_grid((12, 12, 12), 0.5, 0.2, seed=5)),
    "order3_amax": (lattice_cfg(order=3, tau=0.5, v_max=2.0, a_max=1.0),
                    random_grid((20, 20, 1), 0.5, 0.2, seed=6)),
    # The jerk bound equals u_max: the inclusive test keeps every control.
    "order3_3d_amax_jmax": (lattice_cfg(order=3, tau=0.5, dims=3, v_max=2.0,
                                        a_max=1.0, j_max=1.0),
                            random_grid((12, 12, 12), 0.5, 0.2, seed=8)),
    "unknown_occupied": (lattice_cfg(), mixed_grid((20, 20, 1), 7)),
    "unknown_free": (lattice_cfg(unknown_is_free=True),
                     mixed_grid((20, 20, 1), 7)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_successors_equal_brute_force(case):
    cfg, grid = EDGE_CASES[case]
    rng = random.Random(case)
    states = walk_states(cfg, grid, rng)
    origin = states[0]
    table = EdgeTable(cfg, grid, origin)
    d_u, tau = cfg.control_set.d_u, cfg.tau
    kept = pruned = 0
    for s in states:
        want = brute_successors(s, cfg, grid)
        assert get_successors(s, cfg, grid) == want
        # One table shared by every state, as in a plan: rows built at one
        # state serve the others with the same higher derivatives.
        got = table.successors(s)
        assert [(u, cost, end) for u, cost, end, _key in got] == [
            (p.u, p.cost, p.end_state()) for p in want]
        assert [key for *_rest, key in got] == [
            lattice_key(p.end_state(), d_u, tau, origin) for p in want]
        # The planner keeps an edge iff check_collision accepts it.
        kept_u = {u for u, *_rest in got}
        for u in cfg.control_set.controls:
            prim = propagate(s, u, cfg.tau, cfg.rho)
            if check_dynamics(prim, cfg.bounds):
                assert (u in kept_u) == check_collision(
                    prim, grid, cfg.bounds.v_max, cfg.unknown_is_free)
        kept += len(want)
        pruned += len(cfg.control_set.controls) - len(want)
    assert kept and pruned
    # Some rows were shared between states with distinct positions.
    assert len(table._rows) < len(states)


def test_non_dyadic_keys_carry_several_float_states():
    cfg, grid = EDGE_CASES["non_dyadic"]
    states = walk_states(cfg, grid, random.Random("non_dyadic"))
    by_key = {}
    for s in states:
        k = lattice_key(s, cfg.control_set.d_u, cfg.tau, states[0])
        by_key.setdefault(k[1:], set()).add(s.derivs[1:])
    assert any(len(v) > 1 for v in by_key.values())


# ------------------------------------------- rows shared across plans


def test_jerk_plan_does_not_clip_where_two_axes_end_short_of_a_plane():
    # Order 3 on map seed 6: the search once solved it through an edge whose
    # x and y end a few ulps short of one grid plane at tau, with a sample
    # at tau that rounds across the plane on one axis only. Whatever the
    # status, a solved plan must stay in free cells when each primitive is
    # sampled by Poly1.eval 1000 times finer than one sample per cell.
    grid = random_grid((20, 20, 1), 0.5, 0.2, seed=6)
    cfg = PlannerConfig(order=3, tau=1.0, rho=1.0,
                        control_set=make_control_set(1.0, 1, 2),
                        bounds=DynBounds(v_max=2.0, a_max=2.0),
                        goal_pos_tol=0.5, goal_requires_rest=True)
    res = plan(State.rest(3, (1.0, 1.0, 0.25)), GoalSpec((8.0, 8.0, 0.25)),
               cfg, grid)
    nx, ny, _nz = grid.dims
    cells = np.frombuffer(grid.cells, dtype=np.uint8)
    for prim in res.primitives:
        steps = 1000 * math.ceil(prim.tau * 2.0 / grid.resolution)
        ts = np.linspace(0.0, prim.tau, steps + 1)
        ix, iy, iz = (np.floor(p.eval(ts) / grid.resolution).astype(int)
                      for p in prim.axis_polys)
        assert ((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
                & (iz == 0)).all()
        assert not cells[ix + nx * iy].any()


def plan_trace(start, goal, cfg, grid):
    """What a plan shows: outcome, chain and the edge_hook stream."""
    edges = []
    res = plan(start, goal, cfg, grid,
               edge_hook=lambda s, prim: edges.append((s, prim)))
    return (res.status, res.expanded, repr(res.total_cost), res.primitives,
            edges)


def interleaved_queries():
    """(config, start, goal, grid) for one shared corpus config and one
    shared non-dyadic config: corpus maps, a finer grid, moving starts
    (-0.0 included) and the non-dyadic lattice, in turn. Each query after
    the first of a round that repeats the previous query's grid resolution
    and start higher derivatives takes over its rows."""
    corpus = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    non_dyadic = dataclasses.replace(
        lattice_cfg(tau=0.3, rho=0.7, mu=2, v_max=1.0), max_expansions=100)
    goal = GoalSpec((9.0, 9.0, 0.25))
    near = GoalSpec((3.5, 3.0, 0.25))
    velocities = [(1.0, 0.0, 0.0), (-0.0, -0.0, 0.0), (-0.0, 0.5, 0.0),
                  (0.5, -0.5, 0.0)]
    out = []
    for k, vel in enumerate(velocities):
        grid, rest, _ = corpus_case(100 + k)
        grid2, _, _ = corpus_case(150 + k)
        fine, fine2 = (carve_free(random_grid((40, 40, 1), 0.25, 0.2, seed=s,
                                              origin=(0.0, 0.0, 0.125)),
                                  rest.pos, goal.p_g)
                       for s in (200 + k, 250 + k))
        moving = State.of(rest.pos, vel)
        small, small2 = (carve_free(random_grid((10, 10, 1), 0.5, 0.2, seed=s),
                                    (1.0, 1.0, 0.25), near.p_g)
                         for s in (300 + k, 350 + k))
        nd_rest = State.rest(2, (1.0, 1.0, 0.25))
        nd_moving = State.of(nd_rest.pos, (0.15, -0.0, 0.0))
        out += [
            (corpus, rest, goal, grid),
            (corpus, moving, goal, grid),
            (corpus, moving, goal, grid2),
            (corpus, rest, goal, fine),
            (corpus, rest, goal, fine2),
            (non_dyadic, nd_moving, near, small),
            (non_dyadic, nd_rest, near, small),
            (non_dyadic, nd_rest, near, small2),
        ]
    return out


def test_shared_config_plans_equal_fresh_config_plans():
    queries = interleaved_queries()
    statuses = set()
    reused = 0
    for cfg, start, goal, grid in queries:
        before = cfg._edge_rows
        got = plan_trace(start, goal, cfg, grid)
        reused += before is not None and cfg._edge_rows is before
        assert got == plan_trace(start, goal, dataclasses.replace(cfg), grid)
        statuses.add(got[0])
    assert statuses == set(PlanStatus)
    # Three queries a round, and the -0.0 start after the rest start.
    assert reused >= 3 * 4 + 1


def test_config_rows_are_not_part_of_its_value():
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    before = (repr(cfg), hash(cfg))
    twin = dataclasses.replace(cfg)
    grid, start, goal = corpus_case(3)
    plan(start, goal, cfg, grid)
    rows = cfg._edge_rows
    assert rows is not None and rows.rows
    assert (repr(cfg), hash(cfg)) == before
    assert cfg == twin and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
    assert "_edge_rows" not in repr(cfg)
    # The states and the heuristic memo are kept beside the rows.
    assert rows.states and rows.h_memo[1]
    # replace starts an empty table and leaves the original's alone.
    other = dataclasses.replace(cfg, max_expansions=10)
    assert other._edge_rows is None
    plan(start, goal, other, grid)
    assert other._edge_rows.rows and cfg._edge_rows is rows


def test_shared_rows_stay_bounded():
    """The non-dyadic lattice carries several float states per key, yet
    the rows one config keeps level off as plans go on."""
    cfg = dataclasses.replace(lattice_cfg(tau=0.3, rho=0.7, mu=2, v_max=1.0),
                              max_expansions=30)
    rng = random.Random(5)
    counts = []
    expanded = 0
    for k in range(120):
        sp = (rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5), 0.25)
        gp = (rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5), 0.25)
        grid = carve_free(random_grid((10, 10, 1), 0.5, 0.2, seed=k), sp, gp)
        expanded += plan(State.rest(2, sp), GoalSpec(gp), cfg, grid).expanded
        counts.append(len(cfg._edge_rows.rows))
    assert counts[-1] < expanded / 20
    assert counts[-1] - counts[59] <= counts[59] // 4


def test_parts_start_afresh_with_the_rows(monkeypatch):
    """The one-axis parts are kept and dropped with the rows: kept for the
    same pair, dropped on another grid resolution or start higher
    derivatives, or past MAX_SHARED_STATES states."""
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    grid, start, goal = corpus_case(3)
    plan(start, goal, cfg, grid)
    shared = cfg._edge_rows
    assert shared.rows and shared.parts
    EdgeTable(cfg, grid, start)
    assert cfg._edge_rows is shared
    finer = dataclasses.replace(grid, resolution=0.25)
    moving = State.of(start.pos, (0.5, 0.0, 0.0))
    for table_grid, origin in ((finer, start), (grid, moving)):
        EdgeTable(cfg, table_grid, origin)
        fresh = cfg._edge_rows
        assert fresh is not shared and not fresh.parts and not fresh.rows
        shared = fresh
    plan(start, goal, cfg, grid)
    full = cfg._edge_rows
    assert full.parts and len(full.states) > 1
    monkeypatch.setattr(search_module, "MAX_SHARED_STATES",
                        len(full.states) - 1)
    EdgeTable(cfg, grid, start)
    assert cfg._edge_rows is not full
    assert not cfg._edge_rows.parts and not cfg._edge_rows.rows


def test_get_successors_leaves_the_config_rows_alone(monkeypatch):
    """A get_successors call on a state with other higher derivatives than
    the config's rows were made for builds its row apart from them."""
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    grid, start, goal = corpus_case(3)
    first = plan(start, goal, cfg, grid)
    shared = cfg._edge_rows
    rows, states = dict(shared.rows), dict(shared.states)
    moving = State.of(start.pos, (0.5, -0.5, 0.0))
    assert get_successors(moving, cfg, grid) == brute_successors(moving, cfg,
                                                                 grid)
    assert cfg._edge_rows is shared
    assert shared.rows == rows and shared.states == states
    built = []
    monkeypatch.setattr(search_module, "propagate",
                        lambda *a: built.append(a) or propagate(*a))
    again = plan(start, goal, cfg, grid)
    assert (again.status, again.expanded, again.primitives) == (
        first.status, first.expanded, first.primitives)
    assert not built
    assert cfg._edge_rows is shared
    assert shared.rows == rows and shared.states == states


def _signed_component(rng, lo, hi):
    r = rng.random()
    return 0.0 if r < 0.15 else -0.0 if r < 0.3 else rng.uniform(lo, hi)


def test_h_lqmt_memo_equals_a_fresh_solve():
    """2,000 evaluations over pools of order-2 and order-3 states that
    repeat, with signed zeros in states and goals, interleaving goals on
    one config: each memoized value is the fresh config's float."""
    rng = random.Random(11)
    goals = [GoalSpec((0.0, 2.0, -0.0)), GoalSpec((-0.0, 2.0, 0.0)),
             GoalSpec((3.0, -0.0, 1.0), (0.5, -0.0, 0.0))]
    floor_seen = set()
    hits = 0
    for order, calls in ((2, 1500), (3, 500)):
        for v_max in (0.5, 50.0):
            cfg = lattice_cfg(order=order, dims=3, v_max=v_max)
            EdgeTable(cfg, FREE_60, State.rest(order))
            fresh = dataclasses.replace(cfg)
            pool = [State(tuple(tuple(_signed_component(rng, -4.0, 4.0)
                                      for _ in range(3))
                                for _ in range(order)))
                    for _ in range(calls // 20)]
            # Runs of 50 calls toward one goal, the goals in turn.
            for k in range(calls // 2):
                s, goal = rng.choice(pool), goals[k // 50 % len(goals)]
                memo = cfg._edge_rows.h_memo
                hits += memo[0] == goal and s.derivs in memo[1]
                got, want = h_lqmt(s, goal, cfg), h_lqmt(s, goal, fresh)
                assert got == want and repr(got) == repr(want)
                if order == 2:
                    no_floor = dataclasses.replace(
                        fresh, bounds=DynBounds(v_max=None))
                    floor_seen.add(want != h_lqmt(s, goal, no_floor))
            assert fresh._edge_rows is None
    assert floor_seen == {True, False}
    assert hits > 500


def test_shared_config_plans_toward_two_goals_equal_fresh_plans():
    """Plans toward two goals, under every heuristic, interleaved on one
    config per heuristic, equal fresh-config plans; moving starts carry
    -0.0 components."""
    goals = [GoalSpec((9.0, 9.0, 0.25)), GoalSpec((6.0, 3.5, 0.25))]
    configs = {h: cfg_2d(h, goal_tol=0.5, rest=True) for h in Heuristic}
    for k in range(4):
        grid, rest, _ = corpus_case(100 + k)
        grid = carve_free(grid, *(g.p_g for g in goals))
        starts = (rest, State.of(rest.pos, (1.0, -0.0, 0.0)))
        for start, goal, h in itertools.product(starts, goals, Heuristic):
            cfg = configs[h]
            got = plan_trace(start, goal, cfg, grid)
            want = plan_trace(start, goal, dataclasses.replace(cfg), grid)
            assert got == want and repr(got[:4]) == repr(want[:4])
            assert got[0] is PlanStatus.SOLVED
    assert configs[Heuristic.LQMT]._edge_rows.h_memo[1]
    for h in (Heuristic.ZERO, Heuristic.MAX_SPEED):
        assert not configs[h]._edge_rows.h_memo[1]


def test_memo_and_states_hold_one_entry_per_state_pushed(monkeypatch):
    """Over 50 corpus maps on one config, the heuristic memo holds the
    states the heuristic was asked about (the pushed ones and the start),
    the state dict the pushed ones, once each and sharing one object."""
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    asked, pushed = [], []
    real_h, real_push = search_module.h_lqmt, search_module.heappush
    monkeypatch.setattr(search_module, "h_lqmt",
                        lambda s, *a: asked.append(s) or real_h(s, *a))
    monkeypatch.setattr(search_module, "heappush",
                        lambda *a: pushed.append(a) or real_push(*a))
    starts = set()
    for seed in range(50):
        grid, start, goal = corpus_case(seed)
        plan(start, goal, cfg, grid)
        starts.add(start.derivs)
    shared = cfg._edge_rows
    memo_goal, memo = shared.h_memo
    assert memo_goal == goal
    # The heuristic is asked about each start and each pushed state.
    assert len(asked) == 50 + len(pushed)
    distinct = {s.derivs for s in asked}
    assert len(asked) > 2 * len(distinct)
    assert set(memo) == distinct
    assert set(shared.states) == distinct - starts
    for derivs, s in shared.states.items():
        assert s.derivs is derivs
    # Every later arrival at a stored state was handed the stored object.
    assert all(s is shared.states[s.derivs] for s in asked
               if s.derivs not in starts)


def test_shared_states_stay_bounded_over_varied_starts(monkeypatch):
    """Starts at many positions push states that seldom repeat; a plan that
    finds more than MAX_SHARED_STATES of them starts afresh, and every plan
    still equals a fresh-config plan."""
    monkeypatch.setattr(search_module, "MAX_SHARED_STATES", 400)
    pushed = []
    real_push = search_module.heappush
    monkeypatch.setattr(search_module, "heappush",
                        lambda *a: pushed.append(a) or real_push(*a))
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    goal = GoalSpec((9.0, 9.0, 0.25))
    rng = random.Random(6)
    fresh_starts = 0
    for k in range(12):
        sp = (rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5), 0.25)
        grid = carve_free(random_grid((20, 20, 1), 0.5, 0.2, seed=k), sp,
                          goal.p_g)
        before = cfg._edge_rows
        kept = len(before.states) if before is not None else 0
        pushed.clear()
        got = plan_trace(State.rest(2, sp), goal, cfg, grid)
        if cfg._edge_rows is not before:
            fresh_starts += before is not None
            kept = 0
        assert kept <= 400
        assert len(cfg._edge_rows.states) <= kept + len(pushed)
        assert got == plan_trace(State.rest(2, sp), goal,
                                 dataclasses.replace(cfg), grid)
    assert fresh_starts >= 2


def test_threads_sharing_a_config_plan_as_a_fresh_config_would():
    """Threads plan toward two goals at once on one config, with a short
    switch interval: each plan equals the fresh-config plan."""
    goals = [GoalSpec((9.0, 9.0, 0.25)), GoalSpec((6.0, 3.5, 0.25))]
    cases = []
    for k in range(3):
        grid, start, _ = corpus_case(120 + k)
        grid = carve_free(grid, *(g.p_g for g in goals))
        cases += [(start, goal, grid) for goal in goals]
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    want = [plan_trace(*case[:2], dataclasses.replace(cfg), case[2])
            for case in cases]
    got = [[] for _ in range(4)]

    def worker(out, shift):
        for j in range(2 * len(cases)):
            i = (j + shift) % len(cases)
            out.append((i, plan_trace(*cases[i][:2], cfg, cases[i][2])))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(out, n))
                   for n, out in enumerate(got)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert len(out) == 2 * len(cases)
        for i, trace in out:
            assert trace == want[i]


def test_h_max_speed_values():
    cfg = cfg_2d()
    s = State.rest(2)
    assert h_max_speed(s, GoalSpec((3.0, 4.0, 0.0)), cfg) == 2.0
    assert h_max_speed(s, GoalSpec((0.0, 0.0, 0.0)), cfg) == 0.0
    assert h_max_speed(s, GoalSpec((3.0, 4.0, 0.0)), cfg_2d(rho=0.0)) == 0.0


def test_h_max_speed_needs_vmax():
    cfg = PlannerConfig(order=2, tau=1.0, rho=1.0,
                        control_set=make_control_set(1.0, 1, 2),
                        bounds=DynBounds(), goal_pos_tol=0.5,
                        heuristic=Heuristic.MAX_SPEED)
    with pytest.raises(MissingBoundError):
        h_max_speed(State.rest(2), GoalSpec((1.0, 0.0, 0.0)), cfg)


def test_h_lqmt_zero_at_goal_state():
    cfg = cfg_2d()
    g = GoalSpec((1.0, 2.0, 0.0))
    s = State.of((1.0, 2.0, 0.0), (0.0, 0.0, 0.0))
    assert h_lqmt(s, g, cfg) == 0.0


def test_h_lqmt_unit_shift_rho36():
    cfg = cfg_2d(rho=36.0, v_max=1e9)
    got = h_lqmt(State.rest(2), GoalSpec((1.0, 0.0, 0.0)), cfg)
    assert got == pytest.approx(48.0, rel=1e-9)


def test_h_lqmt_dominates_h_max_speed():
    rng = random.Random(404)
    cfg = cfg_2d()
    for _ in range(100):
        s = State.of((rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0),
                     (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0))
        g = GoalSpec((rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0))
        assert h_lqmt(s, g, cfg) >= h_max_speed(s, g, cfg) - 1e-9


# ------------------------------------------------------------- statuses


def test_no_path_when_goal_walled_off():
    from kinoplan.gridmap import loads_grid
    rows = ["00000", "01110", "01010", "01110", "00000"]
    body = "\n".join(rows)
    g = loads_grid("gridmap v1\ndims 5 5 1\nresolution 1.0\n"
                   f"origin 0.0 0.0 0.0\n{body}\n")
    res = plan(State.rest(2, (0.5, 0.5, 0.5)), GoalSpec((2.5, 2.5, 0.5)),
               cfg_2d(Heuristic.ZERO, goal_tol=0.4, v_max=1.0), g)
    assert res.status is PlanStatus.NO_PATH
    assert res.primitives == ()


def _goal_box_grid(box_cell=CellState.OCCUPIED, free_corner=False):
    # 20 x 20 free cells of 0.5; the goal box [8.5, 9.5]^2 meets cells
    # 17..19 per axis (19 only at its closed upper faces).
    cells = bytearray(400)
    for iy in range(17, 20):
        for ix in range(17, 20):
            cells[ix + 20 * iy] = box_cell
    if free_corner:
        cells[19 + 20 * 19] = CellState.FREE
    return OccupancyGrid((0.0, 0.0, 0.0), 0.5, (20, 20, 1), bytes(cells))


def test_unreachable_goal_box_is_no_path_at_once():
    start, goal = State.rest(2, (1.0, 1.0, 0.25)), GoalSpec((9.0, 9.0, 0.25))
    cfg = cfg_2d(goal_tol=0.5, rest=True)
    res = plan(start, goal, cfg, _goal_box_grid())
    assert res.status is PlanStatus.NO_PATH
    assert (res.expanded, res.primitives, res.total_cost) == (0, (), math.inf)
    # Unknown cells block the goal unless they count as free.
    unknown = _goal_box_grid(CellState.UNKNOWN)
    assert plan(start, goal, cfg, unknown).expanded == 0
    cfg_unknown = dataclasses.replace(cfg, unknown_is_free=True)
    assert plan(start, goal, cfg_unknown, unknown).status is PlanStatus.SOLVED


def test_goal_box_meeting_one_free_cell_is_searched():
    # Cell (19, 19) meets the closed box only at its corner (9.5, 9.5).
    res = plan(State.rest(2, (1.0, 1.0, 0.25)), GoalSpec((9.0, 9.0, 0.25)),
               cfg_2d(Heuristic.ZERO, goal_tol=0.5, rest=True,
                      max_expansions=50), _goal_box_grid(free_corner=True))
    assert res.status is PlanStatus.EXPANSION_LIMIT
    assert res.expanded == 50


def test_expansion_limit():
    res = plan(State.rest(2), GoalSpec((10.0, 10.0, 0.0)),
               cfg_2d(Heuristic.ZERO, max_expansions=5), FREE_60)
    assert res.status is PlanStatus.EXPANSION_LIMIT
    assert res.expanded == 5


def test_start_in_collision_rejected():
    g = random_grid((4, 4, 1), 0.5, 1.0, seed=2)
    with pytest.raises(StartInfeasibleError):
        plan(State.rest(2, (1.0, 1.0, 0.25)), GoalSpec((1.5, 1.5, 0.25)),
             cfg_2d(), g)


def test_start_over_speed_rejected():
    s = State.of((0.0, 0.0, 0.25), (5.0, 0.0, 0.0))
    with pytest.raises(StartInfeasibleError):
        plan(s, GoalSpec((2.0, 0.0, 0.25)), cfg_2d(v_max=2.0), FREE_60)


def test_plan_needs_vmax():
    cfg = PlannerConfig(order=2, tau=1.0, rho=1.0,
                        control_set=make_control_set(1.0, 1, 2),
                        bounds=DynBounds(a_max=1.0), goal_pos_tol=0.5,
                        heuristic=Heuristic.ZERO)
    with pytest.raises(MissingBoundError):
        plan(State.rest(2), GoalSpec((1.0, 0.0, 0.0)), cfg, FREE_60)


@pytest.mark.parametrize("p_g,v_g", [
    ((math.nan, 8.0, 0.25), (0.0, 0.0, 0.0)),
    ((math.inf, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((1.0, 2.0, 0.0), (0.0, -math.inf, 0.0)),
    ((1.0, 2.0, 0.0), (math.nan, 0.0, 0.0)),
])
def test_goal_spec_rejects_non_finite(p_g, v_g):
    with pytest.raises(ValueError, match="finite"):
        GoalSpec(p_g, v_g)


@pytest.mark.parametrize("field,value", [
    ("tau", math.inf), ("tau", math.nan), ("rho", math.nan),
    ("rho", math.inf), ("goal_pos_tol", math.inf), ("goal_pos_tol", math.nan),
    ("heuristic_weight", math.nan), ("heuristic_weight", math.inf),
])
def test_planner_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(cfg_2d(), **{field: value})


def test_goal_reached_semantics():
    cfg = cfg_2d(goal_tol=0.25, rest=True)
    g = GoalSpec((2.0, 0.0, 0.0))
    inside_moving = State.of((2.1, 0.0, 0.0), (1.0, 0.0, 0.0))
    inside_rest = State.of((2.1, 0.0, 0.0), (0.0, 0.0, 0.0))
    outside_rest = State.of((2.3, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert not goal_reached(inside_moving, g, cfg)
    assert goal_reached(inside_rest, g, cfg)
    assert not goal_reached(outside_rest, g, cfg)
    assert goal_reached(inside_moving, g, cfg_2d(goal_tol=0.25))


# ---------------------------------------------- cross-heuristic corpora


def corpus_case(seed):
    grid = random_grid((20, 20, 1), 0.5, 0.2, seed=seed)
    start_p = (1.0, 1.0, 0.25)
    goal_p = (9.0, 9.0, 0.25)
    grid = carve_free(grid, start_p, goal_p)
    return grid, State.rest(2, start_p), GoalSpec(goal_p)


def test_heuristics_agree_on_random_maps():
    for seed in range(8):
        grid, start, goal = corpus_case(seed)
        costs = {}
        expanded = {}
        for h in (Heuristic.ZERO, Heuristic.MAX_SPEED, Heuristic.LQMT):
            res = plan(start, goal, cfg_2d(h, goal_tol=0.5, rest=True), grid)
            if res.status is not PlanStatus.SOLVED:
                costs[h] = None
                continue
            costs[h] = res.total_cost
            expanded[h] = res.expanded
        vals = [c for c in costs.values() if c is not None]
        assert len(set(costs[h] is None for h in costs)) == 1
        for a, b in zip(vals, vals[1:]):
            assert a == pytest.approx(b, abs=1e-9)


def test_audits_along_solved_path():
    # Admissibility along the returned path and consistency across every
    # relaxed edge, for both nontrivial heuristics.
    for h, hfun in ((Heuristic.MAX_SPEED, h_max_speed),
                    (Heuristic.LQMT, h_lqmt)):
        grid, start, goal = corpus_case(3)
        cfg = cfg_2d(h, goal_tol=0.5, rest=True)
        edges = []
        res = plan(start, goal, cfg, grid,
                   edge_hook=lambda s, prim: edges.append((s, prim)))
        assert res.status is PlanStatus.SOLVED
        g_along = 0.0
        s = start
        for prim in res.primitives:
            assert hfun(s, goal, cfg) <= (res.total_cost - g_along) + 1e-9
            g_along += prim.cost
            s = prim.end_state()
        assert edges
        for s, prim in edges:
            hs = hfun(s, goal, cfg)
            hs2 = hfun(prim.end_state(), goal, cfg)
            assert hs <= prim.cost + hs2 + 1e-9


def test_plan_is_reproducible():
    grid, start, goal = corpus_case(5)
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    a = plan(start, goal, cfg, grid)
    b = plan(start, goal, cfg, grid)
    assert a.status is b.status
    assert a.total_cost == b.total_cost
    assert a.expanded == b.expanded
    assert tuple(p.u for p in a.primitives) == tuple(p.u for p in b.primitives)


def test_chain_is_exact():
    grid, start, goal = corpus_case(7)
    res = plan(start, goal, cfg_2d(goal_tol=0.5, rest=True), grid)
    assert res.status is PlanStatus.SOLVED
    s = start
    total = 0.0
    for prim in res.primitives:
        assert prim.x0 == s
        s = prim.end_state()
        total += prim.cost
    assert goal_reached(s, goal, cfg_2d(goal_tol=0.5, rest=True))
    assert total == res.total_cost


def test_weighted_search_bounded_suboptimality():
    grid, start, goal = corpus_case(2)
    cfg1 = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    opt = plan(start, goal, cfg1, grid)
    for w in (1.5, 3.0):
        cfg_w = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True, weight=w)
        res = plan(start, goal, cfg_w, grid)
        assert res.status is PlanStatus.SOLVED
        assert res.total_cost >= opt.total_cost - 1e-9
        assert res.total_cost <= w * opt.total_cost + 1e-9
        assert res.expanded <= opt.expanded


def test_zero_rho_is_pure_effort_search():
    # With rho = 0 coasting is free, so a reachable goal costs only the
    # control effort; the cheapest plan to a rest goal 1 m away is
    # accelerate once and brake once.
    goal = GoalSpec((1.0, 0.0, 0.0))
    cfg = cfg_2d(Heuristic.ZERO, rho=0.0, goal_tol=0.25, rest=True)
    res = plan(State.rest(2), goal, cfg, FREE_60)
    assert res.status is PlanStatus.SOLVED
    assert res.total_cost == pytest.approx(2.0)


# A free 24 x 24 map at rho = 1e-13, where the stationarity quartic's
# rho T^4 term is below LEADING_COEFF_CUTOFF. Taking only the stripped
# quadratic's roots gave LQMT about 4 v^3 / 9 d at a state moving straight
# at the goal, far above the true minimum near T = 2 sqrt(vv / rho), and
# the plan cost more than Dijkstra's on the first three queries (1.5 for
# 0.5 on the first; 1e-13 more on the next two). The last query agreed.
TINY_RHO_QUERIES = [
    ((6.6, 2.39), (6.6, 4.67)),
    ((6.9, 3.87), (6.38, 4.39)),
    ((2.73, 4.89), (3.74, 5.9)),
    ((2.75, 3.25), (2.0, 3.25)),
]


def test_tiny_rho_lqmt_plans_cost_what_dijkstra_plans_cost():
    grid = random_grid((24, 24, 1), 0.5, 0.0, seed=0)
    configs = {h: cfg_2d(h, rho=1e-13, mu=2, goal_tol=0.25, rest=True)
               for h in (Heuristic.ZERO, Heuristic.LQMT)}
    for (sx, sy), (gx, gy) in TINY_RHO_QUERIES:
        start, goal = State.rest(2, (sx, sy, 0.25)), GoalSpec((gx, gy, 0.25))
        zero, lqmt = (plan(start, goal, cfg, grid) for cfg in configs.values())
        assert zero.status is lqmt.status is PlanStatus.SOLVED
        assert repr(lqmt.total_cost) == repr(zero.total_cost)


# ------------------------------------------------------ regression lock

# (status, expanded, repr(total_cost)). First recorded before the edge
# table and the cost-only heuristic went in; re-recorded when collision
# became an exact swept-cell test. Where the earlier path was clean, only
# the expansion count moved (corpus 13 and 27, jerk 3 and 4, CLI 1 and 2),
# since the exact test prunes clipping edges elsewhere in the search;
# every other entry's earlier path clipped an occupied cell. Corpus seeds
# are the first twelve outside the acceptance corpus's former vetted list.
LOCKED_CORPUS = {
    3: ("Solved", 62, "15.0"), 4: ("NoPath", 1008, "inf"),
    5: ("Solved", 77, "17.0"), 6: ("Solved", 261, "24.0"),
    9: ("Solved", 59, "16.0"), 10: ("Solved", 42, "17.0"),
    11: ("Solved", 110, "17.0"), 13: ("Solved", 60, "16.0"),
    15: ("Solved", 183, "19.0"), 24: ("Solved", 78, "17.0"),
    25: ("Solved", 166, "18.0"), 27: ("Solved", 81, "18.0"),
}
LOCKED_CLI_3D = {0: ("Solved", 52, "8.0"), 1: ("Solved", 60, "9.0"),
                 2: ("Solved", 41, "8.0")}
# Order 3 with an acceleration bound, and a lattice whose steps are not
# dyadic fractions, on the same 20 x 20 maps.
LOCKED_OTHER = {
    ("jerk", 3): ("Solved", 34, "15.0"), ("jerk", 4): ("Solved", 45, "20.0"),
    ("non_dyadic", 4): ("Solved", 728, "6.1499999999999995"),
}


def test_locked_corpus_results():
    start = State.rest(2, (1.0, 1.0, 0.25))
    goal = GoalSpec((9.0, 9.0, 0.25))
    cfg = cfg_2d(Heuristic.LQMT, goal_tol=0.5, rest=True)
    got = {}
    for seed in LOCKED_CORPUS:
        grid = carve_free(random_grid((20, 20, 1), 0.5, 0.2, seed=seed),
                          start.pos, goal.p_g)
        res = plan(start, goal, cfg, grid)
        got[seed] = (res.status.value, res.expanded, repr(res.total_cost))
    assert got == LOCKED_CORPUS


def test_locked_other_lattices():
    cfgs = {
        "jerk": PlannerConfig(
            order=3, tau=1.0, rho=1.0,
            control_set=make_control_set(1.0, 1, 2),
            bounds=DynBounds(v_max=2.0, a_max=1.0), goal_pos_tol=0.5,
            goal_requires_rest=True),
        "non_dyadic": PlannerConfig(
            order=2, tau=0.6, rho=0.7,
            control_set=make_control_set(1.0, 2, 2),
            bounds=DynBounds(v_max=1.5), goal_pos_tol=0.5),
    }
    goals = {"jerk": (5.0, 5.0, 0.25), "non_dyadic": (6.0, 5.0, 0.25)}
    got = {}
    for name, seed in LOCKED_OTHER:
        cfg = cfgs[name]
        start = State.rest(cfg.order, (1.0, 1.0, 0.25))
        grid = carve_free(random_grid((20, 20, 1), 0.5, 0.2, seed=seed),
                          start.pos, goals[name])
        res = plan(start, GoalSpec(goals[name]), cfg, grid)
        got[name, seed] = (res.status.value, res.expanded,
                           repr(res.total_cost))
    assert got == LOCKED_OTHER


def test_locked_cli_3d_results(tmp_path, capsys):
    from kinoplan.cli import main
    from kinoplan.gridmap import save_grid
    got = {}
    for seed in LOCKED_CLI_3D:
        grid = carve_free(random_grid((12, 12, 12), 0.5, 0.2, seed=seed),
                          (1.25, 1.25, 1.25), (2.75, 2.75, 2.75))
        path = str(tmp_path / f"m{seed}.grid")
        save_grid(grid, path)
        code = main(["plan", "--map", path, "--start", "1.25,1.25,1.25",
                     "--goal", "2.75,2.75,2.75", "--order", "2",
                     "--tau", "1.0", "--rho", "1.0", "--umax", "1.0",
                     "--mu", "1", "--vmax", "2.0", "--goal-rest",
                     "--max-expansions", "300"])
        status, cost, expanded, _secs = capsys.readouterr().out.split()
        assert code == (0 if status == "Solved" else 2)
        got[seed] = (status, int(expanded), cost)
    assert got == LOCKED_CLI_3D
