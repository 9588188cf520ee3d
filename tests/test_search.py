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

import pytest

from kinoplan.gridmap import (CellState, DynBounds, OccupancyGrid,
                              check_dynamics, random_grid)
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


def sampled_free(prim, grid, v_max, unknown_is_free):
    """The collision sampling rule, evaluated point by point with Horner."""
    steps = max(1, math.ceil(prim.tau * v_max / grid.resolution))
    for i in range(steps + 1):
        t = prim.tau if i == steps else prim.tau * i / steps
        v = grid.value_at(tuple(p.eval(t) for p in prim.axis_polys))
        if not (v == CellState.FREE
                or (unknown_is_free and v == CellState.UNKNOWN)):
            return False
    return True


def brute_successors(s, cfg, grid):
    out = []
    for u in cfg.control_set.controls:
        prim = propagate(s, u, cfg.tau, cfg.rho)
        if (check_dynamics(prim, cfg.bounds)
                and sampled_free(prim, grid, cfg.bounds.v_max,
                                 cfg.unknown_is_free)):
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
                v_max=2.0, a_max=None, unknown_is_free=False):
    return PlannerConfig(order=order, tau=tau, rho=rho,
                         control_set=make_control_set(u_max, mu, dims),
                         bounds=DynBounds(v_max=v_max, a_max=a_max),
                         goal_pos_tol=0.5, unknown_is_free=unknown_is_free)


EDGE_CASES = {
    "corpus": (lattice_cfg(), random_grid((20, 20, 1), 0.5, 0.2, seed=3)),
    "non_dyadic": (lattice_cfg(tau=0.3, rho=0.7, mu=2, v_max=1.0),
                   random_grid((20, 20, 1), 0.5, 0.2, seed=4)),
    "3d_27_controls": (lattice_cfg(dims=3),
                       random_grid((12, 12, 12), 0.5, 0.2, seed=5)),
    "order3_amax": (lattice_cfg(order=3, tau=0.5, v_max=2.0, a_max=1.0),
                    random_grid((20, 20, 1), 0.5, 0.2, seed=6)),
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


# ----------------------------------------------------------- heuristics


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


# ------------------------------------------------------ regression lock

# (status, expanded, repr(total_cost)) recorded before the edge table and
# the cost-only heuristic went in; the search must stay the same bit for
# bit. Corpus seeds are the first twelve outside the acceptance corpus's
# vetted list.
LOCKED_CORPUS = {
    3: ("Solved", 65, "15.0"), 4: ("NoPath", 1083, "inf"),
    5: ("Solved", 79, "17.0"), 6: ("Solved", 289, "24.0"),
    9: ("Solved", 59, "15.0"), 10: ("Solved", 19, "15.0"),
    11: ("Solved", 88, "16.0"), 13: ("Solved", 74, "16.0"),
    15: ("Solved", 93, "17.0"), 24: ("Solved", 87, "17.0"),
    25: ("Solved", 86, "16.0"), 27: ("Solved", 90, "18.0"),
}
LOCKED_CLI_3D = {0: ("Solved", 52, "8.0"), 1: ("Solved", 77, "9.0"),
                 2: ("Solved", 42, "8.0")}
# Order 3 with an acceleration bound, and a lattice whose steps are not
# dyadic fractions, on the same 20 x 20 maps.
LOCKED_OTHER = {
    ("jerk", 3): ("Solved", 37, "15.0"), ("jerk", 4): ("Solved", 65, "20.0"),
    ("non_dyadic", 4): ("Solved", 359, "5.85"),
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
