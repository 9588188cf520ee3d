"""A* over the motion-primitive lattice with kinodynamic heuristics.

States are hashed by their integer lattice key relative to the start state;
the float state stored at a key is the one from the cheapest arrival found so
far, and a key is reopened whenever a strictly cheaper arrival shows up. Ties
on f prefer the larger g (deeper progress), then the lower position of the
edge in its parent's list of feasible successors.

Successors come from an edge table (EdgeTable). Holding a control for tau
moves every derivative of order one and up independently of the start
position, so the table is keyed on a state's exact higher derivatives
s.derivs[1:] and holds, for each control that passes check_dynamics, the
edge cost, the end state's higher derivatives and their part of the lattice
key, and the addends of the end position. It moves each axis apart from
the others too, so a row is assembled from cached one-axis parts. The
cells an edge sweeps depend only on its control, the start's higher
derivatives and where the start sits inside its grid cell, so each row
keeps them per start phase, as flat cell-index offsets (gridmap.swept_cells;
the swath of Pivtoraiko, Knepper and Kelly's state lattices). Expanding a
state then costs two dictionary lookups, and per edge one bounds test, a
byte lookup per swept cell and a few float additions; the primitives of
the returned plan are built from the table's entries. The rows live on the
PlannerConfig, so plans that share a config, a grid resolution and the
start's higher derivatives share them: reuse one PlannerConfig across
queries toward the same goal.

Beside the rows, the config keeps one State object per float state a plan
pushed, and plan hands out that object for every later arrival at the same
floats, so plans that share the rows also share their states. Two
admissible heuristics are provided besides the zero one: a max-speed time
bound scaled by rho, and the full free-horizon minimum-effort cost to the
goal state. The latter depends only on the state's exact floats, the goal
and the config, not on the map, so h_lqmt memoizes it per goal beside the
rows: plans toward one goal solve each float state once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional

from .gridmap import (DynBounds, OccupancyGrid, check_collision,
                      check_dynamics, swath, swept_cells, within_bounds)
from .lattice import (ControlSet, LatticeKey, MotionPrimitive, fold_terms,
                      lattice_key, lattice_resolutions, propagate)
# lqmt_optimal_time is not called here; it stays importable from this
# module for callers that look it up here.
from .lti import State, Vec3, lqmt_optimal_cost, lqmt_optimal_time

REST_TOL = 1e-9

# A cheaper arrival must beat the incumbent by more than this to reopen.
G_DOMINANCE_MARGIN = 1e-12

# A plan that finds more shared states than this on its config starts its
# rows, states and heuristic memo afresh. Starts at many positions push
# float states that seldom repeat, and the holder would otherwise grow by
# every state they push; the corpus keeps about 2,000.
MAX_SHARED_STATES = 1 << 14


class MissingBoundError(ValueError):
    """A heuristic or safety check needs a bound that was not provided."""


class StartInfeasibleError(ValueError):
    """The start state is in collision or violates the dynamic bounds."""


class Heuristic(Enum):
    ZERO = "zero"
    MAX_SPEED = "maxspeed"
    LQMT = "lqmt"


class PlanStatus(Enum):
    SOLVED = "Solved"
    NO_PATH = "NoPath"
    EXPANSION_LIMIT = "ExpansionLimit"


@dataclass(frozen=True)
class GoalSpec:
    """Goal position box center plus the velocity the heuristics aim for."""

    p_g: Vec3
    v_g: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # A NaN coordinate would pass every box test in goal_reached.
        if not all(math.isfinite(c) for c in (*self.p_g, *self.v_g)):
            raise ValueError("goal position and velocity must be finite")


@dataclass(frozen=True)
class PlannerConfig:
    order: int
    tau: float
    rho: float
    control_set: ControlSet
    bounds: DynBounds
    goal_pos_tol: float
    goal_requires_rest: bool = False
    heuristic: Heuristic = Heuristic.LQMT
    heuristic_weight: float = 1.0
    max_expansions: int = 1_000_000
    unknown_is_free: bool = False
    # The _SharedRows of the last (grid resolution, start derivs[1:]) pair
    # planned for; a cache, not part of the config's value.
    _edge_rows: Optional["_SharedRows"] = field(default=None, init=False,
                                                compare=False, hash=False,
                                                repr=False)

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("planner order must be 2 or 3")
        for name in ("tau", "rho", "goal_pos_tol", "heuristic_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if not self.goal_pos_tol > 0.0:
            raise ValueError("goal_pos_tol must be positive")
        if self.heuristic_weight < 1.0:
            raise ValueError("heuristic_weight must be at least 1")
        if self.max_expansions < 0:
            raise ValueError("max_expansions must be nonnegative")


@dataclass(frozen=True)
class PlanResult:
    status: PlanStatus
    primitives: tuple[MotionPrimitive, ...]
    total_cost: float
    expanded: int
    planning_seconds: float


def goal_state(goal: GoalSpec, order: int) -> State:
    """The full state the LQMT heuristic steers toward: higher orders zero."""
    derivs = [goal.p_g, goal.v_g] + [(0.0, 0.0, 0.0)] * (order - 2)
    return State.of(*derivs[:order])


def h_max_speed(s: State, goal: GoalSpec, cfg: PlannerConfig) -> float:
    """rho times the straight-run time bound |p_g - p|_inf / v_max."""
    v_max = cfg.bounds.v_max
    if v_max is None:
        raise MissingBoundError("h_max_speed needs bounds.v_max")
    p = s.pos
    d = max(abs(goal.p_g[0] - p[0]), abs(goal.p_g[1] - p[1]),
            abs(goal.p_g[2] - p[2]))
    return cfg.rho * d / v_max


def h_lqmt(s: State, goal: GoalSpec, cfg: PlannerConfig,
           target: Optional[State] = None) -> float:
    """Free-horizon minimum effort-plus-time cost from s to the goal state.

    The horizon is floored by the max-speed bound, so this dominates
    h_max_speed while staying a relaxation of the lattice problem. target,
    when given, must be goal_state(goal, cfg.order); plan builds it once.

    Once a plan has run on cfg, values are memoized beside its edge rows,
    keyed on the exact floats s.derivs, for one goal at a time (compared by
    value): a call toward another goal starts an empty memo, and so does a
    plan that starts the rows afresh (another grid resolution or start
    higher derivatives, or more than MAX_SHARED_STATES states kept). The
    memo holds one float per distinct state solved for that goal; a hit
    returns the float the solve gave.
    """
    shared = cfg._edge_rows
    memo = None
    if shared is not None:
        memo_goal, memo = shared.h_memo
        if memo_goal is not goal and memo_goal != goal:
            memo = {}
            shared.h_memo = (goal, memo)
        h = memo.get(s.derivs)
        if h is not None:
            return h
    v_max = cfg.bounds.v_max
    p = s.pos
    d = max(abs(goal.p_g[0] - p[0]), abs(goal.p_g[1] - p[1]),
            abs(goal.p_g[2] - p[2]))
    t_lower = d / v_max if v_max is not None else 0.0
    if target is None:
        target = goal_state(goal, cfg.order)
    h = lqmt_optimal_cost(s, target, cfg.rho, t_lower)
    if memo is not None:
        memo[s.derivs] = h
    return h


def _heuristic_fn(goal: GoalSpec, cfg: PlannerConfig) -> Callable[[State], float]:
    if cfg.heuristic is Heuristic.ZERO:
        return lambda s: 0.0
    if cfg.heuristic is Heuristic.MAX_SPEED:
        return lambda s: h_max_speed(s, goal, cfg)
    target = goal_state(goal, cfg.order)
    return lambda s: h_lqmt(s, goal, cfg, target)


def goal_reached(s: State, goal: GoalSpec, cfg: PlannerConfig) -> bool:
    """Inside the goal position box; velocity matched when rest is required."""
    p = s.pos
    tol = cfg.goal_pos_tol
    if (abs(p[0] - goal.p_g[0]) > tol or abs(p[1] - goal.p_g[1]) > tol
            or abs(p[2] - goal.p_g[2]) > tol):
        return False
    if cfg.goal_requires_rest:
        for ax in range(3):
            if abs(s.vel[ax] - goal.v_g[ax]) > REST_TOL:
                return False
        for derivs in s.derivs[2:]:
            for c in derivs:
                if abs(c) > REST_TOL:
                    return False
    return True


# One successor edge: (control, cost, end state, end lattice key).
Edge = tuple[Vec3, float, State, LatticeKey]


class _SharedRows:
    """What plans on one config share for one (grid resolution, start
    derivs[1:]) pair: each control with its edge cost, the edge rows, the
    one-axis parts they are built from (EdgeTable._part), one State per
    float state pushed (keyed on its derivs), and h_lqmt's (goal, memo)
    for the last goal."""

    __slots__ = ("pair", "controls", "rows", "parts", "states", "h_memo")

    def __init__(self, pair, controls: list[tuple[Vec3, float]]):
        self.pair = pair
        self.controls = controls
        self.rows: dict[tuple[Vec3, ...], list] = {}
        self.parts: dict[tuple[tuple[float, ...], float, int], tuple] = {}
        self.states: dict[tuple[Vec3, ...], State] = {}
        self.h_memo: tuple[Optional[GoalSpec], dict] = (None, {})


class EdgeTable:
    """Feasible edges out of lattice states, built once per config and key.

    A row, keyed on the exact floats s.derivs[1:], holds one entry per
    control that passes check_dynamics, in control-set order: the control,
    the edge cost, the end state's higher derivatives and lattice-key part,
    the end position's addends (MotionPrimitive.state_terms) and the
    position polynomial's coefficients past the constant. An entry is
    assembled from three one-axis parts (_part), one per control
    component, shared by every row: a row of 27 controls needs at most 9.
    A part runs the primitive's own arithmetic on one axis, and
    check_dynamics tests each axis alone, so every result derived from a
    row equals, bit for bit, what the primitive built at the state itself
    gives. Beside its entries a row keeps their
    swaths (gridmap.swath of gridmap.swept_cells) per start phase
    (OccupancyGrid.cell_phase), grid dims and exact_frame, so the edge
    test is the one check_collision runs. Lattices whose position step
    and cell size are commensurate have few phases; others get one per
    state, bounded with the states by MAX_SHARED_STATES.

    Beyond the config, rows and parts depend only on the grid resolution
    (swept cells) and the origin's higher derivatives (key part), so they
    are kept on the config for that pair and taken over by the next table
    made with the same pair; another pair starts a fresh set, and so does
    a holder with more than MAX_SHARED_STATES states. The grid's cells and
    the origin's position are read per table, never stored in a row. A
    table keeps the dicts it started with, so plans that run at once on
    one config stay correct; they may only build a row or part twice.
    """

    def __init__(self, cfg: PlannerConfig, grid: OccupancyGrid, origin: State):
        self._cfg = cfg
        self._grid = grid
        self._origin = origin
        self._res = lattice_resolutions(cfg.order, cfg.control_set.d_u,
                                        cfg.tau)
        self._blocked = grid.blocked_mask(cfg.unknown_is_free)
        # What a swath depends on beyond its row entry and start phase.
        self._frame = (grid.dims, grid.exact_frame)
        pair = (grid.resolution, origin.derivs[1:])
        shared = cfg._edge_rows
        if (shared is None or shared.pair != pair
                or len(shared.states) > MAX_SHARED_STATES):
            prims = (propagate(origin, u, cfg.tau, cfg.rho)
                     for u in cfg.control_set.controls)
            shared = _SharedRows(pair, [(p.u, p.cost) for p in prims])
            object.__setattr__(cfg, "_edge_rows", shared)
        self._controls = shared.controls
        self._rows = shared.rows
        self._parts = shared.parts
        # One State per float state, for plan to hand out on every arrival.
        self._states = shared.states

    def _part(self, higher: tuple[float, ...], u: float, ax: int) -> tuple:
        """(within bounds, end higher derivatives, their lattice-key part,
        end position addends, position coefficients past the constant) of
        axis ax with higher derivatives higher under control component u."""
        key = (higher, u, ax)
        part = self._parts.get(key)
        if part is None:
            tau = self._cfg.tau
            # The axis rides in x; no axis's arithmetic reads another's.
            x0 = State(tuple((c, 0.0, 0.0) for c in (0.0, *higher)))
            prim = MotionPrimitive(x0, (u, 0.0, 0.0), tau, 0.0)
            poly = prim.axis_polys[0]
            terms = [row[0] for row in prim.state_terms(tau)]
            end = tuple(fold_terms(c, t) for c, t in zip(higher, terms[1:]))
            key_part = tuple(round((e - o[ax]) / r) for e, o, r in zip(
                end, self._origin.derivs[1:], self._res[1:]))
            part = (within_bounds((poly,), tau, self._cfg.bounds), end,
                    key_part, terms[0], poly.coeffs[1:])
            self._parts[key] = part
        return part

    def _build_row(self, s: State) -> tuple[list, dict]:
        higher = s.derivs[1:]
        hx, hy, hz = (tuple(d[ax] for d in higher) for ax in range(3))
        part = self._part
        entries = []
        for u, cost in self._controls:
            px, py, pz = part(hx, u[0], 0), part(hy, u[1], 1), part(hz, u[2], 2)
            if px[0] and py[0] and pz[0]:
                entries.append((u, cost, tuple(zip(px[1], py[1], pz[1])),
                                tuple(zip(px[2], py[2], pz[2])),
                                (px[3], py[3], pz[3]), (px[4], py[4], pz[4])))
        row = (entries, {})
        self._rows[higher] = row
        return row

    def successors(self, s: State) -> list[Edge]:
        """Feasible edges out of s, in control-set order."""
        row = self._rows.get(s.derivs[1:])
        if row is None:
            row = self._build_row(s)
        entries, swaths_at = row
        grid = self._grid
        dims = grid.dims
        p = s.pos
        (kx, ky, kz), phase = grid.cell_phase(p)
        swaths = swaths_at.get((phase, self._frame))
        if swaths is None:
            tau, res = self._cfg.tau, grid.resolution
            exact = grid.exact_frame
            swaths = [swath(swept_cells(tails, tau, res, phase, exact), dims)
                      for *_e, tails in entries]
            swaths_at[phase, self._frame] = swaths
        nx, ny, _nz = dims
        base = kx + nx * (ky + ny * kz)
        blocked = self._blocked
        px, py, pz = p
        ox, oy, oz = self._origin.pos
        res = self._res[0]
        out = []
        # check_collision's test, inlined: calling a function per edge
        # costs about a tenth of a corpus query.
        for (u, cost, higher, key_tail, (tx, ty, tz), _tails), (
                lo_x, hi_x, lo_y, hi_y, lo_z, hi_z, deltas) in zip(entries,
                                                                   swaths):
            if not (lo_x <= kx < hi_x and lo_y <= ky < hi_y
                    and lo_z <= kz < hi_z):
                continue
            for d in deltas:
                if blocked[base + d]:
                    break
            else:
                x = fold_terms(px, tx)
                y = fold_terms(py, ty)
                z = fold_terms(pz, tz)
                key = ((round((x - ox) / res), round((y - oy) / res),
                        round((z - oz) / res)),) + key_tail
                out.append((u, cost, State(((x, y, z),) + higher), key))
        return out


def get_successors(s: State, cfg: PlannerConfig,
                   grid: OccupancyGrid) -> list[MotionPrimitive]:
    """Feasible primitives out of s, in control-set order.

    The reference path, apart from EdgeTable: propagate each control, then
    check_dynamics, then check_collision. plan gives the same edges.
    """
    out = []
    for u in cfg.control_set.controls:
        prim = propagate(s, u, cfg.tau, cfg.rho)
        if (check_dynamics(prim, cfg.bounds)
                and check_collision(prim, grid,
                                    unknown_is_free=cfg.unknown_is_free)):
            out.append(prim)
    return out


def _static_within_bounds(s: State, bounds: DynBounds) -> bool:
    for order, bound in ((1, bounds.v_max), (2, bounds.a_max)):
        if bound is None or order >= s.order:
            continue
        if any(abs(c) > bound for c in s.derivs[order]):
            return False
    return True


def plan(start: State, goal: GoalSpec, cfg: PlannerConfig, grid: OccupancyGrid,
         edge_hook: Optional[Callable[[State, MotionPrimitive], None]] = None,
         ) -> PlanResult:
    """A* from start to the goal region over constant-control primitives.

    Planning without bounds.v_max is rejected. Raises StartInfeasibleError
    when the start cell is not free or the start state already violates the
    bounds. When no free cell meets the goal position box, no state can
    reach it: the result is NoPath with 0 expansions. The optional
    edge_hook is called with (state, primitive) for every feasible edge the
    search relaxes; it exists for audits and stays out of the common path.
    """
    t0 = time.perf_counter()
    if start.order != cfg.order:
        raise ValueError("start state order does not match the config")
    if cfg.bounds.v_max is None:
        raise MissingBoundError("planning needs bounds.v_max")
    if not grid.is_free_at(start.pos, cfg.unknown_is_free):
        raise StartInfeasibleError("start position is not in free space")
    if not _static_within_bounds(start, cfg.bounds):
        raise StartInfeasibleError("start state violates the dynamic bounds")
    tol = cfg.goal_pos_tol
    if not grid.any_free_in_box(tuple(c - tol for c in goal.p_g),
                                tuple(c + tol for c in goal.p_g),
                                cfg.unknown_is_free):
        return PlanResult(PlanStatus.NO_PATH, (), math.inf, 0,
                          time.perf_counter() - t0)

    hfun = _heuristic_fn(goal, cfg)
    weight = cfg.heuristic_weight
    d_u, tau = cfg.control_set.d_u, cfg.tau
    origin = start
    key0 = lattice_key(start, d_u, tau, origin)
    edges = EdgeTable(cfg, grid, origin)
    states = edges._states

    # Per lattice key: [g, state, closed, arrival], where arrival is the
    # parent key, parent state, control and edge cost of the cheapest
    # arrival found so far.
    nodes: dict[LatticeKey, list] = {key0: [0.0, start, False, None]}
    counter = 0
    heap: list[tuple[float, float, int, int, LatticeKey]] = [
        (weight * hfun(start), 0.0, 0, counter, key0)]

    expanded = 0
    status = PlanStatus.NO_PATH
    goal_key: Optional[LatticeKey] = None

    while heap:
        _f, neg_g, _idx, _seq, key = heappop(heap)
        g = -neg_g
        node = nodes[key]
        if node[2] or g > node[0] + G_DOMINANCE_MARGIN:
            continue
        s = node[1]
        if goal_reached(s, goal, cfg):
            status = PlanStatus.SOLVED
            goal_key = key
            break
        if expanded >= cfg.max_expansions:
            status = PlanStatus.EXPANSION_LIMIT
            break
        node[2] = True
        expanded += 1
        for idx, (u, cost, s2, k2) in enumerate(edges.successors(s)):
            if edge_hook is not None:
                edge_hook(s, MotionPrimitive(s, u, tau, cost))
            g2 = g + cost
            old = nodes.get(k2)
            if old is not None and g2 >= old[0] - G_DOMINANCE_MARGIN:
                continue
            # The shared object, so the heuristic memo, the node map and
            # the returned chain hold one State per float state.
            s2 = states.setdefault(s2.derivs, s2)
            nodes[k2] = [g2, s2, False, (key, s, u, cost)]
            counter += 1
            heappush(heap, (g2 + weight * hfun(s2), -g2, idx, counter, k2))

    seconds = time.perf_counter() - t0
    if status is not PlanStatus.SOLVED:
        return PlanResult(status, (), math.inf, expanded, seconds)

    chain: list[MotionPrimitive] = []
    key = goal_key
    while key != key0:
        key, parent, u, cost = nodes[key][3]
        chain.append(MotionPrimitive(parent, u, tau, cost))
    chain.reverse()
    total = 0.0
    for prim in chain:
        total += prim.cost
    return PlanResult(PlanStatus.SOLVED, tuple(chain), total, expanded, seconds)
