"""A* over the motion-primitive lattice with kinodynamic heuristics.

States are hashed by their integer lattice key relative to the start state;
the float state stored at a key is the one from the cheapest arrival found so
far, and a key is reopened whenever a strictly cheaper arrival shows up. Ties
on f prefer the larger g (deeper progress), then the lower position of the
edge in its parent's list of feasible successors.

Successors come from a per-plan edge table (EdgeTable). Holding a control
for tau moves every derivative of order one and up independently of the
start position, so the table is keyed on a state's exact higher derivatives
s.derivs[1:] and holds, for each control that passes check_dynamics, the
edge cost, the end state's higher derivatives and their part of the lattice
key, the addends of the end position, and the collision-sample
displacements from the start position. Expanding a state then costs one
dictionary lookup, one cell test per sample and a few float additions per
edge; the primitives of the returned plan are rebuilt with propagate.

Two admissible heuristics are provided besides the zero one: a max-speed
time bound scaled by rho, and the full free-horizon minimum-effort cost to
the goal state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional

from .gridmap import (DynBounds, OccupancyGrid, check_collision,
                      check_dynamics, sample_offsets)
from .lattice import (ControlSet, LatticeKey, MotionPrimitive, fold_state,
                      fold_terms, lattice_key, lattice_resolutions, propagate)
# check_collision and lqmt_optimal_time are not called here; they stay
# importable from this module for callers that look them up here.
from .lti import State, Vec3, lqmt_optimal_cost, lqmt_optimal_time

REST_TOL = 1e-9

# A cheaper arrival must beat the incumbent by more than this to reopen.
G_DOMINANCE_MARGIN = 1e-12


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

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("planner order must be 2 or 3")
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
    """
    v_max = cfg.bounds.v_max
    p = s.pos
    d = max(abs(goal.p_g[0] - p[0]), abs(goal.p_g[1] - p[1]),
            abs(goal.p_g[2] - p[2]))
    t_lower = d / v_max if v_max is not None else 0.0
    if target is None:
        target = goal_state(goal, cfg.order)
    return lqmt_optimal_cost(s, target, cfg.rho, t_lower)


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


class EdgeTable:
    """Feasible edges out of lattice states, built once per plan and key.

    A row, keyed on the exact floats s.derivs[1:], holds one entry per
    control that passes check_dynamics, in control-set order: the control,
    the edge cost, the end state's higher derivatives and lattice-key part,
    the end position's addends (MotionPrimitive.state_terms) and the
    collision-sample displacements (gridmap.sample_offsets). Rows are built
    from propagate and check_dynamics on the first state with those higher
    derivatives; every result derived from a row equals, bit for bit, what
    the primitive built at the state itself gives.
    """

    def __init__(self, cfg: PlannerConfig, grid: OccupancyGrid, origin: State):
        self._cfg = cfg
        self._grid = grid
        self._origin = origin
        self._pos_res = lattice_resolutions(cfg.order, cfg.control_set.d_u,
                                            cfg.tau)[0]
        self._rows: dict[tuple[Vec3, ...], list] = {}

    def _build_row(self, s: State) -> list:
        cfg = self._cfg
        d_u, tau = cfg.control_set.d_u, cfg.tau
        row = []
        for u in cfg.control_set.controls:
            prim = propagate(s, u, tau, cfg.rho)
            if not check_dynamics(prim, cfg.bounds):
                continue
            terms = prim.state_terms(tau)
            end = fold_state(s, terms)
            key = lattice_key(end, d_u, tau, self._origin)
            offsets = sample_offsets(prim, cfg.bounds.v_max,
                                     self._grid.resolution)
            row.append((prim.u, prim.cost, end.derivs[1:], key[1:],
                        terms[0], offsets))
        self._rows[s.derivs[1:]] = row
        return row

    def successors(self, s: State) -> list[Edge]:
        """Feasible edges out of s, in control-set order."""
        row = self._rows.get(s.derivs[1:])
        if row is None:
            row = self._build_row(s)
        p = s.pos
        px, py, pz = p
        ox, oy, oz = self._origin.pos
        res = self._pos_res
        free_along = self._grid.free_along
        unknown_is_free = self._cfg.unknown_is_free
        out = []
        for u, cost, higher, key_tail, (tx, ty, tz), offsets in row:
            if not free_along(p, offsets, unknown_is_free):
                continue
            x = fold_terms(px, tx)
            y = fold_terms(py, ty)
            z = fold_terms(pz, tz)
            key = ((round((x - ox) / res), round((y - oy) / res),
                    round((z - oz) / res)),) + key_tail
            out.append((u, cost, State(((x, y, z),) + higher), key))
        return out


def get_successors(s: State, cfg: PlannerConfig,
                   grid: OccupancyGrid) -> list[MotionPrimitive]:
    """Feasible primitives out of s, in control-set order."""
    return [propagate(s, u, cfg.tau, cfg.rho)
            for u, _cost, _end, _key in EdgeTable(cfg, grid, s).successors(s)]


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

    Collision sampling needs bounds.v_max, so planning without it is
    rejected. Raises StartInfeasibleError when the start cell is not free or
    the start state already violates the bounds. The optional edge_hook is
    called with (state, primitive) for every feasible edge the search
    relaxes; it exists for audits and stays out of the common path.
    """
    t0 = time.perf_counter()
    if start.order != cfg.order:
        raise ValueError("start state order does not match the config")
    if cfg.bounds.v_max is None:
        raise MissingBoundError("planning needs bounds.v_max for collision "
                                "sampling")
    if not grid.is_free_at(start.pos, cfg.unknown_is_free):
        raise StartInfeasibleError("start position is not in free space")
    if not _static_within_bounds(start, cfg.bounds):
        raise StartInfeasibleError("start state violates the dynamic bounds")

    hfun = _heuristic_fn(goal, cfg)
    weight = cfg.heuristic_weight
    d_u, tau, rho = cfg.control_set.d_u, cfg.tau, cfg.rho
    origin = start
    key0 = lattice_key(start, d_u, tau, origin)
    edges = EdgeTable(cfg, grid, origin)

    g_best: dict[LatticeKey, float] = {key0: 0.0}
    state_of: dict[LatticeKey, State] = {key0: start}
    # Parent key, parent state and control of the cheapest arrival.
    arrival: dict[LatticeKey, tuple[LatticeKey, State, Vec3]] = {}
    closed: set[LatticeKey] = set()
    counter = 0
    heap: list[tuple[float, float, int, int, LatticeKey]] = [
        (weight * hfun(start), 0.0, 0, counter, key0)]

    expanded = 0
    status = PlanStatus.NO_PATH
    goal_key: Optional[LatticeKey] = None

    while heap:
        _f, neg_g, _idx, _seq, key = heappop(heap)
        g = -neg_g
        if key in closed or g > g_best[key] + G_DOMINANCE_MARGIN:
            continue
        s = state_of[key]
        if goal_reached(s, goal, cfg):
            status = PlanStatus.SOLVED
            goal_key = key
            break
        if expanded >= cfg.max_expansions:
            status = PlanStatus.EXPANSION_LIMIT
            break
        closed.add(key)
        expanded += 1
        for idx, (u, cost, s2, k2) in enumerate(edges.successors(s)):
            if edge_hook is not None:
                edge_hook(s, propagate(s, u, tau, rho))
            g2 = g + cost
            old = g_best.get(k2)
            if old is not None and g2 >= old - G_DOMINANCE_MARGIN:
                continue
            g_best[k2] = g2
            state_of[k2] = s2
            arrival[k2] = (key, s, u)
            closed.discard(k2)
            counter += 1
            heappush(heap, (g2 + weight * hfun(s2), -g2, idx, counter, k2))

    seconds = time.perf_counter() - t0
    if status is not PlanStatus.SOLVED:
        return PlanResult(status, (), math.inf, expanded, seconds)

    chain: list[MotionPrimitive] = []
    key = goal_key
    while key != key0:
        key, parent, u = arrival[key]
        chain.append(propagate(parent, u, tau, rho))
    chain.reverse()
    total = 0.0
    for prim in chain:
        total += prim.cost
    return PlanResult(PlanStatus.SOLVED, tuple(chain), total, expanded, seconds)
