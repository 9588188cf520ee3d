"""Kinodynamic lattice planning with polynomial motion primitives.

Search runs A* over states reachable by holding one of finitely many
constant controls for a fixed duration; admissible heuristics come from the
closed-form minimum effort-plus-time boundary solves. Solved plans can be
smoothed into minimum-snap style splines without leaving the visited
waypoints.
"""

from .gridmap import (CellState, DimensionMismatchError, DynBounds,
                      MapParseError, OccupancyGrid, check_collision,
                      check_dynamics, load_grid, random_grid, save_grid)
from .lattice import (ControlSet, InvalidDimsError, LatticeKey,
                      MotionPrimitive, lattice_key, lattice_resolutions,
                      make_control_set, propagate)
from .lti import (BoundaryPair, LqmtSolution, NoFiniteMinimumError,
                  SingularGramianError, State, effort_between, gramian,
                  lqmt_fixed_time, lqmt_optimal_cost, lqmt_optimal_time,
                  state_transition)
from .polyalg import (Interval, Poly1, ZeroPolynomialError, extrema_on,
                      integral_of_square, real_roots)
from .refine import (NotSolvedError, RefineSpec, SingularKktError,
                     SplineTrajectory, refine, refine_constraints,
                     spline_effort, waypoints_from_plan)
from .search import (GoalSpec, Heuristic, MissingBoundError, PlannerConfig,
                     PlanResult, PlanStatus, StartInfeasibleError,
                     get_successors, goal_reached, h_lqmt, h_max_speed, plan)
from .trajio import (EmptyTrajectoryError, SampledTrajectory, read_segments,
                     sample, write_csv, write_segments)

__version__ = "0.1.0"
