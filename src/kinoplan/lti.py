"""Chain-of-integrators dynamics and minimum-effort boundary solves.

The plant is three decoupled integrator chains (one per axis), with the
control entering at derivative order n, n in {1, 2, 3}. Per axis the system
matrices are the n x n nilpotent shift plus a unit input column, so the state
transition, the controllability Gramian, and the minimum-effort cost between
two states all have closed forms in T.

The time-plus-effort objective is J = integral of |u|^2 plus rho * T. For a
fixed horizon the minimizer is the unique degree 2n-1 polynomial through the
boundary conditions, and its cost is the Gramian quadratic form
delta' * W(T)^-1 * delta with delta = xf - F(T) x0. The free-horizon solve
minimizes that cost plus rho * T over T >= T_lower.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .polyalg import Poly1, real_roots

Vec3 = tuple[float, float, float]

ORDERS = (1, 2, 3)

# Horizons shorter than this make the boundary solve meaningless in float64.
MIN_SOLVE_TIME = 1e-6

_GOLDEN_REL_WIDTH = 1e-8
_GOLDEN_MAX_ITERS = 200


class SingularGramianError(ValueError):
    """Fixed-time solve rejected because the horizon is too short."""


class NoFiniteMinimumError(ValueError):
    """Free-horizon solve rejected; without rho > 0 the cost has no minimum."""


def _vec3(v) -> Vec3:
    x, y, z = v
    return (float(x), float(y), float(z))


class State(NamedTuple):
    """Derivatives of position, lowest order first: derivs[0] is position."""

    derivs: tuple[Vec3, ...]

    @classmethod
    def of(cls, *derivs) -> "State":
        # Orders above 3 never reach the LTI solvers, but the refinement QP
        # carries boundary states up to its own order, so the container
        # only insists on at least a position.
        if len(derivs) < 1:
            raise ValueError("state needs at least a position")
        return cls(tuple(_vec3(d) for d in derivs))

    @classmethod
    def rest(cls, n: int, pos=(0.0, 0.0, 0.0)) -> "State":
        if n < 1:
            raise ValueError("state needs at least a position")
        zero = (0.0, 0.0, 0.0)
        return cls((_vec3(pos),) + (zero,) * (n - 1))

    @property
    def order(self) -> int:
        return len(self.derivs)

    @property
    def pos(self) -> Vec3:
        return self.derivs[0]

    @property
    def vel(self) -> Vec3:
        return self.derivs[1]

    def as_vector(self) -> np.ndarray:
        """Stacked (3n,) vector, position block first."""
        return np.asarray(self.derivs, dtype=float).reshape(-1)


class BoundaryPair(NamedTuple):
    x0: State
    xf: State
    T: float


class LqmtSolution(NamedTuple):
    """Minimum-effort polynomial trajectory between two states."""

    axis_polys: tuple[Poly1, Poly1, Poly1]
    T: float
    cost_effort: float
    cost_total: float

    def state_at(self, t: float, n: int) -> State:
        derivs = []
        for i in range(n):
            derivs.append(tuple(p.derivative(i).eval(t) for p in self.axis_polys))
        return State(tuple(derivs))


def _check_order(n: int) -> int:
    if n not in ORDERS:
        raise ValueError(f"system order must be one of {ORDERS}, got {n}")
    return n


def state_transition(n: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discrete transition (F, G): x(t) = F x0 + G u for constant u.

    F is 3n x 3n with blocks t**(j-i)/(j-i)! on the upper diagonals, G is
    3n x 3 with block rows t**(n-i)/(n-i)!.
    """
    _check_order(n)
    eye = np.eye(3)
    F = np.zeros((3 * n, 3 * n))
    G = np.zeros((3 * n, 3))
    for i in range(n):
        for j in range(i, n):
            F[3 * i:3 * i + 3, 3 * j:3 * j + 3] = (
                t ** (j - i) / math.factorial(j - i) * eye)
        G[3 * i:3 * i + 3, :] = t ** (n - i) / math.factorial(n - i) * eye
    return F, G


def _axis_gramian(n: int, T: float) -> np.ndarray:
    w = np.empty((n, n))
    for i in range(n):
        a = n - 1 - i
        for j in range(n):
            b = n - 1 - j
            w[i, j] = T ** (a + b + 1) / (
                (a + b + 1) * math.factorial(a) * math.factorial(b))
    return w

def gramian(n: int, T: float) -> np.ndarray:
    """Controllability Gramian of the 3n-state system over [0, T]."""
    _check_order(n)
    w = _axis_gramian(n, T)
    W = np.zeros((3 * n, 3 * n))
    for ax in range(3):
        idx = np.arange(n) * 3 + ax
        W[np.ix_(idx, idx)] = w
    return W


def _normalized_gramian_inverses() -> dict[int, tuple[tuple[float, ...], ...]]:
    out = {}
    for n in ORDERS:
        out[n] = tuple(tuple(row) for row in np.linalg.inv(_axis_gramian(n, 1.0)))
    return out


# Inverse of the unit-horizon axis Gramian; the general horizon follows by
# the exact scaling W(T) = D What D with D = diag(T**(n-1-i+1/2)).
_UNIT_GRAMIAN_INV = _normalized_gramian_inverses()


def _boundary_inverses() -> dict[int, np.ndarray]:
    out = {}
    for n in ORDERS:
        m = 2 * n
        M = np.zeros((m, m))
        for i in range(n):
            M[i, i] = math.factorial(i)
            for k in range(i, m):
                M[n + i, k] = math.factorial(k) / math.factorial(k - i)
        out[n] = np.linalg.inv(M)
    return out


# Boundary-condition solve in unit time: rows are derivatives 0..n-1 at s=0
# and s=1 of a degree 2n-1 polynomial in s.
_UNIT_BOUNDARY_INV = _boundary_inverses()


def effort_between(x0: State, xf: State, T: float) -> float:
    """Minimum control effort integral |u|^2 to steer x0 to xf in time T.

    Evaluates delta' W(T)^-1 delta through the unit-horizon Gramian inverse,
    which keeps the computation well conditioned for any T > 0.
    """
    n = x0.order
    if xf.order != n:
        raise ValueError("boundary states must have the same order")
    winv = _UNIT_GRAMIAN_INV[n]
    # The transition entries T**k / k! and the scalings T**(n-1-i+1/2),
    # computed once for all three axes.
    step = [T ** k / math.factorial(k) for k in range(n)]
    scale = [T ** (n - 1 - i + 0.5) for i in range(n)]
    d0, df = x0.derivs, xf.derivs
    total = 0.0
    for ax in range(3):
        z = []
        for i in range(n):
            reach = 0.0
            for j in range(i, n):
                reach += step[j - i] * d0[j][ax]
            z.append((df[i][ax] - reach) / scale[i])
        for i in range(n):
            zi = z[i]
            if zi == 0.0:
                continue
            row = winv[i]
            for j in range(n):
                total += zi * row[j] * z[j]
    return total


def lqmt_fixed_time(bp: BoundaryPair, rho: float) -> LqmtSolution:
    """Minimum-effort trajectory between bp.x0 and bp.xf over horizon bp.T.

    Returns the degree 2n-1 polynomial per axis; the solve runs in normalized
    time s = t/T so the linear system is a fixed, well-conditioned matrix.

    Raises SingularGramianError when bp.T < 1e-6.
    """
    x0, xf, T = bp
    n = _check_order(x0.order)
    if xf.order != n:
        raise ValueError("boundary states must have the same order")
    if not (T >= MIN_SOLVE_TIME):
        raise SingularGramianError(f"horizon {T} is below {MIN_SOLVE_TIME}")
    minv = _UNIT_BOUNDARY_INV[n]
    rhs = np.empty((2 * n, 3))
    for i in range(n):
        ti = T ** i
        for ax in range(3):
            rhs[i, ax] = ti * x0.derivs[i][ax]
            rhs[n + i, ax] = ti * xf.derivs[i][ax]
    q = minv @ rhs
    tpow = np.array([T ** k for k in range(2 * n)])
    coeffs = q / tpow[:, None]
    polys = tuple(Poly1(tuple(float(c) for c in coeffs[:, ax]))
                  for ax in range(3))
    cost = effort_between(x0, xf, T)
    return LqmtSolution(polys, T, cost, cost + rho * T)


def _degenerate_solution(x0: State) -> LqmtSolution:
    n = x0.order
    pad = (0.0,) * (2 * n - 1)
    polys = tuple(Poly1((x0.derivs[0][ax],) + pad) for ax in range(3))
    return LqmtSolution(polys, 0.0, 0.0, 0.0)


def _total_cost(x0: State, xf: State, rho: float) -> Callable[[float], float]:
    def cost(T: float) -> float:
        return effort_between(x0, xf, T) + rho * T
    return cost


def _golden_min(f: Callable[[float], float], a: float, b: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITERS):
        if b - a <= _GOLDEN_REL_WIDTH * max(abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bracket_then_golden(cost: Callable[[float], float], lo: float) -> float:
    """Scan doubling horizons from lo until the cost turns up, then refine."""
    t_prev, f_prev = lo, cost(lo)
    t_cur = lo * 2.0
    lo_bracket = lo
    for _ in range(80):
        f_cur = cost(t_cur)
        if f_cur > f_prev:
            break
        lo_bracket, t_prev, f_prev = t_prev, t_cur, f_cur
        t_cur *= 2.0
    return _golden_min(cost, lo_bracket, t_cur)


def _candidate_horizons(x0: State, xf: State, rho: float,
                        T_lower: float) -> list[float]:
    """Horizons T >= T_lower among which the free-horizon minimum lies.

    Orders 1 and 2 use the closed-form stationarity conditions (a square
    root and a quartic); order 3 brackets the minimum by doubling and then
    runs a golden-section refinement. An active T_lower comes first. The
    list is empty when the boundary states agree to within solver
    resolution, where the minimum is the zero-cost degenerate solution.

    Raises NoFiniteMinimumError unless rho > 0.
    """
    if not rho > 0.0:
        raise NoFiniteMinimumError("rho must be positive for a finite horizon")
    n = _check_order(x0.order)
    if xf.order != n:
        raise ValueError("boundary states must have the same order")
    T_lower = max(T_lower, 0.0)
    if x0 == xf and T_lower <= MIN_SOLVE_TIME:
        return []

    candidates: list[float] = []
    if n == 1:
        dp = math.sqrt(sum((b - a) ** 2 for a, b in zip(x0.pos, xf.pos)))
        candidates.append(dp / math.sqrt(rho))
    elif n == 2:
        p0, v0 = x0.derivs
        pf, vf = xf.derivs
        dp = tuple(b - a for a, b in zip(p0, pf))
        dot_pp = sum(d * d for d in dp)
        dot_vs = sum((a + b) * d for a, b, d in zip(v0, vf, dp))
        dot_vv = sum(a * a + a * b + b * b for a, b in zip(v0, vf))
        quartic = Poly1((-36.0 * dot_pp, 24.0 * dot_vs, -4.0 * dot_vv, 0.0, rho))
        candidates.extend(r for r in real_roots(quartic) if r > MIN_SOLVE_TIME)
    else:
        cost = _total_cost(x0, xf, rho)
        lo = max(T_lower, MIN_SOLVE_TIME)
        candidates.append(_bracket_then_golden(cost, lo))

    feasible = sorted(c for c in candidates if c >= T_lower and c > MIN_SOLVE_TIME)
    if T_lower > MIN_SOLVE_TIME:
        feasible.insert(0, T_lower)
    return feasible


def lqmt_optimal_time(x0: State, xf: State, rho: float,
                      T_lower: float = 0.0) -> LqmtSolution:
    """Minimize effort plus rho * T over horizons T >= T_lower.

    The minimum is taken over the candidate horizons of
    _candidate_horizons, and the trajectory is the fixed-time solve there.

    Raises NoFiniteMinimumError unless rho > 0.
    """
    feasible = _candidate_horizons(x0, xf, rho, T_lower)
    if not feasible:
        return _degenerate_solution(x0)
    best = min(feasible, key=_total_cost(x0, xf, rho))
    return lqmt_fixed_time(BoundaryPair(x0, xf, best), rho)


def lqmt_optimal_cost(x0: State, xf: State, rho: float,
                      T_lower: float = 0.0) -> float:
    """The cost_total of lqmt_optimal_time, bit for bit, without its solve.

    Each candidate horizon is evaluated once, with the same expression the
    fixed-time solve uses for its total, and no trajectory is built.

    Raises NoFiniteMinimumError unless rho > 0.
    """
    feasible = _candidate_horizons(x0, xf, rho, T_lower)
    if not feasible:
        return 0.0
    return min(effort_between(x0, xf, T) + rho * T for T in feasible)
