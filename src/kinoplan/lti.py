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

Writing the effort as P(T) / T^(2n-1), the candidate horizons are the
positive roots of the stationarity polynomial
S(T) = rho T^2n + T P'(T) - (2n-1) P(T), solved with its rho T^2n term
kept: a square root at order 1, Ferrari at order 2 and companion-matrix
eigenvalues at order 3. Order 2 (acceleration control) has closed forms
in three dot products of the boundary pair: with dp = pf - p0,
pp = |dp|^2, vs = (v0 + vf).dp and vv = |v0|^2 + v0.vf + |vf|^2, the
effort is 12 pp / T^3 - 12 vs / T^2 + 4 vv / T, evaluated as the sum of
squares (|vf - v0|^2 + 12 |dp - T (v0 + vf) / 2|^2 / T^2) / T, and S is
the quartic rho T^4 - 4 vv T^2 + 24 vs T - 36 pp, which has no cubic
term. Orders 1 and 3 build P from the Gramian inverse.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .polyalg import (LEADING_COEFF_CUTOFF, Poly1, _horner, _polish,
                      _raw_roots, derivatives_evaluator, real_roots)

Vec3 = tuple[float, float, float]

ORDERS = (1, 2, 3)

# Horizons shorter than this make the boundary solve meaningless in float64.
MIN_SOLVE_TIME = 1e-6


class SingularGramianError(ValueError):
    """Fixed-time solve rejected because the horizon is too short."""


class NoFiniteMinimumError(ValueError):
    """Free-horizon solve rejected; without rho > 0 the cost has no minimum."""


def _vec3(v) -> Vec3:
    x, y, z = v
    out = (float(x), float(y), float(z))
    if not all(map(math.isfinite, out)):
        raise ValueError(f"state components must be finite, got {out}")
    return out


class State(NamedTuple):
    """Derivatives of position, lowest order first: derivs[0] is position.

    State.of and State.rest reject non-finite components; the plain
    constructor, used on the search's hot path, checks nothing.
    """

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
        return State(derivatives_evaluator(self.axis_polys, n)(t))


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


# Inverse of the unit-horizon axis Gramian, whose entries are integers; the
# general horizon follows by the exact scaling W(T) = D What D with
# D = diag(T**(n-1-i+1/2)).
_UNIT_GRAMIAN_INV = {
    n: tuple(tuple(float(c) for c in row)
             for row in np.rint(np.linalg.inv(_axis_gramian(n, 1.0))))
    for n in ORDERS}


def _deriv_row(m: int, i: int, t: float) -> np.ndarray:
    """Coefficient row of the i-th derivative of a degree m-1 polynomial."""
    row = np.zeros(m)
    for j in range(i, m):
        row[j] = math.factorial(j) / math.factorial(j - i) * t ** (j - i)
    return row


# Boundary-condition solve in unit time: rows are derivatives 0..n-1 at s=0
# and s=1 of a degree 2n-1 polynomial in s.
_UNIT_BOUNDARY_INV = {
    n: np.linalg.inv([_deriv_row(2 * n, i, s) for s in (0.0, 1.0)
                      for i in range(n)])
    for n in ORDERS}


def effort_between(x0: State, xf: State, T: float) -> float:
    """Minimum control effort integral |u|^2 to steer x0 to xf in time T.

    Order 2 uses the sum-of-squares closed form
    (|vf - v0|^2 + 12 |dp - T (v0 + vf) / 2|^2 / T^2) / T, dp = pf - p0.
    Orders 1 and 3 evaluate delta' W(T)^-1 delta through the unit-horizon
    Gramian inverse, which keeps the computation well conditioned for any
    T > 0.
    """
    n = x0.order
    if xf.order != n:
        raise ValueError("boundary states must have the same order")
    if n == 2:
        (p0, v0), (pf, vf) = x0.derivs, xf.derivs
        a0, a1, a2 = v0
        b0, b1, b2 = vf
        d0, d1, d2 = b0 - a0, b1 - a1, b2 - a2
        h = 0.5 * T
        m0 = pf[0] - p0[0] - h * (a0 + b0)
        m1 = pf[1] - p0[1] - h * (a1 + b1)
        m2 = pf[2] - p0[2] - h * (a2 + b2)
        return ((d0 * d0 + d1 * d1 + d2 * d2)
                + 12.0 * (m0 * m0 + m1 * m1 + m2 * m2) / (T * T)) / T
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


def _stationarity(x0: State, xf: State, rho: float) -> tuple[float, ...]:
    """Coefficients of S(T) = rho T^2n + T P'(T) - (2n-1) P(T), where
    effort_between(x0, xf, T) = P(T) / T^(2n-1).

    The derivative of effort plus rho * T is S(T) / T^2n. At order 2, S is
    the quartic of three dot products in the module docstring. At orders
    1 and 3, per axis, T^i times the residual of derivative i,
    xf_i - sum_j T^(j-i)/(j-i)! x0_j, is a polynomial q_i of degree n - 1,
    and P sums q_i W^-1_ij q_j over the unit-horizon Gramian inverse.
    """
    n = x0.order
    if n == 2:
        (p0, v0), (pf, vf) = x0.derivs, xf.derivs
        a0, a1, a2 = v0
        b0, b1, b2 = vf
        d0, d1, d2 = pf[0] - p0[0], pf[1] - p0[1], pf[2] - p0[2]
        dot_pp = d0 * d0 + d1 * d1 + d2 * d2
        dot_vs = (a0 + b0) * d0 + (a1 + b1) * d1 + (a2 + b2) * d2
        dot_vv = ((a0 * a0 + a0 * b0 + b0 * b0) + (a1 * a1 + a1 * b1 + b1 * b1)
                  + (a2 * a2 + a2 * b2 + b2 * b2))
        return (-36.0 * dot_pp, 24.0 * dot_vs, -4.0 * dot_vv, 0.0, rho)
    winv = _UNIT_GRAMIAN_INV[n]
    d0, df = x0.derivs, xf.derivs
    p = [0.0] * (2 * n - 1)
    for ax in range(3):
        q = [[0.0] * i + [df[i][ax] - d0[i][ax]]
             + [-d0[k][ax] / math.factorial(k - i) for k in range(i + 1, n)]
             for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(i, n):
                    wq = winv[i][j] * q[i][k]
                    for m in range(j, n):
                        p[k + m] += wq * q[j][m]
    return (*((k - 2 * n + 1) * c for k, c in enumerate(p)), 0.0, rho)


def _candidate_horizons(x0: State, xf: State, rho: float,
                        T_lower: float) -> list[float]:
    """Horizons T >= T_lower among which the free-horizon minimum lies.

    The candidates are the positive real roots of the stationarity
    polynomial S (_stationarity), and an active T_lower where S is
    nonnegative or no root lies above it: where S is negative the cost
    still falls, and a root above the floor beats it. S is solved with its
    rho T^2n term, whose one large root a stripped solve would drop; when
    rho is below LEADING_COEFF_CUTOFF of S's largest coefficient, the roots
    of the stripped S join the candidates too, since the unstripped solve
    may lose the others to rounding. The list is empty when the boundary
    states agree to within solver resolution, where the minimum is the
    zero-cost degenerate solution.

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

    stationarity = _stationarity(x0, xf, rho)
    candidates = [_polish(stationarity, r) for r in _raw_roots(stationarity)
                  if r > 0.0]
    if rho < LEADING_COEFF_CUTOFF * max(map(abs, stationarity)):
        candidates.extend(real_roots(Poly1(stationarity)))
    feasible = sorted(c for c in candidates if c >= T_lower and c > MIN_SOLVE_TIME)
    if T_lower > MIN_SOLVE_TIME and (_horner(stationarity, T_lower) >= 0.0
                                     or not feasible):
        feasible.insert(0, T_lower)
    return feasible


def _optimal_horizon(x0: State, xf: State, rho: float,
                     T_lower: float) -> tuple[float, float]:
    """(cost_total, T) at the cheapest candidate horizon, or (0.0, 0.0) for
    the degenerate solution when there is none."""
    return min(((effort_between(x0, xf, T) + rho * T, T)
                for T in _candidate_horizons(x0, xf, rho, T_lower)),
               default=(0.0, 0.0))


def lqmt_optimal_time(x0: State, xf: State, rho: float,
                      T_lower: float = 0.0) -> LqmtSolution:
    """Minimize effort plus rho * T over horizons T >= T_lower.

    The minimum is taken over the candidate horizons of
    _candidate_horizons, and the trajectory is the fixed-time solve there.

    Raises NoFiniteMinimumError unless rho > 0.
    """
    T = _optimal_horizon(x0, xf, rho, T_lower)[1]
    if T == 0.0:
        return _degenerate_solution(x0)
    return lqmt_fixed_time(BoundaryPair(x0, xf, T), rho)


def lqmt_optimal_cost(x0: State, xf: State, rho: float,
                      T_lower: float = 0.0) -> float:
    """The cost_total of lqmt_optimal_time, bit for bit, without its solve.

    Each candidate horizon is evaluated once, with the same expression the
    fixed-time solve uses for its total, and no trajectory is built.

    Raises NoFiniteMinimumError unless rho > 0.
    """
    return _optimal_horizon(x0, xf, rho, T_lower)[0]
