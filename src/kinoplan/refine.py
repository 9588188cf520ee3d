"""Spline smoothing of a searched plan by an equality-constrained QP.

The searched trajectory visits a list of waypoints at known segment times.
Refinement keeps those times and interpolation points but replaces each
constant-control segment with a degree 2n'-1 polynomial, minimizing the
integral of the squared n'-th position derivative subject to:

  * the full start and end states,
  * continuity of derivatives 0..n'-1 at every junction,
  * passing through each interior waypoint at its junction time.

The objective Hessian is block diagonal with closed-form entries, so the
whole problem reduces to one dense KKT solve shared by the three axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .lattice import MotionPrimitive
from .lti import State, Vec3, _deriv_row
from .polyalg import (Interval, Poly1, derivatives_evaluator,
                      integral_of_square)
from .search import PlanResult, PlanStatus

MIN_SEGMENT_TIME = 1e-6

REFINE_ORDERS = (2, 3, 4)


class NotSolvedError(ValueError):
    """Refinement needs a solved, nonempty plan."""


class SingularKktError(ValueError):
    """The KKT system could not be solved (degenerate segment times)."""


@dataclass(frozen=True)
class RefineSpec:
    """Waypoint interpolation problem; waypoints[k] ends segment k."""

    n_prime: int
    waypoints: tuple[Vec3, ...]
    seg_times: tuple[float, ...]
    s0: State
    sg: State

    def __post_init__(self):
        if self.n_prime not in REFINE_ORDERS:
            raise ValueError(f"n_prime must be one of {REFINE_ORDERS}")
        if len(self.waypoints) != len(self.seg_times) or not self.waypoints:
            raise ValueError("need one waypoint per segment")
        if self.s0.order != self.n_prime or self.sg.order != self.n_prime:
            raise ValueError("boundary states must have order n_prime")
        tail = self.waypoints[-1]
        if max(abs(a - b) for a, b in zip(tail, self.sg.pos)) > 1e-6:
            raise ValueError("last waypoint must coincide with sg position")


Trajectory = Union[Sequence[MotionPrimitive], "SplineTrajectory"]


class EmptyTrajectoryError(ValueError):
    """Sampling or serialization of a trajectory with no segments."""


@dataclass(frozen=True)
class SplineTrajectory:
    """Piecewise polynomial: per segment a duration and an (x, y, z) triple
    in local time whose derivatives 0..order-1 make the state (degree
    2*order-1 when refined, order for a primitive)."""

    order: int
    seg_times: tuple[float, ...]
    segments: tuple[tuple[Poly1, Poly1, Poly1], ...]

    @classmethod
    def of(cls, traj: Trajectory) -> "SplineTrajectory":
        """traj itself, or a primitive sequence read as one segment per
        primitive. Raises EmptyTrajectoryError when there is no segment."""
        if not isinstance(traj, SplineTrajectory):
            prims = tuple(traj)
            traj = cls(prims[0].x0.order if prims else 0,
                       tuple(p.tau for p in prims),
                       tuple(p.axis_polys for p in prims))
        if not traj.segments:
            raise EmptyTrajectoryError("trajectory has no segments")
        return traj

    @property
    def duration(self) -> float:
        return sum(self.seg_times)

    def state_at(self, t: float) -> State:
        """Evaluate derivatives 0..order-1 at global time t (clamped)."""
        k, local = self._locate(t)
        return State(derivatives_evaluator(self.segments[k], self.order)(local))

    def _locate(self, t: float) -> tuple[int, float]:
        if t <= 0.0:
            return 0, 0.0
        acc = 0.0
        for k, tau in enumerate(self.seg_times):
            if t <= acc + tau or k == len(self.seg_times) - 1:
                return k, min(t - acc, tau)
            acc += tau
        return len(self.seg_times) - 1, self.seg_times[-1]


def _hessian_block(n_prime: int, m: int, tau: float) -> np.ndarray:
    H = np.zeros((m, m))
    for a in range(n_prime, m):
        fa = math.factorial(a) / math.factorial(a - n_prime)
        for b in range(n_prime, m):
            fb = math.factorial(b) / math.factorial(b - n_prime)
            k = a + b - 2 * n_prime + 1
            H[a, b] = fa * fb * tau ** k / k
    return H


def refine(spec: RefineSpec) -> SplineTrajectory:
    """Solve the refinement QP and return the smoothed spline.

    Raises SingularKktError for segment times below 1e-6 or a KKT matrix
    numpy cannot factor.
    """
    np_ = spec.n_prime
    m = 2 * np_
    times = spec.seg_times
    if any(tau < MIN_SEGMENT_TIME for tau in times):
        raise SingularKktError("segment times below the minimum")
    nseg = len(times)
    nvar = nseg * m

    A, b = refine_constraints(spec)
    ncon = A.shape[0]

    H = np.zeros((nvar, nvar))
    for k, tau in enumerate(times):
        H[k * m:(k + 1) * m, k * m:(k + 1) * m] = _hessian_block(np_, m, tau)

    kkt = np.zeros((nvar + ncon, nvar + ncon))
    kkt[:nvar, :nvar] = 2.0 * H
    kkt[:nvar, nvar:] = A.T
    kkt[nvar:, :nvar] = A
    full_rhs = np.zeros((nvar + ncon, 3))
    full_rhs[nvar:, :] = b
    try:
        sol = np.linalg.solve(kkt, full_rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKktError(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularKktError("KKT solution is not finite")

    coeffs = sol[:nvar]
    segments = []
    for k in range(nseg):
        block = coeffs[k * m:(k + 1) * m]
        segments.append(tuple(Poly1(tuple(float(c) for c in block[:, ax]))
                              for ax in range(3)))
    return SplineTrajectory(np_, tuple(times), tuple(segments))


def _lifted_state(s: State, control: Vec3, n_prime: int) -> State:
    """Extend a plan state to order n_prime.

    The derivative at the plan's control order is the segment's constant
    control; anything above that starts or ends at zero.
    """
    derivs = list(s.derivs[:n_prime])
    if len(derivs) < n_prime:
        derivs.append(control)
    while len(derivs) < n_prime:
        derivs.append((0.0, 0.0, 0.0))
    return State(tuple(derivs))


def waypoints_from_plan(result: PlanResult, n_prime: int = 3) -> RefineSpec:
    """Build the refinement problem matching a solved plan.

    Waypoints are the primitive end positions, segment times their
    durations; boundary states are lifted with the first and last constant
    controls. Raises NotSolvedError for unsolved or empty plans.
    """
    if result.status is not PlanStatus.SOLVED or not result.primitives:
        raise NotSolvedError("refinement needs a solved plan with segments")
    prims = result.primitives
    waypoints = tuple(p.end_state().pos for p in prims)
    seg_times = tuple(p.tau for p in prims)
    s0 = _lifted_state(prims[0].x0, prims[0].u, n_prime)
    sg = _lifted_state(prims[-1].end_state(), prims[-1].u, n_prime)
    return RefineSpec(n_prime, waypoints, seg_times, s0, sg)


def spline_effort(traj: SplineTrajectory) -> float:
    """Objective value: integral of the squared order-th derivative."""
    total = 0.0
    for tau, polys in zip(traj.seg_times, traj.segments):
        for p in polys:
            total += integral_of_square(p.derivative(traj.order),
                                        Interval(0.0, tau))
    return total


def refine_constraints(spec: RefineSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (A, b) equality system of the QP, exposed for audits."""
    np_ = spec.n_prime
    m = 2 * np_
    nseg = len(spec.seg_times)
    nvar = nseg * m
    rows = []
    rhs = []
    for i in range(np_):
        row = np.zeros(nvar)
        row[:m] = _deriv_row(m, i, 0.0)
        rows.append(row)
        rhs.append(spec.s0.derivs[i])
    for k in range(nseg - 1):
        base = k * m
        tau = spec.seg_times[k]
        row = np.zeros(nvar)
        row[base:base + m] = _deriv_row(m, 0, tau)
        rows.append(row)
        rhs.append(spec.waypoints[k])
        for i in range(np_):
            row = np.zeros(nvar)
            row[base:base + m] = _deriv_row(m, i, tau)
            row[base + m:base + 2 * m] = -_deriv_row(m, i, 0.0)
            rows.append(row)
            rhs.append((0.0, 0.0, 0.0))
    for i in range(np_):
        row = np.zeros(nvar)
        row[-m:] = _deriv_row(m, i, spec.seg_times[-1])
        rows.append(row)
        rhs.append(spec.sg.derivs[i])
    return np.vstack(rows), np.asarray(rhs)
