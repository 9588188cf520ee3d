"""Constant-control motion primitives and the state lattice they induce.

Applying a constant control u for a fixed duration tau maps a lattice state
to another lattice state: each derivative of order i moves on a grid with
spacing d_u * tau**(n-i) / (n-i)!. Keys are computed by rounding relative to
the search start state, which keeps the bookkeeping exact even though states
are stored as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .lti import State, Vec3
from .polyalg import Poly1

# Orders the lattice search supports; pure velocity control stays in lti.
SEARCH_ORDERS = (2, 3)

LatticeKey = tuple[tuple[int, int, int], ...]


class InvalidDimsError(ValueError):
    """Control-set dimensionality must be 2 or 3."""


@dataclass(frozen=True)
class ControlSet:
    """All (2*mu + 1)**dims constant controls on the axis-aligned grid."""

    u_max: float
    mu: int
    dims: int
    d_u: float
    controls: tuple[Vec3, ...]


def make_control_set(u_max: float, mu: int, dims: int = 3) -> ControlSet:
    """Uniform control grid with step u_max / mu per axis.

    dims = 2 keeps the third component at zero for planar problems. The
    ordering is deterministic: x varies slowest, z fastest, each axis from
    -u_max to +u_max. The zero control is always a member.
    """
    if dims not in (2, 3):
        raise InvalidDimsError(f"dims must be 2 or 3, got {dims}")
    if mu < 1:
        raise InvalidDimsError("mu must be at least 1")
    if not u_max > 0.0:
        raise InvalidDimsError("u_max must be positive")
    d_u = u_max / mu
    steps = [k * d_u for k in range(-mu, mu + 1)]
    z_steps = steps if dims == 3 else [0.0]
    controls = tuple((ux, uy, uz)
                     for ux in steps for uy in steps for uz in z_steps)
    return ControlSet(u_max, mu, dims, d_u, controls)


class MotionPrimitive(NamedTuple):
    """One lattice edge: constant control u held for duration tau.

    The position polynomials are derived from x0 and u on access rather
    than stored, so a plan holds four fields per edge.
    """

    x0: State
    u: Vec3
    tau: float
    cost: float

    @property
    def axis_polys(self) -> tuple[Poly1, Poly1, Poly1]:
        """Position polynomial per axis: the Taylor expansion of the chain
        of integrators, degree n, with coefficient n being u / n!."""
        n = self.x0.order
        inv_nf = 1.0 / math.factorial(n)
        polys = []
        for ax in range(3):
            coeffs = [self.x0.derivs[j][ax] / math.factorial(j)
                      for j in range(n)]
            coeffs.append(self.u[ax] * inv_nf)
            polys.append(Poly1(tuple(coeffs)))
        return (polys[0], polys[1], polys[2])

    def state_at(self, t: float) -> State:
        return fold_state(self.x0, self.state_terms(t))

    def state_terms(self, t: float) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Per derivative order i and axis, the addends of state_at(t).

        Derivative i at t is u t**(n-i)/(n-i)! plus x0's own derivative i
        plus x0's higher derivatives j times t**(j-i)/(j-i)!, added in that
        order; fold_state(x0, terms) repeats the sums. The terms leave x0's
        own value out, so the position terms depend only on the control and
        x0's higher derivatives.
        """
        n = self.x0.order
        out = []
        for i in range(n):
            row = []
            for ax in range(3):
                terms = [self.u[ax] * t ** (n - i) / math.factorial(n - i)]
                for j in range(i + 1, n):
                    terms.append(self.x0.derivs[j][ax] * t ** (j - i)
                                 / math.factorial(j - i))
                row.append(tuple(terms))
            out.append(tuple(row))
        return tuple(out)

    def end_state(self) -> State:
        return self.state_at(self.tau)


def fold_terms(x: float, terms: tuple[float, ...]) -> float:
    """terms[0] + x, then each later term, added left to right."""
    val = terms[0] + x
    for c in terms[1:]:
        val += c
    return val


def fold_state(x0: State, terms) -> State:
    """The state whose derivative i on axis ax sums x0's and terms[i][ax]."""
    return State(tuple(tuple(fold_terms(x, tt) for x, tt in zip(own, row))
                       for own, row in zip(x0.derivs, terms)))


def propagate(x0: State, u, tau: float, rho: float) -> MotionPrimitive:
    """Build the primitive that applies constant control u to x0 for tau.

    The edge cost is (|u|^2 + rho) * tau.
    """
    n = x0.order
    if n not in SEARCH_ORDERS:
        raise ValueError(f"lattice propagation needs order in {SEARCH_ORDERS}")
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    cost = (ux * ux + uy * uy + uz * uz + rho) * tau
    return MotionPrimitive(x0, (ux, uy, uz), tau, cost)


def lattice_resolutions(n: int, d_u: float, tau: float) -> tuple[float, ...]:
    """Grid spacing per derivative order, position first."""
    return tuple(d_u * tau ** (n - i) / math.factorial(n - i) for i in range(n))


def lattice_key(s: State, d_u: float, tau: float, origin: State) -> LatticeKey:
    """Integer lattice coordinates of s relative to the search origin."""
    n = s.order
    key = []
    for i in range(n):
        res = d_u * tau ** (n - i) / math.factorial(n - i)
        si = s.derivs[i]
        oi = origin.derivs[i]
        key.append((round((si[0] - oi[0]) / res),
                    round((si[1] - oi[1]) / res),
                    round((si[2] - oi[2]) / res)))
    return tuple(key)
