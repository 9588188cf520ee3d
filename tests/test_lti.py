"""Tests for the chain-of-integrators model and the minimum-effort solver.

Oracles used here and nowhere in the implementation:
  - composite Simpson quadrature for the Gramian integral,
  - the printed closed-form costs for velocity and acceleration control,
  - a boundary-interpolation + dense-quadrature oracle for the order-3
    fixed-horizon cost (the degree-5 interpolant through six boundary
    conditions is unique, so its jerk integral is the optimal effort),
  - grid-scan + golden-section minimization for the optimal horizon.
"""

import math
import random

import numpy as np
import pytest

from kinoplan.lti import (
    BoundaryPair,
    NoFiniteMinimumError,
    SingularGramianError,
    State,
    effort_between,
    gramian,
    lqmt_fixed_time,
    lqmt_optimal_cost,
    lqmt_optimal_time,
    state_transition,
)


def rand_state(rng, n, span=2.0):
    return State.of(*[tuple(rng.uniform(-span, span) for _ in range(3))
                      for _ in range(n)])


# ----------------------------------------------------- state transition


def test_transition_identity_at_zero():
    F, G = state_transition(2, 0.0)
    assert np.allclose(F, np.eye(6))
    assert np.allclose(G, np.zeros((6, 3)))


def test_transition_order2_unit_time():
    F, G = state_transition(2, 1.0)
    assert np.allclose(F[0:3, 0:3], np.eye(3))
    assert np.allclose(F[0:3, 3:6], np.eye(3))
    assert np.allclose(G[0:3, :], 0.5 * np.eye(3))
    assert np.allclose(G[3:6, :], np.eye(3))


def test_transition_order3_top_right_block():
    F, _ = state_transition(3, 2.0)
    assert np.allclose(F[0:3, 6:9], 2.0 * np.eye(3))


def test_transition_semigroup():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(10):
            a = rng.uniform(0, 2)
            b = rng.uniform(0, 2)
            Fa, _ = state_transition(n, a)
            Fb, _ = state_transition(n, b)
            Fab, _ = state_transition(n, a + b)
            assert np.allclose(Fa @ Fb, Fab, atol=1e-12)


# --------------------------------------------------------------gramian


def test_gramian_order1_is_time():
    for T in (0.25, 1.0, 3.0):
        W = gramian(1, T)
        assert np.allclose(W, T * np.eye(3))


def test_gramian_order2_unit():
    W = gramian(2, 1.0)
    per_axis = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    for ax in range(3):
        idx = [ax, 3 + ax]
        assert np.allclose(W[np.ix_(idx, idx)], per_axis)


def test_gramian_order2_t2():
    W = gramian(2, 2.0)
    per_axis = np.array([[8 / 3, 2.0], [2.0, 2.0]])
    idx = [0, 3]
    assert np.allclose(W[np.ix_(idx, idx)], per_axis)


def _gramian_simpson(n, T, steps=10_000):
    A = np.zeros((3 * n, 3 * n))
    for i in range(n - 1):
        A[3 * i:3 * i + 3, 3 * (i + 1):3 * (i + 1) + 3] = np.eye(3)
    B = np.zeros((3 * n, 3))
    B[3 * (n - 1):, :] = np.eye(3)

    def integrand(t):
        F, _ = state_transition(n, t)
        M = F @ B
        return M @ M.T

    h = T / steps
    acc = integrand(0.0) + integrand(T)
    for i in range(1, steps):
        acc = acc + integrand(i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
def test_gramian_matches_simpson(n, T):
    W = gramian(n, T)
    W_num = _gramian_simpson(n, T, steps=2000)
    assert np.allclose(W, W_num, rtol=1e-8, atol=1e-10)


# ------------------------------------------------------------fixed time


def test_fixed_time_velocity_unit_shift():
    x0 = State.of((0.0, 0.0, 0.0))
    xf = State.of((1.0, 0.0, 0.0))
    sol = lqmt_fixed_time(BoundaryPair(x0, xf, 1.0), rho=0.0)
    assert sol.cost_effort == pytest.approx(1.0, rel=1e-12)
    # Constant unit velocity along x.
    vx = sol.axis_polys[0].derivative(1)
    assert vx.eval(0.3) == pytest.approx(1.0, rel=1e-10)


def test_fixed_time_rest_to_rest_acceleration():
    x0 = State.rest(2)
    xf = State.of((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    sol = lqmt_fixed_time(BoundaryPair(x0, xf, 1.0), rho=0.0)
    assert sol.cost_effort == pytest.approx(12.0, rel=1e-10)
    # Classical 3t^2 - 2t^3 profile along x.
    px = sol.axis_polys[0]
    assert px.coeffs == pytest.approx((0.0, 0.0, 3.0, -2.0), abs=1e-9)


def test_fixed_time_boundary_satisfaction():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(30):
            x0 = rand_state(rng, n)
            xf = rand_state(rng, n)
            T = rng.uniform(0.3, 4.0)
            sol = lqmt_fixed_time(BoundaryPair(x0, xf, T), rho=0.5)
            for ax in range(3):
                p = sol.axis_polys[ax]
                for k in range(n):
                    d = p.derivative(k)
                    assert d.eval(0.0) == pytest.approx(
                        x0.derivs[k][ax], abs=1e-8)
                    assert d.eval(T) == pytest.approx(
                        xf.derivs[k][ax], abs=1e-8)


def test_fixed_time_cost_total_accounting():
    rng = random.Random(71)
    x0 = rand_state(rng, 2)
    xf = rand_state(rng, 2)
    sol = lqmt_fixed_time(BoundaryPair(x0, xf, 1.5), rho=2.0)
    assert sol.cost_total == sol.cost_effort + 2.0 * 1.5


def test_fixed_time_cost_velocity_closed_form():
    # Printed form for velocity control: |pf - p0|^2 / T + rho T.
    rng = random.Random(31)
    for _ in range(100):
        x0 = rand_state(rng, 1)
        xf = rand_state(rng, 1)
        T = rng.uniform(0.2, 5.0)
        sol = lqmt_fixed_time(BoundaryPair(x0, xf, T), rho=0.0)
        dp = [xf.derivs[0][i] - x0.derivs[0][i] for i in range(3)]
        want = sum(d * d for d in dp) / T
        assert sol.cost_effort == pytest.approx(want, rel=1e-9)


def test_fixed_time_cost_acceleration_closed_form():
    # Printed form for acceleration control, with dp the position mismatch
    # after coasting (pf - p0 - v0 T) and dv the velocity mismatch:
    #   12 |dp|^2 / T^3 - 12 dp.dv / T^2 + 4 |dv|^2 / T.
    rng = random.Random(37)
    for _ in range(100):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        T = rng.uniform(0.2, 5.0)
        sol = lqmt_fixed_time(BoundaryPair(x0, xf, T), rho=0.0)
        dp = [xf.derivs[0][i] - x0.derivs[0][i] - x0.derivs[1][i] * T
              for i in range(3)]
        dv = [xf.derivs[1][i] - x0.derivs[1][i] for i in range(3)]
        want = (12 * sum(d * d for d in dp) / T**3
                - 12 * sum(a * b for a, b in zip(dp, dv)) / T**2
                + 4 * sum(d * d for d in dv) / T)
        assert sol.cost_effort == pytest.approx(want, rel=1e-9)


def _jerk_cost_oracle(x0, xf, T):
    """Unique degree-5 interpolant through the six boundary conditions,
    effort integrated with dense Simpson. Independent of the implementation
    path (no Gramian, no normalized time)."""
    total = 0.0
    for ax in range(3):
        A = np.zeros((6, 6))
        b = np.zeros(6)
        for k in range(3):
            # k-th derivative at t=0: k! * c_k
            A[k, k] = math.factorial(k)
            b[k] = x0.derivs[k][ax]
            # k-th derivative at t=T
            for j in range(k, 6):
                A[3 + k, j] = math.factorial(j) / math.factorial(j - k) \
                    * T ** (j - k)
            b[3 + k] = xf.derivs[k][ax]
        c = np.linalg.solve(A, b)

        def jerk(t, c=c):
            return 6 * c[3] + 24 * c[4] * t + 60 * c[5] * t * t

        steps = 2000
        h = T / steps
        acc = jerk(0.0) ** 2 + jerk(T) ** 2
        for i in range(1, steps):
            acc += jerk(i * h) ** 2 * (4 if i % 2 else 2)
        total += acc * h / 3.0
    return total


def test_fixed_time_jerk_cost_matches_collocation_oracle():
    rng = random.Random(41)
    for _ in range(20):
        x0 = rand_state(rng, 3)
        xf = rand_state(rng, 3)
        sol = lqmt_fixed_time(BoundaryPair(x0, xf, 1.7), rho=0.0)
        want = _jerk_cost_oracle(x0, xf, 1.7)
        assert sol.cost_effort == pytest.approx(want, rel=1e-5)


def test_fixed_time_rejects_tiny_horizon():
    x0 = State.rest(2)
    xf = State.of((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(SingularGramianError):
        lqmt_fixed_time(BoundaryPair(x0, xf, 1e-9), rho=0.0)


def test_effort_between_agrees_with_fixed_time():
    rng = random.Random(43)
    for n in (1, 2, 3):
        for _ in range(20):
            x0 = rand_state(rng, n)
            xf = rand_state(rng, n)
            T = rng.uniform(0.2, 3.0)
            sol = lqmt_fixed_time(BoundaryPair(x0, xf, T), rho=0.0)
            assert effort_between(x0, xf, T) == pytest.approx(
                sol.cost_effort, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------optimal time


def test_optimal_time_accel_rest_to_rest_unit():
    # Minimize 12/T^3 + 36 T: stationary at T = 1, cost 12 + 36 = 48.
    x0 = State.rest(2)
    xf = State.of((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    sol = lqmt_optimal_time(x0, xf, rho=36.0)
    assert sol.T == pytest.approx(1.0, abs=1e-9)
    assert sol.cost_total == pytest.approx(48.0, rel=1e-9)


def test_optimal_time_velocity_closed_form():
    # Minimize 1/T + 4T: T* = 1/2, cost 4.
    x0 = State.of((0.0, 0.0, 0.0))
    xf = State.of((1.0, 0.0, 0.0))
    sol = lqmt_optimal_time(x0, xf, rho=4.0)
    assert sol.T == pytest.approx(0.5, rel=1e-12)
    assert sol.cost_total == pytest.approx(4.0, rel=1e-12)


def test_optimal_time_bound_active():
    rng = random.Random(53)
    for _ in range(10):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        free = lqmt_optimal_time(x0, xf, rho=1.0)
        bound = 10.0 * free.T
        sol = lqmt_optimal_time(x0, xf, rho=1.0, T_lower=bound)
        assert sol.T == pytest.approx(bound, rel=1e-12)


def test_optimal_time_rejects_nonpositive_rho():
    x0 = State.rest(2)
    xf = State.of((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(NoFiniteMinimumError):
        lqmt_optimal_time(x0, xf, rho=0.0)


def test_optimal_time_degenerate_pair_is_free():
    x0 = State.of((1.0, 2.0, 0.0), (0.0, 0.0, 0.0))
    sol = lqmt_optimal_time(x0, x0, rho=3.0)
    assert sol.cost_total == 0.0
    assert sol.T == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_optimal_cost_is_optimal_time_total_bit_for_bit(n):
    # Half the pairs get a horizon floor above the free optimum, so the
    # floor is the minimizer there; the other half are unconstrained.
    rng = random.Random(600 + n)
    floored = active = 0
    for k in range(500):
        x0 = rand_state(rng, n)
        xf = rand_state(rng, n)
        rho = rng.uniform(0.05, 5.0)
        t_lower = 0.0
        if k % 2:
            t_lower = lqmt_optimal_time(x0, xf, rho).T * rng.uniform(1.1, 4.0)
            floored += 1
        sol = lqmt_optimal_time(x0, xf, rho, t_lower)
        active += k % 2 and sol.T == t_lower
        assert lqmt_optimal_cost(x0, xf, rho, t_lower) == sol.cost_total
    assert floored == 250
    assert active >= 240
    for t_lower in (0.0, 0.5):
        x0 = rand_state(rng, n)
        assert (lqmt_optimal_cost(x0, x0, 1.0, t_lower)
                == lqmt_optimal_time(x0, x0, 1.0, t_lower).cost_total)
    with pytest.raises(NoFiniteMinimumError):
        lqmt_optimal_cost(x0, x0, 0.0)


def _golden_min(f, a, b, iters=200):
    gr = (math.sqrt(5) - 1) / 2
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-12 * (1 + abs(a)):
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


def _oracle_opt_T(x0, xf, rho, lo=1e-3, hi=60.0):
    def cost(T):
        return effort_between(x0, xf, T) + rho * T

    # Coarse grid scan to bracket the global minimum, then golden section.
    ts = np.linspace(lo, hi, 2000)
    vals = [cost(float(t)) for t in ts]
    i = int(np.argmin(vals))
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(len(ts) - 1, i + 1)])
    return _golden_min(cost, a, b), cost

@pytest.mark.parametrize("n", [2, 3])
def test_optimal_time_matches_scan_oracle(n):
    rng = random.Random(59 + n)
    trials = 100 if n == 2 else 25
    for _ in range(trials):
        x0 = rand_state(rng, n)
        xf = rand_state(rng, n)
        rho = rng.uniform(0.5, 20.0)
        sol = lqmt_optimal_time(x0, xf, rho)
        t_star, cost = _oracle_opt_T(x0, xf, rho)
        # Compare costs first; flat minima can put T slightly off while
        # the achieved objective is identical to tight tolerance.
        assert sol.cost_total <= cost(t_star) + 1e-6 * (1 + cost(t_star))
        assert sol.T == pytest.approx(t_star, abs=1e-6, rel=1e-6)


def test_optimal_time_stationarity():
    rng = random.Random(61)
    for n in (2, 3):
        for _ in range(20):
            x0 = rand_state(rng, n)
            xf = rand_state(rng, n)
            rho = rng.uniform(0.5, 10.0)
            sol = lqmt_optimal_time(x0, xf, rho)
            if sol.T <= 1e-6:
                continue
            h = 1e-5 * sol.T

            def cost(T):
                return effort_between(x0, xf, T) + rho * T

            d = (cost(sol.T + h) - cost(sol.T - h)) / (2 * h)
            assert abs(d) <= 1e-6 * (1 + abs(sol.cost_total))


def test_optimal_time_monotone_tail():
    rng = random.Random(67)
    for n in (1, 2, 3):
        for _ in range(10):
            x0 = rand_state(rng, n)
            xf = rand_state(rng, n)
            rho = rng.uniform(0.5, 10.0)
            sol = lqmt_optimal_time(x0, xf, rho)
            if sol.T <= 1e-6:
                continue
            ts = np.linspace(sol.T, 2 * sol.T, 10)
            vals = [effort_between(x0, xf, float(t)) + rho * float(t)
                    for t in ts]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9 * (1 + abs(a))


def test_optimal_time_dominates_fixed_grid():
    # The reported optimum is never beaten by any grid sample.
    rng = random.Random(73)
    for _ in range(20):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        rho = rng.uniform(0.5, 10.0)
        sol = lqmt_optimal_time(x0, xf, rho)
        for T in np.linspace(0.05, 30.0, 400):
            c = effort_between(x0, xf, float(T)) + rho * float(T)
            assert sol.cost_total <= c + 1e-7 * (1 + c)
