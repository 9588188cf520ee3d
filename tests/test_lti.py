"""Tests for the chain-of-integrators model and the minimum-effort solver.

Oracles used here and nowhere in the implementation:
  - composite Simpson quadrature for the Gramian integral,
  - the printed closed-form costs for velocity and acceleration control,
  - a boundary-interpolation + dense-quadrature oracle for the order-3
    fixed-horizon cost (the degree-5 interpolant through six boundary
    conditions is unique, so its jerk integral is the optimal effort),
  - grid-scan + golden-section minimization for the optimal horizon, the
    grid evaluated by the Gramian quadratic form with numpy's inverse,
  - for order 2, the Gramian quadratic form solved with numpy and the
    printed acceleration-control cost scanned over log-spaced horizons,
  - a 50-digit Decimal Newton solve of one order-2 stationarity quartic.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import kinoplan.lti as lti
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


def _total_on(x0, xf, rho, ts):
    """Effort plus rho * T at each horizon of ts: the Gramian quadratic form
    with the numpy inverse of the unit-horizon Gramian, vectorized."""
    n = x0.order
    ts = np.asarray(ts, dtype=float)
    d0, df = np.array(x0.derivs), np.array(xf.derivs)
    z = np.empty((len(ts), 3 * n))
    for i in range(n):
        reach = sum(np.outer(ts ** (j - i) / math.factorial(j - i), d0[j])
                    for j in range(i, n))
        z[:, 3 * i:3 * i + 3] = (df[i] - reach) / ts[:, None] ** (n - i - 0.5)
    winv = np.linalg.inv(gramian(n, 1.0))
    return np.einsum("ti,ij,tj->t", z, winv, z) + rho * ts


def _oracle_opt_T(x0, xf, rho, lo=1e-3, hi=60.0):
    def cost(T):
        return effort_between(x0, xf, T) + rho * T

    # Coarse grid scan to bracket the global minimum, then golden section.
    ts = np.linspace(lo, hi, 2000)
    i = int(np.argmin(_total_on(x0, xf, rho, ts)))
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(len(ts) - 1, i + 1)])
    return _golden_min(cost, a, b), cost


def _order3_golden_miss():
    """Pair 37 of Random(1003) with components from U(-3, 3) and
    rho = 10^U(-1, 1). Its cost has a local minimum of 33.79 near T = 8.0
    and the global one of 32.70 near T = 2.61; doubling from the floor and
    then golden section stopped at the local one."""
    rng = random.Random(1003)
    for _ in range(38):
        x0 = rand_state(rng, 3, span=3.0)
        xf = rand_state(rng, 3, span=3.0)
        rho = 10.0 ** rng.uniform(-1.0, 1.0)
    return x0, xf, rho


@pytest.mark.parametrize("n", [2, 3])
def test_optimal_time_matches_scan_oracle(n):
    # At order 3, odd trials get a floor above the scan's free minimizer,
    # and one pair whose cost in T has two local minima comes last.
    rng = random.Random(59 + n)
    trials = [(rand_state(rng, n), rand_state(rng, n), rng.uniform(0.5, 20.0))
              for _ in range(100 if n == 2 else 300)]
    if n == 3:
        trials.append(_order3_golden_miss())
    active = 0
    for k, (x0, xf, rho) in enumerate(trials):
        t_lower = 0.0
        if n == 3 and k % 2:
            t_lower = _oracle_opt_T(x0, xf, rho)[0] * rng.uniform(1.1, 4.0)
        sol = lqmt_optimal_time(x0, xf, rho, t_lower)
        active += t_lower > 0.0 and sol.T == t_lower
        t_star, cost = _oracle_opt_T(x0, xf, rho, lo=max(t_lower, 1e-3),
                                     hi=max(60.0, 4.0 * t_lower))
        # Compare costs first; flat minima can put T slightly off while
        # the achieved objective is identical to tight tolerance.
        assert sol.cost_total <= cost(t_star) + 1e-6 * (1 + cost(t_star))
        assert sol.T == pytest.approx(t_star, abs=1e-6, rel=1e-6)
    if n == 3:
        assert active >= 140


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


# ------------------------------------------------- order-2 closed forms


def test_order2_effort_matches_gramian_solve():
    rng = random.Random(81)
    for _ in range(1000):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        T = 10.0 ** rng.uniform(-3.0, 3.0)
        F, _ = state_transition(2, T)
        delta = xf.as_vector() - F @ x0.as_vector()
        want = float(delta @ np.linalg.solve(gramian(2, T), delta))
        assert effort_between(x0, xf, T) == pytest.approx(want, rel=1e-10)


def _printed_total(x0, xf, rho, ts):
    """Printed order-2 cost plus rho * T, vectorized over horizons ts."""
    p0, v0 = (np.array(d) for d in x0.derivs)
    pf, vf = (np.array(d) for d in xf.derivs)
    ts = np.asarray(ts, dtype=float)
    dp = pf[None, :] - p0[None, :] - ts[:, None] * v0[None, :]
    dv = vf - v0
    return (12.0 * (dp * dp).sum(1) / ts ** 3 - 12.0 * (dp @ dv) / ts ** 2
            + 4.0 * (dv @ dv) / ts + rho * ts)


def _scan_min(x0, xf, rho, lo, hi=1e3):
    """Minimum over lo <= T <= hi: a log-spaced scan, every local minimum of
    the scan refined by golden section, and the endpoint lo itself."""
    ts = np.geomspace(lo, hi, 4000)
    vals = _printed_total(x0, xf, rho, ts)

    def f(t):
        return float(_printed_total(x0, xf, rho, [t])[0])

    best = float(vals[0])
    for i in range(1, len(ts) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            t = _golden_min(f, float(ts[i - 1]), float(ts[i + 1]))
            best = min(best, f(t), float(vals[i]))
    return best


def _check_order2_against_scan(seed, log_rho, hi, scan_hi):
    """1000 random order-2 pairs with rho = 10^U(log_rho). Odd pairs get a
    floor above the free minimizer of a scan up to T = hi; the minimum is
    scanned up to T = scan_hi."""
    rng = random.Random(seed)
    active = 0
    for k in range(1000):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        rho = 10.0 ** rng.uniform(*log_rho)
        t_lower = 0.0
        if k % 2:
            ts = np.geomspace(1e-3, hi, 4000)
            t_free = float(ts[np.argmin(_printed_total(x0, xf, rho, ts))])
            t_lower = t_free * rng.uniform(1.1, 4.0)
            active += lqmt_optimal_time(x0, xf, rho, t_lower).T == t_lower
        want = _scan_min(x0, xf, rho, max(t_lower, 1e-3), scan_hi)
        got = lqmt_optimal_cost(x0, xf, rho, t_lower)
        assert got == pytest.approx(want, rel=1e-9)
    assert active >= 480


def test_order2_optimal_cost_matches_dense_scan():
    _check_order2_against_scan(83, (-1.0, 1.0), 1e3, 1e3)


def test_order2_tiny_rho_optimal_cost_matches_dense_scan():
    # Below LEADING_COEFF_CUTOFF the minimum sits near T = 2 sqrt(vv / rho),
    # up to about 1e11 here, far beyond any root of the stripped quartic.
    _check_order2_against_scan(97, (-20.0, -9.0), 1e13, 1e14)


def test_order2_tiny_rho_finds_the_global_minimum():
    # The stripped quartic -4 (T - 3)^2 has a double root at T = 3, where
    # the effort 12/T^3 - 12/T^2 + 4/T reads 4/9; the minimum with rho T
    # lies near T = 2 / sqrt(rho), where the cost is about 4 sqrt(rho).
    x0 = State.of((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    xf = State.of((0.0, 1.0, 0.0), (0.0, 0.0, 0.0))
    rho = 1e-13
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(rho)
        t = 2 / r.sqrt()
        for _ in range(60):  # Newton on rho T^4 - 4 T^2 + 24 T - 36
            t -= ((r * t ** 4 - 4 * t ** 2 + 24 * t - 36)
                  / (4 * r * t ** 3 - 8 * t + 24))
        want = float(12 / t ** 3 - 12 / t ** 2 + 4 / t + r * t)
        t_star = float(t)
    assert want == pytest.approx(1.2649e-6, rel=1e-4)
    sol = lqmt_optimal_time(x0, xf, rho)
    assert sol.cost_total == pytest.approx(want, rel=1e-6)
    assert sol.T == pytest.approx(t_star, rel=1e-6)
    assert lqmt_optimal_cost(x0, xf, rho) == sol.cost_total


def test_order2_tiny_rho_takes_real_roots_fallback(monkeypatch):
    calls = []
    real_roots = lti.real_roots

    def counting_real_roots(p, *args):
        calls.append(p)
        return real_roots(p, *args)

    monkeypatch.setattr(lti, "real_roots", counting_real_roots)
    # Coasting at unit speed meets xf exactly at T = 1, so the effort there
    # is zero; with rho far below the cutoff the quartic term is stripped.
    x0 = State.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    xf = State.of((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    rho = 1e-14
    sol = lqmt_optimal_time(x0, xf, rho)
    assert len(calls) == 1 and calls[0].coeffs[-1] == rho
    assert sol.T == pytest.approx(1.0, rel=1e-12)
    assert lqmt_optimal_cost(x0, xf, rho) == sol.cost_total
    assert len(calls) == 2
    # An ordinary rho takes the depressed-quartic path instead.
    lqmt_optimal_cost(x0, xf, 1.0)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_tiny_rho_keeps_the_large_horizon(n):
    # Rest to rest the effort is c |dp|^2 / T^(2n-1), with c = 12 at order
    # 2 and 720 at order 3, so S(T) = rho T^2n - (2n-1) c |dp|^2. A
    # stripped rho T^2n term would leave no root at all.
    x0 = State.rest(n)
    xf = State.rest(n, (1.0, 0.0, 0.0))
    rho = 1e-14
    c = {2: 12.0, 3: 720.0}[n]
    sol = lqmt_optimal_time(x0, xf, rho)
    assert sol.T == pytest.approx(((2 * n - 1) * c / rho) ** (0.5 / n),
                                  rel=1e-9)
    end = sol.state_at(sol.T, n)
    for got, want in zip(end.derivs, xf.derivs):
        assert got == pytest.approx(want, abs=1e-9)
    assert sol.cost_total == pytest.approx(2 * n / (2 * n - 1) * rho * sol.T,
                                           rel=1e-9)
    assert lqmt_optimal_cost(x0, xf, rho) == sol.cost_total


@pytest.mark.parametrize("eps", [3e-14, 1e-13, 1e-12, 1e-11])
@pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
def test_order2_nearly_biquadratic_quartic_keeps_its_roots(eps, rho):
    # The quartic's linear coefficient 24 eps sits just above the
    # biquadratic cutoff, where the Ferrari resolvent's small root is below
    # the closed form's rounding. At eps = 1e-13 and rho = 1 the scan's
    # minimum is 4.771 at T = 2.885; losing the root gave 8.485 at 1.414.
    x0 = State.of((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    xf = State.of((1.0, eps, 0.0), (0.0, 0.0, 0.0))
    want = _scan_min(x0, xf, rho, 1e-3)
    assert lqmt_optimal_cost(x0, xf, rho) == pytest.approx(want, rel=1e-9)
    if (eps, rho) == (1e-13, 1.0):
        assert want == pytest.approx(4.771221, rel=1e-6)
        assert lqmt_optimal_time(x0, xf, rho).T == pytest.approx(2.885231,
                                                                 rel=1e-6)


def test_stationarity_at_order2_is_the_printed_quartic():
    # rho T^4 - 4 vv T^2 + 24 vs T - 36 pp, from the module docstring.
    rng = random.Random(89)
    for _ in range(200):
        x0 = rand_state(rng, 2)
        xf = rand_state(rng, 2)
        rho = rng.uniform(0.1, 10.0)
        (p0, v0), (pf, vf) = (np.array(x.derivs) for x in (x0, xf))
        dp = pf - p0
        pp, vs = dp @ dp, (v0 + vf) @ dp
        vv = v0 @ v0 + v0 @ vf + vf @ vf
        want = (-36.0 * pp, 24.0 * vs, -4.0 * vv, 0.0, rho)
        got = lti._stationarity(x0, xf, rho)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * 36.0 * pp)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_gramian_inverse_is_exact(n):
    w = [[Fraction(1, (a + b + 1) * math.factorial(a) * math.factorial(b))
          for b in range(n - 1, -1, -1)] for a in range(n - 1, -1, -1)]
    winv = [[Fraction(c) for c in row] for row in lti._UNIT_GRAMIAN_INV[n]]
    assert all(sum(w[i][k] * winv[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_constructors_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        State.of((bad, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        State.of((0.0, 0.0, 0.0), (0.0, 0.0, bad))
    with pytest.raises(ValueError, match="finite"):
        State.rest(2, (0.0, bad, 0.0))
    # The plain constructor stays unchecked for the search's hot path.
    assert State(((bad, 0.0, 0.0),)).pos[0] is bad
