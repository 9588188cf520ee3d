"""Tests for polynomial evaluation, differentiation, roots and extrema.

Root finding is checked against numpy.roots as an oracle on random
coefficient draws, on top of a handful of frozen closed-form cases. Above
degree 4 real_roots itself takes numpy.roots, so there the independent
checks are products of known linear factors and sign-change counts.
"""

import math
import random

import numpy as np
import pytest

from kinoplan.polyalg import (
    Interval,
    Poly1,
    ZeroPolynomialError,
    extrema_on,
    integral_of_square,
    real_roots,
)


def P(*coeffs):
    return Poly1.from_coeffs(coeffs)


# ---------------------------------------------------------------- eval


def test_eval_half_t_squared():
    assert P(0, 0, 0.5).eval(2.0) == 2.0


def test_eval_constant():
    p = P(1)
    for t in (-3.0, 0.0, 17.5):
        assert p.eval(t) == 1.0


def test_eval_cubic():
    assert P(0, 1, 0, -3).eval(1.0) == -2.0


def test_eval_matches_naive_sum():
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 7))]
        p = Poly1.from_coeffs(coeffs)
        t = rng.uniform(-3, 3)
        naive = sum(c * t**k for k, c in enumerate(coeffs))
        assert p.eval(t) == pytest.approx(naive, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------- derivative


def test_derivative_basic():
    assert P(0, 0, 0.5).derivative(1).coeffs == (0.0, 1.0)


def test_derivative_order_zero_is_identity():
    p = P(3, 2, 1)
    assert p.derivative(0).coeffs == p.coeffs


def test_derivative_third_of_cubic():
    assert P(0, 0, 0, 1).derivative(3).coeffs == (6.0,)


def test_derivative_beyond_degree_is_zero():
    d = P(1, 2, 3).derivative(5)
    assert d.is_zero()
    assert d.eval(1.3) == 0.0


def test_derivative_composes():
    rng = random.Random(3)
    for _ in range(30):
        coeffs = [rng.uniform(-4, 4) for _ in range(rng.randint(1, 8))]
        p = Poly1.from_coeffs(coeffs)
        a = rng.randint(0, 3)
        b = rng.randint(0, 3)
        lhs = p.derivative(a).derivative(b).coeffs
        rhs = p.derivative(a + b).coeffs
        assert len(lhs) == len(rhs)
        for x, y in zip(lhs, rhs):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- roots


def test_roots_quadratic():
    assert real_roots(P(-1, 0, 1)) == pytest.approx([-1.0, 1.0])


def test_roots_depressed_cubic():
    r = real_roots(P(0, -3, 0, 1))
    assert r == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)], abs=1e-9)


def test_roots_quartic_time_equation():
    # 36 T^4 - 36 = 0 has real roots exactly at +-1.
    r = real_roots(P(-36, 0, 0, 0, 36))
    assert r == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        real_roots(P(0, 0, 0))


def test_roots_nonzero_constant_is_empty():
    assert real_roots(P(5.0)) == []


def test_roots_tiny_leading_coefficient_stripped():
    # Quartic term far below the coefficient scale: treated as the quadratic.
    r = real_roots(P(-1, 0, 1, 0, 1e-15))
    assert r == pytest.approx([-1.0, 1.0], abs=1e-6)


def _oracle_real_roots(coeffs):
    """Distinct real roots via numpy's companion-matrix solver."""
    rr = np.roots(list(reversed(coeffs)))
    out = []
    for z in rr:
        if abs(z.imag) < 1e-7 * (1.0 + abs(z.real)):
            out.append(z.real)
    out.sort()
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-6 * (1.0 + abs(r)):
            dedup.append(r)
    return dedup


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_roots_match_numpy_oracle(degree):
    rng = random.Random(100 + degree)
    for _ in range(60):
        coeffs = [rng.uniform(-3, 3) for _ in range(degree + 1)]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 0.5 if coeffs[-1] >= 0 else -0.5
        p = Poly1.from_coeffs(coeffs)
        got = real_roots(p)
        want = _oracle_real_roots(coeffs)
        scale = 1.0 + max(abs(c) for c in coeffs)
        # Residual bound holds for every reported root.
        for r in got:
            assert abs(p.eval(r)) <= 1e-7 * scale
        # Same distinct real roots as the oracle (companion matrices can
        # blur near-multiple roots, so match with a loose pairing radius).
        assert len(got) == len(want), (coeffs, got, want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=5e-5, rel=1e-6)


def _from_roots(roots):
    """The monic polynomial with exactly the given roots."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return Poly1.from_coeffs(coeffs)


def test_roots_from_known_factorizations():
    # Degrees 5 to 7 take numpy.roots, so these products of known linear
    # factors are their oracle independent of numpy.
    rng = random.Random(42)
    checked = set()
    for _ in range(300):
        k = rng.randint(2, 7)
        roots = sorted(rng.uniform(-2, 2) for _ in range(k))
        # Keep roots separated so multiplicity handling stays out of scope.
        if any(b - a < 0.05 for a, b in zip(roots, roots[1:])):
            continue
        got = real_roots(_from_roots(roots))
        assert got == pytest.approx(roots, abs=1e-6)
        checked.add(k)
    assert checked == set(range(2, 8))


def test_roots_keep_a_double_root_above_degree_4():
    # Rounding splits the double root at 1 into a complex pair whose
    # imaginary parts are about 2e-8.
    got = real_roots(_from_roots((1.0, 1.0, -1.0, 2.0, -2.0)))
    assert got == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-7)


def test_roots_nearly_biquadratic_quartic():
    # The depressed form's linear coefficient is -7e-14, just above the
    # biquadratic cutoff; the Ferrari resolvent's small root, 2.6e-27,
    # read as -1.4e-17 in closed form and the quartic lost both roots.
    coeffs = (-2.745098039215529, -1.558028616851063, 13.651298357180433,
              -24.186539480661622, 12.0932697403315)
    got = real_roots(Poly1(coeffs))
    assert got == pytest.approx(_oracle_real_roots(coeffs), abs=1e-9)
    assert got == pytest.approx([-0.316306690, 1.316306690], abs=1e-8)


def test_root_count_vs_sign_changes():
    rng = random.Random(7)
    for _ in range(40):
        coeffs = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 7))]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        p = Poly1.from_coeffs(coeffs)
        got = real_roots(p)
        ts = np.linspace(-20, 20, 4001)
        vals = [p.eval(t) for t in ts]
        sign_changes = sum(
            1 for a, b in zip(vals, vals[1:]) if a * b < 0
        )
        assert sign_changes <= len(got)


# ------------------------------------------------------------- extrema


def test_extrema_cubic():
    lo, hi = extrema_on(P(0, -3, 0, 1), Interval(0.0, 2.0))
    assert (lo, hi) == pytest.approx((-2.0, 2.0))


def test_extrema_constant():
    assert extrema_on(P(5), Interval(-1.0, 3.0)) == (5.0, 5.0)


def test_extrema_parabola_vertex():
    lo, hi = extrema_on(P(0, -1, 1), Interval(0.0, 1.0))
    assert (lo, hi) == pytest.approx((-0.25, 0.0))


def test_extrema_bound_dense_samples():
    rng = random.Random(19)
    for _ in range(25):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 7))]
        p = Poly1.from_coeffs(coeffs)
        a = rng.uniform(-2, 2)
        b = a + rng.uniform(0.01, 3)
        lo, hi = extrema_on(p, Interval(a, b))
        scale = 1.0 + max(abs(lo), abs(hi))
        for t in np.linspace(a, b, 1000):
            v = p.eval(float(t))
            assert lo - 1e-9 * scale <= v <= hi + 1e-9 * scale


# --------------------------------------------------- squared integrals


def _simpson(f, a, b, steps=4000):
    h = (b - a) / steps
    acc = f(a) + f(b)
    for i in range(1, steps):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def test_integral_of_square_matches_quadrature():
    rng = random.Random(23)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
        p = Poly1.from_coeffs(coeffs)
        a = rng.uniform(-1, 1)
        b = a + rng.uniform(0.1, 2)
        want = _simpson(lambda t: p.eval(t) ** 2, a, b)
        got = integral_of_square(p, Interval(a, b))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_integral_of_square_is_nonnegative():
    rng = random.Random(29)
    for _ in range(40):
        coeffs = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
        p = Poly1.from_coeffs(coeffs)
        assert integral_of_square(p, Interval(0.0, 1.5)) >= 0.0
