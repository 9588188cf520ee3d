"""Single-axis polynomial algebra: evaluation, derivatives, real roots, extrema.

Everything the planner needs from a polynomial lives here. Coefficients are
monomial, lowest order first, so ``coeffs[k]`` multiplies ``t**k``. Root
finding (_raw_roots) is closed-form through degree 4 and takes the nearly real
eigenvalues of the companion matrix (``numpy.roots``) above it; real_roots then
polishes every root by Newton steps against the original coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Leading coefficients below this fraction of the largest coefficient are
# treated as degenerate and stripped before classifying the degree.
LEADING_COEFF_CUTOFF = 1e-12

# Rounding splits a double root into a complex pair of companion-matrix
# eigenvalues about sqrt(machine epsilon) apart; this tolerance on their
# imaginary part (see real_roots) still keeps it.
DEFAULT_ROOT_TOL = 1e-6


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class Poly1(NamedTuple):
    """Univariate polynomial sum(coeffs[k] * t**k)."""

    coeffs: tuple[float, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "Poly1":
        cs = tuple(float(c) for c in coeffs)
        return cls(cs if cs else (0.0,))

    def degree(self) -> int:
        """Nominal degree, counting any trailing zero coefficients."""
        return len(self.coeffs) - 1

    def eval(self, t: float) -> float:
        """Evaluate by Horner's scheme."""
        return _horner(self.coeffs, t)

    def derivative(self, order: int = 1) -> "Poly1":
        """Return the derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self.coeffs
        for _ in range(order):
            if len(cs) == 1:
                cs = (0.0,)
                break
            cs = tuple(k * cs[k] for k in range(1, len(cs)))
        return Poly1(cs)

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


class Interval(NamedTuple):
    """Closed interval [lo, hi]."""

    lo: float
    hi: float


def _validated(iv: Interval) -> Interval:
    if not (iv.lo <= iv.hi):
        raise ValueError(f"empty interval [{iv.lo}, {iv.hi}]")
    return iv


def _stripped(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Drop degenerate leading coefficients relative to the largest one."""
    big = max(abs(c) for c in coeffs)
    if big == 0.0:
        return (0.0,)
    cs = list(coeffs)
    while len(cs) > 1 and abs(cs[-1]) <= LEADING_COEFF_CUTOFF * big:
        cs.pop()
    return tuple(cs)


def _polish(coeffs: tuple[float, ...], r: float, steps: int = 3) -> float:
    """A few Newton iterations against the original coefficients.

    Keeps the iterate with the smallest residual, so a root that is already
    converged cannot be made worse. Stops early once the residual is zero
    or the iterate is a fixed point, where further steps change nothing.
    """
    dcs = [k * coeffs[k] for k in range(1, len(coeffs))]
    x = r
    fx = _horner(coeffs, x)
    best_r, best_res = x, abs(fx)
    for _ in range(steps):
        if best_res == 0.0:
            break
        d = _horner(dcs, x)
        if d == 0.0:
            break
        x_next = x - fx / d
        if x_next == x:
            break
        x = x_next
        fx = _horner(coeffs, x)
        res = abs(fx)
        if res < best_res:
            best_r, best_res = x, res
    return best_r


def _horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _roots_linear(c: tuple[float, ...]) -> list[float]:
    return [-c[0] / c[1]]


def _roots_quadratic(c: tuple[float, ...]) -> list[float]:
    c0, c1, c2 = c
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-c1 / (2.0 * c2)]
    sq = math.sqrt(disc)
    # Stable form: avoid cancellation between -c1 and the square root.
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else 0.5 * sq
    r1 = q / c2
    r2 = c0 / q if q != 0.0 else 0.0
    return [r1, r2]


def _roots_cubic_depressed(a: float, b: float) -> list[float]:
    """Real roots of x**3 + a*x + b."""
    if a == 0.0 and b == 0.0:
        return [0.0]
    disc = -4.0 * a * a * a - 27.0 * b * b
    if disc > 0.0:
        # Three distinct real roots; a < 0 is implied here.
        m = 2.0 * math.sqrt(-a / 3.0)
        arg = max(-1.0, min(1.0, -4.0 * b / (m * m * m)))
        phi = math.acos(arg) / 3.0
        return [m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
    if disc < 0.0:
        # One real root, Cardano with a cancellation-free cube root.
        s = math.sqrt(b * b / 4.0 + a * a * a / 27.0)
        u = -math.copysign(abs(b) / 2.0 + s, b) if b != 0.0 else s
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        if u == 0.0:
            return [0.0]
        return [u - a / (3.0 * u)]
    # Repeated roots: a double at -3b/(2a) and a simple at 3b/a.
    if a == 0.0:
        return [0.0]
    return [3.0 * b / a, -3.0 * b / (2.0 * a)]


def _roots_cubic(c: tuple[float, ...]) -> list[float]:
    c0, c1, c2, c3 = c
    p = c2 / c3
    q = c1 / c3
    r = c0 / c3
    a = q - p * p / 3.0
    b = 2.0 * p * p * p / 27.0 - p * q / 3.0 + r
    shift = -p / 3.0
    return [x + shift for x in _roots_cubic_depressed(a, b)]


def _roots_quartic(c: tuple[float, ...]) -> list[float]:
    c0, c1, c2, c3, c4 = c
    if c3 == 0.0:
        # Already depressed; the shift below would change only zero signs.
        return _roots_quartic_depressed(c2 / c4, c1 / c4, c0 / c4)
    p = c3 / c4
    q = c2 / c4
    r = c1 / c4
    s = c0 / c4
    # Depress with t = y - p/4.
    alpha = q - 3.0 * p * p / 8.0
    beta = r - p * q / 2.0 + p * p * p / 8.0
    gamma = s - p * r / 4.0 + p * p * q / 16.0 - 3.0 * p ** 4 / 256.0
    shift = -p / 4.0
    return [y + shift for y in _roots_quartic_depressed(alpha, beta, gamma)]


def _roots_quartic_depressed(alpha: float, beta: float,
                             gamma: float) -> list[float]:
    """Real roots of y**4 + alpha*y**2 + beta*y + gamma, unpolished."""
    scale = max(1.0, abs(alpha), abs(beta), abs(gamma))
    roots: list[float] = []
    if abs(beta) < 1e-14 * scale:
        # Biquadratic: quadratic in y**2.
        for z in _roots_quadratic((gamma, alpha, 1.0)):
            if z > 0.0:
                roots.extend((math.sqrt(z), -math.sqrt(z)))
            elif z == 0.0:
                roots.append(0.0)
    else:
        # Ferrari: find w so the quartic splits into two quadratics.
        resolvent = (-beta * beta, 2.0 * alpha * alpha - 8.0 * gamma,
                     8.0 * alpha, 8.0)
        w = max(_roots_cubic(resolvent))
        if w <= 1e-8 * scale:
            # Near a biquadratic the root is about beta^2 / (2 alpha^2 -
            # 8 gamma), below the rounding of the closed form, which can
            # read it as zero or negative.
            w = _polish(resolvent, w)
        if w > 0.0:
            sq2w = math.sqrt(2.0 * w)
            off = beta / (2.0 * sq2w)
            roots.extend(_roots_quadratic((alpha / 2.0 + w - off, sq2w, 1.0)))
            roots.extend(_roots_quadratic((alpha / 2.0 + w + off, -sq2w, 1.0)))
    return roots


def _bisect(coeffs, lo: float, hi: float, flo: float) -> float:
    """Bisection on a sign change; assumes sign(p(lo)) != sign(p(hi))."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = _horner(coeffs, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _roots_companion(c: tuple[float, ...]) -> list[float]:
    """Degree >= 5: the nearly real eigenvalues of the companion matrix."""
    return [float(z.real) for z in np.roots(c[::-1])
            if abs(z.imag) <= DEFAULT_ROOT_TOL * (1.0 + abs(z.real))]


# Closed-form root solvers by coefficient count (degree + 1).
_CLOSED_FORMS = {2: _roots_linear, 3: _roots_quadratic, 4: _roots_cubic,
                 5: _roots_quartic}


def _raw_roots(c: tuple[float, ...]) -> list[float]:
    """Real roots of a polynomial of degree >= 1 with a nonzero leading
    coefficient, unpolished and unsorted."""
    return _CLOSED_FORMS.get(len(c), _roots_companion)(c)


def real_roots(p: Poly1) -> list[float]:
    """All real roots of p, sorted ascending, duplicates collapsed.

    Degenerate leading coefficients are stripped first (see _stripped), and
    each root is Newton-polished against the stripped coefficients. Above
    degree 4 a companion-matrix eigenvalue counts as a root when its
    imaginary part is at most DEFAULT_ROOT_TOL * (1 + |real part|).

    Raises ZeroPolynomialError for the identically-zero polynomial (every t
    is a root). A nonzero constant has no roots and returns the empty list.
    """
    c = _stripped(p.coeffs)
    if len(c) == 1:
        if c[0] == 0.0:
            raise ZeroPolynomialError("every t is a root of the zero polynomial")
        return []
    roots = sorted(_polish(c, r) for r in _raw_roots(c))
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-9 * (1.0 + abs(r)):
            out.append(r)
    return out


def derivatives_evaluator(polys, count: int):
    """The function of t giving derivatives 0..count-1 of each of polys at
    t, lowest order first, each by Poly1.derivative and Poly1.eval."""
    chain = [tuple(polys)]
    for _ in range(1, count):
        chain.append(tuple(p.derivative() for p in chain[-1]))
    return lambda t: tuple(tuple(p.eval(t) for p in ps) for ps in chain)


def extrema_on(p: Poly1, iv: Interval) -> tuple[float, float]:
    """(min, max) of p over the closed interval iv.

    Candidates are the endpoints plus every real root of p' inside the
    interval, so the result is exact up to root-finding accuracy.
    """
    _validated(iv)
    lo_val = p.eval(iv.lo)
    hi_val = p.eval(iv.hi)
    mn = min(lo_val, hi_val)
    mx = max(lo_val, hi_val)
    dp = p.derivative()
    if len(_stripped(dp.coeffs)) > 1:
        for r in real_roots(dp):
            if iv.lo < r < iv.hi:
                v = p.eval(r)
                mn = min(mn, v)
                mx = max(mx, v)
    return mn, mx


def integral_of_square(p: Poly1, iv: Interval) -> float:
    """Integral of p(t)**2 over iv, computed from the coefficient products."""
    _validated(iv)
    c = p.coeffs
    total = 0.0
    for a, ca in enumerate(c):
        if ca == 0.0:
            continue
        for b, cb in enumerate(c):
            if cb == 0.0:
                continue
            k = a + b + 1
            total += ca * cb * (iv.hi ** k - iv.lo ** k) / k
    return total
