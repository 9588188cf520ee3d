"""Dense occupancy grids, their text format, and primitive feasibility checks.

Grid files are plain text:

    gridmap v1
    dims NX NY NZ
    resolution R
    origin OX OY OZ
    <NZ blocks of NY lines, each line NX digits, x fastest>

Cell digits are 0 free, 1 occupied, 2 unknown. Anything outside the stored
box counts as occupied. Unknown cells count as occupied unless the caller
opts into treating them as free.

Two exact tests take any three axis position polynomials on [0, tau]:
within_bounds bounds each derivative's extrema, and segment_free needs
every cell the path meets to be free (swept_cells walks the closed-form
times at which each axis polynomial crosses a grid plane, so no cell is
skipped between samples). check_dynamics and check_collision run them on
a primitive, the CLI's post-check on each refined segment.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from enum import IntEnum

from .lattice import MotionPrimitive
from .lti import Vec3
from .polyalg import Interval, Poly1, _bisect, _horner, extrema_on, real_roots


class CellState(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


class MapParseError(ValueError):
    """Malformed grid file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimensionMismatchError(MapParseError):
    """Cell data does not match the declared dims."""


@dataclass(frozen=True)
class DynBounds:
    """Per-derivative magnitude limits; None disables a check.

    A bound that is given must be finite and positive.
    """

    v_max: float | None = None
    a_max: float | None = None
    j_max: float | None = None

    def __post_init__(self):
        for name in ("v_max", "a_max", "j_max"):
            bound = getattr(self, name)
            if bound is not None and not 0.0 < bound < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {bound}")


@dataclass(frozen=True)
class OccupancyGrid:
    origin: Vec3
    resolution: float
    dims: tuple[int, int, int]
    cells: bytes

    def __post_init__(self):
        nx, ny, nz = self.dims
        if nx < 1 or ny < 1 or nz < 1:
            raise ValueError("grid dims must be positive")
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be positive and finite")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError("origin must be finite")
        if len(self.cells) != nx * ny * nz:
            raise ValueError("cell buffer does not match dims")

    def cell_index(self, p) -> tuple[int, int, int]:
        """Integer cell containing p; may fall outside the stored box."""
        return self.cell_phase(p)[0]

    def value(self, ix: int, iy: int, iz: int) -> CellState:
        nx, ny, nz = self.dims
        if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
            return CellState(self.cells[ix + nx * (iy + ny * iz)])
        return CellState.OCCUPIED

    def value_at(self, p) -> CellState:
        ix, iy, iz = self.cell_index(p)
        return self.value(ix, iy, iz)

    def is_free_at(self, p, unknown_is_free: bool = False) -> bool:
        """True iff p lies in a free cell.

        Unknown cells count as free only when unknown_is_free; cells outside
        the stored box are occupied.
        """
        return self.any_free_in_box(p, p, unknown_is_free)

    def cell_phase(self, p) -> tuple[tuple[int, int, int], Vec3]:
        """cell_index(p), and p's offset inside that cell in cells.

        Each offset is (p - origin) / resolution less its floor, so it lies
        in [0, 1] (1 only where rounding a negative coordinate reaches it).
        """
        r = self.resolution
        ox, oy, oz = self.origin
        fx, fy, fz = (p[0] - ox) / r, (p[1] - oy) / r, (p[2] - oz) / r
        kx, ky, kz = math.floor(fx), math.floor(fy), math.floor(fz)
        return (kx, ky, kz), (fx - kx, fy - ky, fz - kz)

    @property
    def exact_frame(self) -> bool:
        """True iff (p - origin) / resolution is exact for every float p:
        the origin is zero and the resolution a power of two."""
        return (self.origin == (0.0, 0.0, 0.0)
                and math.frexp(self.resolution)[0] == 0.5)

    def blocked_mask(self, unknown_is_free: bool = False) -> bytes:
        """Per cell, 0 where it is free and 1 where it is not."""
        return self.cells.translate(_BLOCKED_UNKNOWN_FREE if unknown_is_free
                                    else _BLOCKED)

    def any_free_in_box(self, lo, hi, unknown_is_free: bool = False) -> bool:
        """True iff some free cell meets the closed box [lo, hi].

        Under the floor convention of cell_index the cells that meet the
        box run, per axis, from cell_index(lo) to cell_index(hi); cells
        outside the stored box are occupied.
        """
        r = self.resolution
        spans = []
        for a, b, o, n in zip(lo, hi, self.origin, self.dims):
            # Clamped before the floor, so a far-away box stays cheap.
            k0 = math.floor(max((a - o) / r, -1.0))
            k1 = math.floor(min((b - o) / r, float(n)))
            spans.append(range(max(k0, 0), min(k1, n - 1) + 1))
        nx, ny, _nz = self.dims
        cells = self.cells
        free = _FREE_OR_UNKNOWN if unknown_is_free else _FREE_ONLY
        return any(cells[ix + nx * (iy + ny * iz)] in free
                   for iz in spans[2] for iy in spans[1] for ix in spans[0])


# Cell values any_free_in_box accepts, as plain ints for a fast membership
# test.
_FREE_ONLY = (int(CellState.FREE),)
_FREE_OR_UNKNOWN = (int(CellState.FREE), int(CellState.UNKNOWN))

# Cell value to 0 (free) or 1 (blocked), for blocked_mask.
_BLOCKED = bytes([0, 1, 1]) + bytes([1]) * 253
_BLOCKED_UNKNOWN_FREE = bytes([0, 1, 0]) + bytes([1]) * 253


def loads_grid(text: str) -> OccupancyGrid:
    lines = text.split("\n")
    if not lines or lines[0].strip() != "gridmap v1":
        raise MapParseError(1, "expected header 'gridmap v1'")

    def fields(idx: int, tag: str, count: int) -> list[str]:
        if idx >= len(lines):
            raise MapParseError(idx + 1, f"missing '{tag}' line")
        parts = lines[idx].split()
        if len(parts) != count + 1 or parts[0] != tag:
            raise MapParseError(idx + 1, f"expected '{tag}' with {count} values")
        return parts[1:]

    try:
        nx, ny, nz = (int(v) for v in fields(1, "dims", 3))
    except ValueError as exc:
        raise MapParseError(2, "dims must be integers") from exc
    if nx < 1 or ny < 1 or nz < 1:
        raise MapParseError(2, "dims must be positive")
    try:
        res = float(fields(2, "resolution", 1)[0])
    except ValueError as exc:
        raise MapParseError(3, "resolution must be a number") from exc
    if not 0.0 < res < math.inf:
        raise MapParseError(3, "resolution must be positive and finite")
    try:
        origin = tuple(float(v) for v in fields(3, "origin", 3))
    except ValueError as exc:
        raise MapParseError(4, "origin must be three numbers") from exc
    if not all(map(math.isfinite, origin)):
        raise MapParseError(4, "origin must be finite")

    cells = bytearray()
    row = 0
    for lineno in range(4, len(lines)):
        raw = lines[lineno].strip()
        if not raw:
            if any(l.strip() for l in lines[lineno + 1:]):
                raise MapParseError(lineno + 1, "blank line inside cell data")
            break
        if row >= ny * nz:
            raise DimensionMismatchError(lineno + 1, "more cell rows than dims declare")
        if len(raw) != nx:
            raise DimensionMismatchError(
                lineno + 1, f"expected {nx} cells in row, got {len(raw)}")
        for ch in raw:
            if ch not in "012":
                raise MapParseError(lineno + 1, f"invalid cell digit {ch!r}")
            cells.append(int(ch))
        row += 1
    if row != ny * nz:
        raise DimensionMismatchError(
            len(lines), f"expected {ny * nz} cell rows, got {row}")
    return OccupancyGrid(origin, res, (nx, ny, nz), bytes(cells))


def dumps_grid(grid: OccupancyGrid) -> str:
    nx, ny, nz = grid.dims
    out = ["gridmap v1",
           f"dims {nx} {ny} {nz}",
           f"resolution {grid.resolution!r}",
           "origin {!r} {!r} {!r}".format(*grid.origin)]
    # Cells are stored x fastest, then y, then z: one row per nx cells.
    digits = grid.cells.translate(_CELL_DIGITS).decode("ascii")
    out.extend(digits[i:i + nx] for i in range(0, len(digits), nx))
    return "\n".join(out) + "\n"


# Cell value to its digit in the text format.
_CELL_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"012")


def load_grid(path: str) -> OccupancyGrid:
    with open(path, "r", encoding="ascii") as fh:
        return loads_grid(fh.read())


def save_grid(grid: OccupancyGrid, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_grid(grid))


def random_grid(dims: tuple[int, int, int], resolution: float, density: float,
                seed: int, origin: Vec3 = (0.0, 0.0, 0.0)) -> OccupancyGrid:
    """Independent Bernoulli obstacles; the same seed gives the same grid."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    rng = random.Random(seed)
    nx, ny, nz = dims
    cells = bytes(1 if rng.random() < density else 0
                  for _ in range(nx * ny * nz))
    return OccupancyGrid(tuple(float(v) for v in origin), float(resolution),
                         (int(nx), int(ny), int(nz)), cells)


def within_bounds(polys, tau: float, bounds: DynBounds) -> bool:
    """True iff every bounded derivative of each of the axis polynomials
    stays within its limit on [0, tau].

    The check is exact: each derivative is a polynomial whose extrema are
    found from the roots of the next derivative, and the comparison against
    the bound is inclusive. Each axis is tested alone; EdgeTable relies on it.
    """
    span = Interval(0.0, tau)
    for order, bound in ((1, bounds.v_max), (2, bounds.a_max), (3, bounds.j_max)):
        if bound is None:
            continue
        for poly in polys:
            mn, mx = extrema_on(poly.derivative(order), span)
            if mn < -bound or mx > bound:
                return False
    return True


def check_dynamics(prim: MotionPrimitive, bounds: DynBounds) -> bool:
    """within_bounds of the primitive's position polynomials."""
    return within_bounds(prim.axis_polys, prim.tau, bounds)


# Rounding slack of the swept-cell test. A piece of path that ends within
# this many cells of a grid plane, short of it or past it, also counts the
# cell on the plane's other side, and events of two axes less than this
# many seconds apart count every mix of their cells: a floating-point
# sample of the path lies within a few ulps of the exact point. The value
# covers grids up to about a million cells across.
PLANE_TOL = 1e-9

def swept_cells(tails, tau: float, resolution: float, phase: Vec3,
                exact_frame: bool) -> set[tuple[int, int, int]]:
    """The cells a primitive's path meets on [0, tau], relative to its own.

    tails[ax] holds the axis displacement's coefficients without the
    constant term (tails[ax][i] multiplies t**(i + 1)), and phase is the
    start's offset inside its cell, in cells (OccupancyGrid.cell_phase). On
    each axis the cell at time t is floor(phase + displacement / resolution)
    relative to the start's, the floor convention of cell_index. The axis
    splits at the critical points of its displacement into monotone pieces;
    the times at which a piece reaches an integer plane come in closed form,
    and between them the cell stays the same. Walking the merged events of
    the three axes in time order therefore visits exactly the cells the path
    meets: Amanatides & Woo's voxel traversal, for polynomials instead of
    rays.

    A floating-point sample of the path may round across a plane it is
    within a few ulps of, so some cells beyond the exact ones count too:
    where a piece ends within PLANE_TOL of a plane it does not reach, or
    just past one it crosses; below a plane that a piece reaches exactly
    from above, unless exact_frame (OccupancyGrid.exact_frame) holds and
    the landing is exact in floating point; and where two axes move within
    PLANE_TOL of each other in time (_cluster_mix).
    """
    coeffs = [tuple(c / resolution for c in tail) for tail in tails]
    events = [(t, ax, at, after, plane)
              for ax in range(3) if any(coeffs[ax])
              for t, at, after, plane in _plane_events(
                  phase[ax], coeffs[ax], tau, exact_frame)]
    events.sort(key=lambda ev: ev[0])
    cur: list[tuple[int, ...]] = [(0,), (0,), (0,)]
    cells = {(0, 0, 0)}
    i, n = 0, len(events)
    while i < n:
        # Events less than PLANE_TOL apart form a cluster; see _cluster_mix.
        seen = [set(v) for v in cur]
        cluster = []
        t = events[i][0]
        while i < n and events[i][0] - t <= PLANE_TOL:
            t = events[i][0]
            on = list(cur)
            moved = [False, False, False]
            while i < n and events[i][0] == t:
                _t, ax, at, after, _plane = events[i]
                on[ax] = on[ax] + at if moved[ax] else at
                moved[ax] = True
                cur[ax] = after
                seen[ax].update(at + after)
                cluster.append(events[i])
                i += 1
            cells.update(itertools.product(*on))
            cells.update(itertools.product(*cur))
        mix = _cluster_mix(cluster, coeffs, phase, exact_frame, seen)
        if mix is not None:
            cells.update(itertools.product(*mix))
    return cells


def _cluster_mix(cluster, coeffs, phase, exact_frame, seen):
    """Per axis, the cells a sample taken within a cluster of events may
    show when two or more axes move in it, or None when the walk already
    holds them.

    A sample among events at different times, or at one time outside an
    exact frame, may round either way on every axis that moves there. At
    one time in an exact frame, an axis that lands exactly on its plane
    shows that cell, and the others may round either way. When none lands
    exactly and every event is a plane crossing, no sample falls at that
    instant; an event without a plane is an axis ending within PLANE_TOL
    of one at a knot, where samples do fall.
    """
    if len({ev[1] for ev in cluster}) < 2:
        return None
    t = cluster[0][0]
    if cluster[-1][0] != t or not exact_frame:
        return seen
    exact: dict[int, tuple[int, ...]] = {}
    for _t, ax, at, _after, plane in cluster:
        if plane is not None and _lands_exactly(coeffs[ax], phase[ax], t,
                                                plane):
            exact[ax] = exact.get(ax, ()) + at
    if not exact and all(ev[4] is not None for ev in cluster):
        return None
    return [exact.get(ax, seen[ax]) for ax in range(3)]


@functools.lru_cache(maxsize=1 << 12)
def _plane_events(phi: float, c: tuple[float, ...], tau: float,
                  exact_frame: bool) -> tuple:
    """(t, cells at t, cells just after t, plane) for each time the axis
    position phi + sum(c[i] t**(i + 1)) reaches an integer plane (plane is
    None for the cells added beyond one). A row's controls share few
    distinct axis polynomials, so the result is cached."""
    out = []
    crit = real_roots(Poly1(tuple(k * ck for k, ck in enumerate(c, 1))))
    knots = sorted(t for t in crit if 0.0 < t < tau)
    knots.append(tau)
    t0, g0 = 0.0, phi
    for t1 in knots:
        g1 = phi + _horner(c, t1) * t1
        if g1 > g0:
            for m in range(math.floor(g0) + 1, math.floor(g1) + 1):
                t0 = _plane_time(c, phi - m, t0, t1)
                # Ending just past this plane, the axis may read either side.
                past = 0.0 < g1 - m <= PLANE_TOL
                out.append((t0, (m,), (m - 1, m) if past else (m,), m))
            top = math.ceil(g1)
            if 0.0 < top - g1 <= PLANE_TOL:
                out.append((t1, (top,), (top - 1,), None))
        elif g1 < g0:
            for m in range(math.floor(g0), math.floor(g1), -1):
                t0 = _plane_time(c, phi - m, t0, t1)
                past = 0.0 < m - g1 <= PLANE_TOL
                out.append((t0, (m,), (m - 1, m) if past else (m - 1,), m))
            low = math.floor(g1)
            if (0.0 < g1 - low <= PLANE_TOL or g1 == low and not (
                    exact_frame and _lands_exactly(c, phi, t1, low))):
                out.append((t1, (low - 1,), (low,), None))
        t0, g0 = t1, g1
    return tuple(out)


@functools.lru_cache(maxsize=1 << 12)
def _lands_exactly(c: tuple[float, ...], phi: float, t: float,
                   m: int) -> bool:
    """True iff Horner's scheme gives the displacement at t without
    rounding and phi plus it is exactly m."""
    d = _horner(c, t) * t
    if phi + d != m:
        return False
    d, ft = Fraction(d), Fraction(t)
    return (d == sum(Fraction(ck) * ft ** k for k, ck in enumerate(c, 1))
            and Fraction(phi) + d == m)


def _plane_time(c: tuple[float, ...], c0: float, lo: float,
                hi: float) -> float:
    """The root of f = c0 + sum(c[i] t**(i + 1)), monotone on [lo, hi],
    that lies nearest that interval, clamped into it (hi when rounding
    leaves no real root: the plane then is met where the piece turns)."""
    cs = (c0, *c)
    best, dist = hi, math.inf
    for r in real_roots(Poly1(cs)):
        d = max(lo - r, r - hi, 0.0)
        if d < dist:
            best, dist = r, d
    t = min(max(best, lo), hi)
    f = Poly1(cs)
    if abs(f.eval(t)) > PLANE_TOL * min(1.0, abs(f.derivative().eval(t))):
        # A closed form loses its small roots when the leading coefficient
        # is tiny beside the others, and a small residual where f is flat
        # may be far from the root; f is monotone here, so bisect.
        f_lo = _horner(cs, lo)
        t = lo if f_lo == 0.0 else _bisect(cs, lo, hi, f_lo)
    return t


def swath(cells, dims: tuple[int, int, int]) -> tuple:
    """(lo_x, hi_x, lo_y, hi_y, lo_z, hi_z, deltas) for a set of relative
    cells on a grid of the given dims: from a start cell (kx, ky, kz) the
    cells stay inside the grid iff lo_x <= kx < hi_x and likewise for y
    and z, and they are then at the start cell's flat index plus each of
    the sorted deltas."""
    nx, ny, nz = dims
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    zs = [c[2] for c in cells]
    deltas = sorted({dx + nx * (dy + ny * dz) for dx, dy, dz in cells})
    return (-min(xs), nx - max(xs), -min(ys), ny - max(ys),
            -min(zs), nz - max(zs), tuple(deltas))


def primitive_tails(prim: MotionPrimitive) -> tuple[tuple[float, ...], ...]:
    """Per axis, the position polynomial's coefficients after the constant."""
    return tuple(p.coeffs[1:] for p in prim.axis_polys)


def segment_free(polys, tau: float, grid: OccupancyGrid,
                 unknown_is_free: bool = False) -> bool:
    """True iff every cell the path of the three axis position polynomials
    meets on [0, tau] is free.

    The cells are those of swept_cells, so the test is exact up to
    PLANE_TOL, for polynomials of any degree. EdgeTable.successors runs
    the same test on the same swath.
    """
    (kx, ky, kz), phase = grid.cell_phase(tuple(p.coeffs[0] for p in polys))
    lo_x, hi_x, lo_y, hi_y, lo_z, hi_z, deltas = swath(
        swept_cells(tuple(p.coeffs[1:] for p in polys), tau, grid.resolution,
                    phase, grid.exact_frame), grid.dims)
    if not (lo_x <= kx < hi_x and lo_y <= ky < hi_y and lo_z <= kz < hi_z):
        return False
    nx, ny, _nz = grid.dims
    base = kx + nx * (ky + ny * kz)
    blocked = grid.blocked_mask(unknown_is_free)
    return not any(blocked[base + d] for d in deltas)


def check_collision(prim: MotionPrimitive, grid: OccupancyGrid,
                    v_max: float | None = None,
                    unknown_is_free: bool = False) -> bool:
    """segment_free of the primitive's polynomials; v_max is not used."""
    return segment_free(prim.axis_polys, prim.tau, grid, unknown_is_free)
