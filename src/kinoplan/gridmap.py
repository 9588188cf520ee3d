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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import IntEnum

from .lattice import MotionPrimitive
from .lti import Vec3
from .polyalg import Interval, Poly1, extrema_on


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
    """Per-derivative magnitude limits; None disables a check."""

    v_max: float | None = None
    a_max: float | None = None
    j_max: float | None = None


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
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")
        if len(self.cells) != nx * ny * nz:
            raise ValueError("cell buffer does not match dims")

    def cell_index(self, p) -> tuple[int, int, int]:
        """Integer cell containing p; may fall outside the stored box."""
        r = self.resolution
        o = self.origin
        return (math.floor((p[0] - o[0]) / r),
                math.floor((p[1] - o[1]) / r),
                math.floor((p[2] - o[2]) / r))

    def value(self, ix: int, iy: int, iz: int) -> CellState:
        nx, ny, nz = self.dims
        if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
            return CellState(self.cells[ix + nx * (iy + ny * iz)])
        return CellState.OCCUPIED

    def value_at(self, p) -> CellState:
        ix, iy, iz = self.cell_index(p)
        return self.value(ix, iy, iz)

    def is_free_at(self, p, unknown_is_free: bool = False) -> bool:
        return self.free_along(p, _AT_POINT, unknown_is_free)

    def free_along(self, p0, offsets, unknown_is_free: bool = False) -> bool:
        """True iff every point p0 + d, d in offsets, lies in a free cell.

        Unknown cells count as free only when unknown_is_free; cells outside
        the stored box are occupied.
        """
        r = self.resolution
        ox, oy, oz = self.origin
        nx, ny, nz = self.dims
        cells = self.cells
        free = _FREE_OR_UNKNOWN if unknown_is_free else _FREE_ONLY
        px, py, pz = p0
        floor = math.floor
        for dx, dy, dz in offsets:
            ix = floor((px + dx - ox) / r)
            iy = floor((py + dy - oy) / r)
            iz = floor((pz + dz - oz) / r)
            if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
                return False
            if cells[ix + nx * (iy + ny * iz)] not in free:
                return False
        return True


# Cell values free_along accepts, as plain ints for a fast membership test.
_FREE_ONLY = (int(CellState.FREE),)
_FREE_OR_UNKNOWN = (int(CellState.FREE), int(CellState.UNKNOWN))

# Adding a zero offset leaves a point's cell unchanged.
_AT_POINT = ((0.0, 0.0, 0.0),)


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
    if not res > 0.0:
        raise MapParseError(3, "resolution must be positive")
    try:
        origin = tuple(float(v) for v in fields(3, "origin", 3))
    except ValueError as exc:
        raise MapParseError(4, "origin must be three numbers") from exc

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


def check_dynamics(prim: MotionPrimitive, bounds: DynBounds) -> bool:
    """True iff every bounded derivative stays within its limit on [0, tau].

    The check is exact: each derivative is a polynomial whose extrema are
    found from the roots of the next derivative, and the comparison against
    the bound is inclusive.
    """
    span = Interval(0.0, prim.tau)
    for order, bound in ((1, bounds.v_max), (2, bounds.a_max), (3, bounds.j_max)):
        if bound is None:
            continue
        for poly in prim.axis_polys:
            mn, mx = extrema_on(poly.derivative(order), span)
            if mn < -bound or mx > bound:
                return False
    return True


def sample_offsets(prim: MotionPrimitive, v_max: float,
                   resolution: float) -> tuple[Vec3, ...]:
    """Displacements from the primitive's start to its collision samples.

    The sample count I = ceil(tau * v_max / R) caps the gap between
    consecutive samples at one cell size R, so no cell of the swept path can
    be skipped while the speed bound holds. Samples run from t = 0 to
    t = tau inclusive. Each displacement is Horner's scheme on the position
    polynomial without its constant term, times t, so adding the constant
    term repeats Horner's last step and gives the sample bit for bit. The
    displacements depend only on the start's higher derivatives and u.
    """
    if not v_max > 0.0:
        raise ValueError("v_max must be positive to bound the sample spacing")
    tau = prim.tau
    steps = max(1, math.ceil(tau * v_max / resolution))
    tails = [Poly1(p.coeffs[1:]) for p in prim.axis_polys]
    out = []
    for i in range(steps + 1):
        t = tau if i == steps else tau * i / steps
        out.append(tuple(tail.eval(t) * t for tail in tails))
    return tuple(out)


def check_collision(prim: MotionPrimitive, grid: OccupancyGrid, v_max: float,
                    unknown_is_free: bool = False) -> bool:
    """True iff the sampled primitive path stays in free cells.

    The samples are those of sample_offsets.
    """
    p0 = tuple(p.coeffs[0] for p in prim.axis_polys)
    return grid.free_along(p0, sample_offsets(prim, v_max, grid.resolution),
                           unknown_is_free)
