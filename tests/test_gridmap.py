"""Tests for the occupancy grid: file format, lookups, collision and bounds."""

import math
import random

import numpy as np
import pytest

from kinoplan.gridmap import (
    CellState,
    DimensionMismatchError,
    DynBounds,
    MapParseError,
    OccupancyGrid,
    check_collision,
    check_dynamics,
    dumps_grid,
    load_grid,
    loads_grid,
    random_grid,
    primitive_tails,
    save_grid,
    segment_free,
    swept_cells,
    within_bounds,
)
from kinoplan.lattice import propagate
from kinoplan.lti import State
from kinoplan.polyalg import Poly1


SMALL = """gridmap v1
dims 2 2 1
resolution 0.5
origin 0.0 0.0 0.0
00
00
"""


def grid_from_rows(rows, resolution=0.5, origin=(0.0, 0.0, 0.0)):
    """Build a single-layer grid from y-major strings of digits."""
    ny = len(rows)
    nx = len(rows[0])
    body = "\n".join(rows)
    text = (f"gridmap v1\ndims {nx} {ny} 1\nresolution {resolution!r}\n"
            f"origin {origin[0]!r} {origin[1]!r} {origin[2]!r}\n{body}\n")
    return loads_grid(text)


# ------------------------------------------------------------- file I/O


def test_loads_small_grid():
    g = loads_grid(SMALL)
    assert g.dims == (2, 2, 1)
    assert g.resolution == 0.5
    assert g.value_at((0.25, 0.25, 0.25)) is CellState.FREE


def test_roundtrip_small():
    g = loads_grid(SMALL)
    assert dumps_grid(g) == SMALL


def test_save_load_save_fixpoint(tmp_path):
    g = random_grid((20, 20, 1), 0.5, 0.3, seed=4)
    p1 = tmp_path / "a.grid"
    p2 = tmp_path / "b.grid"
    save_grid(g, str(p1))
    g2 = load_grid(str(p1))
    save_grid(g2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_error_bad_cell_digit():
    bad = SMALL.replace("00\n00", "00\n03")
    with pytest.raises(MapParseError) as ei:
        loads_grid(bad)
    assert ei.value.line == 6


def test_parse_error_bad_header():
    with pytest.raises(MapParseError) as ei:
        loads_grid("gridmap v2\ndims 1 1 1\nresolution 1\norigin 0 0 0\n0\n")
    assert ei.value.line == 1


def test_parse_error_missing_row():
    bad = "gridmap v1\ndims 2 2 1\nresolution 0.5\norigin 0 0 0\n00\n"
    with pytest.raises(DimensionMismatchError):
        loads_grid(bad)


def test_parse_error_row_width():
    bad = "gridmap v1\ndims 2 2 1\nresolution 0.5\norigin 0 0 0\n00\n000\n"
    with pytest.raises(DimensionMismatchError):
        loads_grid(bad)


def test_parse_error_reports_line_of_bad_number():
    bad = "gridmap v1\ndims 2 2 1\nresolution abc\norigin 0 0 0\n00\n00\n"
    with pytest.raises(MapParseError) as ei:
        loads_grid(bad)
    assert ei.value.line == 3


@pytest.mark.parametrize("line, text", [
    (3, "resolution inf"), (4, "origin inf 0 0"), (4, "origin 0 nan 0"),
    (4, "origin 0 0 -inf")])
def test_parse_error_non_finite_frame(line, text):
    rows = ["gridmap v1", "dims 2 2 1", "resolution 0.5", "origin 0 0 0",
            "00", "00", ""]
    rows[line - 1] = text
    with pytest.raises(MapParseError, match="finite") as ei:
        loads_grid("\n".join(rows))
    assert ei.value.line == line


@pytest.mark.parametrize("origin, resolution", [
    ((math.inf, 0.0, 0.0), 0.5), ((0.0, math.nan, 0.0), 0.5),
    ((0.0, 0.0, 0.0), math.inf)])
def test_grid_rejects_non_finite_frame(origin, resolution):
    with pytest.raises(ValueError, match="finite"):
        OccupancyGrid(origin, resolution, (1, 1, 1), bytes(1))


def test_unknown_cells_roundtrip():
    g = grid_from_rows(["02", "20"])
    assert g.value_at((0.75, 0.25, 0.1)) is CellState.UNKNOWN
    assert loads_grid(dumps_grid(g)) == g


def test_random_grid_seeded_and_density_extremes():
    a = random_grid((10, 10, 1), 0.5, 0.4, seed=9)
    b = random_grid((10, 10, 1), 0.5, 0.4, seed=9)
    assert a == b
    assert random_grid((5, 5, 1), 1.0, 0.0, seed=1).cells == bytes(25)
    full = random_grid((5, 5, 1), 1.0, 1.0, seed=1)
    assert set(full.cells) == {int(CellState.OCCUPIED)}


# ------------------------------------------------------------- lookups


def test_value_outside_is_occupied():
    g = loads_grid(SMALL)
    assert g.value_at((-0.1, 0.0, 0.0)) is CellState.OCCUPIED
    assert g.value_at((1.1, 0.5, 0.0)) is CellState.OCCUPIED
    assert g.value_at((0.5, 0.5, 0.6)) is CellState.OCCUPIED


def test_cell_lookup_uses_floor():
    g = grid_from_rows(["01"])
    # x in [0, 0.5) is the free cell, [0.5, 1.0) the occupied one.
    assert g.value_at((0.499, 0.25, 0.25)) is CellState.FREE
    assert g.value_at((0.5, 0.25, 0.25)) is CellState.OCCUPIED


def test_is_free_at_unknown_policy():
    g = grid_from_rows(["2"])
    p = (0.25, 0.25, 0.25)
    assert not g.is_free_at(p)
    assert g.is_free_at(p, unknown_is_free=True)


# ------------------------------------------------------- dynamics check


def test_dynamics_accept_slow_primitive():
    prim = propagate(State.rest(2), (1.0, 0.0, 0.0), 1.0, 0.0)
    assert check_dynamics(prim, DynBounds(v_max=2.0))


def test_dynamics_reject_fast_primitive():
    prim = propagate(State.rest(2), (1.0, 0.0, 0.0), 1.0, 0.0)
    assert not check_dynamics(prim, DynBounds(v_max=0.5))


def test_dynamics_inclusive_at_bound():
    x0 = State.of((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    prim = propagate(x0, (-1.0, 0.0, 0.0), 4.0, 0.0)
    # Speed runs 2 -> -2 linearly; extrema sit exactly on the bound.
    assert check_dynamics(prim, DynBounds(v_max=2.0))
    assert not check_dynamics(prim, DynBounds(v_max=1.999))


def test_dynamics_checks_acceleration_for_jerk_primitives():
    prim = propagate(State.rest(3), (2.0, 0.0, 0.0), 1.0, 0.0)
    # Acceleration reaches 2 at t = 1.
    assert check_dynamics(prim, DynBounds(v_max=10.0, a_max=2.0))
    assert not check_dynamics(prim, DynBounds(v_max=10.0, a_max=1.5))


def test_dynamics_missing_bounds_mean_unbounded():
    prim = propagate(State.rest(2), (50.0, 0.0, 0.0), 3.0, 0.0)
    assert check_dynamics(prim, DynBounds())


def test_dynamics_interior_extremum():
    # v(t) = 1 - t peaks inside only via endpoints; use position-level check
    # with a parabola whose vertex is interior: v(t) = t(1-t) style primitive.
    x0 = State.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    prim = propagate(x0, (-1.0, 0.0, 0.0), 2.0, 0.0)
    # v: 1 -> -1, crossing 0 at t=1; max |v| is 1 at the endpoints.
    assert check_dynamics(prim, DynBounds(v_max=1.0))
    assert not check_dynamics(prim, DynBounds(v_max=0.99))


def test_dynamics_accepted_primitives_hold_on_dense_grid():
    rng = random.Random(77)
    accepted = 0
    for _ in range(300):
        n = rng.choice((2, 3))
        x0 = State.of(*[tuple(rng.uniform(-1, 1) for _ in range(3))
                        for _ in range(n)])
        u = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        tau = rng.uniform(0.2, 2.0)
        prim = propagate(x0, u, tau, 0.0)
        bounds = DynBounds(v_max=rng.uniform(0.5, 3.0),
                           a_max=rng.uniform(0.5, 3.0))
        if not check_dynamics(prim, bounds):
            continue
        accepted += 1
        for ax in range(3):
            vp = prim.axis_polys[ax].derivative(1)
            ap = prim.axis_polys[ax].derivative(2)
            for t in np.linspace(0.0, tau, 1000):
                assert abs(vp.eval(float(t))) <= bounds.v_max + 1e-9
                assert abs(ap.eval(float(t))) <= bounds.a_max + 1e-9
    assert accepted > 20


# ------------------------------------------------------ collision check


def test_collision_sample_spacing():
    # Constant velocity 2 m/s for 1 s on a 0.5 m grid: samples land every
    # 0.5 m. A cell visited only by the second sample must be seen.
    x0 = State.of((0.1, 0.25, 0.25), (2.0, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    free = grid_from_rows(["00000000"])
    assert check_collision(prim, free, v_max=2.0)
    blocked = grid_from_rows(["01000000"])
    assert not check_collision(prim, blocked, v_max=2.0)


def test_collision_endpoint_is_sampled():
    x0 = State.of((0.1, 0.25, 0.25), (2.0, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    # Only the final position (x = 2.1, cell 4) is occupied.
    blocked = grid_from_rows(["00001000"])
    assert not check_collision(prim, blocked, v_max=2.0)


def test_collision_within_one_free_cell():
    x0 = State.of((0.25, 0.25, 0.25), (0.05, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    g = grid_from_rows(["011", "111"])
    assert check_collision(prim, g, v_max=2.0)


def test_collision_out_of_bounds_rejected():
    x0 = State.of((0.25, 0.25, 0.25), (2.0, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    g = grid_from_rows(["00"])  # 1 m wide; the primitive runs to x = 2.25
    assert not check_collision(prim, g, v_max=2.0)


def test_collision_unknown_policy():
    x0 = State.of((0.25, 0.25, 0.25), (1.0, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    g = grid_from_rows(["0020"])
    assert not check_collision(prim, g, v_max=2.0)
    assert check_collision(prim, g, v_max=2.0, unknown_is_free=True)


def test_collision_ignores_vmax():
    # The swept cells come from the path itself, not from samples spaced by
    # v_max, so the verdict is the same for any v_max, or none.
    x0 = State.of((0.25, 0.25, 0.25), (1.0, 0.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    for rows, want in ((["000"], True), (["0010"], False), (["01"], False)):
        g = grid_from_rows(rows)
        assert [check_collision(prim, g, v) for v in (None, 0.0, 0.1, 2.0,
                                                       100.0)] == [want] * 5


def test_collision_catches_corner_graze_between_samples():
    # Velocity (1, 1) from (0.24, 0.2): x reaches 0.5 at t = 0.26 and y at
    # t = 0.3, so the path is in cell (1, 0) for 0.04 s. Samples spaced one
    # cell apart (t = 0, 0.25, 0.5, ...) never land there.
    x0 = State.of((0.24, 0.2, 0.25), (1.0, 1.0, 0.0))
    prim = propagate(x0, (0.0, 0.0, 0.0), 1.0, 0.0)
    steps = math.ceil(prim.tau * 2.0 / 0.5)
    samples = {tuple(math.floor(p.eval(prim.tau * i / steps) / 0.5)
                     for p in prim.axis_polys) for i in range(steps + 1)}
    assert (1, 0, 0) not in samples
    assert check_collision(prim, grid_from_rows(["000", "000", "000"]))
    assert not check_collision(prim, grid_from_rows(["010", "000", "000"]),
                               v_max=2.0)
    # The mirror cell (0, 1) is not on the path.
    assert check_collision(prim, grid_from_rows(["000", "100", "000"]))


def test_swept_cells_count_the_plane_a_vertex_touches():
    # x(t) = 0.5 + t - t**2 / 2 rises to exactly 1.0 at t = 1 and falls
    # back: under the floor convention it touches cell 2 at that instant.
    touch = propagate(State.of((0.5, 0.25, 0.25), (1.0, 0.0, 0.0)),
                      (-1.0, 0.0, 0.0), 2.0, 0.0)
    assert swept_cells(primitive_tails(touch), 2.0, 0.5, (0.0, 0.5, 0.5),
                       True) == {
        (0, 0, 0), (1, 0, 0)}
    assert not check_collision(touch, grid_from_rows(["0010"]))
    assert check_collision(touch, grid_from_rows(["0001"]))
    # Starting a little lower, the vertex stays below the plane.
    short = propagate(State.of((0.49, 0.25, 0.25), (1.0, 0.0, 0.0)),
                      (-1.0, 0.0, 0.0), 2.0, 0.0)
    assert check_collision(short, grid_from_rows(["0010"]))
    assert not check_collision(short, grid_from_rows(["1000"]))


def test_swept_cells_leave_out_the_cell_behind_a_plane_start():
    # Starting on the plane x = 0.5 at rest: accelerating in +x never
    # enters cell 0; accelerating in -x enters it at once.
    ahead = propagate(State.rest(2, (0.5, 0.25, 0.25)), (1.0, 0.0, 0.0),
                      1.0, 0.0)
    back = propagate(State.rest(2, (0.5, 0.25, 0.25)), (-1.0, 0.0, 0.0),
                     1.0, 0.0)
    g = grid_from_rows(["1000"])
    assert check_collision(ahead, g)
    assert not check_collision(back, g)
    assert swept_cells(primitive_tails(ahead), 1.0, 0.5, (0.0, 0.5, 0.5),
                       True) == {
        (0, 0, 0), (1, 0, 0)}
    # Arriving on the plane x = 0.5 from above ends in cell 1, not cell 0:
    # x(t) = 1.0 - t**2 / 2 reaches 0.5 at t = 1.
    down = propagate(State.rest(2, (1.0, 0.25, 0.25)), (-1.0, 0.0, 0.0),
                     1.0, 0.0)
    assert check_collision(down, g)
    assert swept_cells(primitive_tails(down), 1.0, 0.5, (0.0, 0.5, 0.5),
                       True) == {
        (0, 0, 0), (-1, 0, 0)}


def test_swept_cells_of_a_jerk_primitive_follow_the_cubic():
    # Order 3 from rest with jerk +1 on x and -1 on y: x(t) = t**3 / 6 is
    # 1 / 6 at t = 1, within the start cell for r = 0.5 and phase 0.5; over
    # tau = 2 it reaches 4 / 3, three cells on.
    tails = primitive_tails(propagate(State.rest(3, (0.25, 0.25, 0.25)),
                                      (1.0, -1.0, 0.0), 2.0, 0.0))
    # x and y reach their planes at the same instants; at each one x is on
    # its plane (the upper cell) and y on its own (the upper cell too).
    assert swept_cells(tails, 2.0, 0.5, (0.5, 0.5, 0.5), True) == {
        (0, 0, 0), (1, 0, 0), (1, -1, 0), (2, -1, 0), (2, -2, 0),
        (3, -2, 0), (3, -3, 0)}
    assert swept_cells(tails, 1.0, 0.5, (0.5, 0.5, 0.5), True) == {(0, 0, 0)}


# A refined degree-5 segment on r = 0.5 from (1, 1): at tau = 1 both x and
# y end a few ulps short of the plane 1.5, so Poly1.eval reads 1.5 on x and
# 1.4999999999999998 on y, and the sample at tau is in cell (1, 0).
SHORT_OF_ONE_PLANE = (
    Poly1((1.0, 0.0, 0.5, 0.15807079204347693, -0.20928564192409438,
           0.05121484988061733)),
    Poly1((1.0, 0.0, 0.5, 0.3495688583236591, -0.46981988865368596,
           0.12025103033002674)),
    Poly1((0.25,)))


def test_swept_cells_mix_two_axes_ending_short_of_one_plane():
    x, y, _z = SHORT_OF_ONE_PLANE
    assert (x.eval(1.0), y.eval(1.0)) == (1.5, 1.4999999999999998)
    cells = swept_cells((x.coeffs[1:], y.coeffs[1:], ()), 1.0, 0.5,
                        (0.0, 0.0, 0.5), True)
    assert (1, 0, 0) in cells
    assert (0, 1, 0) in cells
    # The sample at tau is in cell (3, 2): occupied there, the segment
    # collides.
    rows = ["0000", "0000", "0001", "0000"]
    assert not segment_free(SHORT_OF_ONE_PLANE, 1.0, grid_from_rows(rows))
    assert segment_free(SHORT_OF_ONE_PLANE, 1.0,
                        grid_from_rows(["0000"] * 4))


def test_check_dynamics_and_collision_are_the_polynomial_tests():
    rng = random.Random(7)
    grid = random_grid((12, 12, 1), 0.5, 0.2, seed=3)
    bounds = DynBounds(v_max=2.0, a_max=1.5)
    verdicts = set()
    for _ in range(200):
        x0 = State.of((rng.uniform(1, 5), rng.uniform(1, 5), 0.25),
                      (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0),
                      (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0))
        u = (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
        prim = propagate(x0, u, rng.uniform(0.2, 1.5), 0.0)
        polys = prim.axis_polys
        dyn = check_dynamics(prim, bounds)
        free = check_collision(prim, grid)
        assert dyn == within_bounds(polys, prim.tau, bounds)
        assert free == segment_free(polys, prim.tau, grid)
        verdicts.add((dyn, free))
    assert len(verdicts) == 4


def test_polynomial_tests_take_refined_segments():
    # x(t) = 0.25 + 3 t**2 - 2 t**3 on [0, 1] (degree 3 tail of a quintic):
    # it rises from 0.25 to 1.25 with peak speed 1.5 at t = 0.5.
    x = Poly1((0.25, 0.0, 3.0, -2.0, 0.0, 0.0))
    polys = (x, Poly1((0.25,) + (0.0,) * 5), Poly1((0.25,) + (0.0,) * 5))
    assert within_bounds(polys, 1.0, DynBounds(v_max=1.5))
    assert not within_bounds(polys, 1.0, DynBounds(v_max=1.49))
    assert not within_bounds(polys, 1.0, DynBounds(a_max=5.9))
    assert segment_free(polys, 1.0, grid_from_rows(["0001"]))
    assert not segment_free(polys, 1.0, grid_from_rows(["0010"]))


def test_collision_sample_count_guarantee():
    # Spacing guarantee: consecutive samples at most R apart per axis as
    # long as the primitive respects v_max.
    rng = random.Random(55)
    g = random_grid((30, 30, 1), 0.5, 0.0, seed=0)
    for _ in range(50):
        x0 = State.of((rng.uniform(2, 12), rng.uniform(2, 12), 0.25),
                      (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0))
        u = (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
        tau = rng.uniform(0.3, 2.0)
        prim = propagate(x0, u, tau, 0.0)
        v_max = 2.0
        if not check_dynamics(prim, DynBounds(v_max=v_max)):
            continue
        steps = max(1, math.ceil(tau * v_max / g.resolution))
        ts = [tau if i == steps else tau * i / steps
              for i in range(steps + 1)]
        assert ts[0] == 0.0 and ts[-1] == tau
        for a, b in zip(ts, ts[1:]):
            for ax in range(3):
                p = prim.axis_polys[ax]
                assert abs(p.eval(b) - p.eval(a)) <= g.resolution + 1e-12


def test_collision_fine_resample_corpus():
    # Full-speed primitives on corpus-like maps: every primitive the check
    # accepts stays in free cells when sampled 1000 times finer than one
    # cell per sample.
    rng = random.Random(23)
    grids = [random_grid((20, 20, 1), 0.5, 0.2, seed=2300 + k)
             for k in range(10)]
    v_max = 2.0
    accepted = 0
    misses = []
    while accepted < 500:
        grid = grids[rng.randrange(10)]
        x0 = State.of(
            (rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5), 0.25),
            (rng.uniform(-v_max, v_max), rng.uniform(-v_max, v_max), 0.0))
        u = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0)
        prim = propagate(x0, u, 1.0, rho=1.0)
        if not check_dynamics(prim, DynBounds(v_max=v_max)):
            continue
        if not check_collision(prim, grid, v_max):
            continue
        accepted += 1
        steps = 1000 * max(1, math.ceil(prim.tau * v_max / grid.resolution))
        ts = np.linspace(0.0, prim.tau, steps + 1)
        ix, iy, iz = (np.floor((np.polynomial.polynomial.polyval(
            ts, prim.axis_polys[ax].coeffs) - grid.origin[ax])
            / grid.resolution).astype(int) for ax in range(3))
        nx, ny, nz = grid.dims
        inside = ((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
                  & (iz >= 0) & (iz < nz))
        cells = np.frombuffer(grid.cells, dtype=np.uint8)
        if not inside.all() or cells[ix + nx * (iy + ny * iz)].any():
            misses.append((accepted, x0, u))
    assert misses == []


@pytest.mark.parametrize("kwargs", [
    {"v_max": -1.0}, {"v_max": 0.0}, {"v_max": math.nan},
    {"v_max": math.inf}, {"a_max": 0.0}, {"a_max": -math.inf},
    {"j_max": math.nan}, {"v_max": 2.0, "a_max": -0.5},
])
def test_dyn_bounds_reject_non_positive_or_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite and positive"):
        DynBounds(**kwargs)


def test_dyn_bounds_accept_positive_or_absent():
    b = DynBounds(v_max=2.0, j_max=1e-3)
    assert (b.v_max, b.a_max, b.j_max) == (2.0, None, 1e-3)
    assert DynBounds() == DynBounds(None, None, None)


def test_any_free_in_box_uses_floor_convention():
    # Only cell (1, 1) is free: it covers [0.5, 1.0) x [0.5, 1.0).
    g = grid_from_rows(["111", "101", "111"])
    assert g.any_free_in_box((0.6, 0.6, 0.1), (0.9, 0.9, 0.1))
    # A closed box whose upper face lies on x = 0.5 meets cell 1 there.
    assert g.any_free_in_box((0.2, 0.6, 0.1), (0.5, 0.9, 0.1))
    # Its lower face on x = 1.0 lies in cell 2, which is occupied.
    assert not g.any_free_in_box((1.0, 0.6, 0.1), (1.4, 0.9, 0.1))
    assert not g.any_free_in_box((0.0, 0.0, 0.1), (0.4, 1.4, 0.1))
    # Boxes reaching past the stored cells, or wholly outside them.
    assert g.any_free_in_box((-1e300, -1e300, -1e300), (1e300, 1e300, 1e300))
    assert not g.any_free_in_box((5.0, 5.0, 0.1), (6.0, 6.0, 0.1))
    unknown = grid_from_rows(["111", "121", "111"])
    assert not unknown.any_free_in_box((0.6, 0.6, 0.1), (0.9, 0.9, 0.1))
    assert unknown.any_free_in_box((0.6, 0.6, 0.1), (0.9, 0.9, 0.1),
                                   unknown_is_free=True)
