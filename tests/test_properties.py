"""Property tests of the text formats and the CLI's number parsing.

Examples are drawn deterministically (derandomize) and no example database
is written, so a run is reproducible and leaves no files behind.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from kinoplan.cli import UsageError, _parse_floats, _parse_state
from kinoplan.gridmap import OccupancyGrid, dumps_grid, loads_grid
from kinoplan.polyalg import Poly1
from kinoplan.refine import SplineTrajectory
from kinoplan.trajio import dumps_segments, loads_segments, write_segments

deterministic = settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


# ------------------------------------------------------------------ grids


@st.composite
def grids(draw):
    dims = draw(st.tuples(*[st.integers(1, 6)] * 3))
    cells = draw(st.binary(min_size=dims[0] * dims[1] * dims[2],
                           max_size=dims[0] * dims[1] * dims[2]))
    resolution = draw(st.floats(min_value=0.0, exclude_min=True,
                                allow_infinity=False))
    origin = draw(st.tuples(finite, finite, finite))
    return OccupancyGrid(origin, resolution, dims,
                         bytes(c % 3 for c in cells))


@deterministic
@given(grids())
def test_grid_text_round_trip(grid):
    back = loads_grid(dumps_grid(grid))
    assert back == grid and repr(back) == repr(grid)


# --------------------------------------------------------------- segments


@st.composite
def splines(draw):
    count = draw(st.integers(1, 4))
    taus = draw(st.lists(st.floats(min_value=0.0, exclude_min=True,
                                   allow_infinity=False),
                         min_size=count, max_size=count))
    coeffs = st.lists(finite, min_size=1, max_size=6).map(
        lambda cs: Poly1(tuple(cs)))
    segments = draw(st.lists(st.tuples(coeffs, coeffs, coeffs),
                             min_size=count, max_size=count))
    return SplineTrajectory(draw(st.integers(1, 4)), tuple(taus),
                            tuple(segments))


@deterministic
@given(splines())
def test_segments_round_trip_what_write_segments_writes(tmp_path_factory,
                                                        spline):
    path = tmp_path_factory.mktemp("segs") / "t.segs"
    write_segments(spline, str(path))
    back = loads_segments(path.read_text(encoding="ascii"))
    assert back == spline and repr(back) == repr(spline)


TOKENS = ["segtraj", "v1", "monomial", "order", "count", "seg", "x", "y",
          "z", "0", "1", "2", "-1", "1.5", "-0.0", "nan", "inf", "1e999",
          "abc", "", " "]
junk_lines = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=5).map(
    " ".join), st.text(max_size=12))


@deterministic
@given(splines(), st.data())
def test_damaged_segments_parse_or_name_a_line(spline, data):
    """Replacing, inserting or dropping lines, or cutting the text short,
    gives a spline or a ValueError that starts with the line it names."""
    lines = dumps_segments(spline).split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["replace", "insert", "drop", "cut"]))
        if how == "replace":
            lines[at] = data.draw(junk_lines)
        elif how == "insert":
            lines.insert(at, data.draw(junk_lines))
        elif how == "drop" and len(lines) > 1:
            del lines[at]
        elif how == "cut":
            lines = lines[:at + 1]
            lines[at] = lines[at][:data.draw(st.integers(0, len(lines[at])))]
    try:
        back = loads_segments("\n".join(lines))
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
    else:
        assert isinstance(back, SplineTrajectory)


# ------------------------------------------------------------ CLI numbers


def spelled(v: float, style: int) -> str:
    return (repr(v), f"{v:.17g}", f" {v!r} ")[style]


@deterministic
@given(st.lists(finite, min_size=3, max_size=9), st.integers(0, 2))
def test_parse_floats_accepts_finite_numbers(vals, style):
    text = ",".join(spelled(v, style) for v in vals)
    counts = (3, 6, 9)
    if len(vals) not in counts:
        with pytest.raises(UsageError):
            _parse_floats(text, counts, "--start")
        return
    got = _parse_floats(text, counts, "--start")
    assert got == vals and repr(got) == repr(vals)


@deterministic
@given(st.lists(finite, min_size=2, max_size=8), non_finite,
       st.integers(0, 8), st.sampled_from(["repr", "overflow"]))
def test_parse_floats_rejects_non_finite_numbers(vals, bad, at, spelling):
    vals.insert(min(at, len(vals)), bad)
    text = ",".join("1e999" if spelling == "overflow" and not
                    math.isfinite(v) else repr(v) for v in vals)
    with pytest.raises(UsageError):
        _parse_floats(text, (3, 6, 9), "--goal")


@deterministic
@given(st.sampled_from([3, 6, 9]).flatmap(
    lambda n: st.lists(finite, min_size=n, max_size=n)),
       st.sampled_from([2, 3]))
def test_parse_state_pads_finite_numbers(vals, order):
    text = ",".join(repr(v) for v in vals)
    if len(vals) > 3 * order:
        with pytest.raises(UsageError):
            _parse_state(text, order)
        return
    state = _parse_state(text, order)
    padded = vals + [0.0] * (3 * order - len(vals))
    flat = [c for d in state.derivs for c in d]
    assert flat == padded and repr(flat) == repr(padded)
    assert state.order == order


@deterministic
@given(st.sampled_from([3, 6]).flatmap(
    lambda n: st.lists(finite, min_size=n, max_size=n)),
       non_finite, st.integers(0, 5), st.sampled_from([2, 3]))
def test_parse_state_rejects_non_finite_numbers(vals, bad, at, order):
    vals[min(at, len(vals) - 1)] = bad
    with pytest.raises(UsageError):
        _parse_state(",".join(repr(v) for v in vals), order)
