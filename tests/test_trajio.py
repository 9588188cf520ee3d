"""Tests for trajectory sampling and the CSV / segment file formats."""

import random

import pytest

from kinoplan.lattice import propagate
from kinoplan.lti import State
from kinoplan.refine import RefineSpec, refine
from kinoplan.trajio import (
    EmptyTrajectoryError,
    dumps_segments,
    loads_segments,
    read_segments,
    sample,
    write_csv,
    write_segments,
)


def coast():
    x0 = State.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    return propagate(x0, (0.0, 0.0, 0.0), 1.0, rho=0.0)


def min_jerk():
    return refine(RefineSpec(
        n_prime=3,
        waypoints=((1.0, 0.0, 0.0),),
        seg_times=(1.0,),
        s0=State.rest(3),
        sg=State.rest(3, (1.0, 0.0, 0.0)),
    ))


# -------------------------------------------------------------- sample


def test_sample_coast_positions():
    st = sample([coast()], 0.5)
    assert [row[0] for row in st.rows] == [0.0, 0.5, 1.0]
    assert [row[1] for row in st.rows] == pytest.approx([0.0, 0.5, 1.0])
    assert all(row[2] == 0.0 and row[3] == 0.0 for row in st.rows)


def test_sample_large_dt_keeps_endpoints():
    st = sample([coast()], 10.0)
    assert [row[0] for row in st.rows] == [0.0, 1.0]


def test_sample_spline_endpoint():
    st = sample(min_jerk(), 0.25)
    last = st.rows[-1]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(1.0, abs=1e-9)


def test_sample_includes_segment_boundaries():
    prims = [coast()]
    prims.append(propagate(prims[0].end_state(), (1.0, 0.0, 0.0), 0.7, 0.0))
    st = sample(prims, 0.4)
    times = [row[0] for row in st.rows]
    assert times == sorted(times)
    assert 1.0 in times
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.7)
    # Strictly increasing: boundary duplicates are merged.
    assert all(b > a for a, b in zip(times, times[1:]))


def test_sample_row_width_matches_order():
    st2 = sample([coast()], 0.5)
    assert len(st2.rows[0]) == 1 + 3 * 3  # t + p, v, a
    st3 = sample(min_jerk(), 0.5)
    assert len(st3.rows[0]) == 1 + 4 * 3  # t + p, v, a, j


def test_sample_rejects_bad_input():
    with pytest.raises(EmptyTrajectoryError):
        sample([], 0.5)
    with pytest.raises(ValueError):
        sample([coast()], 0.0)


def test_sample_derivative_columns_consistent():
    # Velocity column is the numerical slope of the position column.
    st = sample(min_jerk(), 0.01)
    rows = st.rows
    for i in range(1, len(rows) - 1):
        dt = rows[i + 1][0] - rows[i - 1][0]
        slope = (rows[i + 1][1] - rows[i - 1][1]) / dt
        assert slope == pytest.approx(rows[i][4], abs=5e-3)


# ------------------------------------------------------------------ csv


def test_write_csv_header_and_shape(tmp_path):
    st = sample([coast()], 0.5)
    path = tmp_path / "traj.csv"
    write_csv(st, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,px,py,pz,vx,vy,vz,ax,ay,az"
    assert len(lines) == 1 + len(st.rows)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        [float(f) for f in fields]


def test_write_csv_spline_header(tmp_path):
    st = sample(min_jerk(), 0.5)
    path = tmp_path / "traj.csv"
    write_csv(st, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,px,py,pz,vx,vy,vz,ax,ay,az,jx,jy,jz"


# ------------------------------------------------------------- segments


def test_segments_roundtrip_primitives():
    prims = [coast()]
    prims.append(propagate(prims[0].end_state(), (0.3, -0.2, 0.0), 1.3, 2.0))
    text = dumps_segments(prims)
    traj = loads_segments(text)
    assert traj.seg_times == (1.0, 1.3)
    for seg, prim in zip(traj.segments, prims):
        for ax in range(3):
            assert seg[ax].coeffs == prim.axis_polys[ax].coeffs
    assert dumps_segments(traj) == text


def test_segments_roundtrip_spline(tmp_path):
    traj = min_jerk()
    path = tmp_path / "t.segs"
    write_segments(traj, str(path))
    back = read_segments(str(path))
    assert back.seg_times == traj.seg_times
    for a, b in zip(back.segments, traj.segments):
        for ax in range(3):
            assert a[ax].coeffs == b[ax].coeffs


def test_segments_header_lines():
    lines = dumps_segments([coast()]).splitlines()
    assert lines[0] == "segtraj v1 monomial"
    assert lines[1] == "order 2"
    assert lines[2] == "count 1"
    assert lines[3] == "seg 1.0"


def test_segments_reject_garbage():
    with pytest.raises(ValueError):
        loads_segments("not a segment file\n")
    with pytest.raises(ValueError):
        loads_segments("segtraj v1 monomial\norder 2\ncount 1\n")
    with pytest.raises(EmptyTrajectoryError):
        dumps_segments([])


def test_segments_random_roundtrip():
    rng = random.Random(88)
    for _ in range(10):
        prims = []
        s = State.of(*[tuple(rng.uniform(-2, 2) for _ in range(3))
                       for _ in range(2)])
        for _ in range(rng.randint(1, 5)):
            u = tuple(rng.uniform(-1, 1) for _ in range(3))
            prims.append(propagate(s, u, rng.uniform(0.2, 2.0), 1.0))
            s = prims[-1].end_state()
        text = dumps_segments(prims)
        back = loads_segments(text)
        assert dumps_segments(back) == text


def _one_segment(seg="seg 1.0", x="x 0.0 1.0"):
    return "\n".join(["segtraj v1 monomial", "order 2", "count 1", seg, x,
                      "y 0.0", "z 0.0"]) + "\n"


def test_segments_parse_one_segment():
    traj = loads_segments(_one_segment())
    assert traj.seg_times == (1.0,)
    assert traj.segments[0][0].coeffs == (0.0, 1.0)


@pytest.mark.parametrize("seg", ["seg nan", "seg inf", "seg -inf",
                                 "seg 0.0", "seg -1.0"])
def test_segments_reject_bad_duration(seg):
    with pytest.raises(ValueError, match="line 4: segment duration"):
        loads_segments(_one_segment(seg=seg))


def test_segments_reject_axis_without_coefficients():
    with pytest.raises(ValueError, match="line 5: axis x has no coeff"):
        loads_segments(_one_segment(x="x"))
    # Blank lines are skipped, but the reported number is the file's own.
    text = _one_segment(x="x").replace("count 1\n", "count 1\n\n")
    with pytest.raises(ValueError, match="line 6: axis x"):
        loads_segments(text)


def test_segments_reject_lines_beyond_the_count():
    text = _one_segment() + "seg 2.0\nx 1.0\ny 1.0\nz 1.0\n"
    with pytest.raises(ValueError, match="line 8: more lines than the 1 "):
        loads_segments(text)
