"""Sampling planned trajectories and writing them to disk.

Two on-disk forms: a CSV of sampled derivatives for plotting, and an exact
segment listing (duration plus monomial coefficients per axis) that parses
back bit-identically. Both primitive sequences and refined splines are
accepted wherever a trajectory is expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .lattice import MotionPrimitive
from .polyalg import Poly1
from .refine import SplineTrajectory

Trajectory = Union[Sequence[MotionPrimitive], SplineTrajectory]

_DERIV_NAMES = ("p", "v", "a", "j", "s")


class EmptyTrajectoryError(ValueError):
    """Sampling or serialization of a trajectory with no segments."""


@dataclass(frozen=True)
class SampledTrajectory:
    """Rows of (t, then x/y/z for each derivative order 0..order)."""

    order: int
    rows: tuple[tuple[float, ...], ...]

    def times(self) -> tuple[float, ...]:
        return tuple(r[0] for r in self.rows)


def _as_segments(traj: Trajectory) -> tuple[int, tuple[float, ...],
                                            tuple[tuple[Poly1, Poly1, Poly1], ...]]:
    """Normalize to (derivative order, segment times, axis polynomials)."""
    if isinstance(traj, SplineTrajectory):
        if not traj.segments:
            raise EmptyTrajectoryError("spline has no segments")
        return traj.order, traj.seg_times, traj.segments
    prims = tuple(traj)
    if not prims:
        raise EmptyTrajectoryError("no primitives to sample")
    order = prims[0].x0.order
    return (order, tuple(p.tau for p in prims),
            tuple(p.axis_polys for p in prims))


def sample(traj: Trajectory, dt: float) -> SampledTrajectory:
    """Evaluate derivatives 0..order on a dt grid plus all segment bounds.

    Rows are strictly increasing in t, always starting at 0 and ending at
    the total duration; a boundary time is evaluated on the segment that
    starts there (the final time on the last segment).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    order, taus, segment_polys = _as_segments(traj)

    starts = [0.0]
    for tau in taus:
        starts.append(starts[-1] + tau)
    total = starts[-1]

    times = {0.0, total}
    times.update(starts[1:-1])
    k = 1
    while True:
        t = k * dt
        if t >= total:
            break
        times.add(t)
        k += 1
    ts = sorted(times)

    derivs = [tuple(tuple(p.derivative(i) for p in polys) for i in range(order + 1))
              for polys in segment_polys]

    rows = []
    seg = 0
    last = len(taus) - 1
    for t in ts:
        while seg < last and t >= starts[seg + 1]:
            seg += 1
        local = min(max(t - starts[seg], 0.0), taus[seg])
        row = [t]
        for dpolys in derivs[seg]:
            row.extend(p.eval(local) for p in dpolys)
        rows.append(tuple(row))
    return SampledTrajectory(order, tuple(rows))


def write_csv(sampled: SampledTrajectory, path: str) -> None:
    """Header t,px,py,pz,vx,... then one full-precision row per sample."""
    if not sampled.rows:
        raise EmptyTrajectoryError("nothing to write")
    names = ["t"]
    for i in range(sampled.order + 1):
        tag = _DERIV_NAMES[i]
        names.extend(f"{tag}{ax}" for ax in "xyz")
    lines = [",".join(names)]
    for row in sampled.rows:
        lines.append(",".join(repr(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dumps_segments(traj: Trajectory) -> str:
    """Exact text form: per segment its duration and monomial coefficients."""
    order, taus, segment_polys = _as_segments(traj)
    lines = ["segtraj v1 monomial", f"order {order}", f"count {len(taus)}"]
    for tau, polys in zip(taus, segment_polys):
        lines.append(f"seg {tau!r}")
        for tag, poly in zip("xyz", polys):
            lines.append(tag + " " + " ".join(repr(c) for c in poly.coeffs))
    return "\n".join(lines) + "\n"


def write_segments(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_segments(traj))


def loads_segments(text: str) -> SplineTrajectory:
    """Parse the segment format back into a piecewise polynomial.

    Raises ValueError naming the 1-based line of a malformed entry: a
    duration that is not finite and positive, or an axis without
    coefficients.
    """
    numbered = [(no, ln) for no, ln in enumerate(text.split("\n"), 1)
                if ln.strip()]
    numbers = [no for no, _ln in numbered]
    lines = [ln for _no, ln in numbered]
    if not lines or lines[0] != "segtraj v1 monomial":
        raise ValueError("bad segment file header")
    if len(lines) < 3 or not lines[1].startswith("order ") \
            or not lines[2].startswith("count "):
        raise ValueError("missing order/count lines")
    order = int(lines[1].split()[1])
    count = int(lines[2].split()[1])
    idx = 3
    taus = []
    segments = []
    for _ in range(count):
        if idx + 3 >= len(lines) or not lines[idx].startswith("seg "):
            where = f"line {numbers[idx]}" if idx < len(lines) else "the end"
            raise ValueError(f"expected 'seg' and three axis lines at {where}")
        tau = float(lines[idx].split()[1])
        # A negated range test, so that NaN fails it too.
        if not 0.0 < tau < math.inf:
            raise ValueError(f"line {numbers[idx]}: segment duration {tau} "
                             "is not finite and positive")
        taus.append(tau)
        polys = []
        for off, tag in enumerate("xyz"):
            no = numbers[idx + 1 + off]
            parts = lines[idx + 1 + off].split()
            if parts[0] != tag:
                raise ValueError(f"expected axis {tag} at line {no}")
            if len(parts) == 1:
                raise ValueError(f"line {no}: axis {tag} has no coefficients")
            polys.append(Poly1(tuple(float(v) for v in parts[1:])))
        segments.append((polys[0], polys[1], polys[2]))
        idx += 4
    if len(taus) != count:
        raise ValueError("segment count mismatch")
    return SplineTrajectory(order, tuple(taus), tuple(segments))


def read_segments(path: str) -> SplineTrajectory:
    with open(path, "r", encoding="ascii") as fh:
        return loads_segments(fh.read())
