"""Sampling planned trajectories and writing them to disk.

Two on-disk forms: a CSV of sampled derivatives for plotting, and an exact
segment listing (duration plus monomial coefficients per axis) that parses
back bit-identically. Wherever a trajectory is expected, a refined spline
or a primitive sequence is accepted: SplineTrajectory.of reads the latter
as a spline with one segment per primitive, so sampling and writing see
one piecewise type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polyalg import Poly1, derivatives_evaluator
from .refine import EmptyTrajectoryError, SplineTrajectory, Trajectory

_DERIV_NAMES = ("p", "v", "a", "j", "s")


@dataclass(frozen=True)
class SampledTrajectory:
    """Rows of (t, then x/y/z for each derivative order 0..order)."""

    order: int
    rows: tuple[tuple[float, ...], ...]

    def times(self) -> tuple[float, ...]:
        return tuple(r[0] for r in self.rows)


def sample(traj: Trajectory, dt: float) -> SampledTrajectory:
    """Evaluate derivatives 0..order on a dt grid plus all segment bounds.

    Rows are strictly increasing in t, always starting at 0 and ending at
    the total duration; a boundary time is evaluated on the segment that
    starts there (the final time on the last segment).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    spline = SplineTrajectory.of(traj)
    taus = spline.seg_times

    starts = [0.0]
    for tau in taus:
        starts.append(starts[-1] + tau)
    total = starts[-1]

    times = set(starts)
    k = 1
    while k * dt < total:
        times.add(k * dt)
        k += 1
    ts = sorted(times)

    evals = [derivatives_evaluator(polys, spline.order + 1)
             for polys in spline.segments]
    rows = []
    seg = 0
    last = len(taus) - 1
    for t in ts:
        while seg < last and t >= starts[seg + 1]:
            seg += 1
        local = min(max(t - starts[seg], 0.0), taus[seg])
        row = [t]
        for vals in evals[seg](local):
            row.extend(vals)
        rows.append(tuple(row))
    return SampledTrajectory(spline.order, tuple(rows))


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
    spline = SplineTrajectory.of(traj)
    lines = ["segtraj v1 monomial", f"order {spline.order}",
             f"count {len(spline.seg_times)}"]
    for tau, polys in zip(spline.seg_times, spline.segments):
        lines.append(f"seg {tau!r}")
        for tag, poly in zip("xyz", polys):
            lines.append(tag + " " + " ".join(repr(c) for c in poly.coeffs))
    return "\n".join(lines) + "\n"


def write_segments(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_segments(traj))


def loads_segments(text: str) -> SplineTrajectory:
    """Parse the segment format back into a piecewise polynomial.

    Raises ValueError naming the 1-based line of the first malformed entry
    (one past the last line when the file ends early): a bad header, an
    order below 1 or a negative count, a duration that is not finite and
    positive, an axis without coefficients, a value that is not a finite
    number, or lines beyond the declared segments.
    """
    numbered = [(no, ln) for no, ln in enumerate(text.split("\n"), 1)
                if ln.strip()]
    past_end = text.count("\n") + 1

    def fail(idx: int, why: str):
        no = numbered[idx][0] if idx < len(numbered) else past_end
        raise ValueError(f"line {no}: {why}")

    def fields(idx: int, tag: str) -> list[str]:
        if idx >= len(numbered):
            fail(idx, f"expected '{tag}', found the end of the file")
        parts = numbered[idx][1].split()
        if parts[0] != tag:
            fail(idx, f"expected '{tag}'")
        return parts[1:]

    def number(idx: int, word: str, kind=float):
        try:
            return kind(word)
        except ValueError:
            fail(idx, f"{word!r} is not a valid {kind.__name__}")

    def single(idx: int, tag: str, kind=float):
        vals = fields(idx, tag)
        if len(vals) != 1:
            fail(idx, f"expected '{tag}' and one number")
        return number(idx, vals[0], kind)

    if not numbered or numbered[0][1] != "segtraj v1 monomial":
        fail(0, "bad segment file header")
    order = single(1, "order", int)
    if order < 1:
        fail(1, f"order {order} is below 1")
    count = single(2, "count", int)
    if count < 0:
        fail(2, f"count {count} is negative")
    taus = []
    segments = []
    idx = 3
    for _ in range(count):
        tau = single(idx, "seg")
        # A negated range test, so that NaN fails it too.
        if not 0.0 < tau < math.inf:
            fail(idx, f"segment duration {tau} is not finite and positive")
        taus.append(tau)
        polys = []
        for off, tag in enumerate("xyz", 1):
            coeffs = fields(idx + off, tag)
            if not coeffs:
                fail(idx + off, f"axis {tag} has no coefficients")
            vals = tuple(number(idx + off, c) for c in coeffs)
            if not all(math.isfinite(v) for v in vals):
                fail(idx + off, f"axis {tag} has a non-finite coefficient")
            polys.append(Poly1(vals))
        segments.append((polys[0], polys[1], polys[2]))
        idx += 4
    if idx < len(numbered):
        fail(idx, f"more lines than the {count} segments declared")
    return SplineTrajectory(order, tuple(taus), tuple(segments))


def read_segments(path: str) -> SplineTrajectory:
    with open(path, "r", encoding="ascii") as fh:
        return loads_segments(fh.read())
