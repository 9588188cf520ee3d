"""Outside-in tracer: wraps the module attributes kinoplan's callers look up.

Nothing in `src/` knows about tracing. `install` replaces a function
reference in a module namespace (or on a class) with a wrapper that records a
span, and `uninstall` puts every original back. Because the callers resolve
these names at call time, the wrappers see every call the planner makes.

Spans nest on a stack, so a span's self time is its duration minus the time
covered by its direct children, exactly. Aggregates (calls, total time, self
time, user counters) are kept for every span; full span records
(query id, name, start, end, parent index) are kept in memory up to a cap and
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# Full span records kept in memory; aggregates cover every call regardless.
MAX_SPANS = 50_000

# (module path, attribute, span name, counter). A counter, when given, is
# (counter name, function of the call's result giving the amount to add).
SEARCH_TARGETS = (
    ("kinoplan.search", "get_successors", "search.get_successors", None),
    ("kinoplan.search", "propagate", "lattice.propagate", None),
    ("kinoplan.search", "check_dynamics", "gridmap.check_dynamics",
     ("gridmap.dynamics_pass", bool)),
    ("kinoplan.search", "check_collision", "gridmap.check_collision",
     ("gridmap.collision_pass", bool)),
    ("kinoplan.search", "lattice_key", "lattice.lattice_key", None),
    ("kinoplan.search", "h_lqmt", "lti.h_lqmt", None),
    ("kinoplan.search", "lqmt_optimal_time", "lti.lqmt_optimal_time", None),
    ("kinoplan.search", "goal_reached", "search.goal_reached", None),
    ("kinoplan.search", "heappush", "search.heappush", None),
    ("kinoplan.search", "heappop", "search.heappop", None),
    ("kinoplan.lti", "effort_between", "lti.effort_between", None),
    ("kinoplan.lti", "real_roots", "polyalg.real_roots", None),
    ("kinoplan.polyalg", "real_roots", "polyalg.real_roots", None),
    ("kinoplan.gridmap", "extrema_on", "polyalg.extrema_on", None),
    ("kinoplan.lattice", "MotionPrimitive.end_state", "lattice.end_state",
     None),
)

# The benchmark's own query call on the in-process workloads.
PLAN_TARGETS = (
    ("kinoplan", "plan", "search.plan", None),
)

# The benchmark's own CLI call and read-back, and what cli.main calls.
CLI_TARGETS = (
    ("kinoplan.cli", "main", "cli.main", None),
    ("kinoplan", "read_segments", "trajio.read_segments", None),
    ("kinoplan.cli", "plan", "search.plan", None),
    ("kinoplan.cli", "load_grid", "gridmap.load_grid", None),
    ("kinoplan.cli", "refine", "refine.refine",
     ("refine.segments", lambda spline: len(spline.seg_times))),
    ("kinoplan.cli", "sample", "trajio.sample",
     ("trajio.rows", lambda sampled: len(sampled.rows))),
    ("kinoplan.cli", "write_csv", "trajio.write", None),
    ("kinoplan.cli", "write_segments", "trajio.write", None),
)


def _resolve(module_path: str, attr: str) -> tuple[Any, str]:
    """The object holding the attribute, and the attribute's own name."""
    owner: Any = importlib.import_module(module_path)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder; not thread-safe, and the benchmark uses one thread."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.query = -1
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """A wrapper that records one span per call of fn."""
        stack = self._stack
        spans = self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            idx = -1
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append([self.query, name, 0.0, 0.0, parent])
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[0]
                if idx >= 0:
                    spans[idx][2] = t0
                    spans[idx][3] = t1
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str,
                 amount: Callable[[Any], float]) -> Callable[[Any], None]:
        counters = self.counters

        def on_result(out):
            counters[name] += amount(out)
        return on_result

    # ------------------------------------------------------------ patching

    def install(self, targets) -> None:
        """Wrap every (module, attribute, span, counter) target."""
        for module_path, attr, span, counter in targets:
            owner, name = _resolve(module_path, attr)
            original = getattr(owner, name)
            hook = self._counter(*counter) if counter else None
            setattr(owner, name, self.wrap(span, original, hook))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore the originals in reverse order of installation."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- reports

    def write_spans(self, path: str) -> None:
        """One JSON object per line: q, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for q, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"q": q, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
