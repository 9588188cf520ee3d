"""kinoplan benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload corpus_lqmt --seed 0 --seconds 40 \
        --trace 0

A closed loop replays seeded planning queries one at a time, in this single
process, through kinoplan's public API until `--seconds` of query wall time
have been measured (or exactly `--queries N` queries, for count checks).
Every query's output is checked after the timed phase. The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`. The end-to-end timings are scaled to a reference host speed,
measured by a fixed loop run before every query (see `at_ref_speed`). The traced run first replays queries untraced, then the same
queries with the tracer installed, so it can report the tracing overhead.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_PCT = 90

# The host is shared: the same code runs up to 1.6x slower for minutes at a
# time, on both cores at once. So before each query, outside its timing, a
# run times this fixed pure-Python loop, and the end-to-end timings are
# scaled to the host speed at which the loop takes REF_LOOP_S (about its
# time on a 2.1 GHz Xeon VM when the host is quiet). A query's scale comes
# from the median loop time of the queries within REF_WINDOW of it.
REF_LOOP_ITERS = 20_000
REF_LOOP_S = 1.25e-3
REF_WINDOW = 8

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t0 = time.perf_counter(); import kinoplan; "
                 "print(time.perf_counter() - t0)")


def _on_path(path: Path) -> None:
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def _import_kinoplan() -> None:
    """Import kinoplan from this checkout's src, or exit with an error."""
    if not (SRC / "kinoplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kinoplan sources under {SRC}; run from a "
                 "checkout of the repository")
    _on_path(SRC)
    import kinoplan
    if SRC.resolve() not in Path(kinoplan.__file__).resolve().parents:
        sys.exit(f"perfbench: kinoplan was imported from {kinoplan.__file__},"
                 f" not from {SRC}")


def _import_seconds() -> float:
    """Import time of kinoplan in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ref_loop_seconds() -> float:
    """Wall time of the fixed reference loop, a probe of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_ref_speed(seconds: list[float], loops: list[float]) -> list[float]:
    """Each time scaled by REF_LOOP_S over the median loop time near it."""
    return [t * REF_LOOP_S / statistics.median(
                loops[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(seconds)]


def run_one(w, inputs, i: int):
    ref_s = ref_loop_seconds()
    rec = w.execute(inputs, i)
    rec.ref_s = ref_s
    w.collect(inputs, rec)
    return rec


def run_queries(w, inputs, seconds: float, at_least: int,
                count: int | None, between=None) -> list:
    """Closed loop: next query only after the previous one has finished.

    Runs `count` queries when given, else until `seconds` of query wall time
    have been measured and at least `at_least` queries have been made.
    `between(busy)`, when given, runs after each query, outside its timing.
    """
    run_one(w, inputs, 0)  # warm-up: lazy imports, first-call costs
    records = []
    busy = 0.0
    while ((len(records) < count) if count is not None
           else (busy < seconds or len(records) < at_least)):
        records.append(run_one(w, inputs, len(records)))
        busy += records[-1].seconds
        if between is not None:
            between(busy)
    return records


def judge_all(w, inputs, records) -> tuple[list[tuple[str, bool]], list[str]]:
    """Each record's (failure reason or "", clean solve), and the distinct
    failure reasons."""
    verdicts = [w.judge(inputs, rec) for rec in records]
    reasons: list[str] = []
    for reason, _clean in verdicts:
        if reason and reason not in reasons:
            reasons.append(reason)
    return verdicts, reasons


def timed_setup(w, spec, seed: int, workdir: str, totals: list):
    """One set-up: import in a fresh interpreter, then build the inputs.

    Appends its seconds, at the reference host speed measured just before
    and after it, to `totals` and returns the inputs.
    """
    loops = [ref_loop_seconds() for _ in range(5)]
    import_s = _import_seconds()
    t0 = time.perf_counter()
    inputs = w.setup(spec, seed, os.path.join(workdir, f"setup{len(totals)}"))
    seconds = import_s + time.perf_counter() - t0
    loops += [ref_loop_seconds() for _ in range(5)]
    totals.append(seconds * REF_LOOP_S / statistics.median(loops))
    return inputs


def end_to_end(w, spec, seed: int, seconds: float, count: int | None,
               workdir: str) -> tuple[dict, int, int, list[str]]:
    # The queries use the first set-up's inputs. The other set-ups are
    # spread over the timed phase, between queries and outside their
    # timing, so the median set-up time sees the machine as the queries do.
    setups: list[float] = []
    inputs = timed_setup(w, spec, seed, workdir, setups)

    def between(busy: float) -> None:
        if (len(setups) < SETUP_REPEATS
                and busy >= seconds * len(setups) / SETUP_REPEATS):
            timed_setup(w, spec, seed, workdir, setups)

    records = run_queries(w, inputs, seconds, spec.judged, count, between)
    while len(setups) < SETUP_REPEATS:
        timed_setup(w, spec, seed, workdir, setups)
    setup_s = statistics.median(setups)
    verdicts, reasons = judge_all(w, inputs, records)
    failed = sum(bool(reason) for reason, _clean in verdicts)
    # The correctness ratios cover the same leading queries in every run of
    # a seed, however many more queries the timed loop made.
    judged = verdicts[:spec.judged]
    judged_failed = sum(bool(reason) for reason, _clean in judged)
    clean = sum(ok for _reason, ok in judged)

    n = len(records)
    raw = [r.seconds for r in records]
    loops = [r.ref_s for r in records]
    times = sorted(at_ref_speed(raw, loops))
    k = math.ceil(TAIL_PCT / 100.0 * n) - 1
    beyond = n - k - 1
    print(f"{spec.name} seed {seed}: {n} queries, query_ms_tail is "
          f"p{TAIL_PCT} ({beyond} queries beyond it), "
          f"error_rate {failed / n:.4f}, clean solves {clean}/{len(judged)} "
          f"of the judged queries; unscaled {n / sum(raw):.4f} queries/s, "
          f"p50 {1e3 * statistics.median(raw):.4f} ms; reference loop "
          f"median {1e3 * statistics.median(loops):.4f} ms "
          f"({1e3 * REF_LOOP_S} ms at the reference speed)")
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "queries_per_s": _metric(n / sum(times), "1/s"),
        "query_ms_p50": _metric(1e3 * statistics.median(times), "ms"),
        "query_ms_tail": _metric(1e3 * times[k], "ms"),
        "clean_solve_rate": _metric(clean / len(judged), "ratio"),
        "ok_rate": _metric(1.0 - judged_failed / len(judged), "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    return metrics, n, failed, reasons


def per_layer(w, spec, seed: int, seconds: float, count: int | None,
              workdir: str, trace_out: str) -> tuple[dict, int, int, list]:
    from tracer import CLI_TARGETS, PLAN_TARGETS, SEARCH_TARGETS, Tracer

    inputs = w.setup(spec, seed, workdir)
    plain = run_queries(w, inputs, seconds / 2.0, 1, count)

    tracer = Tracer()
    traced = []
    with tracer:
        tracer.install(SEARCH_TARGETS
                       + (CLI_TARGETS if spec.via_cli else PLAN_TARGETS))
        for i in range(len(plain)):
            tracer.query = i
            traced.append(run_one(w, inputs, i))
    verdicts, reasons = judge_all(w, inputs, traced)
    failed = sum(bool(reason) for reason, _clean in verdicts)

    tracer.write_spans(os.path.join(trace_out,
                                    f"trace-{spec.name}-{seed}.jsonl"))
    return (layer_metrics(w, tracer, plain, traced), len(traced), failed,
            reasons)


def layer_metrics(w, t, plain, traced) -> dict:
    """Per-query means of counts and seconds, plus ratios, from one trace."""
    n = len(traced)
    calls, total, own, ctr = t.calls, t.total_s, t.self_s, t.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_q(v: float) -> float:
        return v / n

    def planned(recs):
        """(expansions, planning seconds) as the planner reported them."""
        exp = sec = 0.0
        for r in recs:
            if r.result is not None:
                exp += r.result.expanded
                sec += r.result.planning_seconds
            elif r.summary:
                fields = w.summary_fields(r.summary)
                if len(fields) == 4:
                    exp += int(fields[2])
                    sec += float(fields[3])
        return exp, sec

    exp_plain, sec_plain = planned(plain)
    exp_traced, _ = planned(traced)
    q, s, us, frac = "count/query", "s/query", "us", "ratio"
    pops = calls["search.heappop"]
    heap = total["search.heappush"] + total["search.heappop"]
    m = {
        "search.expansions": (per_q(exp_traced), q),
        "search.heap_pushes": (per_q(calls["search.heappush"]), q),
        "search.heap_pops": (per_q(pops), q),
        "search.useful_pop_frac": (ratio(exp_traced, pops), frac),
        "search.heap_s": (per_q(heap), s),
        "search.goal_check_s": (per_q(total["search.goal_reached"]), s),
        "search.self_s": (per_q(own["search.plan"]), s),
        "search.us_per_expansion": (1e6 * ratio(sec_plain, exp_plain), us),
        "lattice.propagate_calls": (per_q(calls["lattice.propagate"]), q),
        "lattice.propagate_s": (per_q(total["lattice.propagate"]), s),
        "lattice.end_state_s": (per_q(total["lattice.end_state"]), s),
        "lattice.key_calls": (per_q(calls["lattice.lattice_key"]), q),
        "lattice.key_s": (per_q(total["lattice.lattice_key"]), s),
        "gridmap.dynamics_calls": (per_q(calls["gridmap.check_dynamics"]), q),
        "gridmap.dynamics_s": (per_q(total["gridmap.check_dynamics"]), s),
        "gridmap.dynamics_pass_frac": (
            ratio(ctr["gridmap.dynamics_pass"],
                  calls["gridmap.check_dynamics"]), frac),
        "gridmap.collision_calls": (per_q(calls["gridmap.check_collision"]),
                                    q),
        "gridmap.collision_s": (per_q(total["gridmap.check_collision"]), s),
        "gridmap.collision_pass_frac": (
            ratio(ctr["gridmap.collision_pass"],
                  calls["gridmap.check_collision"]), frac),
        "gridmap.load_s": (per_q(total["gridmap.load_grid"]), s),
        "polyalg.extrema_calls": (per_q(calls["polyalg.extrema_on"]), q),
        "polyalg.extrema_s": (per_q(total["polyalg.extrema_on"]), s),
        "polyalg.roots_calls": (per_q(calls["polyalg.real_roots"]), q),
        "lti.h_calls": (per_q(calls["lti.h_lqmt"]), q),
        "lti.h_s": (per_q(total["lti.h_lqmt"]), s),
        "lti.h_us": (1e6 * ratio(total["lti.h_lqmt"], calls["lti.h_lqmt"]),
                     us),
        "lti.effort_calls": (per_q(calls["lti.effort_between"]), q),
        "lti.effort_per_h": (ratio(calls["lti.effort_between"],
                                   calls["lti.h_lqmt"]), frac),
        "lti.optimal_time_s": (per_q(total["lti.lqmt_optimal_time"]), s),
        "refine.calls": (per_q(calls["refine.refine"]), q),
        "refine.segments": (per_q(ctr["refine.segments"]), q),
        "refine.s": (per_q(total["refine.refine"]), s),
        "trajio.sample_s": (per_q(total["trajio.sample"]), s),
        "trajio.rows": (per_q(ctr["trajio.rows"]), q),
        "trajio.write_s": (per_q(total["trajio.write"]), s),
        "trajio.read_s": (per_q(total["trajio.read_segments"]), s),
        "trajio.bytes": (per_q(sum(r.out_bytes for r in traced)), "B/query"),
        "cli.calls": (per_q(calls["cli.main"]), q),
        "cli.self_s": (per_q(own["cli.main"]), s),
        "trace.overhead_frac": (
            ratio(sum(r.seconds for r in traced),
                  sum(r.seconds for r in plain)) - 1.0, frac),
    }
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--queries", type=int, default=None,
                    help="run exactly this many queries instead of timing")
    ap.add_argument("--trace-out", default=".perfbench_out",
                    help="directory for span files and the run's scratch "
                    "files")
    args = ap.parse_args(argv)
    _import_kinoplan()
    _on_path(Path(__file__).resolve().parent)
    import workloads as w
    if args.workload not in w.SPECS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(w.SPECS)}")
    if args.queries is not None and args.queries < 1:
        ap.error("--queries must be at least 1")
    spec = w.SPECS[args.workload]

    os.makedirs(args.trace_out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.trace_out)
    try:
        if args.trace:
            metrics, n, failed, reasons = per_layer(
                w, spec, args.seed, args.seconds, args.queries, workdir,
                args.trace_out)
        else:
            metrics, n, failed, reasons = end_to_end(
                w, spec, args.seed, args.seconds, args.queries, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
