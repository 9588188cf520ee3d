"""The benchmark's own checks: its contract, its tracer and its workloads.

Run with `python3 -m pytest -q perfbench`. Each test keeps query counts
small; none of them times anything.
"""

import dataclasses
import heapq
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import kinoplan  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from kinoplan.search import PlanStatus  # noqa: E402

COUNT_UNIT = "count/query"


def bench(capsys, tmp_path, workload, trace, queries, seed=0):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--queries", str(queries),
                     "--trace-out", str(tmp_path / "out")])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1])


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_lqmt_and_dijkstra_costs_agree():
    # Goal at rest keeps LQMT admissible, so both searches are optimal.
    seed, queries = 0, 16
    spec = w.SPECS["corpus_lqmt"]
    lq = w.setup(spec, seed, "")
    dj = w.setup(dataclasses.replace(spec, heuristic=kinoplan.Heuristic.ZERO),
                 seed, "")
    assert lq.seeds == dj.seeds
    solved = 0
    for i in range(queries):
        a = w.execute(lq, i).result
        b = w.execute(dj, i).result
        assert a.status is b.status, (i, a.status, b.status)
        if a.status is PlanStatus.SOLVED:
            solved += 1
            assert abs(a.total_cost - b.total_cost) <= 1e-9, i
    assert solved > queries // 2


@pytest.mark.parametrize("workload", sorted(w.SPECS))
def test_traced_counts_repeat_exactly(capsys, tmp_path, workload):
    first = bench(capsys, tmp_path, workload, 1, 2)
    second = bench(capsys, tmp_path, workload, 1, 2)
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items()
              if v["unit"] == COUNT_UNIT}
    assert {"search.expansions", "search.heap_pushes", "search.heap_pops",
            "lattice.propagate_calls", "trajio.rows"} <= counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    m = first["metrics"]
    assert m["search.expansions"]["value"] > 0
    uses_h = w.SPECS[workload].heuristic is not kinoplan.Heuristic.ZERO
    assert (m["lti.h_calls"]["value"] > 0) == uses_h
    assert (m["cli.calls"]["value"] > 0) == w.SPECS[workload].via_cli


def test_tracer_restores_every_wrapped_function(capsys, tmp_path):
    import tracer

    def wrapped():
        return [getattr(*tracer._resolve(module, attr))
                for module, attr, _span, _counter
                in tracer.SEARCH_TARGETS + tracer.PLAN_TARGETS
                + tracer.CLI_TARGETS]

    before = wrapped()
    bench(capsys, tmp_path, "cli_3d_refine", 1, 1)
    bench(capsys, tmp_path, "corpus_lqmt", 1, 1)
    assert wrapped() == before
    assert kinoplan.search.heappush is heapq.heappush
    assert kinoplan.plan is kinoplan.search.plan


def test_timed_loop_makes_the_judged_queries_at_least():
    inputs = w.setup(w.SPECS["corpus_lqmt"], 0, "")
    records = run.run_queries(w, inputs, 0.0, 3, None)
    assert [r.index for r in records] == [0, 1, 2]
    assert all(r.ref_s > 0 for r in records)


def test_times_scale_with_the_reference_loop_near_them():
    # A host twice as slow for the second half: its queries take twice as
    # long, and so does the loop, so every query reads the same.
    n, ref = 40, run.REF_LOOP_S
    slow = [1.0] * (n // 2) + [2.0] * (n // 2)
    scaled = run.at_ref_speed([0.1 * f for f in slow],
                              [ref * f for f in slow])
    assert scaled == pytest.approx([0.1] * n)


def test_output_names_match_benchmark_json(capsys, tmp_path):
    spec = declared()
    e2e = bench(capsys, tmp_path, "corpus_lqmt", 0, 3)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["attempted"] == 3 and e2e["correct"]
    for kind, result in (("end_to_end", e2e),
                         ("per_layer",
                          bench(capsys, tmp_path, "corpus_lqmt", 1, 1))):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, kind
    assert {x["name"] for x in spec["workloads"]} == set(w.SPECS)


def test_checks_reject_a_tampered_plan():
    inputs = w.setup(w.SPECS["corpus_lqmt"], 0, "")
    i = next(i for i in range(20)
             if w.execute(inputs, i).result.status is PlanStatus.SOLVED)
    good = w.execute(inputs, i).result
    grid = inputs.grids[i]
    assert w.check_plan(inputs, grid, good) == ""
    cheap = dataclasses.replace(good, total_cost=good.total_cost - 1e-6)
    gap = dataclasses.replace(good, primitives=good.primitives[:1]
                              + good.primitives[2:])
    short = dataclasses.replace(good, primitives=good.primitives[:-1])
    for bad in (cheap, gap, short):
        assert w.check_plan(inputs, grid, bad) != ""


def test_checks_reject_tampered_cli_output(tmp_path):
    inputs = w.setup(w.SPECS["cli_3d_refine"], 0, str(tmp_path))
    for i in range(20):
        rec = w.execute(inputs, i)
        w.collect(inputs, rec)
        if rec.exit_code == 0:
            break
    assert w.check_cli(inputs, rec) == ""
    assert rec.spline == w.refined_again(inputs, rec.index)
    row = rec.csv_rows[1]
    rec.csv_rows[1] = (row[0], row[1] + 1e-12) + row[2:]
    assert w.check_cli(inputs, rec) != ""
    rec.csv_rows.pop()
    assert w.check_cli(inputs, rec) != ""


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "corpus_lqmt", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
