"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

The last two tests run ``run.py`` end to end (one pass each, about a
minute together).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from hochhom import bar, words  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# a cheap job: 0.3 s at seed
SMALL = jobs.GRID["bar-oracle"][4][0]


def test_expected_covers_exactly_the_grid():
    grid = {job.key for w in jobs.WORKLOADS for job in jobs.grid_jobs(w)}
    assert set(jobs.load_expected()) == grid


def test_corrupted_expected_output_counts_as_failed():
    good = jobs.load_expected()[SMALL.key]
    assert jobs.check_job(SMALL, good)
    for field, bad in (("sha256", "0" * 64), ("exit", 1)):
        corrupt = dict(good, **{field: bad})
        result = worker.run_passes([SMALL], [corrupt], 0)
        assert (result["attempted"], result["failed"]) == (1, 1)
        assert result["failed_jobs"] == [SMALL.key]


def test_passes_stop_before_overrunning_the_run():
    start = time.perf_counter()
    result = worker.run_passes([SMALL], [jobs.load_expected()[SMALL.key]],
                               1.5)
    elapsed = time.perf_counter() - start
    n = len(result["passes"])
    assert n >= 2
    assert len(result["cpu_passes"]) == len(result["wall_passes"]) == n
    assert elapsed <= 1.5
    assert all(0 < c for c in result["passes"])


def test_sampler_times_chunks_while_the_job_runs():
    sampler = reference.Sampler()
    with sampler:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    # one chunk per 20 ms of CPU time, and one when the block ends
    assert len(sampler.samples) >= 6
    # a chunk the scheduler paused is left out of the speed estimate
    assert reference.chunk_time([1.0, 1.0, 1.2, 5.0]) == pytest.approx(3.2 / 3)


def test_raising_job_counts_as_failed():
    broken = jobs.Job("cli", ("series", "thh-fp", "--p", "4", "--n", "2"))
    result = worker.run_passes([broken], [{"sha256": "", "exit": 0}], 0)
    assert result["failed"] == 1


def test_untraced_process_has_no_wrapper():
    assert tracing.traced_names() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = tracing.traced_names()
        assert "words.enumerate_words" in names
        assert "bar.homology_dim" in names
        assert "fplinear.homology_dim" in names
        assert "fplinear.SparseFpMatrix.rank" in names
    finally:
        tracer.uninstall()
    assert tracing.traced_names() == []


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeded_job_lists(workload):
    first = jobs.make_jobs(workload, 1)
    assert jobs.make_jobs(workload, 1) == first
    others = [jobs.make_jobs(workload, seed) for seed in range(2, 12)]
    assert any(o != first for o in others)
    slot_of = {job: i for i, slot in enumerate(jobs.GRID[workload])
               for job in slot}
    for job_list in [first] + others:
        # one variant of every slot: the same size and the same work
        assert sorted(slot_of[job] for job in job_list) == \
            list(range(len(jobs.GRID[workload])))


def test_guard_predicts_basis_and_refuses_large_points():
    alg = bar.AlgebraPresentation(3, (bar.truncated("x", 3, 0, weight=1),))
    complex_ = bar.BarComplex(alg, 11, 0, 22)
    built = sum(len(complex_.basis(s, t, w)) for s in range(13)
                for t, w in complex_.strata(s))
    assert jobs.predict_basis(alg, 11, 0, 22) == built == 8178
    f5 = jobs._bar(5, (("truncated", "x", 5, 0, 1),), 9, 0, 36)
    assert jobs.predict_basis(*jobs.bar_problem(f5)) == 1_397_815
    with pytest.raises(ValueError, match="exceeds the cap"):
        jobs.guard(f5)
    poly_ext = jobs._bar(3, (("polynomial", "x", None, 0, 1),
                             ("exterior", "y", None, 1, 1)), 8, 9, 12)
    with pytest.raises(ValueError, match="exceeds the cap"):
        jobs.guard(poly_ext)
    for workload in jobs.WORKLOADS:
        for job in jobs.grid_jobs(workload):
            jobs.guard(job)


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


def test_traced_counts_match_the_outputs():
    alg = bar.AlgebraPresentation(3, (bar.truncated("x", 3, 0, weight=1),
                                      bar.exterior("y", 1, weight=1)))
    m = _traced(lambda: bar.bar_homology(alg, 4, 5, 6))
    assert m["bar.basis_elems"] == jobs.predict_basis(alg, 4, 5, 6)
    complex_ = bar.BarComplex(alg, 4, 5, 6)
    strata = [(s, t, w) for s in range(6) for t, w in complex_.strata(s)]
    assert m["bar.basis_elems"] == sum(len(complex_.basis(*k))
                                       for k in strata)
    assert m["bar.boundary.calls"] == m["bar.basis_elems"] - 1  # B_0 = k
    reported = [k for k in strata if k[0] <= 4]
    assert m["fplinear.homology_dim.calls"] == len(reported)
    assert m["fplinear.rank.calls"] == 2 * m["fplinear.homology_dim.calls"]

    fam = words.family_b()
    m = _traced(lambda: words.enumerate_words(7, fam, 3, 200))
    assert m["words.words_kept"] == len(words.enumerate_words(7, fam, 3, 200))
    bound = words.exponent_bound(200, 3)
    candidates = sum(
        math.comb(k + bound, bound) for k in
        (sum(1 for l in s if l[0] in ("rho", "phi"))
         for s in words.enumerate_shapes(7, fam)))
    assert m["words.total_degree.calls"] == candidates


def test_counts_repeat_between_passes():
    job_list = jobs.make_jobs("closed-forms", 3)
    small = [j for j in job_list if "oracle-cross" in j.key]
    expected = [jobs.load_expected()[j.key] for j in small]
    tracer = tracing.Tracer()
    runs = [worker.run_passes(small * 2, expected * 2, 0, tracer)
            for _ in range(2)]
    assert tracing.traced_names() == []
    for r in runs:
        # one untraced pass, then one traced pass
        assert (len(r["passes"]), len(r["wall_passes"]),
                len(r["traced_passes"])) == (1, 1, 1)
        assert (r["attempted"], r["failed"]) == (4, 0)
    first, second = (r["layers"][0] for r in runs)
    for name, value in first.items():
        if not name.endswith((".s", "_s")):
            assert second[name] == value, name
    assert first["bar.tor_rewrite.s"] > 0
    assert first["series.calls"] == 2


def test_kept_ratio_without_degree_checks():
    tracer = tracing.Tracer()
    assert tracer.layer_metrics()["words.kept_ratio"] == 0.0
    tracer.amounts["words.words_kept"] = 5
    assert tracer.layer_metrics()["words.kept_ratio"] == 1.0


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_end_to_end_result_line():
    result = _run("bar-oracle", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(jobs.GRID["bar-oracle"])
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_result_line():
    result = _run("closed-forms", 1)
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["words.enumerate_words.calls"] > 0
    assert metrics["fplinear.rank.calls"] == 0
