"""One workload process: load, signal ready, run passes, report.

Run by ``run.py``; not meant to be started by hand.  The process imports
hochhom, draws the seed's job list and loads the expected outputs, then
prints ``ready``.  Unless ``--setup-only`` is given it then runs the job
list again and again (one thread, closed loop: each job starts when the
previous one has finished) while another pass still fits in
``--seconds``, checking every output, and prints one JSON line with the
pass times, the check counts and its peak RSS.

A shared host's speed drifts by up to a factor of two over minutes, in
CPU time as well as wall time, so the gated time of a pass
(``passes``) is normalised: every job's CPU time is scaled to the speed
of a reference chunk timed again and again while the job runs (see
``reference.py``).  The raw CPU and wall times of each pass, chunks left
out, are reported beside it.  With ``--trace 1`` every untraced pass is
followed by a traced one, and the line adds the traced passes'
normalised times and the per-layer metrics of each traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import jobs
import tracing
from reference import Sampler, normalise


def _one_pass(job_list, expected, result, failed_jobs,
              sampler) -> tuple[float, float, float]:
    """(normalised seconds, CPU seconds, wall seconds) of one pass, the
    sampler's chunks left out of all three."""
    gc.collect()
    norm = cpu = wall = 0.0
    for job, exp in zip(job_list, expected):
        result["attempted"] += 1
        c0, t0 = time.process_time(), time.perf_counter()
        with sampler:
            ok = jobs.check_job(job, exp)
        in_chunks = sum(sampler.samples)
        job_cpu = time.process_time() - c0 - in_chunks
        wall += time.perf_counter() - t0 - in_chunks
        cpu += job_cpu
        norm += normalise(job_cpu, sampler.samples)
        if not ok:
            result["failed"] += 1
            failed_jobs.add(job.key)
    return norm, cpu, wall


def run_passes(job_list, expected, seconds, tracer=None) -> dict:
    """Run rounds of the job list while one more round, as long as the
    longest so far, ends within ``seconds`` (at least one round).

    A round is one pass; with a tracer it is an untraced pass followed
    by a traced one, so both kinds of pass share every stretch of
    machine load."""
    result = {"passes": [], "cpu_passes": [], "wall_passes": [],
              "traced_passes": [], "layers": [], "attempted": 0,
              "failed": 0, "jobs": [job.key for job in job_list]}
    failed_jobs: set[str] = set()
    sampler = Sampler()
    start, longest = time.perf_counter(), 0.0
    while (not result["passes"]
           or time.perf_counter() - start + longest <= seconds):
        round_start = time.perf_counter()
        norm, cpu, wall = _one_pass(job_list, expected, result,
                                    failed_jobs, sampler)
        result["passes"].append(norm)
        result["cpu_passes"].append(cpu)
        result["wall_passes"].append(wall)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                result["traced_passes"].append(
                    _one_pass(job_list, expected, result, failed_jobs,
                              sampler)[0])
            finally:
                tracer.uninstall()
            result["layers"].append(tracer.layer_metrics())
        longest = max(longest, time.perf_counter() - round_start)
    result["failed_jobs"] = sorted(failed_jobs)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    job_list = jobs.make_jobs(args.workload, args.seed)
    expected_all = jobs.load_expected()
    expected = [expected_all[job.key] for job in job_list]
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return 0

    if tracing.traced_names():
        raise RuntimeError("untraced passes have wrappers installed")
    tracer = tracing.Tracer() if args.trace else None
    result = run_passes(job_list, expected, args.seconds, tracer)
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
