"""hochhom benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from
``src/`` next to this directory.  The seed draws the workload's job list
(see ``jobs.py``).  Each workload runs in one fresh Python process with
one thread and one client in a closed loop, repeating its job list while
another pass fits in ``--seconds`` and checking every output byte for
byte.

With ``--trace 0`` the result carries the end-to-end metrics:
``norm_cpu_s`` (median over passes of the time of one pass over the job
list: each job's CPU time scaled to the speed of a reference chunk timed
while it runs, see ``reference.py``), ``setup_s`` (median, over twelve
fresh processes, of the time from spawning the interpreter to the first
job being ready: interpreter start, ``import hochhom``, drawing the job
list, loading the expected outputs; scaled by chunks timed just before
and just after each spawn) and
``peak_rss_mib`` (the workload process's peak RSS from getrusage).
``failed_share`` is printed above the result line and carried by its
``attempted`` and ``failed`` counts.  With ``--trace 1`` one process
alternates untraced and traced passes and the result carries the
per-layer metrics (see ``tracing.py``) and ``trace.overhead_s``, the
median over rounds of traced minus untraced normalised pass time.
The raw wall times are printed above the result line but not gated.

The last line of stdout is the JSON result.  The exit code is 1 when
any output was wrong, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import chunk, normalise

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_ONLY_SPAWNS = 6
SETUP_CHUNKS = 40
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, cwd=ROOT)
    setup_s, out = None, b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("worker ran past the deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and b"\n" in out:
                setup_s = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def setup_samples(args, deadline: float) -> list[tuple[float, float]]:
    """(wall, normalised) set-up times of SETUP_ONLY_SPAWNS fresh
    workload processes, each normalised by the chunks timed just before
    and just after it."""
    samples, before = [], [chunk() for _ in range(SETUP_CHUNKS)]
    for _ in range(SETUP_ONLY_SPAWNS):
        wall = spawn(args.workload, args.seed, 0, 0, True, deadline)[0]
        after = [chunk() for _ in range(SETUP_CHUNKS)]
        samples.append((wall, normalise(wall, before + after)))
        before = after
    return samples


def measure(args, deadline: float) -> tuple[dict, dict]:
    if args.trace:
        _, result = spawn(args.workload, args.seed, args.seconds, 1, False,
                          deadline)
        layers = {name: (statistics.median(m[name] for m in result["layers"])
                         if unit(name) == "s" else result["layers"][0][name])
                  for name in result["layers"][0]}
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(result["traced_passes"], result["passes"]))
        return ({name: {"value": v, "unit": unit(name)}
                 for name, v in layers.items()}, result)
    # set-up samples on both sides of the measured process, so that
    # they fall in more than one stretch of machine load
    setups = setup_samples(args, deadline)
    _, result = spawn(args.workload, args.seed, args.seconds, 0, False,
                      deadline)
    setups += setup_samples(args, deadline)
    result["wall_setups"] = [wall for wall, _ in setups]
    return ({
        "norm_cpu_s": {"value": statistics.median(result["passes"]),
                       "unit": "s"},
        "setup_s": {"value": statistics.median(norm for _, norm in setups),
                    "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
    }, result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hochhom" / "__init__.py").is_file():
        print(f"bench: no hochhom sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import jobs
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(jobs.WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, result = measure(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    passes = len(result["passes"]) + len(result["traced_passes"])
    print(f"# workload {args.workload}, seed {args.seed}: "
          f"{len(result['jobs'])} jobs, {passes} passes")
    print("# pass normalised times (s): "
          + " ".join(f"{t:.3f}" for t in result["passes"]))
    print("# pass CPU times (s): "
          + " ".join(f"{t:.3f}" for t in result["cpu_passes"]))
    print("# pass wall times (s): "
          + " ".join(f"{t:.3f}" for t in result["wall_passes"]))
    print(f"# wall_s = {statistics.median(result['wall_passes']):.6g} s "
          "(median pass wall time; not gated)")
    if "wall_setups" in result:
        print(f"# wall setup = {statistics.median(result['wall_setups']):.6g}"
              " s (median spawn-to-ready wall time; not gated)")
    if result["traced_passes"]:
        print("# traced pass normalised times (s): "
              + " ".join(f"{t:.3f}" for t in result["traced_passes"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for key in result["failed_jobs"]:
        print(f"# FAILED: {key}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
