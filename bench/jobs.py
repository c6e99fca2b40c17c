"""Workload grids, seeded job lists, the basis-size guard and the job runner.

Each workload is a tuple of slots.  A slot lists interchangeable variants
that do the same work through different arguments (a degree bound inside
one exponent band, an output format, a command alias, a generator degree
that scales every stratum alike).  A job list takes one variant per
slot, in seeded order, so every seed runs a different job list of the
same kinds of work and cpu_s stays comparable across seeds.

The program sees only the generated arguments: CLI jobs run
``hochhom.cli.main(argv)`` in-process with stdout captured, and bar jobs
call ``hochhom.bar.bar_homology``.  Every output is compared byte for
byte, through its SHA-256 digest, with ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hochhom import bar, cli  # noqa: E402

# Largest bar basis (all blocks B_0 .. B_{max_s+1} together) a grid point
# may predict.  The C5 case (F_3[x]/x^3, s <= 13) needs 32,752; F_5[x]/x^5
# at s <= 9 would need 1.4M and takes more than 70 s to build.
MAX_BASIS = 200_000


@dataclass(frozen=True)
class Job:
    """One unit of work.  kind "cli" carries an argv; kind "bar" carries
    (p, generators, max_s, max_internal, max_weight) for bar_homology,
    each generator being (kind, name, height, degree, weight)."""

    kind: str
    args: tuple

    @property
    def key(self) -> str:
        if self.kind == "cli":
            return "cli " + " ".join(self.args)
        p, gens, max_s, max_internal, max_weight = self.args
        body = " ".join(f"{k}({n},{h},{d},w{w})" for k, n, h, d, w in gens)
        return (f"bar_homology p={p} {body} max_s={max_s} "
                f"max_internal={max_internal} max_weight={max_weight}")


def _cli(*argv) -> Job:
    return Job("cli", tuple(str(a) for a in argv))


def _bar(p, gens, max_s, max_internal, max_weight) -> Job:
    return Job("bar", (p, tuple(gens), max_s, max_internal, max_weight))


_C5 = (("truncated", "x", 3, 0, 1),)
_F5 = (("truncated", "x", 5, 0, 1),)
_PAIR = (("truncated", "x", 3, 0, 1), ("exterior", "y", None, 1, 1))

GRID: dict[str, tuple[tuple[Job, ...], ...]] = {
    # words (generation and the degree check) and series (convolution);
    # oracle-cross adds the bar Tor rewrite.  No fplinear.
    "closed-forms": (
        # enumerate_words dominates: E = 5 for every N in [243, 728]
        tuple(_cli("series", "thh-fp", "--p", 3, "--n", 12,
                   "--max-degree", N) for N in (400, 500, 600)),
        # convolution dominates; the trivial and Z/2 group algebras
        # add an O(N) degree-0 factor to the same THH series
        (_cli("series", "thh-fp", "--p", 5, "--n", 8, "--max-degree", 5000),
         _cli("series", "group", "--group", "trivial", "--p", 5, "--n", 8,
              "--max-degree", 5000),
         _cli("series", "group", "--group", "Z/2", "--p", 5, "--n", 8,
              "--max-degree", 5000)),
        (_cli("series", "hh-poly", "--p", 5, "--n", 8, "--max-degree", 3000),
         _cli("series", "hh-laurent", "--p", 5, "--n", 8,
              "--max-degree", 3000)),
        # height 4 is not a power of 3, height 9 is
        tuple(_cli("series", "hh-trunc", "--p", 3, "--n", 8, "--m", 4,
                   "--word-calculus-only", "--max-degree", 400,
                   "--format", f) for f in ("text", "csv", "json")),
        (_cli("series", "hh-trunc", "--p", 3, "--n", 8, "--m", 9,
              "--word-calculus-only", "--max-degree", 400),
         _cli("series", "hh-trunc", "--p", 3, "--n", 8, "--ell", 2,
              "--max-degree", 400)),
        tuple(_cli("verify", "oracle-cross", "--family", "B", "--p", 3,
                   "--n", 9, "--max-degree", 300, "--format", f)
              for f in ("text", "csv", "json")),
    ),
    # words: exponent-sum enumeration, bidegree folds and degree pairing.
    # Each slot has a fixed mode, so every job list runs both modes; the
    # seed varies only N, which the search ignores inside one exponent
    # band.
    "diff-search": (
        tuple(_cli("diff-search", "--p", 3, "--n", 13, "--max-degree", N,
                   "--mode", "raw") for N in (120, 170, 240)),
        tuple(_cli("diff-search", "--p", 5, "--n", 12, "--max-degree", N,
                   "--mode", "raw") for N in (3200, 4000)),
        tuple(_cli("diff-search", "--p", 5, "--n", 13, "--max-degree", N,
                   "--mode", "refined") for N in (3200, 4000)),
    ),
    # bar basis, assembly, d o d, fplinear rank; quasi-iso shuffle loops.
    # No words.  Degree-0 algebras ignore max_internal; the pair's
    # internal degree never exceeds max_s + 1 = 7.
    "bar-oracle": (
        tuple(_bar(3, _C5, 13, t, 26) for t in (0, 1, 2)),
        tuple(_bar(5, _F5, 6, t, 24) for t in (0, 1, 2)),
        tuple(_bar(3, _PAIR, 6, t, 9) for t in (7, 8, 9)),
        tuple(_cli("verify", "bar", "--case", "poly", "--x-degree", xd,
                   "--p", 3, "--max-s", 6, "--max-degree", 12 * xd,
                   "--format", f)
              for xd in (2, 4) for f in ("text", "json")),
        tuple(_cli("verify", "bar", "--case", "truncated", "--x-degree", xd,
                   "--p", 3, "--m", 3, "--max-s", 8, "--max-degree", 12 * xd,
                   "--format", f)
              for xd in (2, 4) for f in ("text", "json")),
    ),
}

WORKLOADS = tuple(GRID)


def grid_jobs(workload: str) -> list[Job]:
    """Every job the workload's grid can draw."""
    return [job for slot in GRID[workload] for job in slot]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The seed's job list: one variant per slot, in seeded order, each
    checked against the basis-size guard."""
    if workload not in GRID:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = [rng.choice(slot) for slot in GRID[workload]]
    rng.shuffle(jobs)
    for job in jobs:
        guard(job)
    return jobs


# ---------------------------------------------------------------------------
# Size guard

def _generator(kind, name, height, degree, weight) -> bar.Generator:
    if kind == "truncated":
        return bar.truncated(name, height, degree, weight=weight)
    if kind == "exterior":
        return bar.exterior(name, degree, weight=weight)
    return bar.polynomial(name, degree, weight=weight)


def options(argv: tuple[str, ...]) -> dict[str, str]:
    """The ``--name value`` options of an argv; bare flags map to ""."""
    opts, i = {}, 0
    while i < len(argv):
        if argv[i].startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[argv[i]] = argv[i + 1]
                i += 2
                continue
            opts[argv[i]] = ""
        i += 1
    return opts


def bar_problem(job: Job):
    """(presentation, max_s, max_internal, max_weight) of the bar complex
    a bar job or a ``verify bar`` job builds, or None for other jobs."""
    if job.kind == "bar":
        p, gens, max_s, max_internal, max_weight = job.args
        alg = bar.AlgebraPresentation(p, tuple(_generator(*g) for g in gens))
        return alg, max_s, max_internal, max_weight
    argv = job.args
    if argv[:2] != ("verify", "bar"):
        return None
    opts = options(argv)
    xd, p = int(opts["--x-degree"]), int(opts["--p"])
    case = opts["--case"]
    if case == "truncated":
        gen = bar.truncated("x", int(opts["--m"]), xd)
    elif case == "exterior":
        gen = bar.exterior("x", xd)
    else:
        gen = bar.polynomial("x", xd)
    return (bar.AlgebraPresentation(p, (gen,)), int(opts["--max-s"]),
            int(opts["--max-degree"]), None)


def predict_basis(alg, max_s: int, max_internal: int, max_weight) -> int:
    """Size of B_0 .. B_{max_s+1} within the bounds, before building it:
    the s-fold convolution of the augmentation monomials' (degree,
    weight) counts."""
    step: dict[tuple[int, int], int] = {}
    for m in alg.augmentation_monomials(max_internal, max_weight):
        key = (alg.mono_total(m), alg.mono_weight(m))
        step[key] = step.get(key, 0) + 1
    level = {(0, 0): 1}
    total = 1
    for _ in range(max_s + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (t, w), c in level.items():
            for (dt, dw), k in step.items():
                t2, w2 = t + dt, w + dw
                if t2 > max_internal or (max_weight is not None
                                         and w2 > max_weight):
                    continue
                nxt[(t2, w2)] = nxt.get((t2, w2), 0) + c * k
        level = nxt
        total += sum(level.values())
    return total


def guard(job: Job) -> None:
    """Refuse a bar job whose predicted basis exceeds MAX_BASIS."""
    problem = bar_problem(job)
    if problem is None:
        return
    size = predict_basis(*problem)
    if size > MAX_BASIS:
        raise ValueError(f"{job.key}: predicted bar basis {size} exceeds "
                         f"the cap {MAX_BASIS}")


# ---------------------------------------------------------------------------
# Running and checking

def run_job(job: Job) -> tuple[str, int]:
    """(output text, exit code) of one job."""
    if job.kind == "bar":
        alg, max_s, max_internal, max_weight = bar_problem(job)
        dims = bar.bar_homology(alg, max_s, max_internal, max_weight)
        return json.dumps(dims.to_json_dict(), sort_keys=True) + "\n", 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.args))
    return out.getvalue(), code


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def check_job(job: Job, expected: dict) -> bool:
    """Run the job; True when its exit code and output bytes match."""
    try:
        text, code = run_job(job)
    except (Exception, SystemExit):
        traceback.print_exc()
        return False
    return code == expected["exit"] and digest(text) == expected["sha256"]
