"""Regenerate ``expected.json``: run every job every grid can draw, check
each output against the other route, and record its digest.

    python3 bench/regen.py            # rewrite bench/expected.json
    python3 bench/regen.py --check    # verify only, write nothing

Cross-checks, one per job kind:

- ``series`` reports (word calculus) against the iterated Tor rewrite of
  the matching start algebra.  The rewrite is far slower than the word
  calculus, so it is compared below a per-target degree window; the
  digest pins every coefficient above it.
- ``verify`` reports (oracle-cross, bar quasi-isomorphisms) must say ok.
- ``diff-search`` reports against known results: 2826 pairs at p=3, n=13;
  none at p=5, n=12; 16 at p=5, n=13, the first with the source below.
  Both modes are held to these results.
- weight-graded ``bar_homology`` tables against the homology predicted by
  ``tor_presentation``, and, for one truncated generator of p-power
  height, against ``hh_truncated`` as acceptance check C5 does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import jobs
from hochhom import bar, series

# degree window of the Tor-rewrite check, per series target
_ORACLE_WINDOW = {"thh-fp": 2000, "group": 2000, "hh-poly": 500,
                  "hh-laurent": 500, "hh-trunc": 120}
_KNOWN_PAIRS = {(3, 13): 2826, (5, 12): 0, (5, 13): 16}
_FIRST_PAIR = {(5, 13): "l^1r^0er^0er^0er^0el^0r^0eu(10,750) ---> "
                        "er^0er^0er^0el^0r^2er^0eu(1,758): 9"}

_oracle_cache: dict[tuple, dict[int, int]] = {}


def _series_coeffs(text: str, fmt: str) -> dict[int, int]:
    if fmt == "json":
        return {int(d): c for d, c in
                json.loads(text)["series"]["coeffs"].items()}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return {int(d): int(c) for d, c in rows if int(c)}
    rows = [line.split() for line in text.splitlines()
            if not line.startswith("#")][1:]
    return {int(d): int(c) for d, c in rows}


def _tor_series(start: bar.AlgebraPresentation, iterations: int,
                window: int) -> dict[int, int]:
    key = (start, iterations, window)
    if key not in _oracle_cache:
        dims = bar.iterated_tor(start, iterations, window)
        _oracle_cache[key] = {d: c for d, c in
                              dims.total_series(window).items() if c}
    return _oracle_cache[key]


def _check_series(argv, opts, text) -> str:
    target = argv[1]
    p, n, N = int(opts["--p"]), int(opts["--n"]), int(opts["--max-degree"])
    window = min(N, _ORACLE_WINDOW[target])
    scale = 1
    if target in ("thh-fp", "group"):
        start = bar.AlgebraPresentation(p, (bar.polynomial("μ", 2),))
        iterations = n - 1
        if target == "group":
            group = series.GroupSpec.parse(opts["--group"])
            if group.free_rank or any(q == p for q, _ in
                                      group.factored_torsion()):
                raise ValueError("only etale group factors are cross-checked")
            for order in group.torsion:
                scale *= order
    elif target in ("hh-poly", "hh-laurent"):
        start = bar.AlgebraPresentation(
            p, (bar.polynomial("x", 0, weight=1),))
        iterations = n
    else:
        m = int(opts["--m"]) if "--m" in opts else p ** int(opts["--ell"])
        start = bar.AlgebraPresentation(
            p, (bar.truncated("x", m, 0, weight=1),))
        iterations = n
    got = _series_coeffs(text, opts.get("--format", "text"))
    oracle = _tor_series(start, iterations, window)
    bad = [d for d in range(window + 1)
           if got.get(d, 0) != scale * oracle.get(d, 0)]
    if bad:
        raise AssertionError(f"series differs from the Tor rewrite at "
                             f"degrees {bad[:8]}")
    return f"matches Tor rewrite through degree {window}"


def _check_verify(opts, text) -> str:
    fmt = opts.get("--format", "text")
    if fmt == "json":
        ok = json.loads(text)["ok"] is True
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        ok = bool(rows) and all(r[1] == "True" for r in rows)
    else:
        ok = text.rstrip("\n").endswith("result: ok")
    if not ok:
        raise AssertionError("verification report is not ok")
    return "report ok"


def _check_diff_search(opts, text) -> str:
    p, n = int(opts["--p"]), int(opts["--n"])
    lines = text.splitlines()
    count = int(next(line.split("= ")[1] for line in lines
                     if line.startswith("# candidates = ")))
    pairs = [line for line in lines if not line.startswith("#")]
    if count != len(pairs):
        raise AssertionError("candidate count differs from the pair lines")
    if count != _KNOWN_PAIRS[(p, n)]:
        raise AssertionError(f"{count} pairs, expected {_KNOWN_PAIRS[(p, n)]}")
    if (p, n) in _FIRST_PAIR and pairs[0] != _FIRST_PAIR[(p, n)]:
        raise AssertionError(f"first pair is {pairs[0]}")
    return f"{count} pairs"


def _check_bar(job: jobs.Job, text: str) -> str:
    alg, max_s, max_internal, max_weight = jobs.bar_problem(job)
    got = bar.BigradedDims.from_json_dict(json.loads(text)).as_dict()
    top = max_s + max_internal
    predicted = bar.presentation_dims(
        bar.tor_presentation(alg, top, max_weight), top, max_weight).restrict(
        max_hom=max_s, max_internal=max_internal).as_dict()
    if got != predicted:
        raise AssertionError("bar homology differs from tor_presentation")
    checks = "matches tor_presentation"
    gen, p = alg.generators[0], alg.p
    if len(alg.generators) == 1 and gen.kind == "truncated" \
            and gen.total == 0:
        ell = 0
        while p ** ell < gen.height:
            ell += 1
        if p ** ell == gen.height:
            closed = series.hh_truncated(1, p, ell, max_s)
            per_hom: dict[int, int] = {}
            for (h, _i, _w), d in got.items():
                per_hom[h] = per_hom.get(h, 0) + d
            if any(closed.coeffs.get(d, 0) != per_hom.get(d, 0)
                   for d in range(max_s + 1)):
                raise AssertionError("bar homology differs from hh_truncated")
            checks += " and hh_truncated"
    return checks


def cross_check(job: jobs.Job, text: str, code: int) -> str:
    if code != 0:
        raise AssertionError(f"exit code {code}")
    if job.kind == "bar":
        return _check_bar(job, text)
    argv = job.args
    opts = jobs.options(argv)
    if argv[0] == "series":
        return _check_series(argv, opts, text)
    if argv[0] == "verify":
        return _check_verify(opts, text)
    if argv[0] == "diff-search":
        return _check_diff_search(opts, text)
    raise ValueError(f"no cross-check for {job.key}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="verify against expected.json, write nothing")
    args = parser.parse_args()
    old = jobs.load_expected() if args.check else {}
    out: dict[str, dict] = {}
    problems = 0
    for workload in jobs.WORKLOADS:
        for job in jobs.grid_jobs(workload):
            jobs.guard(job)
            t0 = time.perf_counter()
            text, code = jobs.run_job(job)
            elapsed = time.perf_counter() - t0
            try:
                note = cross_check(job, text, code)
            except AssertionError as exc:
                problems += 1
                note = f"CROSS-CHECK FAILED: {exc}"
            entry = {"sha256": jobs.digest(text), "bytes": len(text.encode()),
                     "exit": code, "check": note}
            if args.check and old.get(job.key, {}).get("sha256") != \
                    entry["sha256"]:
                problems += 1
                note += "; DIGEST DIFFERS"
            out[job.key] = entry
            print(f"{elapsed:7.2f}s {workload}: {job.key}: {note}",
                  flush=True)
    if problems:
        print(f"{problems} problems", file=sys.stderr)
        return 1
    if not args.check:
        with open(jobs.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump({"jobs": out}, fh, indent=1, sort_keys=True,
                      ensure_ascii=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
