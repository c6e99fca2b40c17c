"""Command-line front end.

Subcommands: words, diff-search, verify bar|powerwords|oracle-cross and
series thh-fp|hh-poly|hh-trunc|hh-laurent|group|poly-gens.  Each has its
own parser with only the options its handler reads, given after the suite
or target name.  A handler returns its whole report and `_emit` writes it
as text, json, or csv; reports are byte-identical for identical
configurations, so timing goes to stderr.
Exit codes: 0 ok, 1 failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from typing import Optional

from . import bar, series, words
from .fplinear import _is_prime

ENV_MAX_DEGREE = "HOCHHOM_MAX_DEGREE"
DEFAULT_MAX_DEGREE = 64

_FAMILY_NAMES = {
    "B": "B", "Bprime": "B'", "B'": "B'",
    "Bdoubleprime": "B''", "B''": "B''",
}

Report = tuple[list[tuple[str, object]], list[str], dict, list, int]


def _default_max_degree() -> int:
    raw = os.environ.get(ENV_MAX_DEGREE)
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_DEGREE} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{ENV_MAX_DEGREE} must be >= 1")
    return value


def _family_from_args(args) -> words.WordFamily:
    # WordFamily refuses a height on B or B' and a missing one on B''
    return words.WordFamily(_FAMILY_NAMES[args.family], args.m,
                            getattr(args, "base_degree", None))


def _table(fields: tuple[str, ...], records: list[dict]) -> list:
    return [fields, *([r[f] for f in fields] for r in records)]


def _cmd_words(args) -> Report:
    family = _family_from_args(args)
    records = [{
        "key": words.render_key(w),
        "human": words.render_human(w),
        "hom": bd.hom,
        "internal": bd.internal,
        "total": bd.total,
        "weight": weight,
        "class": cls,
    } for w, bd, weight, cls in words.graded_words(args.n, family, args.p,
                                                   args.max_degree)]
    config = [("command", "words"), ("p", args.p), ("n", args.n),
              ("family", str(family)), ("base_degree", family.base_degree),
              ("max_degree", args.max_degree), ("seed", args.seed),
              ("count", len(records))]
    rows = [("key", "word", "bidegree", "total", "weight", "class")]
    rows += [(r["key"], r["human"], f"({r['hom']},{r['internal']})",
              str(r["total"]), str(r["weight"]), r["class"]) for r in records]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    fields = ("key", "human", "hom", "internal", "total", "weight", "class")
    return config, lines, {"words": records}, _table(fields, records), 0


def _cmd_diff_search(args) -> Report:
    start = time.perf_counter()
    cands = words.diff_candidates(args.n, args.p, args.max_degree, args.mode)
    elapsed = time.perf_counter() - start
    print(f"diff-search wall-time: {elapsed:.3f}s", file=sys.stderr)
    config = [("command", "diff-search"), ("p", args.p), ("n", args.n),
              ("max_degree", args.max_degree), ("mode", args.mode),
              ("exponent_bound", words.exponent_bound(args.max_degree, args.p)),
              ("seed", args.seed), ("candidates", len(cands))]
    # each word is rendered once, however many pairs it stands in
    key = functools.cache(words.render_key)
    human = functools.cache(words.render_human)
    lines = [line for c in cands
             for line in (c.key_line(key), f"#   {c.human_line(human)}")]
    records = [{
        "source_key": key(c.source),
        "source_human": human(c.source),
        "source_hom": c.source_bidegree.hom,
        "source_internal": c.source_bidegree.internal,
        "target_key": key(c.target),
        "target_human": human(c.target),
        "target_hom": c.target_bidegree.hom,
        "target_internal": c.target_bidegree.internal,
        "drop": c.drop,
    } for c in cands]
    fields = ("source_key", "source_hom", "source_internal", "target_key",
              "target_hom", "target_internal", "drop")
    return config, lines, {"candidates": records}, _table(fields, records), 0


def _verify_report(args, config, lines: list[str], ok: bool, fields: dict,
                   checks: list) -> Report:
    config = [("command", "verify"), ("suite", args.suite), *config]
    lines = [*lines, f"result: {'ok' if ok else 'FAILED'}"]
    return (config, lines, {"ok": ok, **fields}, [("check", "ok"), *checks],
            0 if ok else 1)


def _verify_bar(args) -> Report:
    report = bar.verify_quasi_iso(args.case, args.x_degree, args.p, args.m,
                                  args.max_s, args.max_degree)
    config = [("case", args.case), ("x_degree", args.x_degree), ("p", args.p),
              ("m", args.m), ("max_s", args.max_s),
              ("max_degree", args.max_degree), ("seed", args.seed)]
    checks = [{"name": n, "ok": ok, "detail": d} for n, ok, d in report.checks]
    return _verify_report(args, config, report.lines(), report.ok,
                          {"checks": checks},
                          [(n, ok) for n, ok, _ in report.checks])


def _verify_powerwords(args) -> Report:
    config = [("p", args.p), ("k_max", args.k_max), ("seed", args.seed)]
    try:
        report = words.verify_powerwords(args.p, args.k_max)
    except AssertionError as exc:
        return _verify_report(args, config, [f"FAIL: {exc}"], False,
                              {"error": str(exc)}, [("verify", False)])
    found = {str(4 * args.p ** k): [words.render_key(w) for w in ws]
             for k, ws in report.found}
    lines = [f"PASS: {line}" for line in report.lines()]
    return _verify_report(args, config, lines, True, {"found": found},
                          [("verify", True)])


def _verify_oracle_cross(args) -> Report:
    family = _family_from_args(args)
    if family.kind != "B" and args.n < 2:
        raise ValueError("oracle-cross for B'/B'' needs n >= 2")
    p, n, N = args.p, args.n, args.max_degree
    closed = series.family_series(family, n, p, N)
    if family.kind == "B":
        gen = bar.polynomial("μ", family.base_degree)
    elif family.kind == "B'":
        gen = bar.polynomial("x", family.base_degree, weight=1)
    else:
        gen = bar.truncated("x", family.m, family.base_degree, weight=1)
    oracle = bar.iterated_tor(bar.AlgebraPresentation(p, (gen,)), n - 1,
                              N).total_series(N)
    diffs = [d for d in range(N + 1)
             if closed.coeffs.get(d, 0) != oracle.get(d, 0)]
    config = [("family", str(family)), ("n", n), ("p", p), ("max_degree", N),
              ("seed", args.seed)]
    lines = [f"{'FAIL' if diffs else 'PASS'}: closed-form series matches "
             f"iterated Tor rewrite through degree {N}"]
    if diffs:
        lines.append(f"mismatch at degrees {diffs[:8]}")
    fields = {"closed": {str(d): c for d, c in sorted(closed.coeffs.items())},
              "oracle": {str(d): c for d, c in sorted(oracle.items())}}
    return _verify_report(args, config, lines, not diffs, fields,
                          [("verify", not diffs)])


def _hh_trunc(args) -> series.PoincareSeries:
    if args.m is not None:
        if not args.word_calculus_only:
            raise ValueError("a general height --m needs --word-calculus-only;"
                             " the ring-level series takes --ell")
        return series.hh_truncated_words(args.n, args.p, args.m,
                                         args.max_degree)
    if args.word_calculus_only:
        raise ValueError("--word-calculus-only needs a height --m")
    if args.ell is None:
        raise ValueError("hh-trunc needs --ell (or --m with "
                         "--word-calculus-only)")
    return series.hh_truncated(args.n, args.p, args.ell, args.max_degree)


def _poly_gens(args) -> series.PoincareSeries:
    degrees = [int(tok) for tok in args.gen_degrees.split(",") if tok]
    if not degrees:
        raise ValueError("poly-gens needs --gen-degrees")
    return series.hh_poly_gens(degrees, args.n, args.p, args.max_degree)


def _cmd_series(args) -> Report:
    result = args.series(args)
    config = [("command", "series"), ("target", args.target), ("p", args.p),
              ("n", args.n), ("max_degree", args.max_degree),
              ("seed", args.seed)]
    for key in ("ell", "m", "group", "gen_degrees"):
        value = getattr(args, key, None)
        if value is not None:
            config.append((key, value))
    lines = [f"# base = {result.basis_note}"]
    if result.validity is not None:
        lines.append(f"# validity = {result.validity}")
    lines += result.text_table()
    return (config, lines, {"series": result.to_json_dict()},
            [("degree", "coefficient"), *sorted(result.coeffs.items())], 0)


def _emit(args, report: Report) -> None:
    config, lines, fields, rows, _ = report
    if args.format == "json":
        payload = {"command": dict(config)["command"], "config": dict(config),
                   **fields}
        text = json.dumps(payload, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join([f"# {key} = {value}" for key, value in config]
                         + lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write the report: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hochhom parser, built once per process."""
    parser = argparse.ArgumentParser(prog="hochhom", description=(
        "Iterated Tor and higher Hochschild homology workbench over F_p"))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, help=None, n=True, max_degree=True):
        sp = subparsers.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--p", type=int, required=True, help="prime modulus")
        if n:
            sp.add_argument("--n", type=int, required=True)
        if max_degree:
            sp.add_argument("--max-degree", "-N", type=int, default=None,
                            help=f"total-degree bound (default from "
                                 f"{ENV_MAX_DEGREE} or {DEFAULT_MAX_DEGREE})")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the run configuration")
        return sp

    def family(sp):
        sp.add_argument("--family", default="B",
                        choices=sorted(_FAMILY_NAMES), help="word family")
        sp.add_argument("--m", type=int, default=None,
                        help="truncation height for family B''")

    sp = command(sub, "words", _cmd_words,
                 "enumerate an admissible word family")
    family(sp)
    sp.add_argument("--base-degree", type=int, default=None,
                    help="base letter degree (default: 2 for B, else 0)")

    sp = command(sub, "diff-search", _cmd_diff_search,
                 "degree-adjacent word pairs with drop > 1")
    sp.add_argument("--mode", choices=("raw", "refined"), default="refined")

    suites = sub.add_parser("verify", help="run a verification suite"
                            ).add_subparsers(dest="suite", required=True)
    sp = command(suites, "bar", _verify_bar, n=False)
    sp.add_argument("--case", choices=("poly", "truncated", "exterior"),
                    default="poly")
    sp.add_argument("--x-degree", type=int, default=2)
    sp.add_argument("--m", type=int, default=None,
                    help="truncation height for --case truncated")
    sp.add_argument("--max-s", type=int, default=4)
    sp = command(suites, "powerwords", _verify_powerwords, n=False,
                 max_degree=False)
    sp.add_argument("--k-max", type=int, default=2)
    sp = command(suites, "oracle-cross", _verify_oracle_cross, n=False)
    sp.add_argument("--n", type=int, default=2)
    family(sp)

    targets = sub.add_parser("series", help="closed-form Poincare series"
                             ).add_subparsers(dest="target", required=True)

    def target(name, compute):
        sp = command(targets, name, _cmd_series)
        sp.set_defaults(series=compute)
        return sp

    target("thh-fp", lambda a: series.thh_fp(a.n, a.p, a.max_degree))
    target("hh-poly", lambda a: series.hh_polynomial(a.n, a.p, a.max_degree))
    sp = target("hh-trunc", _hh_trunc)
    height = sp.add_mutually_exclusive_group()
    height.add_argument("--ell", type=int, default=None,
                        help="p-power truncation exponent")
    height.add_argument("--m", type=int, default=None,
                        help="general truncation height (word calculus only)")
    sp.add_argument("--word-calculus-only", action="store_true")
    target("hh-laurent", lambda a: series.hh_laurent(a.n, a.p, a.max_degree))
    sp = target("group", lambda a: series.thh_group_algebra(
        series.GroupSpec.parse(a.group), a.n, a.p, a.max_degree))
    sp.add_argument("--group", required=True,
                    help='abelian group, e.g. "Z x Z/6" or "trivial"')
    sp = target("poly-gens", _poly_gens)
    sp.add_argument("--gen-degrees", required=True,
                    help="comma-separated generator degrees")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bounded = "max_degree" in vars(args)
        if bounded and args.max_degree is None:
            args.max_degree = _default_max_degree()
        if not _is_prime(args.p):
            raise ValueError(f"--p must be prime, got {args.p}")
        if bounded and args.max_degree < 0:
            raise ValueError("--max-degree must be >= 0")
        report = args.handler(args)
        _emit(args, report)
    except ValueError as exc:
        parser.error(str(exc))
    return report[-1]


if __name__ == "__main__":
    sys.exit(main())
