"""Command-line front end.

Subcommands: words (enumerate a word family), diff-search (degree-adjacent
word pairs), verify (bar / powerwords / oracle-cross suites), series
(closed-form Poincare series).  Output in text, json, or csv; reports are
byte-identical for identical configurations, so timing goes to stderr.
Exit codes: 0 ok, 1 failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
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
    kind = _FAMILY_NAMES.get(args.family)
    if kind is None:
        raise ValueError(f"unknown family {args.family!r}")
    base = getattr(args, "base_degree", None)
    if kind == "B":
        return words.family_b(2 if base is None else base)
    if kind == "B'":
        return words.family_bprime(0 if base is None else base)
    if args.m is None:
        raise ValueError("family B'' needs --m")
    return words.family_bdoubleprime(args.m, 0 if base is None else base)


def _config_lines(pairs: list[tuple[str, object]]) -> list[str]:
    return [f"# {key} = {value}" for key, value in pairs]


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def _cmd_words(args) -> tuple[list[str], dict, int]:
    family = _family_from_args(args)
    p = args.p
    records = [{
        "key": words.render_key(w),
        "human": words.render_human(w),
        "hom": bd.hom,
        "internal": bd.internal,
        "total": bd.total,
        "weight": weight,
        "class": cls.kind,
    } for w, bd, weight, cls in words.graded_words(args.n, family, p,
                                                   args.max_degree)]
    config = [("command", "words"), ("p", p), ("n", args.n),
              ("family", str(family)), ("base_degree", family.base_degree),
              ("max_degree", args.max_degree), ("seed", args.seed),
              ("count", len(records))]
    lines = _config_lines(config)
    rows = [("key", "word", "bidegree", "total", "weight", "class")]
    rows += [(r["key"], r["human"], f"({r['hom']},{r['internal']})",
              str(r["total"]), str(r["weight"]), r["class"]) for r in records]
    lines += _columns(rows)
    payload = {"command": "words", "config": dict(config), "words": records}
    return lines, payload, 0


def _cmd_diff_search(args) -> tuple[list[str], dict, int]:
    start = time.perf_counter()
    cands = words.diff_candidates(args.n, args.p, args.max_degree, args.mode)
    elapsed = time.perf_counter() - start
    print(f"diff-search wall-time: {elapsed:.3f}s", file=sys.stderr)
    config = [("command", "diff-search"), ("p", args.p), ("n", args.n),
              ("max_degree", args.max_degree), ("mode", args.mode),
              ("exponent_bound", words.exponent_bound(args.max_degree, args.p)),
              ("seed", args.seed), ("candidates", len(cands))]
    lines = _config_lines(config)
    for c in cands:
        lines.append(c.key_line())
        lines.append(f"#   {c.human_line()}")
    records = [{
        "source_key": words.render_key(c.source),
        "source_human": words.render_human(c.source),
        "source_hom": c.source_bidegree.hom,
        "source_internal": c.source_bidegree.internal,
        "target_key": words.render_key(c.target),
        "target_human": words.render_human(c.target),
        "target_hom": c.target_bidegree.hom,
        "target_internal": c.target_bidegree.internal,
        "drop": c.drop,
    } for c in cands]
    payload = {"command": "diff-search", "config": dict(config),
               "candidates": records}
    return lines, payload, 0


def _verify_bar(args) -> tuple[list[str], dict, int]:
    report = bar.verify_quasi_iso(args.case, args.x_degree, args.p, args.m,
                                  args.max_s, args.max_degree)
    config = [("command", "verify"), ("suite", "bar"), ("case", args.case),
              ("x_degree", args.x_degree), ("p", args.p), ("m", args.m),
              ("max_s", args.max_s), ("max_degree", args.max_degree),
              ("seed", args.seed)]
    lines = _config_lines(config) + report.lines()
    lines.append(f"result: {'ok' if report.ok else 'FAILED'}")
    payload = {
        "command": "verify", "config": dict(config),
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in report.checks],
        "ok": report.ok,
    }
    return lines, payload, 0 if report.ok else 1


def _verify_powerwords(args) -> tuple[list[str], dict, int]:
    config = [("command", "verify"), ("suite", "powerwords"), ("p", args.p),
              ("k_max", args.k_max), ("seed", args.seed)]
    try:
        report = words.verify_powerwords(args.p, args.k_max)
    except AssertionError as exc:
        lines = _config_lines(config) + [f"FAIL: {exc}", "result: FAILED"]
        payload = {"command": "verify", "config": dict(config),
                   "ok": False, "error": str(exc)}
        return lines, payload, 1
    lines = _config_lines(config)
    lines += [f"PASS: {line}" for line in report.lines()]
    lines.append("result: ok")
    payload = {"command": "verify", "config": dict(config), "ok": True,
               "found": {str(4 * args.p ** k): [words.render_key(w) for w in ws]
                         for k, ws in report.found}}
    return lines, payload, 0


def _verify_oracle_cross(args) -> tuple[list[str], dict, int]:
    family = _family_from_args(args)
    if family.kind != "B" and args.n < 2:
        raise ValueError("oracle-cross for B'/B'' needs n >= 2")
    p, n, N = args.p, args.n, args.max_degree
    closed = series.family_series(family, n, p, N)
    if family.kind == "B":
        start = bar.AlgebraPresentation(
            p, (bar.polynomial("μ", family.base_degree),))
    elif family.kind == "B'":
        start = bar.AlgebraPresentation(
            p, (bar.polynomial("x", family.base_degree, weight=1),))
    else:
        start = bar.AlgebraPresentation(
            p, (bar.truncated("x", family.m, family.base_degree, weight=1),))
    dims = bar.iterated_tor(start, n - 1, N)
    oracle = dims.total_series(N)
    ok = all(closed.coeffs.get(d, 0) == oracle.get(d, 0) for d in range(N + 1))
    config = [("command", "verify"), ("suite", "oracle-cross"),
              ("family", str(family)), ("n", n), ("p", p),
              ("max_degree", N), ("seed", args.seed)]
    lines = _config_lines(config)
    mark = "PASS" if ok else "FAIL"
    lines.append(f"{mark}: closed-form series matches iterated Tor rewrite "
                 f"through degree {N}")
    if not ok:
        diffs = [d for d in range(N + 1)
                 if closed.coeffs.get(d, 0) != oracle.get(d, 0)]
        lines.append(f"mismatch at degrees {diffs[:8]}")
    lines.append(f"result: {'ok' if ok else 'FAILED'}")
    payload = {"command": "verify", "config": dict(config), "ok": ok,
               "closed": {str(d): c for d, c in sorted(closed.coeffs.items())},
               "oracle": {str(d): c for d, c in sorted(oracle.items())}}
    return lines, payload, 0 if ok else 1


def _cmd_verify(args) -> tuple[list[str], dict, int]:
    if args.suite == "bar":
        return _verify_bar(args)
    if args.suite == "powerwords":
        return _verify_powerwords(args)
    return _verify_oracle_cross(args)


def _cmd_series(args) -> tuple[list[str], dict, int]:
    p, N = args.p, args.max_degree
    target = args.target
    if target == "thh-fp":
        result = series.thh_fp(args.n, p, N)
    elif target == "hh-poly":
        result = series.hh_polynomial(args.n, p, N)
    elif target == "hh-laurent":
        result = series.hh_laurent(args.n, p, N)
    elif target == "hh-trunc":
        if args.m is not None:
            if not args.word_calculus_only:
                raise ValueError(
                    "a general height --m needs --word-calculus-only; "
                    "the ring-level series takes --ell")
            result = series.hh_truncated_words(args.n, p, args.m, N)
        else:
            if args.ell is None:
                raise ValueError("hh-trunc needs --ell (or --m with "
                                 "--word-calculus-only)")
            result = series.hh_truncated(args.n, p, args.ell, N)
    elif target == "group":
        if args.group is None:
            raise ValueError("series group needs --group")
        spec = series.GroupSpec.parse(args.group)
        result = series.thh_group_algebra(spec, args.n, p, N)
    elif target == "poly-gens":
        if not args.gen_degrees:
            raise ValueError("poly-gens needs --gen-degrees")
        degrees = [int(tok) for tok in args.gen_degrees.split(",") if tok]
        result = series.hh_poly_gens(degrees, args.n, p, N)
    else:
        raise ValueError(f"unknown series target {target!r}")
    config = [("command", "series"), ("target", target), ("p", p),
              ("n", args.n), ("max_degree", N), ("seed", args.seed)]
    for key in ("ell", "m", "group", "gen_degrees"):
        value = getattr(args, key, None)
        if value is not None:
            config.append((key, value))
    lines = _config_lines(config)
    lines.append(f"# base = {result.basis_note}")
    if result.validity is not None:
        lines.append(f"# validity = {result.validity}")
    lines += result.text_table()
    payload = {"command": "series", "config": dict(config),
               "series": result.to_json_dict()}
    return lines, payload, 0


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = payload["command"]
    if command == "words":
        writer.writerow(["key", "human", "hom", "internal", "total",
                         "weight", "class"])
        for r in payload["words"]:
            writer.writerow([r["key"], r["human"], r["hom"], r["internal"],
                             r["total"], r["weight"], r["class"]])
    elif command == "diff-search":
        writer.writerow(["source_key", "source_hom", "source_internal",
                         "target_key", "target_hom", "target_internal", "drop"])
        for r in payload["candidates"]:
            writer.writerow([r["source_key"], r["source_hom"],
                             r["source_internal"], r["target_key"],
                             r["target_hom"], r["target_internal"], r["drop"]])
    elif command == "series":
        writer.writerow(["degree", "coefficient"])
        for d, c in sorted((int(k), v) for k, v in
                           payload["series"]["coeffs"].items()):
            writer.writerow([d, c])
    else:  # verify
        writer.writerow(["check", "ok"])
        if "checks" in payload:
            for c in payload["checks"]:
                writer.writerow([c["name"], c["ok"]])
        else:
            writer.writerow(["verify", payload["ok"]])
    return buf.getvalue()


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    elif args.format == "csv":
        text = _to_csv(payload)
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochhom",
        description=("Iterated Tor and higher Hochschild homology workbench "
                     "over F_p"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_n=True):
        sp.add_argument("--p", type=int, required=True, help="prime modulus")
        if with_n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--max-degree", "-N", type=int,
                        default=None,
                        help=f"total-degree bound (default from "
                             f"{ENV_MAX_DEGREE} or {DEFAULT_MAX_DEGREE})")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the run configuration")

    sp = sub.add_parser("words", help="enumerate an admissible word family")
    common(sp)
    sp.add_argument("--family", default="B",
                    choices=sorted(_FAMILY_NAMES), help="word family")
    sp.add_argument("--m", type=int, default=None,
                    help="truncation height for family B''")
    sp.add_argument("--base-degree", type=int, default=None)

    sp = sub.add_parser("diff-search",
                        help="degree-adjacent word pairs with drop > 1")
    common(sp)
    sp.add_argument("--mode", choices=("raw", "refined"), default="refined")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=("bar", "powerwords", "oracle-cross"))
    common(sp, with_n=False)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--case", choices=("poly", "truncated", "exterior"),
                    default="poly")
    sp.add_argument("--x-degree", type=int, default=2)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--max-s", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=2)
    sp.add_argument("--family", default="B", choices=sorted(_FAMILY_NAMES))

    sp = sub.add_parser("series", help="closed-form Poincare series")
    sp.add_argument("target", choices=("thh-fp", "hh-poly", "hh-trunc",
                                       "hh-laurent", "group", "poly-gens"))
    common(sp)
    sp.add_argument("--ell", type=int, default=None,
                    help="p-power truncation exponent for hh-trunc")
    sp.add_argument("--m", type=int, default=None,
                    help="general truncation height (word calculus only)")
    sp.add_argument("--word-calculus-only", action="store_true")
    sp.add_argument("--group", default=None,
                    help='abelian group, e.g. "Z x Z/6" or "trivial"')
    sp.add_argument("--gen-degrees", default=None,
                    help="comma-separated generator degrees for poly-gens")
    return parser


_COMMANDS = {
    "words": _cmd_words,
    "diff-search": _cmd_diff_search,
    "verify": _cmd_verify,
    "series": _cmd_series,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", None) is None:
        try:
            args.max_degree = _default_max_degree()
        except ValueError as exc:
            parser.error(str(exc))
    if not _is_prime(args.p):
        parser.error(f"--p must be prime, got {args.p}")
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    try:
        lines, payload, code = _COMMANDS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit(2)
    _emit(args, lines, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
