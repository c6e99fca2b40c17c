"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public entry points of ``hochhom.words``,
``hochhom.series``, ``hochhom.bar`` and ``hochhom.fplinear`` with
wrappers, under the names their callers look up: module attributes for
module functions (``series`` calls ``W.enumerate_words``; ``bar`` imported
``homology_dim`` by name, so both modules get the wrapper) and class
attributes for methods.  ``uninstall`` puts the originals back.

A span wrapper records (name, parent span id, start, end, self time) and
adds its duration to the parent's child time, so a span's self time is
its duration minus the time its child spans cover.  Hot helpers that run
hundreds of thousands of times per pass get a counter instead of a span;
a counter is keyed by the innermost open span, so a count can be limited
to calls made by one layer (degree checks inside ``enumerate_words``,
boundaries assembled inside the ``BarComplex`` build).
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from hochhom import bar, fplinear, series, words

_SERIES_FUNCS = ("family_series", "thh_fp", "hh_polynomial", "hh_laurent",
                 "hh_truncated", "hh_truncated_words", "etale_finite",
                 "hh_group_algebra", "thh_group_algebra", "hh_poly_gens")
_TOR_FUNCS = ("iterated_tor", "iterated_tor_presentation",
              "tor_presentation", "presentation_dims")


def _basis_elems(complex_: bar.BarComplex) -> int:
    return sum(len(complex_.basis(s, t, w))
               for s in range(complex_.max_s + 2)
               for t, w in complex_.strata(s))


class Tracer:
    """Spans and counters for one traced worker process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, parent, start, end, self)
        self.counts: Counter = Counter()   # (name, enclosing span) -> calls
        self.amounts: Counter = Counter()  # counted quantities by metric
        self._stack: list[list] = []       # open spans: [id, name, child]
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.amounts.clear()

    def _span(self, name, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if on_call is not None:
                on_call(tracer, args)
            frame = [len(tracer.spans), name, 0.0]
            tracer.spans.append(None)  # reserve the id in call order
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                tracer.spans[frame[0]] = (
                    name, None if parent is None else parent[0], start, end,
                    dur - frame[2])
            if on_result is not None:
                on_result(tracer, args, result, parent)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer.counts[(name, stack[-1][1] if stack else None)] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_traced__ = True
        return wrapper

    # -- installing ------------------------------------------------------
    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        span, patch = self._span, self._patch

        def kept(t, args, result, parent):
            t.amounts["words.words_kept"] += len(result)

        def pairs(t, args, result, parent):
            t.amounts["words.pairs_found"] += len(result)

        def series_result(t, args, result, parent):
            if parent is None or not parent[1].startswith("series."):
                t.amounts["series.calls"] += 1
                t.amounts["series.coeff_terms"] += result.truncation + 1

        def built(t, args, result, parent):
            t.amounts["bar.basis_elems"] += _basis_elems(args[0])

        def ranked(t, args):
            t.amounts["fplinear.rank.nnz"] += args[0].nnz

        patch(words, "enumerate_words",
              span("words.enumerate_words", words.enumerate_words,
                   on_result=kept))
        patch(words, "diff_candidates",
              span("words.diff_candidates", words.diff_candidates,
                   on_result=pairs))
        patch(words, "total_degree",
              self._counter("words.total_degree", words.total_degree))
        patch(words, "bidegree",
              self._counter("words.bidegree", words.bidegree))
        for fname in _SERIES_FUNCS:
            patch(series, fname, span(f"series.{fname}",
                                      getattr(series, fname),
                                      on_result=series_result))
        for fname in _TOR_FUNCS:
            patch(bar, fname, span(f"bar.tor.{fname}", getattr(bar, fname)))
        patch(bar, "verify_quasi_iso",
              span("bar.quasi_iso", bar.verify_quasi_iso))
        patch(bar.BarComplex, "__init__",
              span("bar.build", bar.BarComplex.__init__, on_result=built))
        patch(bar.BarComplex, "homology",
              span("bar.homology", bar.BarComplex.homology))
        patch(bar.BarChain, "__mul__",
              span("bar.shuffle", bar.BarChain.__mul__))
        patch(bar.BarChain, "boundary",
              self._counter("bar.boundary", bar.BarChain.boundary))
        patch(fplinear.SparseFpMatrix, "rank",
              span("fplinear.rank", fplinear.SparseFpMatrix.rank,
                   on_call=ranked))
        patch(fplinear.SparseFpMatrix, "compose",
              span("fplinear.compose", fplinear.SparseFpMatrix.compose))
        hdim = span("fplinear.homology_dim", fplinear.homology_dim)
        patch(fplinear, "homology_dim", hdim)
        patch(bar, "homology_dim", hdim)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        dur: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        tor_outer = 0.0
        for name, parent, start, end, own in self.spans:
            dur[name] += end - start
            self_s[name] += own
            calls[name] += 1
            if name.startswith("bar.tor.") and not (
                    parent is not None
                    and self.spans[parent][0].startswith("bar.tor.")):
                tor_outer += end - start
        amounts = self.amounts
        kept = amounts["words.words_kept"]
        checks = self.counts[("words.total_degree", "words.enumerate_words")]
        if checks:
            kept_ratio = kept / checks
        else:
            # a generator that makes no degree check keeps every word it
            # makes; with no words at all the ratio is undefined and reads 0
            kept_ratio = 1.0 if kept else 0.0
        return {
            "words.enumerate_words.s": dur["words.enumerate_words"],
            "words.enumerate_words.calls": calls["words.enumerate_words"],
            "words.words_kept": kept,
            "words.total_degree.calls": checks,
            "words.kept_ratio": kept_ratio,
            "words.diff_candidates.s": dur["words.diff_candidates"],
            "words.bidegree.calls":
                self.counts[("words.bidegree", "words.diff_candidates")],
            "words.pairs_found": amounts["words.pairs_found"],
            "series.self_s": sum(v for k, v in self_s.items()
                                 if k.startswith("series.")),
            "series.calls": amounts["series.calls"],
            "series.coeff_terms": amounts["series.coeff_terms"],
            "bar.tor_rewrite.s": tor_outer,
            "bar.build.self_s": self_s["bar.build"],
            "bar.basis_elems": amounts["bar.basis_elems"],
            "bar.boundary.calls":
                self.counts[("bar.boundary", "bar.build")],
            "bar.homology.self_s": self_s["bar.homology"],
            "bar.shuffle.s": dur["bar.shuffle"],
            "bar.shuffle.calls": calls["bar.shuffle"],
            "bar.quasi_iso.self_s": self_s["bar.quasi_iso"],
            "fplinear.rank.s": dur["fplinear.rank"],
            "fplinear.rank.calls": calls["fplinear.rank"],
            "fplinear.rank.nnz": amounts["fplinear.rank.nnz"],
            "fplinear.compose.s": dur["fplinear.compose"],
            "fplinear.compose.calls": calls["fplinear.compose"],
            "fplinear.homology_dim.calls": calls["fplinear.homology_dim"],
        }


def traced_names() -> list[str]:
    """Names of every hochhom entry point that is currently wrapped."""
    owners = {"words": words, "series": series, "bar": bar,
              "fplinear": fplinear, "bar.BarComplex": bar.BarComplex,
              "bar.BarChain": bar.BarChain,
              "fplinear.SparseFpMatrix": fplinear.SparseFpMatrix}
    return sorted(f"{label}.{attr}" for label, owner in owners.items()
                  for attr, value in vars(owner).items()
                  if getattr(value, "__bench_traced__", False))

