"""The listing differential search, kept as the reference oracle.

``diff_candidates`` lists every length-n word of family B with exponent
sum <= E (``word_reference.sum_bounded_words``), grades each by a fold
of its own, tables the targets by total degree and pairs each source
with the targets one degree below it.  It holds the whole length-n
level in memory, so it serves only small cases; the shipping search in
hochhom.words never builds that level, and this oracle shares neither
its level step, its letter moves nor its letter rule.

``merge_total_tables`` is the earlier join of the search's total tables,
kept to check the layout by least exponent sum: it shares the search's
level step and letter moves, and merges every letter's image of a table
as one sorted stream of (total, least sum).
"""

from array import array
from functools import lru_cache
from heapq import merge
from typing import Literal

from hochhom.words import (
    Bidegree,
    DifferentialCandidate,
    Word,
    _levels,
    canonical_key,
    exponent_bound,
    family_b,
)
from word_reference import sum_bounded_words


@lru_cache(maxsize=None)
def _graded_words(n, p, bound):
    """(word, hom, internal) of every length-n family-B word (|mu| = 2)
    with exponent sum <= bound, folded right to left: eps w -> (1, |w|),
    rho^k w -> p^k (1, |w|), phi^k w -> p^k (2, p |w|).  Cached, so both
    modes share one listing."""
    out = []
    for word in sum_bounded_words(n, family_b(), bound):
        hom, internal = 0, 2
        for letter in word[-2::-1]:
            q = p ** letter[1] if len(letter) > 1 else 1
            total = hom + internal
            hom, internal = ((2 * q, q * p * total) if letter[0] == "phi"
                             else (q, q * total))
        out.append((word, hom, internal))
    return out


def diff_candidates(n: int, p: int, max_degree: int,
                    mode: Literal["raw", "refined"] = "refined"
                    ) -> list[DifferentialCandidate]:
    """Degree-adjacent word pairs in family B with homological drop > 1.

    Raw mode reproduces the plain search exactly: every exponent
    assignment with sum <= E, p^E <= max_degree, no further filtering.
    Refined mode additionally requires the source to start with rho^k or
    phi^k, k >= 1 (a gamma_{p^k} class with k >= 1; the k = 0 columns
    support no differential for degree reasons) and the target to start
    with eps (only primitives can be hit).
    """
    if n < 2:
        raise ValueError("differential search needs word length >= 2")
    if mode not in ("raw", "refined"):
        raise ValueError(f"unknown mode {mode!r}")
    elements = _graded_words(n, p, exponent_bound(max_degree, p))
    by_total: dict[int, list[tuple[Word, int, int]]] = {}
    for v, hv, iv in elements:
        if mode == "raw" or v[0][0] == "eps":
            by_total.setdefault(hv + iv, []).append((v, hv, iv))
    found = []
    for w, hw, iw in elements:
        if mode == "refined":
            first = w[0]
            if first[0] not in ("rho", "phi") or first[1] < 1:
                continue
        for v, hv, iv in by_total.get(hw + iw - 1, ()):
            if hw - hv > 1:
                found.append(DifferentialCandidate(
                    w, Bidegree(hw, iw), v, Bidegree(hv, iv)))
    found.sort(key=lambda c: (canonical_key(c.source), canonical_key(c.target)))
    return found


def _image(table, a, b, k, bound):
    """The entries (t, s) of a sorted table with s + k <= bound, sent to
    (a + b t, s + k): increasing, since b > 0."""
    budget = bound - k
    return ((a + b * t, s + k) for t, s in zip(*table) if s <= budget)


def merge_total_tables(n, family, moves, bound):
    """For each length 1..n and leading kind, the sorted totals of the
    words with exponent sum <= bound, each with its least such sum, as
    (totals, sums): a merge of every letter's image of the tables one
    shorter, the first of each run of equal totals kept."""
    def join(parts):
        totals, sums, last = array("Q"), [], None
        for t, s in merge(*parts):
            if t != last:
                try:
                    totals.append(t)
                except OverflowError:
                    totals = [*totals, t]
                sums.append(s)
                last = t
        return totals, sums

    return _levels(n, family, moves, ([family.base_degree], [0]),
                   lambda ladder, table: [_image(table, a, b, k, bound)
                                          for _l, a, b, k in ladder], join)
