"""The listing differential search, kept as the reference oracle.

``diff_candidates`` lists every length-n word of family B with exponent
sum <= E (``word_reference.sum_bounded_words``), grades each by a fold
of its own, tables the targets by total degree and pairs each source
with the targets one degree below it.  It holds the whole length-n
level in memory, so it serves only small cases; the shipping search in
hochhom.words never builds that level, and this oracle shares neither
its level step, its letter moves, its letter rule nor its letter memo.

``listed_total_tables`` tables the totals of the same listing by length,
leading kind and exact exponent sum, the layout of the search's tables
below length n, through the same fold and nothing of the search.
"""

from functools import lru_cache
from typing import Literal

from hochhom.words import (
    Bidegree,
    DifferentialCandidate,
    Word,
    exponent_bound,
    family_b,
)
from word_reference import reference_canonical, sum_bounded_words


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
    found.sort(key=lambda c: (reference_canonical(c.source),
                              reference_canonical(c.target)))
    return found


def listed_total_tables(n, p, bound):
    """For each length 1..n and leading kind, bound + 1 runs: run s holds,
    sorted and once each, the totals of the listed family-B words of exponent
    sum exactly s."""
    levels = []
    for length in range(1, n + 1):
        runs: dict[str, list[set]] = {}
        for word, hom, internal in _graded_words(length, p, bound):
            s = sum(letter[1] for letter in word if len(letter) > 1)
            runs.setdefault(word[0][0], [set() for _ in range(bound + 1)]
                            )[s].add(hom + internal)
        levels.append({kind: [sorted(run) for run in by_sum]
                       for kind, by_sum in runs.items()})
    return levels
