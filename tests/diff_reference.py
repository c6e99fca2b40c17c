"""The listing differential search, kept as the reference oracle.

``diff_candidates`` lists every length-n word of family B with exponent
sum <= E, tables the targets by total degree and pairs each source with
the targets one degree below it.  It holds the whole length-n level in
memory, so it serves only small cases; the shipping search in
hochhom.words never builds that level and is compared against this one.
"""

from typing import Literal

from hochhom.words import (
    Bidegree,
    DifferentialCandidate,
    Word,
    _grow,
    canonical_key,
    exponent_bound,
    family_b,
)


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
    bound = exponent_bound(max_degree, p)
    elements = _grow(n, family_b(), p, max_degree, lambda _t, s: s <= bound)
    by_total: dict[int, list[tuple[Word, int, int]]] = {}
    for v, hv, iv, _s in elements:
        if mode == "raw" or v[0][0] == "eps":
            by_total.setdefault(hv + iv, []).append((v, hv, iv))
    found = []
    for w, hw, iw, _s in elements:
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
