"""Admissible-word calculus for iterated Tor algebras over F_p.

Iterating Tor^A(F_p, F_p) starting from A = F_p[mu], F_p[x], or
F_p[x]/x^m produces tensor algebras whose generators are named by words
over the alphabet

    mu, x   base letters (rightmost position only),
    eps     exterior-class marker,
    rho^k   divided power gamma_{p^k} of an eps-class,
    phi^k   divided power gamma_{p^k} of a height-m class,

read left to right, subject to adjacency rules: left of a base letter
only eps (families B, B') or eps/phi^k (family B''); left of eps only
rho^k; left of rho^k or phi^k either eps or phi^j.  Family B ends in mu,
families B' and B''(m) end in x, with B''(m) carrying the truncation
height m of the base ring.  One table of letter kinds (_left_kinds)
states these rules for the admissibility check, shapes and letter moves.

Bidegrees (homological, internal) follow the recursion

    ||mu|| = (0, |mu|),  ||x|| = (0, |x|),
    ||eps w||   = (1, |w|),
    ||rho^k w|| = p^k (1, |w|),
    ||phi^k w|| = p^k (2, p |w|),   but p^k (2, m |x|) directly on x,

where |w| is total degree: a letter acts as q (c, h |w|), q = p^k (1 for
eps), and the x-weight (1 on x, 0 on mu) scales by the same q h; _fold
carries all three.  Word lists come from one generator, _grow, that
grows words right to left from the base letter, folding the bidegree
and the exponent sum as each letter is prepended.  Neither ever drops,
so a bound on either stops a word together with every longer word that
ends in it, and no word is built only to be thrown away.
enumerate_words bounds the total degree.  diff_candidates bounds the
exponent sum but builds no word of length n: one level step (_levels)
counts the words of each length by (leading kind, exponent sum), to
refuse a search too large, and tables the sorted totals by leading kind
below length n; the search intersects streams of length-n totals and
solves only the hits back into words.  A separate scalar recursion for
|w| (total_degree) is kept as an independent cross-check of the fold.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from heapq import merge
from operator import itemgetter
from typing import Callable, Literal, Optional

from .fplinear import _is_prime

Letter = tuple
Word = tuple  # tuple of letters, leftmost first

MU: Letter = ("mu",)
X: Letter = ("x",)
EPS: Letter = ("eps",)


def rho(k: Optional[int]) -> Letter:
    return ("rho", k)


def phi(k: Optional[int]) -> Letter:
    return ("phi", k)


@dataclass(frozen=True)
class WordFamily:
    """One of the three word families B, B', B''(m)."""

    kind: Literal["B", "B'", "B''"]
    m: Optional[int] = None
    base_degree: Optional[int] = None  # None: 2 for B, else 0

    def __post_init__(self):
        if self.kind not in ("B", "B'", "B''"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "B''":
            if self.m is None or self.m < 2:
                raise ValueError("family B'' needs a truncation height m >= 2")
        elif self.m is not None:
            raise ValueError(f"family {self.kind} carries no height")
        if self.base_degree is None:
            object.__setattr__(self, "base_degree", 2 if self.kind == "B" else 0)
        if self.base_degree < 0:
            raise ValueError("base degree must be nonnegative")

    @property
    def base_letter(self) -> Letter:
        return MU if self.kind == "B" else X

    def __str__(self) -> str:
        if self.kind == "B''":
            return f"B''({self.m})"
        return self.kind


def family_b(base_degree: int = 2) -> WordFamily:
    return WordFamily("B", None, base_degree)


def family_bprime(base_degree: int = 0) -> WordFamily:
    return WordFamily("B'", None, base_degree)


def family_bdoubleprime(m: int, base_degree: int = 0) -> WordFamily:
    return WordFamily("B''", m, base_degree)


@dataclass(frozen=True)
class Bidegree:
    hom: int
    internal: int

    @property
    def total(self) -> int:
        return self.hom + self.internal

    def __str__(self) -> str:
        return f"({self.hom},{self.internal})"


_LEFT_KINDS = {"mu": ("eps",), "x": ("eps",), "eps": ("rho",),
               "rho": ("eps", "phi"), "phi": ("eps", "phi")}


def _left_kinds(right_kind: str, family: WordFamily) -> tuple[str, ...]:
    """The letter kinds allowed left of a letter of kind right_kind (none
    left of an unknown kind); phi stands on the base letter x only in B''."""
    if right_kind == "x" and family.kind == "B''":
        return ("eps", "phi")
    return _LEFT_KINDS.get(right_kind, ())


def is_admissible(word: Word, family: WordFamily) -> bool:
    """True when the word ends in the family's base letter and every
    adjacent pair obeys the adjacency rules (no unknown letter does)."""
    if not word or word[-1] != family.base_letter:
        return False
    for left, right in zip(word, word[1:]):
        if left[0] not in _left_kinds(right[0], family):
            return False
        if left[0] != "eps":
            if len(left) != 2:
                return False
            k = left[1]
            if k is not None and (not isinstance(k, int) or k < 0):
                return False
    return True


_LETTER_RANK = {"eps": 0, "rho": 1, "phi": 2, "mu": 3, "x": 3}


def _letter_key(letter: Letter) -> tuple[int, int]:
    k = letter[1] if len(letter) > 1 and letter[1] is not None else -1
    return (_LETTER_RANK[letter[0]], k)


def canonical_key(word: Word) -> tuple:
    """Sort key: eps < rho < phi letterwise, exponents ascending, then tail."""
    return tuple(_letter_key(l) for l in word)


def enumerate_shapes(n: int, family: WordFamily) -> list[Word]:
    """All admissible length-n words with exponents left blank (None)."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    blank = {"eps": EPS, "rho": rho(None), "phi": phi(None)}
    words: list[Word] = [(family.base_letter,)]
    for _ in range(n - 1):
        words = [(blank[kind],) + w for w in words
                 for kind in _left_kinds(w[0][0], family)]
    return sorted(words, key=canonical_key)


def exponent_bound(max_degree: int, p: int) -> int:
    """Largest E with p^E <= max_degree, computed in exact integers."""
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    e, q = 0, p
    while q <= max_degree:
        e += 1
        q *= p
    return e


def _scales(kind: str, right: str, family: WordFamily, p: int) -> tuple[int, int]:
    """(c, h) with ||letter w|| = q (c, h |w|), q = p^k (1 for eps), for a
    letter of this kind left of a letter of kind right."""
    if kind == "phi":
        return 2, (family.m if right == "x" else p)
    return 1, 1


def letter_moves(family: WordFamily, p: int, max_degree: int) -> dict:
    """For each kind of leftmost letter, the letters allowed to its left,
    as (kind, c, h, [(letter, q, k), ...]) with q = p^k, k <= E for
    p^E <= max_degree (no word past the bound has a larger exponent).
    One letter tuple serves every word."""
    e = exponent_bound(max_degree, p)
    ladders = {"eps": [(EPS, 1, 0)],
               "rho": [(rho(k), p ** k, k) for k in range(e + 1)],
               "phi": [(phi(k), p ** k, k) for k in range(e + 1)]}
    return {right: [(kind, *_scales(kind, right, family, p), ladders[kind])
                    for kind in _left_kinds(right, family)]
            for right in ("mu", "x", "eps", "rho", "phi")}


def _grow(n: int, family: WordFamily, p: int, max_degree: int,
          within: Callable[[int, int], bool]) -> list[tuple[Word, int, int, int]]:
    """Every admissible length-n word w with within(|w|, exponent sum)
    true, as (w, hom, internal, exponent sum).  within must be monotone:
    false stays false as either argument grows."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    moves = letter_moves(family, p, max_degree)
    level = []
    if within(family.base_degree, 0):
        level.append(((family.base_letter,), 0, family.base_degree, 0))
    for _ in range(n - 1):
        grown = []
        for word, hom, internal, s in level:
            total = hom + internal
            for _kind, c, h, ladder in moves[word[0][0]]:
                for letter, q, k in ladder:
                    if not within(q * (c + h * total), s + k):
                        break
                    grown.append(((letter,) + word, q * c, q * h * total, s + k))
        level = grown
    return level


def total_degree(word: Word, p: int, family: WordFamily) -> int:
    """Scalar degree recursion, independent of the bidegree pair arithmetic."""
    _require_admissible(word, family)
    deg = family.base_degree
    tail_is_base = True
    for letter in reversed(word[:-1]):
        kind = letter[0]
        if kind == "eps":
            deg = 1 + deg
        elif kind == "rho":
            deg = p ** letter[1] * (1 + deg)
        elif kind == "phi":
            h = family.m if (tail_is_base and family.kind == "B''") else p
            deg = p ** letter[1] * (2 + h * deg)
        tail_is_base = False
    return deg


def bidegree(word: Word, p: int, family: WordFamily) -> Bidegree:
    """(homological, internal) bidegree of an admissible word."""
    _require_admissible(word, family)
    return Bidegree(*_fold(word, p, family)[:2])


def _fold(word: Word, p: int, family: WordFamily) -> tuple[int, int, int]:
    """(hom, internal, x-weight) of an admissible word; right to left, a
    letter sends them to q (c, h (hom + internal), h weight)."""
    hom, internal = 0, family.base_degree
    weight = 0 if family.kind == "B" else 1
    for letter, right in zip(word[-2::-1], word[::-1]):
        c, h = _scales(letter[0], right[0], family, p)
        q = p ** letter[1] if letter[0] != "eps" else 1
        hom, internal, weight = q * c, q * h * (hom + internal), q * h * weight
    return hom, internal, weight


def _require_admissible(word: Word, family: WordFamily) -> None:
    if not is_admissible(word, family):
        raise ValueError(f"word {word!r} is not admissible in {family}")
    for letter in word:
        if letter[0] in ("rho", "phi") and letter[1] is None:
            raise ValueError("word still has unassigned exponents")


def enumerate_words(n: int, family: WordFamily, p: int,
                    max_total_degree: int) -> list[Word]:
    """Every admissible length-n word of total degree <= the bound, once,
    in canonical order."""
    grown = _grow(n, family, p, max_total_degree,
                  lambda total, _s: total <= max_total_degree)
    return sorted((word for word, *_ in grown), key=canonical_key)


def graded_words(n: int, family: WordFamily, p: int, max_total_degree: int
                 ) -> list[tuple[Word, Bidegree, int, str]]:
    """The words of enumerate_words, in order, with bidegree, x-weight and
    class; they are admissible by construction, so nothing is re-checked."""
    return [(word, Bidegree(hom, internal), weight, _classify(word, family))
            for word in enumerate_words(n, family, p, max_total_degree)
            for hom, internal, weight in (_fold(word, p, family),)]


def classify(word: Word, family: WordFamily) -> str:
    """Multiplicative nature of the generator the word names: "exterior"
    (primitive), "truncated_height_p", "truncated_height_m" or "free"."""
    _require_admissible(word, family)
    return _classify(word, family)


def _classify(word: Word, family: WordFamily) -> str:
    first = word[0][0]
    if first == "eps":
        return "exterior"
    if first in ("rho", "phi"):
        return "truncated_height_p"
    if first == "x" and family.kind == "B''":
        return "truncated_height_m"
    return "free"


_KEY_FORMS = {"mu": "u", "x": "x", "eps": "e", "rho": "r^", "phi": "l^"}
_HUMAN_FORMS = {"mu": "μ", "x": "x", "eps": "ε", "rho": "ρ^", "phi": "φ^"}


def render_key(word: Word) -> str:
    """Compact key syntax: u, e, r^k, l^k (l marks the phi letters)."""
    return "".join(_KEY_FORMS[l[0]] + "".join(map(str, l[1:])) for l in word)


def render_human(word: Word) -> str:
    """Unicode math syntax, e.g. rho^1 eps mu as ρ^1εμ; ? marks a blank
    exponent."""
    return "".join(_HUMAN_FORMS[l[0]] + "".join("?" if k is None else str(k)
                                                for k in l[1:])
                   for l in word)


@dataclass(frozen=True)
class DifferentialCandidate:
    """A pair of words whose bidegrees allow a spectral-sequence
    differential: total degrees differ by one and the homological drop
    exceeds one."""

    source: Word
    source_bidegree: Bidegree
    target: Word
    target_bidegree: Bidegree

    def __post_init__(self):
        if self.source_bidegree.total != self.target_bidegree.total + 1:
            raise ValueError("candidate totals must differ by exactly 1")
        if self.drop <= 1:
            raise ValueError("candidate must drop homological degree by > 1")

    @property
    def drop(self) -> int:
        return self.source_bidegree.hom - self.target_bidegree.hom

    def key_line(self, render: Callable[[Word], str] = render_key) -> str:
        s, t = self.source_bidegree, self.target_bidegree
        return (f"{render(self.source)}({s.hom},{s.internal}) ---> "
                f"{render(self.target)}({t.hom},{t.internal}): {self.drop}")

    def human_line(self, render: Callable[[Word], str] = render_human) -> str:
        s, t = self.source_bidegree, self.target_bidegree
        return f"{render(self.source)} {s} ---> {render(self.target)} {t}"


_MAX_WORDS = 20_000_000  # most length-n words diff_candidates searches


def _levels(n: int, family: WordFamily, moves: dict, first, images, join):
    """A list of tables by leading kind for word lengths 1..n: the base
    letter's is first, and a longer kind's table joins the parts
    images(c, h, ladder, table) of every table one shorter that moves
    lets a letter of that kind stand left of."""
    levels = [{family.base_letter[0]: first}]
    for _ in range(n - 1):
        parts: dict[str, list] = {}
        for right, table in levels[-1].items():
            for kind, c, h, ladder in moves[right]:
                parts.setdefault(kind, []).extend(images(c, h, ladder, table))
        levels.append({kind: join(ps) for kind, ps in parts.items()})
    return levels


def _word_counts(n: int, family: WordFamily, p: int,
                 max_degree: int) -> list[int]:
    """The number of admissible words of each length 1..n with exponent
    sum <= E, p^E <= max_degree (the level sizes of _grow under that
    bound), from counts by (leading kind, exponent sum): no word is built."""
    def images(_c, _h, ladder, by_sum):  # a letter adds its exponent k
        return [[0] * k + by_sum[:len(by_sum) - k] for _l, _q, k in ladder]

    levels = _levels(n, family, letter_moves(family, p, max_degree),
                     [1] + [0] * exponent_bound(max_degree, p), images,
                     lambda parts: [sum(col) for col in zip(*parts)])
    return [sum(map(sum, level.values())) for level in levels]


def _image(table, a: int, b: int, k: int, bound: int):
    """The entries (t, s) of a sorted table with s + k <= bound, sent to
    (a + b t, s + k): increasing, since b > 0."""
    budget = bound - k
    return ((a + b * t, s + k) for t, s in zip(*table) if s <= budget)


def _total_tables(n: int, family: WordFamily, moves: dict,
                  bound: int) -> list[dict]:
    """For each length 1..n and leading kind, the sorted totals of the
    words with exponent sum <= bound, each with its least such sum, as
    (totals, sums): a merge of every letter's image of the tables one
    shorter.  Totals sit in a 64-bit array until one passes 2^64 - 1, the
    rest in a list; sums in bytes while the bound fits in one."""
    def join(parts):
        totals, last = array("Q"), None
        sums = array("B") if bound < 256 else []
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
                   lambda c, h, ladder, table: [
                       _image(table, q * c, q * h, k, bound)
                       for _l, q, k in ladder], join)


def _hits(sources, targets) -> list[int]:
    """The totals t of the increasing stream sources with t - 1 in the
    increasing stream targets, once each, by two pointers."""
    found, targets = [], iter(targets)
    v = next(targets, None)
    for t in sources:
        while v is not None and v < t - 1:
            v = next(targets, None)
        if v is None:
            break
        if v == t - 1 and (not found or found[-1] != t):
            found.append(t)
    return found


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

    The length-n words are never listed.  A letter l (q = p^k, 1 for
    eps) gives l u homological degree q c and total q (c + h |u|), so a
    head letter fixes the homological degree of the length-n words it
    leads, and their totals are the increasing image of the length n - 1
    tables of _total_tables.  A source has homological degree >= 3, so
    q = p^k with k >= 1 and p divides its total; only a head with q = 1
    (refined: eps; raw: eps, rho^0, phi^0, two degrees lower) reaches a
    total one lower.  Two pointers meet the merged stream of the source
    heads that aim at the same targets with the targets' stream.  Each
    side of a hit is solved back to length 1: a letter heads a word of
    total T only when q | T and h | (T/q - c), the rest having total
    (T/q - c)/h, and a peel is taken only when the tables hold that total
    with a least sum inside the budget left, so every branch yields a
    word.  Memory is the tables below length n and the pairs.  A search
    whose length-n level (_word_counts) holds more than _MAX_WORDS words
    raises ValueError with that count before any table is built.
    """
    if n < 2:
        raise ValueError("differential search needs word length >= 2")
    if mode not in ("raw", "refined"):
        raise ValueError(f"unknown mode {mode!r}")
    family = family_b()
    size = _word_counts(n, family, p, max_degree)[-1]
    if size > _MAX_WORDS:
        raise ValueError(
            f"the search would span {size:,} words of length {n} "
            f"(limit {_MAX_WORDS:,}); lower the length or the degree bound")
    bound = exponent_bound(max_degree, p)
    moves = letter_moves(family, p, max_degree)
    tables = _total_tables(n - 1, family, moves, bound)
    # (c, h, ladder) of each non-base letter kind; the kinds right of it
    letters = {kind: (c, h, ladder) for right in ("eps", "rho", "phi")
               for kind, c, h, ladder in moves[right]}
    rights = {kind: [r for r in ("mu", "eps", "rho", "phi")
                     if kind in _left_kinds(r, family)] for kind in letters}

    @cache
    def solve(total: int, kind: str, budget: int, length: int,
              ladder: Optional[tuple] = None) -> list[Word]:
        """The words of this length, total degree total and exponent sum
        <= budget that lead with a letter of this kind (of ladder, if
        given)."""
        if length == 1:
            return [(family.base_letter,)]
        c, h, full = letters[kind]
        found = []
        for letter, q, k in ladder or full:
            if k > budget or total % q:
                break
            rest, off = divmod(total // q - c, h)
            for right in rights[kind]:
                totals, sums = tables[length - 2].get(right, ((), ()))
                i = bisect_left(totals, rest)
                if (not off and i < len(totals) and totals[i] == rest
                        and sums[i] <= budget - k):
                    found += [(letter,) + u for u in
                              solve(rest, right, budget - k, length - 1)]
        return found

    # every letter as a head of length-n words: (kind, letter, q, k, hom)
    heads = [(kind, letter, q, k, q * letters[kind][0]) for kind in letters
             for letter, q, k in letters[kind][2]]

    def stream(group):  # the totals that heads of group lead, repeats kept
        return map(itemgetter(0), merge(*(
            _image(tables[-1][r], q * letters[kind][0],
                   q * letters[kind][1], k, bound)
            for kind, _l, q, k, _hom in group for r in rights[kind]
            if r in tables[-1])))

    # targets one total below a multiple of p: their heads have q = 1
    aims = [(kind, letter, q, k, hom) for kind, letter, q, k, hom in heads
            if q == 1 and (mode == "raw" or kind == "eps")]
    groups: dict[tuple, list] = {}  # source heads by the heads they may hit
    for head in heads:
        if head[4] >= 3:
            groups.setdefault(tuple(v for v in aims if v[4] <= head[4] - 2),
                              []).append(head)
    found = []
    for targets, sources in groups.items():
        for t in _hits(stream(sources), stream(targets)):
            hit = [(v, hom) for kind, letter, q, k, hom in targets
                   for v in solve(t - 1, kind, bound, n, ((letter, q, k),))]
            for kind, letter, q, k, hom in sources:
                found += [DifferentialCandidate(
                    w, Bidegree(hom, t - hom), v, Bidegree(hv, t - 1 - hv))
                    for w in solve(t, kind, bound, n, ((letter, q, k),))
                    for v, hv in hit]
    order = cache(canonical_key)
    found.sort(key=lambda c: (order(c.source), order(c.target)))
    return found


@dataclass(frozen=True)
class PowerwordReport:
    """Outcome of the exhaustive degree-4p^k word search."""

    p: int
    k_max: int
    found: tuple[tuple[int, tuple[Word, ...]], ...]  # (k, words of degree 4p^k)

    @property
    def ok(self) -> bool:
        return all(ws == ((rho(k), EPS, MU),) for k, ws in self.found)

    def lines(self) -> list[str]:
        out = []
        for k, ws in self.found:
            names = ", ".join(f"{render_human(w)} [{render_key(w)}]" for w in ws)
            out.append(f"degree 4*{self.p}^{k} = {4 * self.p ** k}: {names}")
        return out


def verify_powerwords(p: int, k_max: int) -> PowerwordReport:
    """Check that rho^k eps mu is the only word of length <= 2p+1 and
    total degree 4p^k, for each k <= k_max.  Raises AssertionError with
    the offending words otherwise."""
    if not (p % 2 == 1 and _is_prime(p)):
        raise ValueError("the length-bounded degree count needs an odd prime")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    fam = family_b()
    cap = 4 * p ** k_max
    wanted = {4 * p ** k: k for k in range(k_max + 1)}
    hits: dict[int, list[Word]] = {k: [] for k in range(k_max + 1)}
    for length in range(1, 2 * p + 2):
        for w, hom, internal, _s in _grow(length, fam, p, cap,
                                          lambda total, _s: total <= cap):
            if hom + internal in wanted:
                hits[wanted[hom + internal]].append(w)
    found = []
    for k in range(k_max + 1):
        ws = tuple(sorted(hits[k], key=canonical_key))
        expected = (rho(k), EPS, MU)
        if ws != (expected,):
            extra = [render_human(w) for w in ws if w != expected]
            raise AssertionError(
                f"degree {4 * p ** k} words of length <= {2 * p + 1} are not "
                f"exactly rho^{k} eps mu; offending: {extra}")
        found.append((k, ws))
    return PowerwordReport(p, k_max, tuple(found))
