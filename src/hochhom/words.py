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

where |w| is total degree: a letter acts as (a, b |w|) with a = q c,
b = q h, q = p^k (1 for eps), and the x-weight (1 on x, 0 on mu) scales
by the same b.  _action states this rule once; _fold and letter_moves
read it.  One level step (_levels) prepends letters: it maps the tables
of one word length, by leading kind, to those one letter longer.  Neither
the total degree nor the exponent sum ever drops as a letter is
prepended, so a bound on either stops a word together with every longer
word that ends in it, and no word is built only to be thrown away.  The
word listings (enumerate_words, graded_words, verify_powerwords) bound
the total degree.  diff_candidates bounds the exponent sum but builds no
word of length n: the same step counts the words of each length by
(leading kind, exponent sum), to refuse a search too large, and tables
the totals by leading kind below length n, as one increasing run per
exponent sum; the search intersects sets of length-n totals, one window
of totals at a time, and solves only the hits back into words, peeling
each hit's head letter directly and memoising only the lengths below n.
A scalar recursion for |w| (total_degree) cross-checks the fold.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import starmap
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
        for field in ("m", "base_degree"):
            v = getattr(self, field)
            if v is not None and type(v) is not int:
                raise TypeError(f"{field} {v!r} is not an int")
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
            k = left[1]  # a bool is no exponent: True == 1
            if k is not None and (type(k) is not int or k < 0):
                return False
    return True


_LETTER_RANK = {"eps": 0, "rho": 1, "phi": 2, "mu": 3, "x": 3}


# the letter memos are typed: rho(True) == rho(1), with one hash
@lru_cache(maxsize=None, typed=True)
def _letter_key(kind: str, k=None, *_rest) -> tuple[int, int]:
    return (_LETTER_RANK[kind], -1 if k is None else k)


def canonical_key(word: Word) -> tuple:
    """Sort key: eps < rho < phi letterwise, exponents ascending, then tail."""
    return tuple(starmap(_letter_key, word))


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


@cache  # trial division: about 5 ms at p = 2^31 - 1; a failure is not kept
def _require_prime(p: int) -> None:
    if type(p) is not int:
        raise TypeError(f"p {p!r} is not an int")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def exponent_bound(max_degree: int, p: int) -> int:
    """Largest E with p^E <= max_degree in exact integers, -1 for 0 (no
    letter fits); every listing and count starts here, so p must be prime."""
    _require_prime(p)
    if max_degree < 0:
        raise ValueError("degree bound must be >= 0")
    e, q = -1, 1
    while q <= max_degree:
        e += 1
        q *= p
    return e


def _action(letter: Letter, right_kind: str, family: WordFamily,
            p: int) -> tuple[int, int]:
    """(a, b) with ||letter w|| = (a, b |w|) for a word w that leads with a
    letter of kind right_kind: a = q c, b = q h with q = p^k (1 for eps),
    (c, h) = (2, p) for phi, (2, m) for phi directly on x, else (1, 1)."""
    q = p ** letter[1] if letter[0] != "eps" else 1
    if letter[0] == "phi":
        return 2 * q, q * (family.m if right_kind == "x" else p)
    return q, q


def letter_moves(family: WordFamily, p: int, max_degree: int) -> dict:
    """For each kind of leftmost letter, the letters allowed to its left,
    by kind, as (kind, [(letter, a, b, k), ...]): (a, b) from _action, k
    the exponent (0 for eps), k <= E for p^E <= max_degree (no word past
    the bound has a larger one).  One letter tuple serves every word."""
    e = exponent_bound(max_degree, p)
    ladders = {"eps": [(EPS, 0)], "rho": [(rho(k), k) for k in range(e + 1)],
               "phi": [(phi(k), k) for k in range(e + 1)]}
    return {right: [(kind, [(letter, *_action(letter, right, family, p), k)
                            for letter, k in ladders[kind]])
                    for kind in _left_kinds(right, family)]
            for right in ("mu", "x", "eps", "rho", "phi")}


def total_degree(word: Word, p: int, family: WordFamily) -> int:
    """Scalar degree recursion, independent of the bidegree pair arithmetic."""
    _require_prime(p)
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
    _require_prime(p)
    _require_admissible(word, family)
    return Bidegree(*_fold(word, p, family)[:2])


def _fold(word: Word, p: int, family: WordFamily) -> tuple[int, int, int]:
    """(hom, internal, x-weight) of an admissible word; right to left, a
    letter acting as (a, b) sends them to (a, b (hom + internal), b weight)."""
    hom, internal = 0, family.base_degree
    weight = 0 if family.kind == "B" else 1
    for letter, right in zip(word[-2::-1], word[::-1]):
        a, b = _action(letter, right[0], family, p)
        hom, internal, weight = a, b * (hom + internal), b * weight
    return hom, internal, weight


def _require_admissible(word: Word, family: WordFamily) -> None:
    if not is_admissible(word, family):
        raise ValueError(f"word {word!r} is not admissible in {family}")
    for letter in word:
        if letter[0] in ("rho", "phi") and letter[1] is None:
            raise ValueError("word still has unassigned exponents")


def _graded_levels(n: int, family: WordFamily, p: int, max_degree: int
                   ) -> list[list[tuple[Word, int, int, int]]]:
    """The admissible words of each length 1..n with total degree <=
    max_degree, as (word, hom, total, x-weight), by the level step."""
    def images(ladder, table):  # a letter (a, b): t -> a + b t
        image = []
        for word, _hom, total, weight in table:
            for letter, a, b, _k in ladder:
                t = a + b * total
                if t > max_degree:
                    break
                image.append(((letter,) + word, a, t, b * weight))
        return [image]

    base = (family.base_letter,)
    _hom, total, weight = _fold(base, p, family)
    levels = _levels(n, family, letter_moves(family, p, max_degree),
                     [(base, 0, total, weight)] if total <= max_degree else [],
                     images, lambda parts: [e for part in parts for e in part])
    return [[e for table in level.values() for e in table] for level in levels]


def enumerate_words(n: int, family: WordFamily, p: int,
                    max_total_degree: int) -> list[Word]:
    """Every admissible length-n word of total degree <= the bound, once,
    in canonical order."""
    level = _graded_levels(n, family, p, max_total_degree)[-1]
    return sorted((e[0] for e in level), key=canonical_key)


def graded_words(n: int, family: WordFamily, p: int, max_total_degree: int
                 ) -> list[tuple[Word, Bidegree, int, str]]:
    """The words of enumerate_words, in order, with bidegree, x-weight and
    class; they are admissible by construction, so nothing is re-checked."""
    level = _graded_levels(n, family, p, max_total_degree)[-1]
    return [(word, Bidegree(hom, total - hom), weight, _classify(word, family))
            for word, hom, total, weight in
            sorted(level, key=lambda e: canonical_key(e[0]))]


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


def _exponents(ks) -> str:
    return "".join("?" if k is None else str(k) for k in ks)


@lru_cache(maxsize=None, typed=True)
def _key_form(kind: str, *ks) -> str:
    return _KEY_FORMS[kind] + _exponents(ks)


@lru_cache(maxsize=None, typed=True)
def _human_form(kind: str, *ks) -> str:
    return _HUMAN_FORMS[kind] + _exponents(ks)


def render_key(word: Word) -> str:
    """Compact key syntax: u, e, r^k, l^k (l for phi); ? marks a blank k."""
    return "".join(starmap(_key_form, word))


def render_human(word: Word) -> str:
    """Unicode math syntax, e.g. rho^1 eps mu as ρ^1εμ; ? marks a blank
    exponent."""
    return "".join(starmap(_human_form, word))


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
    """A list of tables by leading kind for word lengths 1..n, the one step
    that prepends letters: the base letter's table is first, and a longer
    kind's table joins the parts images(ladder, table) of every table one
    shorter that moves lets that kind's ladder stand left of."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    levels = [{family.base_letter[0]: first}]
    for _ in range(n - 1):
        parts: dict[str, list] = {}
        for right, table in levels[-1].items():
            for kind, ladder in moves[right]:
                parts.setdefault(kind, []).extend(images(ladder, table))
        levels.append({kind: join(ps) for kind, ps in parts.items()})
    return levels


def _word_counts(n: int, family: WordFamily, moves: dict,
                 bound: int) -> list[int]:
    """The number of admissible words of each length 1..n with exponent
    sum <= bound, from counts by (leading kind, exponent sum): no word is
    built."""
    def images(ladder, by_sum):  # a letter adds its exponent k
        return [[0] * k + by_sum[:len(by_sum) - k] for _l, _a, _b, k in ladder]

    levels = _levels(n, family, moves, [1] + [0] * bound, images,
                     lambda parts: [sum(col) for col in zip(*parts)])
    return [sum(map(sum, level.values())) for level in levels]


_WINDOW = 1 << 12  # most entries of one source row in a window of totals
_MAX_Q = 2 ** 64 - 1  # largest total an array("Q") run holds


def _extend(run, totals: list[int]):
    """The run with the increasing totals appended: an array("Q") until
    one passes 2^64 - 1, then a list."""
    if totals and totals[-1] > _MAX_Q and isinstance(run, array):
        run = list(run)
    run.extend(totals)
    return run


def _windows(rows):
    """Cut the images a + b t of the increasing rows (a, b, row, tag) at
    common totals, so that no window holds more than _WINDOW entries of
    one row, and yield for each window, in row order, the pairs (tag,
    image of the row's slice) of the rows that reach into it."""
    starts = [0] * len(rows)
    while True:
        cut = min((a + b * row[i + _WINDOW] for (a, b, row, _t), i
                   in zip(rows, starts) if i + _WINDOW < len(row)),
                  default=None)
        if cut is None:
            ends = [len(row) for _a, _b, row, _t in rows]
        else:  # a + b t >= cut just when t >= ceil((cut - a) / b)
            ends = [bisect_left(row, -((a - cut) // b))
                    for a, b, row, _t in rows]
        yield ((tag, map(a.__add__, row[i:j] if b == 1
                         else map(b.__mul__, row[i:j])))
               for (a, b, row, tag), i, j in zip(rows, starts, ends) if i < j)
        if cut is None:
            return
        starts = ends


def _holds(runs, total: int) -> bool:
    """Whether one of the increasing runs holds total."""
    for run in runs:
        i = bisect_left(run, total)
        if i < len(run) and run[i] == total:
            return True
    return False


def _total_tables(n: int, family: WordFamily, moves: dict,
                  bound: int) -> list[dict]:
    """For each length 1..n and leading kind, the totals of the words with
    exponent sum <= bound as runs by sum: run s holds, increasing and
    once each, the totals of the words of exponent sum exactly s (at
    p = 2 a total may stand in several).  A letter (a, b) of exponent k
    sends run s to run s + k by t -> a + b t, so its image reads only
    the runs s <= bound - k and filters nothing.  A table joins the
    images one window of totals at a time (_windows): the images landing
    on each sum are merged by sorted, their repeats dropped, and
    appended to that sum's run, with no bytecode per entry."""
    def join(parts):
        runs = [array("Q") for _ in range(bound + 1)]
        for window in _windows(parts):
            by_sum: dict[int, list] = {}
            for s, image in window:
                by_sum.setdefault(s, []).extend(image)
            for s, images in by_sum.items():
                # sorted merges the increasing images; fromkeys drops repeats
                runs[s] = _extend(runs[s], [*dict.fromkeys(sorted(images))])
        return runs

    def images(ladder, table):  # (a, b, source run, target sum)
        return [(a, b, row, s + k) for _l, a, b, k in ladder
                for s, row in enumerate(table[:bound - k + 1]) if row]

    first = [_extend(array("Q"), [family.base_degree])]
    return _levels(n, family, moves,
                   first + [array("Q") for _ in range(bound)], images, join)


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

    The length-n words are never listed.  A letter acting as (a, b)
    (_action) gives l u homological degree a and total a + b |u|, so a
    head letter fixes the homological degree of the length-n words it
    leads, and their totals are the increasing image of the length n - 1
    tables of _total_tables.  A source has homological degree >= 3, so
    it leads with rho^k or phi^k, k >= 1, and p divides its total; only a
    head with k = 0 (refined: eps; raw: eps, rho^0, phi^0, two degrees
    lower) reaches a total one lower.  For the source heads that aim at
    the same targets, the hits are the source totals t with t - 1 a
    target total: a set of the targets' totals plus one, intersected
    with the sources' totals, one window of totals at a time
    (_windows).  Each side of a hit is solved back to length 1: a
    letter heads a word of total T only when b divides T - a, the rest
    having total (T - a)/b, and a peel is taken only when a run of the
    tables with a sum inside the budget left holds that total, so every
    branch yields a word.  solve memoises the words below length n; a
    hit's heads are peeled unmemoised, its sources only if a target
    solved.  Memory is the tables below length n, one window and the pairs.
    A search whose length-n level (_word_counts) holds more than
    _MAX_WORDS words raises ValueError with that count before any table
    is built.  The search needs p^E <= max_degree, so max_degree >= 1.
    """
    if n < 2:
        raise ValueError("differential search needs word length >= 2")
    if mode not in ("raw", "refined"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    family = family_b()
    bound = exponent_bound(max_degree, p)
    moves = letter_moves(family, p, max_degree)
    size = _word_counts(n, family, moves, bound)[-1]
    if size > _MAX_WORDS:
        raise ValueError(
            f"the search would span {size:,} words of length {n} "
            f"(limit {_MAX_WORDS:,}); lower the length or the degree bound")
    tables = _total_tables(n - 1, family, moves, bound)
    # the ladder of each non-base letter kind; the kinds right of it
    letters = {kind: ladder for right in ("eps", "rho", "phi")
               for kind, ladder in moves[right]}
    rights = {kind: [r for r in ("mu", "eps", "rho", "phi")
                     if kind in _left_kinds(r, family)] for kind in letters}

    def peel(total: int, budget: int, length: int, kind: str,
             moves) -> list[Word]:
        """The words of this length, total degree total and exponent sum
        <= budget that lead with a letter of this kind, of moves."""
        found = []
        for letter, a, b, k in moves:
            if k > budget or a > total:
                break
            rest, off = divmod(total - a, b)
            if off:  # b does not divide total - a
                continue
            for right in rights[kind]:
                runs = tables[length - 2].get(right, ())
                if _holds(runs[:budget - k + 1], rest):
                    found += [(letter,) + u for u in
                              solve(rest, right, budget - k, length - 1)]
        return found

    @cache
    def solve(total: int, kind: str, budget: int, length: int) -> list[Word]:
        """peel with every letter of the kind; memoised, for lengths < n."""
        return (peel(total, budget, length, kind, letters[kind]) if length > 1
                else [(family.base_letter,)])

    # every letter as a head of length-n words: (kind, letter, a, b, k)
    heads = [(kind, *move) for kind, ladder in letters.items()
             for move in ladder]

    def rows(group, aim=0):  # the rows (a + aim, b, run, aim) group leads
        return [(a + aim, b, run, aim) for kind, _l, a, b, k in group
                for r in rights[kind] if r in tables[-1]
                for run in tables[-1][r][:bound - k + 1] if run]

    # targets one total below a multiple of p: their heads have k = 0
    aims = [head for head in heads
            if head[4] == 0 and (mode == "raw" or head[0] == "eps")]
    groups: dict[tuple, list] = {}  # source heads by the heads they may hit
    for head in heads:
        if head[2] >= 3:
            groups.setdefault(tuple(v for v in aims if v[2] <= head[2] - 2),
                              []).append(head)
    found = []
    for targets, sources in groups.items():
        hits = set()  # a target of total v aims at v + 1; targets first
        for window in _windows(rows(targets, 1) + rows(sources)):
            aims_at = set()
            for aim, image in window:
                if aim:
                    aims_at.update(image)
                else:
                    hits.update(aims_at.intersection(image))
        for t in hits:
            hit = [(v, a) for kind, letter, a, b, k in targets
                   for v in peel(t - 1, bound, n, kind, ((letter, a, b, k),))]
            for kind, letter, a, b, k in sources if hit else ():
                found += [DifferentialCandidate(
                    w, Bidegree(a, t - a), v, Bidegree(hv, t - 1 - hv))
                    for w in peel(t, bound, n, kind, ((letter, a, b, k),))
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
    _require_prime(p)
    if p == 2:
        raise ValueError("the length-bounded degree count needs an odd prime")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    wanted = {4 * p ** k: k for k in range(k_max + 1)}
    hits: dict[int, list[Word]] = {k: [] for k in range(k_max + 1)}
    for level in _graded_levels(2 * p + 1, family_b(), p, 4 * p ** k_max):
        for w, _hom, total, _weight in level:
            if total in wanted:
                hits[wanted[total]].append(w)
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
