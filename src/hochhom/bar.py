"""Reduced bar complexes over F_p, shuffle products, and iterated Tor.

An algebra is presented by generators that are exterior, truncated of
height h (g^h = 0), or polynomial, each carrying a bidegree (hom,
internal) and an optional auxiliary weight.  For a plain input algebra
hom = 0; presenting a Tor algebra as the input of the next stage uses
the full bidegree, with total degree hom + internal as the grading the
bar construction sees.

Monomials, bar tensors and monomial counts live in a window, total
degree <= N and weight <= W (None: no bound).  A generator g enters with
its powers e <= cap, e |g| <= N, e weight(g) <= W (_exponents), and a
monomial or tensor grows one piece at a time within the window (_extend).

The two-sided reduced bar complex B(k, A, k) has B_s = (IA)^{tensor s}
with only the inner face maps surviving,

    d(a_1 | ... | a_s) = sum_i (-1)^(e_i) a_1 | ... | a_i a_{i+1} | ... | a_s,
    e_i = sum_{j<i} (|a_j| + 1) + |a_i|,

the Koszul convention induced by suspending each factor.  _faces is
the one place that forms faces; BarChain.boundary sums them.

bar_homology reads the homology off the Morse complex of the
Anick-chain matching on the bar tensors (_AnickMatching; E. Sköldberg,
Trans. AMS 358 (2006); M. Jöllenbeck and V. Welker, Mem. AMS 197
(2009)), whose cells are Anick chains.  Its cells are the tensors of
monomials that BarChain keys on, and its faces are the terms of
BarChain.boundary, so it lists no monomial of the window.  That complex
is minimal, so bar_homology counts the critical cells once it has
checked that the Morse differential vanishes on them (_critical_counts).
BarComplex, the unreduced complex, is the tests' reference for it: its
basis is the stratum table _bar_strata, which verify_quasi_iso reads
too, and its coboundaries delta^s = d_{s+1}^T transpose _faces.

The shuffle product satisfies the graded Leibniz rule for this sign
choice (property-tested).  _shuffles alone enumerates shuffles and
_odd_factors alone reads the parities that sign them.  pi is 0 off one
shape of tensor and on it depends only on the length, so the check that
pi is multiplicative counts the signed shuffles of a and b of that shape
(_QuasiIsoCase.pi_product) and enumerates none.  It walks every pair
whose product lands in a live stratum, where pi is not 0 on every
tensor, and elsewhere only the pairs with pi(a), pi(b) both nonzero:
elsewhere pi(a b) = 0, as each shuffle of a and b lies in the stratum of
a b, and pi(a) pi(b) = 0 unless both are nonzero.  So its witness, the
least failing pair in (s, internal, tensor) order, is the full walk's.

Homology of Tor^A(k, k) in the three one-generator cases has explicit
small models:

    A = k[x]        ->  Lambda(eps x),
    A = k[x]/x^m    ->  Lambda(eps x) (x) Gamma(phi^0 x),   |x| even or p = 2,
    A = Lambda(x)   ->  Gamma(rho^0 x),                     |x| odd or p = 2,

where Gamma(y) decomposes mod p as the tensor product of height-p
truncated algebras on gamma_{p^i}(y).  These small models are the
one-step output of tor_presentation, and verify_quasi_iso checks the
explicit quasi-isomorphisms onto them in both directions, so it checks
the rewrite rule itself.  Iterating the rewrite polynomial -> exterior
-> divided-power towers computes iterated Tor without building nested
bar complexes; bar homology of each presented stage is the independent
oracle for that rewrite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from math import factorial
from operator import itemgetter
from typing import Callable, Iterator, Literal, Mapping, Optional

from . import packed
from .fplinear import (CompositionError, SparseFpMatrix, _is_prime,
                       homology_dim)

Monomial = tuple[int, ...]
Tensor = tuple[Monomial, ...]


@dataclass(frozen=True)
class Generator:
    """A single algebra generator with bidegree and weight."""

    name: str
    kind: Literal["exterior", "truncated", "polynomial"]
    height: Optional[int]
    hom: int
    internal: int
    weight: int

    def __post_init__(self):
        if self.kind not in ("exterior", "truncated", "polynomial"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for field in ("height", "hom", "internal", "weight"):
            v = getattr(self, field)
            if type(v) is not int and (field != "height" or v is not None):
                raise TypeError(f"{field} {v!r} is not an int")
        if self.kind == "truncated":
            if self.height is None or self.height < 2:
                raise ValueError("truncated generators need height >= 2")
        elif self.height is not None:
            raise ValueError(f"{self.kind} generators carry no height")
        if self.hom < 0 or self.internal < 0 or self.weight < 0:
            raise ValueError("degrees and weights must be nonnegative")

    @property
    def total(self) -> int:
        return self.hom + self.internal

    @property
    def cap(self) -> Optional[int]:
        """Largest allowed exponent, None when unbounded."""
        if self.kind == "exterior":
            return 1
        if self.kind == "truncated":
            return self.height - 1
        return None


def exterior(name: str, degree: int, weight: int = 0) -> Generator:
    return Generator(name, "exterior", None, 0, degree, weight)


def truncated(name: str, height: int, degree: int, weight: int = 0) -> Generator:
    return Generator(name, "truncated", height, 0, degree, weight)


def polynomial(name: str, degree: int, weight: int = 0) -> Generator:
    return Generator(name, "polynomial", None, 0, degree, weight)


@dataclass(frozen=True)
class AlgebraPresentation:
    """A graded-commutative F_p algebra given by generators and caps."""

    p: int
    generators: tuple[Generator, ...]

    def __post_init__(self):
        if type(self.p) is not int:
            raise TypeError(f"p {self.p!r} is not an int")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime")
        object.__setattr__(self, "generators", tuple(self.generators))
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for g in self.generators:
            if g.total == 0 and g.weight == 0:
                raise ValueError(
                    f"generator {g.name} has neither degree nor weight")
            if self.p != 2:
                if g.kind == "exterior" and g.total % 2 == 0:
                    raise ValueError(
                        f"exterior generator {g.name} must have odd total "
                        f"degree at odd p")
                if g.kind != "exterior" and g.total % 2 == 1:
                    raise ValueError(
                        f"{g.kind} generator {g.name} must have even total "
                        f"degree at odd p")

    @cached_property
    def _totals(self) -> tuple[int, ...]:
        return tuple(g.total for g in self.generators)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        return tuple(g.weight for g in self.generators)

    @cached_property
    def _caps(self) -> tuple[Optional[int], ...]:
        return tuple(g.cap for g in self.generators)

    @cached_property
    def _odd_positions(self) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self._totals) if t % 2)

    @property
    def unit(self) -> Monomial:
        return (0,) * len(self.generators)

    # each presentation memoises its own mono_total and multiply:
    # BarChain.boundary asks for the same ones on every chain of a window
    @cached_property
    def mono_total(self) -> Callable[[Monomial], int]:
        return cache(lambda m: sum(e * t for e, t in zip(m, self._totals)))

    def mono_hom(self, m: Monomial) -> int:
        return sum(e * g.hom for e, g in zip(m, self.generators))

    def mono_internal(self, m: Monomial) -> int:
        return sum(e * g.internal for e, g in zip(m, self.generators))

    def mono_weight(self, m: Monomial) -> int:
        return sum(e * w for e, w in zip(m, self._weights))

    @cached_property
    def multiply(self) -> Callable[..., Optional[tuple[int, Monomial]]]:
        """multiply(m1, m2) is (sign, product) with the Koszul sign, or
        None when truncation kills the product."""
        return cache(self._multiply)

    def _multiply(self, m1: Monomial, m2: Monomial) -> Optional[tuple[int, Monomial]]:
        out = []
        for e1, e2, cap in zip(m1, m2, self._caps):
            e = e1 + e2
            if cap is not None and e > cap:
                return None
            out.append(e)
        sign_exp = 0
        odds = self._odd_positions
        for a, i in enumerate(odds):
            if m1[i] == 0:
                continue
            for j in odds[:a]:
                sign_exp += m1[i] * m2[j]
        sign = -1 if sign_exp % 2 else 1
        return sign, tuple(out)

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for e, g in zip(m, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"({g.name})^{e}")
        return "*".join(parts) if parts else "1"

    def augmentation_monomials(self, max_total: int,
                               max_weight: Optional[int] = None) -> list[Monomial]:
        """All non-unit monomials within the bounds, in increasing order."""
        if max_total < 0:
            raise ValueError("degree bound must be nonnegative")
        level: list[tuple[Monomial, int, int]] = [((), 0, 0)]
        for g in self.generators:
            level = _extend(level, [(e, e * g.total, e * g.weight) for e in
                                    _exponents(g, max_total, max_weight)],
                            max_total, max_weight)
        return [m for m, _t, _w in level if any(m)]


def _exponents(g: Generator, max_total: int,
               max_weight: Optional[int]) -> range:
    """The powers e >= 0 of g inside the window (None: unbounded); a
    degree-0 generator with no cap needs a weight bound."""
    if g.total == 0 and g.cap is None and max_weight is None:
        raise ValueError(
            f"generator {g.name} has degree 0: a weight bound is required")
    e = 0
    while ((g.cap is None or e <= g.cap) and e * g.total <= max_total
           and (max_weight is None or e * g.weight <= max_weight)):
        e += 1
    return range(e)


def _extend(level: list, pieces: list, max_total: int,
            max_weight: Optional[int]) -> list:
    """Each (sequence, total, weight) of level with each (piece, total,
    weight) of pieces appended, kept when the sums stay in the window."""
    return [(seq + (piece,), t + dt, w + dw)
            for seq, t, w in level for piece, dt, dw in pieces
            if t + dt <= max_total
            and (max_weight is None or w + dw <= max_weight)]


def _bar_strata(presentation: AlgebraPresentation, top_s: int,
                max_total: int, max_weight: Optional[int]
                ) -> dict[tuple[int, int, int], list[Tensor]]:
    """The window's bar tensors of length s = 0, ..., top_s by stratum
    (s, total, weight), keys in increasing s, each list in increasing
    tensor order: a sorted level extended by the increasing augmentation
    monomials stays sorted.  B_0 is empty when weight 0 lies outside the
    window."""
    pieces = [(m, presentation.mono_total(m), presentation.mono_weight(m))
              for m in presentation.augmentation_monomials(max_total,
                                                           max_weight)]
    level = [((), 0, 0)] if max_weight is None or max_weight >= 0 else []
    strata: dict[tuple[int, int, int], list[Tensor]] = {}
    for s in range(top_s + 1):
        if s:
            level = _extend(level, pieces, max_total, max_weight)
        for tensor, t, w in level:
            strata.setdefault((s, t, w), []).append(tensor)
    return strata


@cache
def _shuffle_patterns(la: int, lb: int) -> list[tuple[itemgetter, int]]:
    """(order, crossings) of each shuffle of la >= 1 factors a_i into
    lb >= 1 factors b_j: order picks the merged tensor out of ta + tb, and
    bit i lb + j of crossings is set when a_i lands after b_j."""
    out = []
    for positions in itertools.combinations(range(la + lb), la):
        order, crossings = list(range(la, la + lb)), 0
        for i, pos in enumerate(positions):
            order.insert(pos, i)  # after b_0 .. b_{pos - i - 1}
            crossings |= ((1 << (pos - i)) - 1) << (i * lb)
        out.append((itemgetter(*order), crossings))
    return out


def _odd_factors(presentation: AlgebraPresentation, tensor: Tensor) -> int:
    """The mask of the factors with odd suspended degree |t_i| + 1: a
    shuffle's sign counts its crossings of a_i over b_j with both set."""
    total = presentation.mono_total
    return sum(1 << i for i, m in enumerate(tensor) if not total(m) % 2)


def _shuffles(presentation: AlgebraPresentation, ta: Tensor,
              tb: Tensor) -> Iterator[tuple[Tensor, int]]:
    """Every shuffle of ta into tb as (merged tensor, sign parity)."""
    if not ta or not tb:
        yield ta + tb, 0
        return
    P, lb = presentation, len(tb)
    odd_a, odd_b = _odd_factors(P, ta), _odd_factors(P, tb)
    odd = sum(odd_b << (i * lb) for i in range(len(ta)) if odd_a >> i & 1)
    factors = ta + tb
    for order, crossings in _shuffle_patterns(len(ta), lb):
        yield order(factors), (crossings & odd).bit_count() % 2


class BigradedDims:
    """Sparse (hom, internal, weight) -> dimension table."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int, int], int]):
        for dim in entries.values():
            if type(dim) is not int:
                raise TypeError(f"dimension {dim!r} is not an int")
            if dim < 0:
                raise ValueError("dimensions must be nonnegative")
        self._entries = {key: dim for key, dim in entries.items() if dim}

    def items(self):
        return sorted(self._entries.items())

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return dict(self._entries)

    def total_series(self, max_degree: int) -> dict[int, int]:
        """Dimensions per total degree hom + internal, through max_degree."""
        out: dict[int, int] = {}
        for (h, i, _), dim in self._entries.items():
            d = h + i
            if d <= max_degree:
                out[d] = out.get(d, 0) + dim
        return out

    def by_bidegree(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (h, i, _), dim in self._entries.items():
            out[(h, i)] = out.get((h, i), 0) + dim
        return out

    def restrict(self, max_hom: int, max_internal: int) -> "BigradedDims":
        return BigradedDims({(h, i, w): dim
                             for (h, i, w), dim in self._entries.items()
                             if h <= max_hom and i <= max_internal})

    def to_json_dict(self) -> dict:
        return {"dims": {f"{h},{i},{w}": dim
                         for (h, i, w), dim in self.items()}}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BigradedDims":
        entries = {}
        for key, dim in data["dims"].items():
            h, i, w = (int(part) for part in key.split(","))
            entries[(h, i, w)] = dim
        return cls(entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, BigradedDims) and other._entries == self._entries

    def __repr__(self) -> str:
        return f"BigradedDims({self._entries!r})"


def _faces(presentation: AlgebraPresentation,
           tensor: Tensor) -> Iterator[tuple[Tensor, int]]:
    """The nonzero inner faces of one tensor, each with its sign +-1."""
    multiply, total = presentation.multiply, presentation.mono_total
    e = 0  # sum of (|a_j| + 1) for j < i, plus |a_i|
    for i in range(len(tensor) - 1):
        e += total(tensor[i])
        res = multiply(tensor[i], tensor[i + 1])
        if res is not None and any(res[1]):
            yield (tensor[:i] + (res[1],) + tensor[i + 2:],
                   -res[0] if e % 2 else res[0])
        e += 1


class BarChain:
    """An element of the reduced bar complex: a finite sum of tensors of
    augmentation-ideal monomials with coefficients in F_p."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: AlgebraPresentation,
                 terms: Optional[Mapping[Tensor, int]] = None):
        self.presentation = presentation
        clean: dict[Tensor, int] = {}
        if terms:
            p = presentation.p
            for tensor, coeff in terms.items():
                c = coeff % p
                if c:
                    clean[tuple(tensor)] = c
        self.terms = clean

    def _check_compatible(self, other: "BarChain") -> None:
        if other.presentation != self.presentation:
            raise ValueError("chains over different presentations")

    def __add__(self, other: "BarChain") -> "BarChain":
        self._check_compatible(other)
        acc = dict(self.terms)
        for t, c in other.terms.items():
            acc[t] = acc.get(t, 0) + c
        return BarChain(self.presentation, acc)

    def scale(self, c: int) -> "BarChain":
        return BarChain(self.presentation,
                        {t: v * c for t, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, BarChain)
                and other.presentation == self.presentation
                and other.terms == self.terms)

    def __mul__(self, other: "BarChain") -> "BarChain":
        """Shuffle product: the signed sum over _shuffles of each pair of
        terms, self's factors inserted into other's."""
        self._check_compatible(other)
        P = self.presentation
        acc: dict[Tensor, int] = {}
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                c = ca * cb
                for key, odd in _shuffles(P, ta, tb):
                    acc[key] = acc.get(key, 0) + (-c if odd else c)
        return BarChain(P, acc)

    def boundary(self) -> "BarChain":
        """The inner-face alternating sum with suspension Koszul signs."""
        P = self.presentation
        acc: dict[Tensor, int] = {}
        for tensor, coeff in self.terms.items():
            for face, sign in _faces(P, tensor):
                acc[face] = acc.get(face, 0) + sign * coeff
        return BarChain(P, acc)

    def __repr__(self) -> str:
        if not self.terms:
            return "BarChain(0)"
        P = self.presentation
        bits = []
        for tensor, coeff in sorted(self.terms.items()):
            body = "|".join(P.monomial_str(m) for m in tensor) or "()"
            bits.append(f"{coeff}*[{body}]")
        return "BarChain(" + " + ".join(bits) + ")"


class BarComplex:
    """All bar blocks B_s for s <= max_s + 1 within degree/weight bounds,
    stratified by (internal degree, weight), and their homology; no
    coboundary is stored, coboundary() builds one on each call.

    Homology is exact for s <= max_s: each stratum is finite and complete
    within the bounds, and B_{max_s + 1} is the target of delta^{max_s}.
    The homology is computed once, at the end of construction, chain by
    chain and bottom-up in s, so each delta^s is built and ranked once;
    that pass verifies d o d = 0 for every composable pair of blocks
    before it ranks them, so a presentation whose products are not
    associative raises here.
    """

    def __init__(self, presentation: AlgebraPresentation, max_s: int,
                 max_internal: int, max_weight: Optional[int] = None):
        if max_s < 0:
            raise ValueError("max_s must be >= 0")
        self.presentation = presentation
        self.max_s = max_s
        self.max_internal = max_internal
        self.max_weight = max_weight

        self._basis = _bar_strata(presentation, max_s + 1, max_internal,
                                  max_weight)

        # each (t, w) is one cochain complex in s, read bottom-up through a
        # one-slot cache: the delta^s held over from one stratum is the next
        # one's delta^{s-1}, so each is built and ranked once.  A delta^{s-1}
        # from an empty stratum has no columns.
        coboundary = lru_cache(maxsize=1)(self.coboundary)
        dims: dict[tuple[int, int, int], int] = {}
        for s, t, w in sorted(self._basis, key=lambda k: (k[1], k[2], k[0])):
            if s <= max_s:
                try:
                    dims[(s, t, w)] = homology_dim(coboundary(s - 1, t, w),
                                                   coboundary(s, t, w))
                except CompositionError as exc:
                    raise CompositionError(
                        f"d o d != 0 from stratum (s={s + 1}, t={t}, "
                        f"w={w})") from exc
        self._homology = BigradedDims(dict(sorted(dims.items())))

    def basis(self, s: int, internal: int, weight: int = 0) -> list[Tensor]:
        """The stratum's tensors of monomials, in increasing order."""
        return list(self._basis.get((s, internal, weight), ()))

    def strata(self, s: int) -> list[tuple[int, int]]:
        return sorted((t, w) for (s2, t, w) in self._basis if s2 == s)

    def coboundary(self, s: int, internal: int,
                   weight: int = 0) -> SparseFpMatrix:
        """delta^s = d_{s+1}^T : C^s -> C^{s+1} on one stratum, for
        -1 <= s <= max_s, built afresh on each call: row u holds the
        faces of u (_faces)."""
        if s > self.max_s:
            raise ValueError(f"delta^{s} lies past max_s = {self.max_s}")
        if s < -1:
            raise ValueError(f"delta^{s} lies below delta^-1")
        P = self.presentation
        sources = self._basis.get((s, internal, weight), ())
        targets = self._basis.get((s + 1, internal, weight), ())
        col = {v: i for i, v in enumerate(sources)}
        columns: dict[int, dict[int, int]] = {}
        for row, u in enumerate(targets):
            for v, sign in _faces(P, u):
                columns.setdefault(col[v], {})[row] = sign
        return SparseFpMatrix(P.p, len(targets), len(sources), columns)

    def homology(self) -> BigradedDims:
        """Per-stratum homology dimensions for s <= max_s."""
        return self._homology


def _low(m: Monomial) -> int:
    """The lowest letter of a non-unit monomial."""
    for x, e in enumerate(m):
        if e:
            return x


def _high(m: Monomial) -> int:
    """The highest letter of a non-unit monomial."""
    for x in range(len(m) - 1, -1, -1):
        if m[x]:
            return x


class _AnickMatching:
    """The Anick-chain Morse matching on the bar tensors of one window.

    A cell is a tensor of augmentation monomials, as BarChain keys it.
    Letters are generator indices; a monomial's word lists its letters in
    increasing order, with multiplicity.  The tips are the words (j, i)
    with j > i and x^(cap+1) for each capped x.  match walks a cell's
    factors left to right, keeping the last link word prev.  The link
    length L of a factor w is 1 for the first factor and when w's lowest
    letter lies below prev's highest; when both are the same capped x, it
    is cap + 1 - c, c the power of x in prev, and w must hold x at least L
    times; otherwise w has no link.  The first factor that is not a link
    decides the cell: with no link it is merged into prev by multiply
    (matched down), with L below its length it is split into x^L and the
    rest (matched up).  A cell of links only is critical: an Anick chain,
    which critical() lists without walking the basis.  Matched faces have
    coefficient +-1, the merged words' letters being in order.

    Letters and powers are read off the monomials themselves, and x^e
    lies in the window when _exponents allows the power e of x; the
    window's monomials are never listed.
    """

    def __init__(self, presentation: AlgebraPresentation, max_internal: int,
                 max_weight: Optional[int]):
        if max_internal < 0:
            raise ValueError("degree bound must be nonnegative")
        self.presentation = presentation
        self.max_internal, self.max_weight = max_internal, max_weight
        self._powers = [_exponents(g, max_internal, max_weight)
                        for g in presentation.generators]

    def _power(self, x: int, e: int) -> Optional[tuple[Monomial, int, int]]:
        """(x^e, its total, its weight), None outside the window."""
        if e not in self._powers[x]:
            return None
        g, m = self.presentation.generators[x], [0] * len(self._powers)
        m[x] = e
        return tuple(m), e * g.total, e * g.weight

    def _link(self, prev: Optional[Monomial], w: Monomial) -> Optional[int]:
        """The link length of factor w after the link word prev (None for
        the first factor), None when w does not link."""
        if prev is None:
            return 1
        y, x = _low(w), _high(prev)
        if y < x:
            return 1
        cap = self.presentation._caps[x]
        if y == x and cap is not None and w[x] > cap - prev[x]:
            return cap + 1 - prev[x]
        return None

    def match(self, cell: Tensor) -> Optional[tuple[Tensor, bool]]:
        """(partner, True) when cell is matched up, (partner, False) when
        it is matched down, None when it is critical."""
        prev = None
        for i, w in enumerate(cell):
            L = self._link(prev, w)
            if L is None:
                res = self.presentation.multiply(prev, w)
                if res is None:
                    raise ArithmeticError(
                        f"{cell}: factor {i} has no link, yet its product "
                        f"with the one before is 0")
                return cell[:i - 1] + (res[1],) + cell[i + 1:], False
            if L < sum(w):
                x = _low(w)
                head, rest = [0] * len(w), list(w)
                head[x], rest[x] = L, w[x] - L
                return cell[:i] + (tuple(head), tuple(rest)) + cell[i + 1:], True
            prev = w
        return None

    def critical(self, max_s: int) -> Iterator[tuple[Tensor, int, int]]:
        """(cell, internal, weight) of every critical cell of length <= max_s
        in the window, by depth-first search over the Anick chains: the
        first factor is a letter, and each later one a letter below the
        highest letter x of the one before, or x^(cap+1-c) when x is capped
        and the one before holds x^c."""
        W = self.max_weight
        if W is not None and W < 0:
            return
        yield (), 0, 0
        letters = [self._power(x, 1) for x in range(len(self._powers))]
        stack = [((m,), t, w) for m, t, w in filter(None, letters)]
        while stack:
            cell, t, w = stack.pop()
            yield cell, t, w
            if len(cell) < max_s:
                x = _high(cell[-1])
                cap = self.presentation._caps[x]
                links = letters[:x] + ([] if cap is None else
                                       [self._power(x, cap + 1 - cell[-1][x])])
                for m, dt, dw in filter(None, links):
                    if t + dt <= self.max_internal and (W is None
                                                        or w + dw <= W):
                        stack.append((cell + (m,), t + dt, w + dw))


def _critical_counts(matching: _AnickMatching, max_s: int, t: int, w: int,
                     cells: list[Tensor]) -> dict[tuple[int, int, int], int]:
    """The (t, w) chain's homology for s <= max_s: its number of critical
    cells of each length, once d_M(c) = 0 mod p is checked on each c in
    cells, the chain's critical cells.

    The Morse complex is minimal.  By critical(), each factor of a cell is
    a power of one letter, and letters never rise: a cell is one block per
    letter, in decreasing order, x for an uncapped x and x, x^cap, x, ...
    for a capped one, of exponent sum k h after 2k factors and k h + 1
    after 2k + 1 (h = cap + 1).  These blocks are the one-generator Tor
    bases (Lambda(eps x) for k[x], one class in each s for k[x]/x^h and
    for Lambda(x)), so by Kunneth a stratum holds dim Tor cells, and its
    Morse homology reaches that count only when d_M = 0.  Kunneth serves
    this proof only; the check verifies the theorem, not assumes it.

    d_M(c) is the sum over the faces b of c of phi(b): b itself when b is
    critical, 0 when b is matched down, and when b is matched up with b',
    -[d b' : b]^-1 times the sum of [d b' : b2] phi(b2) over the other faces
    b2 of b'.  Faces and their coefficients are the terms of
    BarChain.boundary, and phi's values are BarChains.  phi keeps the set
    of cells whose value it is still computing; re-entering one means the
    matching is not acyclic, and raises.  d o d = 0 is checked on every
    cell whose faces are read: each critical cell and each up-partner.
    """
    P = matching.presentation
    in_progress: set[Tensor] = set()

    def checked_boundary(cell):
        d = BarChain(P, {cell: 1}).boundary()
        if not d.boundary().is_zero():
            raise CompositionError(
                f"d o d != 0 on {cell} in stratum (s={len(cell)}, t={t}, "
                f"w={w})")
        return d

    def reduced(d, skip=None):
        """The sum of e phi(b) over the terms e b of d, b != skip."""
        acc: dict[Tensor, int] = {}
        for b, e in d.terms.items():
            if b != skip:
                for c, v in phi(b).terms.items():
                    acc[c] = acc.get(c, 0) + e * v
        return BarChain(P, acc)

    def phi(b):
        partner = matching.match(b)
        if partner is None:
            return BarChain(P, {b: 1})
        if not partner[1]:
            return BarChain(P)
        if b in in_progress:
            raise ArithmeticError(f"the matching has a cycle through {b}")
        in_progress.add(b)
        d = checked_boundary(partner[0])
        if b not in d.terms:
            raise ArithmeticError(f"{b} is not a face of its partner")
        out = reduced(d, b).scale(-pow(d.terms[b], -1, P.p))
        in_progress.remove(b)
        return out

    dims: dict[tuple[int, int, int], int] = {}
    for c in cells:
        if not reduced(checked_boundary(c)).is_zero():
            raise ArithmeticError(
                f"d_M({c}) != 0 in stratum (s={len(c)}, t={t}, w={w}): the "
                f"Anick-chain Morse complex is minimal, so match, critical "
                f"or faces is wrong")
        if len(c) <= max_s:
            dims[(len(c), t, w)] = dims.get((len(c), t, w), 0) + 1
    return dims


def bar_homology(presentation: AlgebraPresentation, max_s: int,
                 max_degree: int, max_weight: Optional[int] = None) -> BigradedDims:
    """The homology table of BarComplex(presentation, max_s, max_degree,
    max_weight): the critical cells of the Anick-chain Morse complex
    (Sköldberg; Jöllenbeck-Welker) per stratum, counted by
    _critical_counts on each (internal, weight) chain with a cell of
    length <= max_s; a chain whose cells all have length max_s + 1 adds
    nothing at s <= max_s and is not checked."""
    if max_s < 0:
        raise ValueError("max_s must be >= 0")
    matching = _AnickMatching(presentation, max_degree, max_weight)
    chains: dict[tuple[int, int], list] = {}
    for cell, t, w in matching.critical(max_s + 1):
        chains.setdefault((t, w), []).append(cell)
    dims = {}
    for (t, w), cells in chains.items():
        if min(map(len, cells)) <= max_s:
            dims.update(_critical_counts(matching, max_s, t, w, cells))
    return BigradedDims(dict(sorted(dims.items())))


def presentation_dims(presentation: AlgebraPresentation, max_total: int,
                      max_weight: Optional[int] = None) -> BigradedDims:
    """Monomial counts of a presented algebra per (hom, internal, weight).

    A knapsack on packed levels (Kronecker substitution).  Level t is
    one Python int, levels[t]: the polynomial in (hom, weight) of the
    monomials of total degree t, evaluated at 2^W.  Slot k = h S + w,
    bits [k W, (k + 1) W), holds the number of monomials of hom degree h
    and weight w; internal = t - h >= 0, so level t has at most (t + 1) S
    slots.  One power (e d, e hom, e weight) of a generator is then one
    C-level big-int shift and add,
    levels[t + e d] += src << ((e hom S + e weight) W).

    The fold counts the monomials whose every generator power lies in
    the window (_exponents); those of weight > max_weight are cut when
    the levels are unpacked.  W and S are proved, not guessed:
    - W.  A first pass of the same fold shifts by 0, so it counts the
      monomials of each level with weights ignored.  A slot counts some of
      its level's monomials, so no slot exceeds the largest level total.
      W holds that total (packed.slot_width), so no slot carries into the
      next.
    - S = 1 + a bound on the weight of any monomial the fold counts
      (_top_weight).  Unweighted counts have S = 1.

    Generators enter largest total degree first (a stable sort), so a
    generator reads only monomials in generators at least as large as
    itself, which are few in the low levels it reads.  A generator of
    degree d > 0 sweeps t from max_total - d down to 0 and adds its
    powers e >= 1 to level t + e d, as a 0/1 knapsack does: a sweep
    writes only above the level it reads, onto levels already read, so
    each monomial takes at most one power of the generator.  A degree-0
    generator writes into the level it reads, from the int read before
    (ints are immutable).  Powers come from _exponents and are cut at the
    degree room.  Both passes start from 1 at level 0, the unit.

    Each level is unpacked once, and its slot sums must equal the first
    pass's level total, with or without a weight bound; a mismatch
    raises ArithmeticError.
    """
    gens = sorted(presentation.generators, key=lambda g: -g.total)
    exps = [_exponents(g, max_total, max_weight) for g in gens]
    if max_total < 0 or (max_weight is not None and max_weight < 0):
        return BigradedDims({})
    powers = [(g.total, [(e * g.total, e * g.hom, e * g.weight)
                         for e in es[1:]]) for g, es in zip(gens, exps)]
    totals = _fold([(d, [(dt, 0) for dt, _, _ in pw]) for d, pw in powers],
                   max_total)
    width = packed.slot_width(max(totals))
    stride = _top_weight(gens, exps, max_total) + 1
    levels = _fold([(d, [(dt, (dh * stride + dw) * width)
                         for dt, dh, dw in pw]) for d, pw in powers],
                   max_total)
    entries = {}
    for t, (level, total) in enumerate(zip(levels, totals)):
        slots = packed.unpack(level, width,
                              -(-level.bit_length() // width))
        found = sum(slots)
        if found != total:
            raise ArithmeticError(
                f"level {t} unpacks to {found} monomials, the first pass "
                f"counted {total}: a slot of {width} bits carried")
        for k in itertools.compress(range(len(slots)), slots):
            h, w = divmod(k, stride)
            if max_weight is None or w <= max_weight:
                entries[(h, t - h, w)] = slots[k]
    return BigradedDims(entries)


def _top_weight(gens: list[Generator], exps: list[range],
                max_total: int) -> int:
    """A bound on the weight of a monomial of total degree <= max_total:
    no more than every generator at its top power, nor than the degree-0
    generators at theirs plus max_total times the largest weight per
    degree of the others."""
    tops = [(g, es[-1]) for g, es in zip(gens, exps) if len(es) > 1]
    flat = sum(g.weight * e for g, e in tops if not g.total)
    steep = max((max_total * g.weight // g.total for g, _ in tops if g.total),
                default=0)
    return min(sum(g.weight * e for g, e in tops), flat + steep)


def _fold(steps: list, max_total: int) -> list[int]:
    """levels[t] for t <= max_total, from 1 at level 0, after each step
    (degree d, powers (e d, shift)) of presentation_dims."""
    levels = [1] + [0] * max_total
    for d, powers in steps:
        for t in range(max_total - d, -1, -1):
            src = levels[t]
            if src:
                room = max_total - t
                for dt, shift in powers:
                    if dt > room:
                        break
                    levels[t + dt] += src << shift
    return levels


def tor_presentation(presentation: AlgebraPresentation, max_total: int,
                     max_weight: Optional[int] = None) -> AlgebraPresentation:
    """Generators of Tor^A(F_p, F_p) as a new presentation.

    polynomial g          ->  exterior eps g, bidegree (1, |g|);
    exterior g            ->  truncated(p) rho^k g, p^k (1, |g|), k >= 0;
    truncated(h) g        ->  exterior eps g  plus
                              truncated(p) phi^k g, p^k (2, h |g|), k >= 0.

    An even class squaring to zero is declared truncated of height 2, so
    at odd p the exterior rule only ever sees odd generators.

    Divided-power towers are cut off at the degree/weight bounds; every
    new generator is strictly larger than its parent in both senses, so
    iterating with fixed bounds loses nothing below them.
    """
    p = presentation.p
    gens: list[Generator] = []

    def tower(sym: str, g: Generator, hom_unit: int, int_unit: int,
              wt_unit: int) -> None:
        k = 0
        while True:
            q = p ** k
            hom, internal, wt = q * hom_unit, q * int_unit, q * wt_unit
            if hom + internal > max_total:
                break
            if max_weight is not None and wt > max_weight:
                break
            gens.append(Generator(f"{sym}^{k}({g.name})", "truncated", p,
                                  hom, internal, wt))
            k += 1

    for g in presentation.generators:
        t = g.total
        if g.kind == "exterior":
            tower("ρ", g, 1, t, g.weight)
        elif 1 + t <= max_total:
            gens.append(Generator(f"ε({g.name})", "exterior", None,
                                  1, t, g.weight))
        if g.kind == "truncated":
            tower("φ", g, 2, g.height * t, g.height * g.weight)
    return AlgebraPresentation(p, tuple(gens))


def iterated_tor_presentation(presentation: AlgebraPresentation,
                              iterations: int, max_total: int
                              ) -> AlgebraPresentation:
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    current = presentation
    for _ in range(iterations):
        current = tor_presentation(current, max_total)
    return current


def iterated_tor(presentation: AlgebraPresentation, iterations: int,
                 max_total: int) -> BigradedDims:
    """Dimensions of the n-fold iterated Tor by (hom, internal) up to
    total degree max_total, weights untracked: a generator of degree > 0
    counts with weight 0, a degree-0 start at 0 iterations keeps its own.

    The count is presentation_dims of the final presentation.  With
    every weight 0 the slot stride is S = 1, so levels[t] holds one slot
    per hom degree h <= t, and a generator power is a shift by e hom W
    bits (W = 64 for B''(m) at p = 3, n = 12, degree <= 600)."""
    final = iterated_tor_presentation(presentation, iterations, max_total)
    gens = (replace(g, weight=0) if g.total else g for g in final.generators)
    return presentation_dims(AlgebraPresentation(final.p, tuple(gens)),
                             max_total)


# ---------------------------------------------------------------------------
# Explicit quasi-isomorphisms onto the small models.

def _gamma_digits(n: int, p: int) -> list[int]:
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def _gamma_coeff(n: int, p: int) -> int:
    """gamma_n equals (prod digits!)^{-1} times the monomial
    prod gamma_{p^i}^{digit_i}; this returns prod digits! mod p."""
    c = 1
    for d in _gamma_digits(n, p):
        c = c * factorial(d) % p
    return c


ModelElement = dict[Monomial, int]


def _model_mul(model: AlgebraPresentation, a: ModelElement,
               b: ModelElement) -> ModelElement:
    p = model.p
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            res = model.multiply(m1, m2)
            if res is None:
                continue
            sign, m = res
            out[m] = (out.get(m, 0) + sign * c1 * c2) % p
    return {m: v for m, v in out.items() if v}


class _QuasiIsoCase:
    """One-generator input algebra with its small model, the one-step
    tor_presentation of the algebra, and the explicit maps pi (bar ->
    model, memoised, {} for 0) and inc (model -> bar); Generator checks
    the truncated case's height."""

    def __init__(self, case: str, x_degree: int, p: int, m: Optional[int],
                 max_s: int, max_internal: int):
        if case in ("poly", "exterior") and m is not None:
            raise ValueError(f"{case} case carries no height")
        self.case = case
        self.p = p
        self.m = m
        if case == "poly":
            gen = polynomial("x", x_degree)
        elif case == "truncated":
            gen = truncated("x", m, x_degree)
        elif case == "exterior":
            gen = exterior("x", x_degree)
        else:
            raise ValueError(f"unknown case {case!r}")
        self.algebra = AlgebraPresentation(p, (gen,))
        # eps x first (poly, truncated), then the divided-power tower, cut
        # at the window's total degree: every gamma_n a check meets lies in
        # the window, and so do the generators of its base-p digits
        self.model = tor_presentation(self.algebra, max_s + max_internal)
        self._offset = 0 if case == "exterior" else 1
        self._pi_memo = cache(self._pi_tensor)
        self._parities = cache(self._parity_table)

    def _gamma_element(self, n: int, delta: int = 0) -> ModelElement:
        """gamma_n of the divided-power class, times (eps x)^delta."""
        if n == 0 and delta == 0:
            return {self.model.unit: 1}
        digits = _gamma_digits(n, self.p)
        exps = [0] * len(self.model.generators)
        if self._offset + len(digits) > len(exps):
            raise ValueError("gamma index beyond the generators kept")
        if delta:
            exps[0] = delta
        exps[self._offset:self._offset + len(digits)] = digits
        coeff = pow(_gamma_coeff(n, self.p), -1, self.p) if n else 1
        return {tuple(exps): coeff}

    def pi(self, chain: BarChain) -> ModelElement:
        memo, p, out = self._pi_memo, self.p, {}
        for tensor, coeff in chain.terms.items():
            for m, v in memo(tensor).items():
                out[m] = out.get(m, 0) + v * coeff
        return {m: v % p for m, v in out.items() if v % p}

    def pi_product(self, ta: Tensor, tb: Tensor) -> ModelElement:
        """pi(ta * tb), with no product built.  pi is 0 off one shape of
        tensor, (x) first when the length L is odd, then blocks (x^a | x^b)
        with a + b = m (none in the poly case; every tensor for m = 2 in the
        exterior case), and on it depends only on L.  So this is c pi_L, c
        the signed number of shuffles of that shape, counted block by block
        over i, the factors of ta placed."""
        la, lb, L = len(ta), len(tb), len(ta) + len(tb)
        m = 2 if self.case == "exterior" else self.m
        if m is None and L > 1:
            return {}
        # a_i placed after b_0 .. b_{j-1} flips the sign when fa[i] & pb[j];
        # with tb empty nothing crosses, and fa is never read
        fa, pb = self._parities(ta)[0] if tb else None, self._parities(tb)[1]
        level = {i: 1 for i, t in ((1, ta), (0, tb))
                 if t[:1] == ((1,),)} if L % 2 else {0: 1}  # (x): a_0 or b_0
        for pos in range(L % 2, L, 2):
            nxt: dict[int, int] = {}
            for i, c in level.items():
                j = pos - i
                if j + 1 < lb and tb[j][0] + tb[j + 1][0] == m:
                    nxt[i] = nxt.get(i, 0) + c
                if i < la and j < lb and ta[i][0] + tb[j][0] == m:  # ab, ba
                    nxt[i + 1] = nxt.get(i + 1, 0) + 2 * c * (
                        1 - (fa[i] & pb[j]) - (fa[i] & pb[j + 1]))
                if i + 1 < la and ta[i][0] + ta[i + 1][0] == m:
                    nxt[i + 2] = nxt.get(i + 2, 0) + (
                        -c if pb[j] and fa[i] ^ fa[i + 1] else c)
            level = nxt
        if not (c := sum(level.values()) % self.p):
            return {}
        image = (self._gamma_element(L) if self.case == "exterior"
                 else self._gamma_element(L // 2, L % 2))
        return {mono: v * c % self.p for mono, v in image.items()}

    def _parity_table(self, t: Tensor) -> tuple[list[int], list[int]]:
        """odd[i] = bit i of _odd_factors, prefix[j] = parity of odd[:j]."""
        mask = _odd_factors(self.algebra, t)
        return ([mask >> i & 1 for i in range(len(t))],
                [(mask % (1 << j)).bit_count() % 2 for j in range(len(t) + 1)])

    def _pi_tensor(self, tensor: Tensor) -> ModelElement:
        """pi of one basis tensor, {} for 0: its only shuffle with ()."""
        return self.pi_product(tensor, ())

    def inc(self, monomial: Monomial) -> BarChain:
        """Image of a small-model basis monomial in the bar complex."""
        p = self.p
        # the eps x exponent (none in an empty model), then base-p digits
        delta = sum(monomial[:self._offset])
        n = sum(e * p ** i for i, e in enumerate(monomial[self._offset:]))
        if self.case == "poly":
            tensor: Tensor = ((1,),) * delta
        elif self.case == "truncated":
            tensor = ((1,),) * delta + ((self.m - 1,), (1,)) * n
        else:
            tensor = ((1,),) * n
        return BarChain(self.algebra, {tensor: _gamma_coeff(n, p)})


@dataclass
class QuasiIsoReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            msg = f"{mark}: {name}"
            if detail and not ok:
                msg += f" ({detail})"
            out.append(msg)
        return out


def verify_quasi_iso(case: str, x_degree: int, p: int, m: Optional[int] = None,
                     max_s: int = 5, max_internal: int = 16) -> QuasiIsoReport:
    """Check the explicit maps between the bar complex of a one-generator
    algebra and its small model: both are chain maps, pi o inc = id,
    bar_homology agrees with the model's table on the bounded window, and
    both maps are multiplicative for the shuffle product.  Each check
    reports its first failure as the witness."""
    qc = _QuasiIsoCase(case, x_degree, p, m, max_s, max_internal)
    bar_dims = bar_homology(qc.algebra, max_s, max_internal)
    model = qc.model
    name = model.monomial_str

    def inc_sum(element: ModelElement) -> BarChain:
        return sum((qc.inc(mono).scale(c) for mono, c in element.items()),
                   BarChain(qc.algebra))

    # the window's bar tensors by (s, internal) stratum (every weight is
    # 0), and the live strata, where pi is not 0 on every tensor; a
    # boundary or a shuffle product that lands outside them has pi = 0
    memo = qc._pi_memo
    strata = {(s, t): tensors for (s, t, _w), tensors in
              _bar_strata(qc.algebra, max_s, max_internal, None).items()}
    nonzero = [(s, t, tensor) for (s, t), tensors in strata.items()
               for tensor in tensors if memo(tensor)]
    live = {(s, t) for s, t, _ in nonzero}

    def product_failures() -> Iterator[tuple]:
        """(sa, ia, a, sb, ib, b) of each failing pair among those that can
        fail (module docstring): every pair landing in a live stratum, and
        off them the pairs with pi(a) and pi(b) both nonzero."""
        for s, t in live:
            for (sa, ia), tas in strata.items():
                tbs = strata.get((s - sa, t - ia), ())
                for ta, tb in itertools.product(tas, tbs):
                    if qc.pi_product(ta, tb) != _model_mul(model, memo(ta),
                                                           memo(tb)):
                        yield sa, ia, ta, s - sa, t - ia, tb
        for (sa, ia, ta), (sb, ib, tb) in itertools.product(nonzero, repeat=2):
            if (sa + sb <= max_s and ia + ib <= max_internal
                    and (sa + sb, ia + ib) not in live
                    and _model_mul(model, memo(ta), memo(tb))):
                yield sa, ia, ta, sb, ib, tb

    def least_product_failure() -> Iterator[str]:
        """The least failing pair in (s, internal, tensor) order, which is
        the order of the keys product_failures yields."""
        least = min(product_failures(), default=None)
        if least:
            yield f"pi({least[2]} * {least[5]})"

    model_basis = [mb for mb in [model.unit]
                   + model.augmentation_monomials(max_s + max_internal)
                   if model.mono_hom(mb) <= max_s
                   and model.mono_internal(mb) <= max_internal]
    model_dims = presentation_dims(model, max_s + max_internal).restrict(
        max_hom=max_s, max_internal=max_internal)

    # each check lazily yields a witness per failure; the small model's
    # differential is zero, so a chain map kills every boundary
    witnesses = (
        ("pi is a chain map",
         (f"pi(d{t}) != 0" for s, tt in sorted(strata) if (s - 1, tt) in live
          for t in strata[s, tt]
          if qc.pi(BarChain(qc.algebra, {t: 1}).boundary()))),
        ("inc is a chain map",
         (f"d(inc({name(mb)})) != 0" for mb in model_basis
          if not qc.inc(mb).boundary().is_zero())),
        ("pi o inc = id",
         (f"pi(inc({name(mb)})) = {got}" for mb in model_basis
          if (got := qc.pi(qc.inc(mb))) != {mb: 1})),
        ("homology dimensions match the small model",
         iter([] if bar_dims == model_dims else
              [f"bar {bar_dims.as_dict()} vs model {model_dims.as_dict()}"])),
        ("pi is multiplicative", least_product_failure()),
        ("inc is multiplicative",
         (f"inc({name(ma)} * {name(mb)})"
          for ma in model_basis for mb in model_basis
          if model.mono_hom(ma) + model.mono_hom(mb) <= max_s
          and qc.inc(ma) * qc.inc(mb)
          != inc_sum(_model_mul(model, {ma: 1}, {mb: 1})))),
    )
    checks = []
    for check, found in witnesses:
        witness = next(found, None)
        checks.append((check, witness is None, witness or ""))
    return QuasiIsoReport(tuple(checks))
