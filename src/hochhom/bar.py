"""Reduced bar complexes over F_p, shuffle products, and iterated Tor.

An algebra is presented by generators that are exterior, truncated of
height h (g^h = 0), or polynomial, each carrying a bidegree (hom,
internal) and an optional auxiliary weight.  For a plain input algebra
hom = 0; presenting a Tor algebra as the input of the next stage uses
the full bidegree, with total degree hom + internal as the grading the
bar construction sees.

The two-sided reduced bar complex B(k, A, k) has B_s = (IA)^{tensor s}
with only the inner face maps surviving,

    d(a_1 | ... | a_s) = sum_i (-1)^(e_i) a_1 | ... | a_i a_{i+1} | ... | a_s,
    e_i = sum_{j<i} (|a_j| + 1) + |a_i|,

the Koszul convention induced by suspending each factor.  d^2 = 0 is
verified once for every composable pair of constructed blocks, and the
shuffle product satisfies the graded Leibniz rule for this sign choice
(property-tested).

Homology of Tor^A(k, k) in the three one-generator cases has explicit
small models:

    A = k[x]        ->  Lambda(eps x),
    A = k[x]/x^m    ->  Lambda(eps x) (x) Gamma(phi^0 x),   |x| even or p = 2,
    A = Lambda(x)   ->  Gamma(rho^0 x),                     |x| odd or p = 2,

where Gamma(y) decomposes mod p as the tensor product of height-p
truncated algebras on gamma_{p^i}(y).  verify_quasi_iso checks the
explicit quasi-isomorphisms in both directions.  Iterating the rewrite
polynomial -> exterior -> divided-power towers computes iterated Tor
without building nested bar complexes; bar homology of each presented
stage is the independent oracle for that rewrite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Literal, Mapping, Optional

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


def exterior(name: str, degree: int, weight: int = 0, hom: int = 0) -> Generator:
    return Generator(name, "exterior", None, hom, degree - hom, weight)


def truncated(name: str, height: int, degree: int, weight: int = 0,
              hom: int = 0) -> Generator:
    return Generator(name, "truncated", height, hom, degree - hom, weight)


def polynomial(name: str, degree: int, weight: int = 0, hom: int = 0) -> Generator:
    return Generator(name, "polynomial", None, hom, degree - hom, weight)


@dataclass(frozen=True)
class AlgebraPresentation:
    """A graded-commutative F_p algebra given by generators and caps."""

    p: int
    generators: tuple[Generator, ...]

    def __post_init__(self):
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

    def mono_total(self, m: Monomial) -> int:
        return sum(e * t for e, t in zip(m, self._totals))

    def mono_hom(self, m: Monomial) -> int:
        return sum(e * g.hom for e, g in zip(m, self.generators))

    def mono_internal(self, m: Monomial) -> int:
        return sum(e * g.internal for e, g in zip(m, self.generators))

    def mono_weight(self, m: Monomial) -> int:
        return sum(e * w for e, w in zip(m, self._weights))

    def multiply(self, m1: Monomial, m2: Monomial) -> Optional[tuple[int, Monomial]]:
        """(sign, product) with the Koszul sign, or None when truncation
        kills the product."""
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
        """All non-unit monomials within the degree and weight bounds."""
        if max_total < 0:
            raise ValueError("degree bound must be nonnegative")
        for g in self.generators:
            if g.total == 0 and g.cap is None and max_weight is None:
                raise ValueError(
                    f"generator {g.name} has degree 0: a weight bound is "
                    f"required to keep enumeration finite")
        out: list[Monomial] = []

        def extend(prefix: list[int], idx: int, t_left: int,
                   w_left: Optional[int]) -> None:
            if idx == len(self.generators):
                if any(prefix):
                    out.append(tuple(prefix))
                return
            g = self.generators[idx]
            e = 0
            while True:
                if g.cap is not None and e > g.cap:
                    break
                cost_t = e * g.total
                cost_w = e * g.weight
                if cost_t > t_left:
                    break
                if w_left is not None and cost_w > w_left:
                    break
                extend(prefix + [e], idx + 1, t_left - cost_t,
                       None if w_left is None else w_left - cost_w)
                e += 1

        extend([], 0, max_total, max_weight)
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "generators": [
                {"name": g.name, "kind": g.kind, "height": g.height,
                 "hom": g.hom, "internal": g.internal, "weight": g.weight}
                for g in self.generators
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AlgebraPresentation":
        gens = tuple(
            Generator(d["name"], d["kind"], d["height"], d["hom"],
                      d["internal"], d["weight"])
            for d in data["generators"])
        return cls(data["p"], gens)


class BigradedDims:
    """Sparse (hom, internal, weight) -> dimension table."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple, int] = ()):
        clean: dict[tuple[int, int, int], int] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for key, dim in items:
            if dim < 0:
                raise ValueError("dimensions must be nonnegative")
            if dim:
                key = tuple(key)
                if len(key) == 2:
                    key = (key[0], key[1], 0)
                clean[key] = clean.get(key, 0) + dim
        self._entries = clean

    def items(self):
        return sorted(self._entries.items())

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return dict(self._entries)

    def get(self, hom: int, internal: int, weight: int = 0) -> int:
        return self._entries.get((hom, internal, weight), 0)

    def total_series(self, max_degree: Optional[int] = None) -> dict[int, int]:
        """Dimensions per total degree hom + internal."""
        out: dict[int, int] = {}
        for (h, i, _), dim in self._entries.items():
            d = h + i
            if max_degree is None or d <= max_degree:
                out[d] = out.get(d, 0) + dim
        return out

    def by_bidegree(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (h, i, _), dim in self._entries.items():
            out[(h, i)] = out.get((h, i), 0) + dim
        return out

    def restrict(self, max_hom: Optional[int] = None,
                 max_internal: Optional[int] = None) -> "BigradedDims":
        kept = {}
        for (h, i, w), dim in self._entries.items():
            if max_hom is not None and h > max_hom:
                continue
            if max_internal is not None and i > max_internal:
                continue
            kept[(h, i, w)] = dim
        return BigradedDims(kept)

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

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"BigradedDims({self._entries!r})"


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

    @classmethod
    def unit(cls, presentation: AlgebraPresentation) -> "BarChain":
        return cls(presentation, {(): 1})

    @classmethod
    def from_tensor(cls, presentation: AlgebraPresentation, tensor: Tensor,
                    coeff: int = 1) -> "BarChain":
        for mono in tensor:
            if not any(mono):
                raise ValueError("tensor factors must lie in the augmentation ideal")
        return cls(presentation, {tuple(tensor): coeff})

    def _check_compatible(self, other: "BarChain") -> None:
        if other.presentation != self.presentation:
            raise ValueError("chains over different presentations")

    def __add__(self, other: "BarChain") -> "BarChain":
        self._check_compatible(other)
        acc = dict(self.terms)
        for t, c in other.terms.items():
            acc[t] = acc.get(t, 0) + c
        return BarChain(self.presentation, acc)

    def __sub__(self, other: "BarChain") -> "BarChain":
        return self + other.scale(-1)

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
        """Shuffle product."""
        self._check_compatible(other)
        P = self.presentation
        acc: dict[Tensor, int] = {}
        for ta, ca in self.terms.items():
            ea = [P.mono_total(m) + 1 for m in ta]
            for tb, cb in other.terms.items():
                eb = [P.mono_total(m) + 1 for m in tb]
                la, lb = len(ta), len(tb)
                for positions in itertools.combinations(range(la + lb), la):
                    pos_set = frozenset(positions)
                    merged: list[Monomial] = []
                    ia = ib = 0
                    sign_exp = 0
                    b_prefix = 0  # parity sum of suspended degrees of b factors placed
                    for slot in range(la + lb):
                        if slot in pos_set:
                            sign_exp += ea[ia] * b_prefix
                            merged.append(ta[ia])
                            ia += 1
                        else:
                            b_prefix += eb[ib]
                            merged.append(tb[ib])
                            ib += 1
                    coeff = ca * cb * (-1 if sign_exp % 2 else 1)
                    key = tuple(merged)
                    acc[key] = acc.get(key, 0) + coeff
        return BarChain(P, acc)

    def boundary(self) -> "BarChain":
        """The inner-face alternating sum with suspension Koszul signs."""
        P = self.presentation
        acc: dict[Tensor, int] = {}
        for tensor, coeff in self.terms.items():
            totals = [P.mono_total(m) for m in tensor]
            prefix = 0  # sum of (|a_j| + 1) for j < i
            for i in range(len(tensor) - 1):
                res = P.multiply(tensor[i], tensor[i + 1])
                if res is not None:
                    sign, prod = res
                    if any(prod):
                        e = prefix + totals[i]
                        s = sign * (-1 if e % 2 else 1)
                        key = tensor[:i] + (prod,) + tensor[i + 2:]
                        acc[key] = acc.get(key, 0) + coeff * s
                prefix += totals[i] + 1
        return BarChain(P, acc)

    def total_degree(self) -> Optional[int]:
        """Common total degree (s + internal) of the terms, None for 0."""
        degs = {len(t) + sum(self.presentation.mono_total(m) for m in t)
                for t in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("chain is not homogeneous")
        return degs.pop()

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
    stratified by (internal degree, weight); differentials per stratum.

    Homology is exact for s <= max_s: each stratum is finite and complete
    within the bounds, and the block at max_s + 1 supplies the incoming
    differential for the top reported row.  The homology table is
    computed once, at the end of construction, and that pass verifies
    d o d = 0 exactly once for every composable pair of blocks, so a
    presentation whose products are not associative raises here.
    """

    def __init__(self, presentation: AlgebraPresentation, max_s: int,
                 max_internal: int, max_weight: Optional[int] = None):
        if max_s < 0:
            raise ValueError("max_s must be >= 0")
        self.presentation = presentation
        self.max_s = max_s
        self.max_internal = max_internal
        self.max_weight = max_weight
        p = presentation.p

        monos = presentation.augmentation_monomials(max_internal, max_weight)
        totals = {m: presentation.mono_total(m) for m in monos}
        mono_data = [(m, totals[m], presentation.mono_weight(m))
                     for m in monos]

        # basis[(s, t, w)] = sorted tensors; built level by level
        self._basis: dict[tuple[int, int, int], list[Tensor]] = {(0, 0, 0): [()]}
        level: list[tuple[Tensor, int, int]] = [((), 0, 0)]
        for s in range(1, max_s + 2):
            nxt: list[tuple[Tensor, int, int]] = []
            for tensor, t, w in level:
                for m, mt, mw in mono_data:
                    t2, w2 = t + mt, w + mw
                    if t2 > max_internal:
                        continue
                    if max_weight is not None and w2 > max_weight:
                        continue
                    nxt.append((tensor + (m,), t2, w2))
            strata: dict[tuple[int, int, int], list[Tensor]] = {}
            for tensor, t, w in nxt:
                strata.setdefault((s, t, w), []).append(tensor)
            for key, tensors in strata.items():
                self._basis[key] = sorted(tensors)
            level = nxt

        # Differentials keyed by source stratum (s, t, w), s >= 1, built
        # from the basis tensors with the face signs of BarChain.boundary.
        # products[(a, b)] is (sign, ab), or None when truncation kills ab.
        # Only blocks s <= max_s are targets, so only they get an index.
        index = {key: {t: i for i, t in enumerate(tensors)}
                 for key, tensors in self._basis.items() if key[0] <= max_s}
        products: dict[tuple[Monomial, Monomial],
                       Optional[tuple[int, Monomial]]] = {}
        self._diff: dict[tuple[int, int, int], SparseFpMatrix] = {}
        for (s, t, w), tensors in self._basis.items():
            if s == 0:
                continue
            target = index.get((s - 1, t, w), {})
            # faces of one tensor land on distinct tensors, so every
            # (row, col) is written at most once
            entries: dict[tuple[int, int], int] = {}
            for col, tensor in enumerate(tensors):
                prefix = 0  # sum of (|a_j| + 1) for j < i
                for i in range(s - 1):
                    a, b = tensor[i], tensor[i + 1]
                    if (a, b) in products:
                        prod = products[(a, b)]
                    else:
                        prod = products[(a, b)] = presentation.multiply(a, b)
                    if prod is not None:
                        sign, ab = prod
                        if (prefix + totals[a]) % 2:
                            sign = -sign
                        row = target[tensor[:i] + (ab,) + tensor[i + 2:]]
                        entries[(row, col)] = sign
                    prefix += totals[a] + 1
            self._diff[(s, t, w)] = SparseFpMatrix(
                p, len(target), len(tensors), entries)
        del index, products

        dims: dict[tuple[int, int, int], int] = {}
        for s, t, w in sorted(self._basis):
            if s > max_s:
                continue
            try:
                dims[(s, t, w)] = homology_dim(self.differential(s + 1, t, w),
                                               self.differential(s, t, w))
            except CompositionError as exc:
                raise CompositionError(
                    f"d o d != 0 from stratum (s={s + 1}, t={t}, w={w})"
                ) from exc
        self._homology = BigradedDims(dims)

    def basis(self, s: int, internal: int, weight: int = 0) -> list[Tensor]:
        return list(self._basis.get((s, internal, weight), []))

    def strata(self, s: int) -> list[tuple[int, int]]:
        return sorted((t, w) for (s2, t, w) in self._basis if s2 == s)

    def differential(self, s: int, internal: int,
                     weight: int = 0) -> SparseFpMatrix:
        key = (s, internal, weight)
        if key in self._diff:
            return self._diff[key]
        cols = len(self._basis.get(key, ()))
        rows = len(self._basis.get((s - 1, internal, weight), ()))
        return SparseFpMatrix.zero(self.presentation.p, rows, cols)

    def homology(self) -> BigradedDims:
        """Per-stratum homology dimensions for s <= max_s."""
        return self._homology


def bar_homology(presentation: AlgebraPresentation, max_s: int,
                 max_degree: int, max_weight: Optional[int] = None) -> BigradedDims:
    return BarComplex(presentation, max_s, max_degree, max_weight).homology()


def presentation_dims(presentation: AlgebraPresentation, max_total: int,
                      max_weight: Optional[int] = None) -> BigradedDims:
    """Monomial counts of a presented algebra per (hom, internal, weight).

    One exact integer fold over levels[t], a {(hom, weight): count} dict
    for each total degree t <= max_total.  Generators enter largest total
    degree first (a stable sort): a generator then reads only monomials
    in generators at least as large as itself, which are few in the low
    levels it reads.  A generator of degree d > 0 sweeps t from
    max_total - d down to 0 and adds every power e >= 1 of itself to
    each level-t monomial, writing into level t + e d in place, as a
    0/1 knapsack does.  The descent is exact: a sweep writes only above
    the level it reads, onto levels it has already read, so each monomial
    takes at most one power of the generator.  A degree-0 generator
    writes into the level it reads, so it reads a copy.  Every power is
    cut at the cap, the degree room and the weight bound before it is
    added, so no key outside the window is ever made.
    """
    levels: list[dict[tuple[int, int], int]] = [
        {} for _ in range(max_total + 1)]
    if levels and (max_weight is None or max_weight >= 0):
        levels[0][(0, 0)] = 1
    for g in sorted(presentation.generators, key=lambda g: -g.total):
        if g.total == 0 and g.cap is None and max_weight is None:
            raise ValueError(
                f"generator {g.name} has degree 0: a weight bound is required")
        d = g.total
        powers = []  # (e d, e hom, e weight) for 1 <= e <= cap in the window
        e = 1
        while ((g.cap is None or e <= g.cap) and e * d <= max_total
               and (max_weight is None or e * g.weight <= max_weight)):
            powers.append((e * d, e * g.hom, e * g.weight))
            e += 1
        for t in range(max_total - d, -1, -1):
            source = levels[t] if d else dict(levels[t])
            usable = powers[:(max_total - t) // d] if d else powers
            for (h, w), c in source.items():
                for dt, dh, dw in usable:
                    w2 = w + dw
                    if max_weight is not None and w2 > max_weight:
                        break
                    target = levels[t + dt]
                    key = (h + dh, w2)
                    target[key] = target.get(key, 0) + c
    return BigradedDims({(h, t - h, w): c for t, level in enumerate(levels)
                         for (h, w), c in sorted(level.items())})


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
        if g.kind == "polynomial":
            if 1 + t <= max_total:
                gens.append(Generator(f"ε({g.name})", "exterior", None,
                                      1, t, g.weight))
        elif g.kind == "exterior":
            tower("ρ", g, 1, t, g.weight)
        else:
            h = g.height
            if 1 + t <= max_total:
                gens.append(Generator(f"ε({g.name})", "exterior", None,
                                      1, t, g.weight))
            tower("φ", g, 2, h * t, h * g.weight)
    return AlgebraPresentation(p, tuple(gens))


def iterated_tor_presentation(presentation: AlgebraPresentation,
                              iterations: int, max_total: int,
                              max_weight: Optional[int] = None
                              ) -> AlgebraPresentation:
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    current = presentation
    for _ in range(iterations):
        current = tor_presentation(current, max_total, max_weight)
    return current


def iterated_tor(presentation: AlgebraPresentation, iterations: int,
                 max_total: int, max_weight: Optional[int] = None
                 ) -> BigradedDims:
    """Dimension table of the n-fold iterated Tor within bounds."""
    final = iterated_tor_presentation(presentation, iterations, max_total,
                                      max_weight)
    return presentation_dims(final, max_total, max_weight)


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
    """One-generator input algebra with its small model and the explicit
    maps pi (bar -> model) and inc (model -> bar)."""

    def __init__(self, case: str, x_degree: int, p: int, m: Optional[int],
                 max_s: int, max_internal: int):
        self.case = case
        self.p = p
        self.x_degree = x_degree
        self.m = m
        if case == "poly":
            gen = polynomial("x", x_degree)
        elif case == "truncated":
            if m is None or m < 2:
                raise ValueError("truncated case needs a height m >= 2")
            gen = truncated("x", m, x_degree)
        elif case == "exterior":
            gen = exterior("x", x_degree)
        else:
            raise ValueError(f"unknown case {case!r}")
        self.algebra = AlgebraPresentation(p, (gen,))

        # Small model generators, with room for gamma indices up to the
        # largest products examined (pairs of chains with s <= max_s each).
        gamma_room = 2 * (max_s + 2)
        gens: list[Generator] = []
        if case == "poly":
            gens.append(Generator("εx", "exterior", None, 1, x_degree, 0))
        elif case == "truncated":
            gens.append(Generator("εx", "exterior", None, 1, x_degree, 0))
            i = 0
            while 2 * p ** i <= gamma_room:
                q = p ** i
                gens.append(Generator(f"φ^{i}x", "truncated", p,
                                      2 * q, q * m * x_degree, 0))
                i += 1
        else:
            i = 0
            while p ** i <= gamma_room:
                q = p ** i
                gens.append(Generator(f"ρ^{i}x", "truncated", p,
                                      q, q * x_degree, 0))
                i += 1
        self.model = AlgebraPresentation(p, tuple(gens))
        self._n_gamma = len(gens) - (1 if case in ("poly", "truncated") else 0)

    def _gamma_element(self, n: int, delta: int = 0) -> ModelElement:
        """gamma_n of the divided-power class, times (eps x)^delta."""
        if n == 0 and delta == 0:
            return {self.model.unit: 1}
        digits = _gamma_digits(n, self.p)
        if len(digits) > self._n_gamma:
            raise ValueError("gamma index beyond the generators kept")
        offset = 1 if self.case in ("poly", "truncated") else 0
        exps = [0] * len(self.model.generators)
        if delta:
            exps[0] = delta
        for i, d in enumerate(digits):
            exps[offset + i] = d
        coeff = pow(_gamma_coeff(n, self.p), -1, self.p) if n else 1
        return {tuple(exps): coeff}

    def pi(self, chain: BarChain) -> ModelElement:
        p = self.p
        out: ModelElement = {}
        for tensor, coeff in chain.terms.items():
            contrib = self._pi_tensor(tensor)
            if contrib is None:
                continue
            for m, v in contrib.items():
                out[m] = (out.get(m, 0) + v * coeff) % p
        return {m: v for m, v in out.items() if v}

    def _pi_tensor(self, tensor: Tensor) -> Optional[ModelElement]:
        s = len(tensor)
        exps = [mono[0] for mono in tensor]
        if self.case == "poly":
            if s == 0:
                return {self.model.unit: 1}
            if s == 1 and exps == [1]:
                return self._gamma_element(0, delta=1)
            return None
        if self.case == "exterior":
            # every factor is x itself
            return self._gamma_element(s)
        m = self.m
        if s % 2 == 0:
            pairs = list(zip(exps[0::2], exps[1::2]))
            if all(a + b == m for a, b in pairs):
                return self._gamma_element(s // 2)
            return None
        if exps[0] != 1:
            return None
        pairs = list(zip(exps[1::2], exps[2::2]))
        if all(a + b == m for a, b in pairs):
            return self._gamma_element((s - 1) // 2, delta=1)
        return None

    def inc(self, monomial: Monomial) -> BarChain:
        """Image of a small-model basis monomial in the bar complex."""
        p = self.p
        offset = 1 if self.case in ("poly", "truncated") else 0
        delta = monomial[0] if offset else 0
        n = sum(e * p ** i for i, e in enumerate(monomial[offset:]))
        coeff = 1
        for e in monomial[offset:]:
            coeff = coeff * factorial(e) % p
        if self.case == "poly":
            tensor: Tensor = ((1,),) * delta
        elif self.case == "truncated":
            tensor = ((1,),) * delta + ((self.m - 1,), (1,)) * n
        else:
            tensor = ((1,),) * n
        return BarChain(self.algebra, {tensor: coeff})


@dataclass
class QuasiIsoReport:
    case: str
    p: int
    x_degree: int
    m: Optional[int]
    max_s: int
    max_internal: int
    checks: tuple[tuple[str, bool, str], ...]
    bar_dims: BigradedDims
    model_dims: BigradedDims

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
    algebra and its small model: both are chain maps, pi o inc = id, the
    homology dimension tables agree on the bounded window, and both maps
    are multiplicative for the shuffle product."""
    if case in ("poly", "truncated") and x_degree % 2 and p != 2:
        raise ValueError("commutative generator of odd degree needs p = 2")
    if case == "exterior" and x_degree % 2 == 0 and p != 2:
        raise ValueError("exterior generator of even degree needs p = 2")
    qc = _QuasiIsoCase(case, x_degree, p, m, max_s, max_internal)
    complex_ = BarComplex(qc.algebra, max_s, max_internal)
    checks: list[tuple[str, bool, str]] = []

    # (i) both maps are chain maps (the model differential is zero)
    ok, witness = True, ""
    for s in range(1, max_s + 1):
        for t, w in complex_.strata(s):
            for tensor in complex_.basis(s, t, w):
                img = qc.pi(BarChain.from_tensor(qc.algebra, tensor).boundary())
                if img:
                    ok, witness = False, f"pi(d{tensor}) != 0"
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("pi is a chain map", ok, witness))

    model_basis = [qc.model.unit] + qc.model.augmentation_monomials(
        max_s + max_internal)
    model_basis = [mb for mb in model_basis
                   if qc.model.mono_hom(mb) <= max_s
                   and qc.model.mono_internal(mb) <= max_internal]
    ok, witness = True, ""
    for mb in model_basis:
        if not qc.inc(mb).boundary().is_zero():
            ok, witness = False, f"d(inc({qc.model.monomial_str(mb)})) != 0"
            break
    checks.append(("inc is a chain map", ok, witness))

    # (ii) pi o inc = id on the small model
    ok, witness = True, ""
    for mb in model_basis:
        expected = {mb: 1} if any(mb) else {qc.model.unit: 1}
        got = qc.pi(qc.inc(mb))
        if got != expected:
            ok, witness = False, f"pi(inc({qc.model.monomial_str(mb)})) = {got}"
            break
    checks.append(("pi o inc = id", ok, witness))

    # (iii) homology dimensions match the small model on the window
    bar_dims = complex_.homology()
    model_dims = presentation_dims(qc.model, max_s + max_internal).restrict(
        max_hom=max_s, max_internal=max_internal)
    ok = bar_dims == model_dims
    witness = "" if ok else (f"bar {bar_dims.as_dict()} vs "
                             f"model {model_dims.as_dict()}")
    checks.append(("homology dimensions match the small model", ok, witness))

    # (iv) multiplicativity of pi and inc.  all_tensors is ordered by s,
    # and upto[k] counts its tensors with s <= k, so the inner loop walks
    # only the prefix with sa + sb <= max_s.
    all_tensors: list[tuple[Tensor, int, int]] = [((), 0, 0)]
    upto = [1]
    for s in range(1, max_s + 1):
        for t, w in complex_.strata(s):
            for tensor in complex_.basis(s, t, w):
                all_tensors.append((tensor, s, t))
        upto.append(len(all_tensors))
    ok, witness = True, ""
    for (ta, sa, tta) in all_tensors:
        for (tb, sb, ttb) in all_tensors[:upto[max_s - sa]]:
            if tta + ttb > max_internal:
                continue
            ca = BarChain(qc.algebra, {ta: 1})
            cb = BarChain(qc.algebra, {tb: 1})
            lhs = qc.pi(ca * cb)
            rhs = _model_mul(qc.model, qc.pi(ca), qc.pi(cb))
            if lhs != rhs:
                ok, witness = False, f"pi({ta} * {tb})"
                break
        if not ok:
            break
    checks.append(("pi is multiplicative", ok, witness))

    ok, witness = True, ""
    for ma in model_basis:
        for mb in model_basis:
            if qc.model.mono_hom(ma) + qc.model.mono_hom(mb) > max_s:
                continue
            lhs = qc.inc(ma) * qc.inc(mb)
            prod = _model_mul(qc.model, {ma: 1}, {mb: 1})
            rhs = BarChain(qc.algebra)
            for mono, coeff in prod.items():
                rhs = rhs + qc.inc(mono).scale(coeff)
            if lhs != rhs:
                ok, witness = False, (
                    f"inc({qc.model.monomial_str(ma)} * "
                    f"{qc.model.monomial_str(mb)})")
                break
        if not ok:
            break
    checks.append(("inc is multiplicative", ok, witness))

    return QuasiIsoReport(case, p, x_degree, m, max_s, max_internal,
                          tuple(checks), bar_dims, model_dims)
