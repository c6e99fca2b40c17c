"""Poincare series of higher Hochschild and THH calculations over F_p.

Every closed form is a product of factors, one per generator, taken on
one truncated series packed into a single int (_Product, slots as in
packed), which each factor multiplies by big-int shifts and adds.  It is
unpacked only to widen its slots and once, at the end.  A word
contributes a factor per its multiplicative class (exterior 1 + t^d,
height-p truncated, or free 1/(1 - t^d)), and the base letter of the
B'/B'' families is bookkept in the base ring, not in the word factor
(basis_note records which).  Group algebras split as a tensor product
of a THH factor and per-factor HH contributions: Laurent for Z,
truncated polynomial for the p-part, etale (degree 0) for torsion
coprime to p.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Optional, Sequence

from . import packed
from . import words as W


@dataclass(frozen=True)
class PoincareSeries:
    """Truncated power series with nonnegative integer coefficients.

    coeffs maps degree -> coefficient (zeros omitted); truncation is the
    last trustworthy degree; basis_note says what the coefficients count
    (F_p-dimensions, or free ranks over a recorded base ring)."""

    coeffs: dict[int, int]
    truncation: int
    basis_note: str = "F_p-dimensions"
    validity: Optional[str] = None

    def __post_init__(self):
        if type(self.truncation) is not int:
            raise TypeError(f"truncation {self.truncation!r} is not an int")
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        clean, top = {}, self.truncation
        for d, c in self.coeffs.items():
            if not (type(d) is int and type(c) is int):
                raise TypeError(
                    f"degree {d!r} and coefficient {c!r} must both be ints")
            if d < 0:
                raise ValueError("degrees must be nonnegative")
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c and d <= top:
                clean[d] = c
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, degree: int) -> int:
        if degree < 0:
            raise ValueError("degrees must be nonnegative")
        if degree > self.truncation:
            raise ValueError(f"degree {degree} beyond truncation {self.truncation}")
        return self.coeffs.get(degree, 0)

    def text_table(self) -> list[str]:
        width = max(len("deg"), len(str(self.truncation)))
        lines = [f"{'deg':>{width}}  dim"]
        for d in range(self.truncation + 1):
            c = self.coeffs.get(d, 0)
            if c:
                lines.append(f"{d:>{width}}  {c}")
        return lines

    def to_json_dict(self) -> dict:
        out = {
            "base": self.basis_note,
            "coeffs": {str(d): c for d, c in sorted(self.coeffs.items())},
            "truncation": self.truncation,
        }
        if self.validity is not None:
            out["validity"] = self.validity
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for d, c in sorted(self.coeffs.items()):
            if d == 0:
                bits.append(str(c))
            else:
                term = f"t^{d}" if d > 1 else "t"
                bits.append(term if c == 1 else f"{c}*{term}")
        return " + ".join(bits)


class _Product:
    """A power series truncated at degree max_degree, with nonnegative
    integer coefficients, packed into one int: the coefficient of t^k sits
    in slot k, bits [k width, (k+1) width) (see packed).  A factor is a
    few big-int shifts and adds on the whole series.  Every factor starts
    with 1 and has nonnegative coefficients summing to s, so slots below
    2^(width - bitlen(s)) hold its result.  The slots start at 8 bits;
    before each factor a guard mask tests that bound, and where it fails
    the series is unpacked and packed again at
    packed.slot_width(max coefficient * s), so no slot ever carries into
    the next."""

    def __init__(self, max_degree: int):
        if type(max_degree) is not int:
            raise TypeError(f"max_degree {max_degree!r} is not an int")
        if max_degree < 0:
            raise ValueError("truncation must be nonnegative")
        self.max_degree = max_degree
        self._pack([1], 8)

    def _pack(self, coeffs: Sequence[int], width: int) -> None:
        """Set the slot width and the value from the coefficients; the
        guard masks of the old width are dropped."""
        self.width = width
        self.value = packed.pack(coeffs, width)
        self._mask = (1 << (self.max_degree + 1) * width) - 1
        self._guards: dict[int, int] = {}

    def _fit(self, total: int) -> None:
        """Widen the slots, if need be, to hold each coefficient times
        total."""
        bits = total.bit_length()
        if bits >= self.width or self.value & self._guard(bits):
            coeffs = self.coeffs()
            self._pack(coeffs, packed.slot_width(max(coeffs) * total))

    def _guard(self, bits: int) -> int:
        """The top `bits` bits of every slot."""
        if bits not in self._guards:
            top = ((1 << bits) - 1) << (self.width - bits)
            self._guards[bits] = int.from_bytes(
                top.to_bytes(self.width // 8, "little") * (self.max_degree + 1),
                "little")
        return self._guards[bits]

    def times(self, step: int, factor: Sequence[int]) -> None:
        """Multiply by sum_j factor[j] t^(j step); factor[0] must be 1."""
        factor = factor[:self.max_degree // step + 1]
        self._fit(sum(factor))
        old, shift = self.value, step * self.width
        for j in range(1, len(factor)):
            c = factor[j]
            self.value += (old if c == 1 else old * c) << (j * shift)
        self.value &= self._mask

    def free_times(self, step: int) -> None:
        """Multiply by 1/(1 - t^step) = (1 + t^step)(1 + t^(2 step))...,
        up to the truncation."""
        if step < 1:
            raise ValueError("free factor needs positive degree")
        while step <= self.max_degree:
            self.times(step, (1, 1))
            step *= 2

    def scale(self, c: int) -> None:
        """Multiply every coefficient by c >= 1."""
        self._fit(c)
        self.value *= c

    def coeffs(self) -> list[int]:
        """The coefficients of t^0 .. t^max_degree."""
        return list(packed.unpack(self.value, self.width, self.max_degree + 1))

    def series(self, basis_note: str = "F_p-dimensions",
               validity: Optional[str] = None) -> PoincareSeries:
        """The product as a series, unpacked once."""
        return PoincareSeries(dict(enumerate(self.coeffs())), self.max_degree,
                              basis_note, validity)


def _height_power(height: int, count: int, length: int) -> list[int]:
    """(1 + u + ... + u^(height-1))^count, coefficients of u^0 up to
    u^length or its degree, whichever is lower (so none is zero)."""
    out = [1] + [0] * min(length, count * (height - 1))
    for _ in range(count):
        sums = list(accumulate(out))
        out = sums[:height] + list(map(sub, sums[height:], sums))
    return out


def _words_times(product: _Product, family: W.WordFamily, n: int,
                 p: int) -> None:
    """Multiply the product by the factor of every length-n word of the
    family, up to its truncation.

    The words are counted, not built: counts by (leading letter kind,
    total degree) grow a letter per level through W._levels, dropping
    degrees past the bound.  A word of degree d leading with eps
    gives an exterior factor 1 + t^d, one leading with rho^k or phi^k a
    height-p truncated factor, the bare free base letter mu 1/(1 - t^d).
    The bare base letter x of B'/B'' belongs to the base ring and carries
    no factor here.  The c words sharing a class and a degree enter the
    product at once, as the c-th power of their factor."""
    max_degree = product.max_degree

    def images(ladder, counts):
        out: dict[int, int] = {}
        for d, count in counts.items():
            for _letter, a, b, _k in ladder:
                t = a + b * d
                if t > max_degree:
                    break
                out[t] = out.get(t, 0) + count
        return [out]

    level = W._levels(n, family, W.letter_moves(family, p, max_degree),
                      {family.base_degree: 1}, images,
                      lambda parts: sum(map(Counter, parts), Counter()))[-1]
    for kind, counts in level.items():
        for d, count in counts.items():
            if kind == "mu":  # n = 1: the bare free base letter alone
                product.free_times(d)
            elif kind != "x":  # exterior is the height-2 case
                height = 2 if kind == "eps" else p
                product.times(d, _height_power(height, count, max_degree // d))


def _words_product(family: W.WordFamily, n: int, p: int,
                   max_degree: int) -> _Product:
    """The product of the factors of the length-n words (see _words_times)."""
    product = _Product(max_degree)
    _words_times(product, family, n, p)
    constant = product.value & ((1 << product.width) - 1)
    if constant != 1:
        raise ArithmeticError(f"series has constant term {constant}, not 1")
    return product


def family_series(family: W.WordFamily, n: int, p: int,
                  max_degree: int) -> PoincareSeries:
    """Poincare series of the algebra generated by the length-n words:
    the product of their factors (see _words_times)."""
    return _words_product(family, n, p, max_degree).series()


def _thh(n: int, p: int, max_degree: int) -> tuple[_Product, str]:
    """The product for the n-fold iterated THH of F_p (family B at length
    n) and the validity of its collapse."""
    if n < 1:
        raise ValueError("n must be >= 1")
    product = _words_product(W.family_b(), n, p, max_degree)
    if (p != 2 and n <= 2 * p + 2) or (p == 2 and n <= 3):
        return product, "proved"
    return product, "conjectural (collapse unproven beyond this range)"


def thh_fp(n: int, p: int, max_degree: int) -> PoincareSeries:
    """Series of the n-fold iterated THH of F_p: family B at length n."""
    product, validity = _thh(n, p, max_degree)
    return product.series(validity=validity)


def hh_polynomial(n: int, p: int, max_degree: int) -> PoincareSeries:
    """Order-n Hochschild homology of F_p[x], |x| = 0, as ranks over F_p[x]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _words_product(W.family_bprime(), n + 1, p, max_degree).series(
        f"free ranks over F_{p}[x]")


def hh_laurent(n: int, p: int, max_degree: int) -> PoincareSeries:
    """Same coefficients as hh_polynomial, over F_p[x^+-1] = F_p[Z]."""
    return hh_group_algebra(GroupSpec(1), n, p, max_degree)


def hh_truncated(n: int, p: int, ell: int, max_degree: int) -> PoincareSeries:
    """Order-n Hochschild homology of F_p[x]/x^(p^ell) = F_p[Z/p^ell].

    The ring-level identification holds for p-power truncations; other
    heights are available through hh_truncated_words as a word-calculus
    series only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if ell < 1:
        raise ValueError(
            "the ring-level series needs a p-power truncation p^ell, ell >= 1; "
            "use hh_truncated_words for other heights (word calculus only)")
    return hh_group_algebra(GroupSpec(0, (p ** ell,)), n, p, max_degree)


def hh_truncated_words(n: int, p: int, m: int, max_degree: int) -> PoincareSeries:
    """Word-calculus series for a general truncation height m >= 2.

    No ring-level claim is attached unless m is a power of p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise ValueError("truncation height must be >= 2")
    product = _words_product(W.family_bdoubleprime(m), n + 1, p, max_degree)
    return product.series(f"word-calculus series for height {m}; ring "
                          f"identification proved only for p-power heights")


def etale_finite(q: int) -> PoincareSeries:
    """HH of an etale F_p-algebra of dimension q sits in degree 0."""
    if q < 1:
        raise ValueError("dimension must be >= 1")
    return PoincareSeries({0: q}, 0,
                          "F_p-dimensions (etale: concentrated in degree 0)")


_TRIVIAL_NAMES = {"trivial", "0", "1", "e", "()"}


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated abelian group Z^r x Z/n_1 x ... x Z/n_k."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.free_rank) is not int:
            raise TypeError(f"free rank {self.free_rank!r} is not an int")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for order in self.torsion:
            if type(order) is not int:
                raise TypeError(f"torsion order {order!r} is not an int")
            if order < 2:
                raise ValueError(f"torsion order {order} must be >= 2")

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Grammar: "Z^r x Z/n1 x Z/n2 ...", "Z" alone, or "trivial"."""
        s = text.strip().replace("×", "x")
        if s.lower() in _TRIVIAL_NAMES:
            return cls()
        rank, torsion = 0, []
        for token in (t.strip() for t in s.split("x")):
            if not token:
                raise ValueError(f"empty factor in group spec {text!r}")
            m = re.fullmatch(r"Z(?:\^(\d+))?", token)
            if m:
                rank += int(m.group(1) or 1)
                continue
            m = re.fullmatch(r"Z/(\d+)", token)
            if m:
                order = int(m.group(1))
                if order == 1:
                    continue
                torsion.append(order)
                continue
            raise ValueError(f"cannot parse group factor {token!r}")
        return cls(rank, tuple(torsion))

    def factored_torsion(self) -> list[tuple[int, int]]:
        """Each torsion order as prime powers (q, e), cyclic CRT pieces."""
        out = []
        for order in self.torsion:
            n, q = order, 2
            while q * q <= n:
                if n % q == 0:
                    e = 0
                    while n % q == 0:
                        n //= q
                        e += 1
                    out.append((q, e))
                q += 1
            if n > 1:
                out.append((n, 1))
        return out

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{n}" for n in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def _group_times(product: _Product, group: GroupSpec, n: int, p: int) -> str:
    """Multiply the product by the order-n Hochschild factors of F_p[G]
    and return the note naming their base rings: each Z gives the Laurent
    words (B' at length n+1), each p-power torsion factor p^e the
    truncated words (B''(p^e) at length n+1), torsion q^e coprime to p
    the etale factor q^e in degree 0."""
    base_parts: list[str] = []
    for _ in range(group.free_rank):
        _words_times(product, W.family_bprime(), n + 1, p)
        base_parts.append(f"F_{p}[x^±1]")
    for q, e in group.factored_torsion():
        if q == p:
            _words_times(product, W.family_bdoubleprime(p ** e), n + 1, p)
            base_parts.append(f"F_{p}[x]/x^{p ** e}")
        else:
            product.scale(q ** e)
            base_parts.append(f"F_{p}[C_{q ** e}]")
    return "free ranks over " + (" (x) ".join(base_parts) or f"F_{p}")


def hh_group_algebra(group: GroupSpec, n: int, p: int,
                     max_degree: int) -> PoincareSeries:
    """Order-n Hochschild homology of F_p[G] for abelian G, as ranks over
    the recorded base ring: each Z gives a Laurent factor, each p-power
    torsion factor a truncated polynomial factor, torsion coprime to p an
    etale factor in degree 0."""
    W._require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    product = _Product(max_degree)
    return product.series(_group_times(product, group, n, p))


def thh_group_algebra(group: GroupSpec, n: int, p: int,
                      max_degree: int) -> PoincareSeries:
    """Order-n THH of F_p[G]: the THH series of F_p times the
    group-algebra Hochschild factors."""
    product, validity = _thh(n, p, max_degree)
    return product.series(_group_times(product, group, n, p), validity)


def hh_poly_gens(gen_degrees: Sequence[int], n: int, p: int,
                 max_degree: int) -> PoincareSeries:
    """Order-n Hochschild homology series of a polynomial ring on
    generators of the given internal degrees, F_p-dimensions including
    the free base factors 1/(1 - t^d)."""
    W._require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p != 2 and any(d % 2 for d in gen_degrees):
        raise ValueError("odd generator degrees need p = 2")
    if any(d < 1 for d in gen_degrees):
        raise ValueError("generator degrees must be >= 1")
    product = _Product(max_degree)
    for d in gen_degrees:
        _words_times(product, W.family_bprime(base_degree=d), n + 1, p)
        product.free_times(d)
    return product.series()
