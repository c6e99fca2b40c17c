"""Poincare series of higher Hochschild and THH calculations over F_p.

Every closed form is a product of factors, one per generator, taken on
one dense coefficient list that each factor multiplies in place.  A word
contributes a factor per its multiplicative class (exterior 1 + t^d,
height-p truncated, or free 1/(1 - t^d)), and the base letter of the
B'/B'' families is bookkept in the base ring, not in the word factor
(basis_note records which).  Group algebras split as a tensor product of
a THH factor and per-factor HH contributions: Laurent for Z, truncated
polynomial for the p-part, etale (degree 0) for torsion coprime to p.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Optional, Sequence

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
        if not isinstance(self.truncation, int):
            raise TypeError(f"truncation {self.truncation!r} is not an int")
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        clean = {}
        for d, c in self.coeffs.items():
            if not (isinstance(d, int) and isinstance(c, int)):
                raise TypeError(
                    f"degree {d!r} and coefficient {c!r} must both be ints")
            if d < 0:
                raise ValueError("degrees must be nonnegative")
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c and d <= self.truncation:
                clean[d] = c
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, degree: int) -> int:
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


def _times(coeffs: list[int], step: int, factor: Sequence[int]) -> None:
    """Multiply the dense list in place by sum_j factor[j] t^(j step),
    truncated to its length; factor[0] must be 1."""
    old, n = coeffs[:], len(coeffs)
    for j in range(1, min(len(factor), (n - 1) // step + 1)):
        shift, c = j * step, factor[j]
        terms = old[:n - shift] if c == 1 else map(mul, old[:n - shift], repeat(c))
        coeffs[shift:] = map(add, coeffs[shift:], terms)


def _height_power(height: int, count: int, length: int) -> list[int]:
    """(1 + u + ... + u^(height-1))^count, coefficients of u^0 up to
    u^length or its degree, whichever is lower (so none is zero)."""
    out = [1] + [0] * min(length, count * (height - 1))
    for _ in range(count):
        sums = list(accumulate(out))
        out = sums[:height] + list(map(sub, sums[height:], sums))
    return out


def _free_times(coeffs: list[int], step: int) -> None:
    """Multiply the dense list in place by 1/(1 - t^step): a running sum
    at stride step."""
    if step < 1:
        raise ValueError("free factor needs positive degree")
    for r in range(min(step, len(coeffs))):
        coeffs[r::step] = accumulate(coeffs[r::step])


def _words_times(coeffs: list[int], family: W.WordFamily, n: int,
                 p: int) -> None:
    """Multiply the dense list in place by the factor of every length-n
    word of the family, up to the list's last degree.

    The words are counted, not built: counts by (leading letter kind,
    total degree) grow a letter per level through W._levels, dropping
    degrees past the bound.  A word of degree d leading with eps
    gives an exterior factor 1 + t^d, one leading with rho^k or phi^k a
    height-p truncated factor, the bare free base letter mu 1/(1 - t^d).
    The bare base letter x of B'/B'' belongs to the base ring and carries
    no factor here.  The c words sharing a class and a degree enter the
    list at once, as the c-th power of their factor."""
    max_degree = len(coeffs) - 1

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
                _free_times(coeffs, d)
            elif kind != "x":  # exterior is the height-2 case
                height = 2 if kind == "eps" else p
                _times(coeffs, d, _height_power(height, count, max_degree // d))


def family_series(family: W.WordFamily, n: int, p: int,
                  max_degree: int) -> PoincareSeries:
    """Poincare series of the algebra generated by the length-n words:
    the product of their factors (see _words_times)."""
    coeffs = [1] + [0] * max_degree
    _words_times(coeffs, family, n, p)
    if coeffs[0] != 1:
        raise ArithmeticError(f"series has constant term {coeffs[0]}, not 1")
    return PoincareSeries(dict(enumerate(coeffs)), max_degree)


def thh_fp(n: int, p: int, max_degree: int) -> PoincareSeries:
    """Series of the n-fold iterated THH of F_p: family B at length n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = family_series(W.family_b(), n, p, max_degree)
    if (p != 2 and n <= 2 * p + 2) or (p == 2 and n <= 3):
        validity = "proved"
    else:
        validity = "conjectural (collapse unproven beyond this range)"
    return PoincareSeries(base.coeffs, max_degree, "F_p-dimensions", validity)


def hh_polynomial(n: int, p: int, max_degree: int) -> PoincareSeries:
    """Order-n Hochschild homology of F_p[x], |x| = 0, as ranks over F_p[x]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = family_series(W.family_bprime(), n + 1, p, max_degree)
    return PoincareSeries(base.coeffs, max_degree, f"free ranks over F_{p}[x]")


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
    base = family_series(W.family_bdoubleprime(m), n + 1, p, max_degree)
    note = (f"word-calculus series for height {m}; ring identification "
            f"proved only for p-power heights")
    return PoincareSeries(base.coeffs, max_degree, note)


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
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for order in self.torsion:
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


def _group_times(coeffs: list[int], group: GroupSpec, n: int, p: int) -> str:
    """Multiply the dense list in place by the order-n Hochschild factors
    of F_p[G] and return the note naming their base rings: each Z gives
    the Laurent words (B' at length n+1), each p-power torsion factor p^e
    the truncated words (B''(p^e) at length n+1), torsion q^e coprime to
    p the etale factor q^e in degree 0."""
    base_parts: list[str] = []
    for _ in range(group.free_rank):
        _words_times(coeffs, W.family_bprime(), n + 1, p)
        base_parts.append(f"F_{p}[x^±1]")
    for q, e in group.factored_torsion():
        if q == p:
            _words_times(coeffs, W.family_bdoubleprime(p ** e), n + 1, p)
            base_parts.append(f"F_{p}[x]/x^{p ** e}")
        else:
            coeffs[:] = [c * q ** e for c in coeffs]
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
    if max_degree < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = [1] + [0] * max_degree
    note = _group_times(coeffs, group, n, p)
    return PoincareSeries(dict(enumerate(coeffs)), max_degree, note)


def thh_group_algebra(group: GroupSpec, n: int, p: int,
                      max_degree: int) -> PoincareSeries:
    """Order-n THH of F_p[G]: the THH series of F_p times the
    group-algebra Hochschild factors."""
    thh = thh_fp(n, p, max_degree)
    coeffs = [thh.coeffs.get(d, 0) for d in range(max_degree + 1)]
    note = _group_times(coeffs, group, n, p)
    return PoincareSeries(dict(enumerate(coeffs)), max_degree, note,
                          thh.validity)


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
    coeffs = [1] + [0] * max_degree
    for d in gen_degrees:
        _words_times(coeffs, W.family_bprime(base_degree=d), n + 1, p)
        _free_times(coeffs, d)
    return PoincareSeries(dict(enumerate(coeffs)), max_degree, "F_p-dimensions")
