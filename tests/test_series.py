"""Closed-form Poincare series and group-algebra assembly."""

import json

import pytest

from hochhom.bar import (
    AlgebraPresentation,
    iterated_tor,
    iterated_tor_presentation,
    polynomial,
    presentation_dims,
    truncated,
)
from hochhom.series import (
    GroupSpec,
    PoincareSeries,
    etale_finite,
    family_series,
    hh_group_algebra,
    hh_laurent,
    hh_poly_gens,
    hh_polynomial,
    hh_truncated,
    hh_truncated_words,
    thh_fp,
    thh_group_algebra,
)
from hochhom.words import family_b, family_bdoubleprime, family_bprime
from word_reference import GRID_FAMILIES, grid_cases, reference_series


def convolve_lists(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1]):
            if i + j <= n:
                out[i + j] += x * y
    return out


def as_list(series, n):
    return [series.coefficient(d) for d in range(n + 1)]


def dict_convolve(a, b, truncation):
    """The first series product, every pair of terms in turn, kept as the
    reference for the in-place factor products."""
    out = {}
    for d1, c1 in a.items():
        if d1 > truncation:
            continue
        for d2, c2 in b.items():
            d = d1 + d2
            if d <= truncation:
                out[d] = out.get(d, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def test_poincare_series_basics():
    s = PoincareSeries({0: 1, 3: 1, 6: 0}, 10)
    assert s.coefficient(3) == 1
    assert s.coefficient(6) == 0
    assert 6 not in s.coeffs  # zeros dropped
    with pytest.raises(ValueError):
        s.coefficient(11)
    assert str(s) == "1 + t^3"
    t = PoincareSeries({0: 1, 2: 2}, 4)
    prod = convolve_lists(as_list(s, 4), as_list(t, 4), 4)
    assert prod == [1, 0, 2, 1, 0]


def test_poincare_series_refuses_non_int_terms():
    # an int() cast would read {1.5: 1.7, 2: 1} as {1: 1, 2: 1}
    for coeffs in ({1.5: 1.7, 2: 1}, {2: 1, 1.5: 1}, {1: 1.7}, {1: "1"},
                   {"1": 1}):
        with pytest.raises(TypeError):
            PoincareSeries(coeffs, 3)


def test_poincare_series_refuses_a_non_int_truncation():
    # a float truncation was kept, and printed as if it were int(2.5)
    for truncation in (2.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            PoincareSeries({0: 1, 2: 1}, truncation)


def test_poincare_series_drops_beyond_truncation():
    s = PoincareSeries({0: 1, 5: 7}, 3)
    assert s.coeffs == {0: 1}
    assert as_list(s, 3) == [1, 0, 0, 0]


def test_family_series_frozen_b_p2():
    s = family_series(family_b(), 3, 2, 16)
    assert dict(s.coeffs) == {0: 1, 4: 1, 8: 1, 12: 1, 16: 1}


def test_family_series_bdoubleprime_frozen():
    # length-3 words of the height-3 family at p = 3, base degree 0:
    # factors (1+t^2+t^4)(1+t^6+t^12)(1+t^3)(1+t^7)(1+t^8) up to degree 12
    s = family_series(family_bdoubleprime(3), 3, 3, 12)
    assert as_list(s, 12) == [1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_family_series_leading_one_and_bare_x():
    # the bare base letter belongs to the ground ring, not the series
    s1 = family_series(family_bprime(), 1, 3, 8)
    assert dict(s1.coeffs) == {0: 1}
    s2 = family_series(family_bdoubleprime(4), 1, 3, 8)
    assert dict(s2.coeffs) == {0: 1}


def test_family_series_count_dp_matches_word_by_word_product():
    families = GRID_FAMILIES + (family_bprime(1), family_bprime(2))
    for fam, n, p, bound in grid_cases(families):
        got = family_series(fam, n, p, bound)
        assert as_list(got, bound) == reference_series(fam, n, p, bound), \
            (fam, n, p, bound)
    with pytest.raises(ValueError):
        family_series(family_b(0), 1, 3, 10)  # a free factor of degree 0


def oracle_grid():
    """(p, family, start, n) for the Tor rewrite checks: the starts of
    `verify oracle-cross` (|x| = 0), and |x| = 2, where the height m
    enters degrees through phi^k x of degree p^k (2 + m |x|), so heights
    4 and 9 separate a non-p-power truncation from a p-power one."""
    starts = [(family_b(), polynomial("u", 2))]
    for x in (0, 2):
        starts.append((family_bprime(x), polynomial("x", x, weight=1)))
        starts += [(family_bdoubleprime(m, x), truncated("x", m, x, weight=1))
                   for m in (2, 3, 4, 9)]
    for p in (2, 3, 5):
        for fam, gen in starts:
            for n in range(1 if fam.kind == "B" else 2, 7):
                yield p, fam, AlgebraPresentation(p, (gen,)), n


def test_family_series_matches_iterated_tor():
    for p, fam, start, n in oracle_grid():
        closed = family_series(fam, n, p, 40)
        oracle = iterated_tor(start, n - 1, 40).total_series(40)
        assert all(closed.coeffs.get(d, 0) == oracle.get(d, 0)
                   for d in range(41)), (p, fam, n)


def test_iterated_tor_matches_the_weighted_count():
    """iterated_tor counts the rewritten generators with weight 0; its
    bidegrees and series are those of the weighted count of the same
    presentation."""
    for p, fam, start, n in oracle_grid():
        got = iterated_tor(start, n - 1, 40)
        want = presentation_dims(iterated_tor_presentation(start, n - 1, 40),
                                 40)
        assert got.by_bidegree() == want.by_bidegree(), (p, fam, n)
        assert got.total_series(40) == want.total_series(40), (p, fam, n)
        if n > 1:
            assert all(w == 0 for _, _, w in got.as_dict()), (p, fam, n)
    # at 0 iterations a degree-0 start is counted as presented: its weight
    # is kept, and without a cap it needs a weight bound
    start = AlgebraPresentation(3, (truncated("x", 4, 0, weight=1),))
    assert iterated_tor(start, 0, 40).as_dict() \
        == presentation_dims(start, 40).as_dict() \
        == {(0, 0, w): 1 for w in range(4)}
    start = AlgebraPresentation(3, (polynomial("x", 0, weight=1),))
    for count in (lambda: iterated_tor(start, 0, 40),
                  lambda: presentation_dims(start, 40)):
        with pytest.raises(ValueError, match="weight bound is required"):
            count()


def test_products_match_dict_convolution():
    """Each series product, taken in place factor by factor, against the
    pairwise dict convolution of the published factors."""
    for p in (2, 3, 5):
        poly_cases = [([2], 2, 60), ([2, 4, 6], 2, 60), ([4, 2, 2], 3, 80)]
        if p == 2:
            poly_cases += [([1], 1, 30), ([1, 3], 2, 40), ([3, 1, 2], 2, 40)]
        for degrees, n, N in poly_cases:
            want = {0: 1}
            for d in degrees:
                word_part = family_series(family_bprime(d), n + 1, p, N)
                want = dict_convolve(want, word_part.coeffs, N)
                want = dict_convolve(want, dict.fromkeys(range(0, N + 1, d), 1),
                                     N)
            assert hh_poly_gens(degrees, n, p, N).coeffs == want, (p, degrees)
        for text in ("trivial", "Z^2", f"Z/{p * p}", "Z/12", "Z x Z/6",
                     "Z^2 x Z/15", "Z/25 x Z/5 x Z"):
            group = GroupSpec.parse(text)
            for n, N in ((1, 40), (2, 60), (3, 50)):
                want = {0: 1}
                for _ in range(group.free_rank):
                    want = dict_convolve(want, hh_laurent(n, p, N).coeffs, N)
                for q, e in group.factored_torsion():
                    factor = (hh_truncated(n, p, e, N).coeffs if q == p
                              else {0: q ** e})
                    want = dict_convolve(want, factor, N)
                assert hh_group_algebra(group, n, p, N).coeffs == want, \
                    (p, text, n)
                want = dict_convolve(thh_fp(n, p, N).coeffs, want, N)
                assert thh_group_algebra(group, n, p, N).coeffs == want, \
                    (p, text, n)


def test_thh_fp_values_and_validity():
    s = thh_fp(2, 2, 12)
    assert dict(s.coeffs) == {0: 1, 3: 1}
    assert s.validity == "proved"
    s = thh_fp(3, 2, 16)
    assert dict(s.coeffs) == {0: 1, 4: 1, 8: 1, 12: 1, 16: 1}
    assert s.validity == "proved"
    assert thh_fp(4, 2, 8).validity.startswith("conjectural")
    assert thh_fp(8, 3, 8).validity == "proved"  # 2p + 2 = 8
    assert thh_fp(9, 3, 8).validity.startswith("conjectural")
    assert thh_fp(1, 5, 8).validity == "proved"


def test_hh_polynomial_all_even_ones():
    for p in (2, 3):
        s = hh_polynomial(2, p, 24)
        assert dict(s.coeffs) == {2 * j: 1 for j in range(13)}
    assert hh_polynomial(2, 3, 8).basis_note == "free ranks over F_3[x]"


def test_hh_laurent_same_coefficients():
    a = hh_polynomial(3, 5, 20)
    b = hh_laurent(3, 5, 20)
    assert a.coeffs == b.coeffs
    assert a.basis_note != b.basis_note


def test_hh_truncated_all_ones_n1():
    for p in (2, 3):
        s = hh_truncated(1, p, 1, 12)
        assert as_list(s, 12) == [1] * 13
    with pytest.raises(ValueError):
        hh_truncated(2, 3, 0, 10)


def test_hh_truncated_words_general_height():
    s = hh_truncated_words(2, 3, 4, 10)
    t = family_series(family_bdoubleprime(4), 3, 3, 10)
    assert s.coeffs == t.coeffs
    with pytest.raises(ValueError):
        hh_truncated_words(2, 3, 1, 10)


def test_hh_truncated_p_power_heights_agree_with_words():
    s = hh_truncated(2, 3, 1, 10)
    t = hh_truncated_words(2, 3, 3, 10)
    assert s.coeffs == t.coeffs


def test_series_entry_points_refuse_non_prime_p():
    # 4 = 2^2 would otherwise pass as torsion coprime to p = 4
    for call in (lambda: hh_truncated(2, 4, 1, 6),
                 lambda: hh_truncated_words(2, 4, 3, 6),
                 lambda: thh_fp(2, 1, 6), lambda: hh_polynomial(2, 6, 6),
                 lambda: hh_laurent(2, 9, 6),
                 lambda: family_series(family_b(), 2, 0, 6),
                 lambda: hh_group_algebra(GroupSpec(0, (6,)), 2, 4, 6),
                 lambda: thh_group_algebra(GroupSpec(1), 2, 4, 6),
                 lambda: hh_poly_gens([], 2, 4, 6)):
        with pytest.raises(ValueError, match="p must be prime"):
            call()


def test_degree_bound_zero_keeps_the_constant_term():
    # hh_laurent raised at N = 0 while the trivial group algebra gave 1
    for s, constant in ((thh_fp(3, 3, 0), 1), (hh_laurent(1, 3, 0), 1),
                        (hh_polynomial(2, 5, 0), 1),
                        (hh_group_algebra(GroupSpec(), 1, 3, 0), 1),
                        (hh_group_algebra(GroupSpec(1, (3, 2)), 2, 3, 0), 2)):
        assert (s.coeffs, s.truncation) == ({0: constant}, 0)


def test_etale_finite():
    s = etale_finite(4)
    assert s.coeffs == {0: 4}
    assert s.truncation == 0
    with pytest.raises(ValueError):
        etale_finite(0)


def test_group_spec_parsing():
    g = GroupSpec.parse("Z x Z/6")
    assert g.free_rank == 1 and g.torsion == (6,)
    g = GroupSpec.parse("Z^3 × Z/4 × Z/9")
    assert g.free_rank == 3 and g.torsion == (4, 9)
    assert g.factored_torsion() == [(2, 2), (3, 2)]
    assert GroupSpec.parse("trivial").free_rank == 0
    assert GroupSpec.parse("Z/1").torsion == ()
    assert str(GroupSpec.parse("Z^2")) == "Z^2"
    with pytest.raises(ValueError):
        GroupSpec.parse("Z/0")
    with pytest.raises(ValueError):
        GroupSpec.parse("S_3")


def test_group_algebra_frozen_example():
    got = thh_group_algebra(GroupSpec.parse("Z x Z/6"), 2, 3, 12)
    want = {0: 2, 2: 4, 3: 4, 4: 6, 5: 8, 6: 10, 7: 14, 8: 16, 9: 20,
            10: 26, 11: 30, 12: 36}
    assert dict(got.coeffs) == want
    assert got.validity == "proved"


def test_group_algebra_manual_convolution():
    # assemble the same example by hand from the published factors
    n, p, N = 2, 3, 12
    thh = as_list(thh_fp(n, p, N), N)
    laurent = as_list(hh_laurent(n, p, N), N)
    part3 = as_list(hh_truncated(n, p, 1, N), N)  # Z/3 is the p-part
    etale2 = [2] + [0] * N  # Z/2 is etale at p = 3
    manual = convolve_lists(convolve_lists(convolve_lists(
        thh, laurent, N), part3, N), etale2, N)
    got = as_list(thh_group_algebra(GroupSpec.parse("Z x Z/6"), n, p, N), N)
    assert got == manual


def test_group_algebra_trivial_group():
    got = hh_group_algebra(GroupSpec.parse("trivial"), 2, 3, 8)
    assert dict(got.coeffs) == {0: 1}
    t = thh_group_algebra(GroupSpec.parse("trivial"), 2, 3, 8)
    assert t.coeffs == thh_fp(2, 3, 8).coeffs


def test_group_algebra_pure_free():
    got = hh_group_algebra(GroupSpec.parse("Z^2"), 2, 2, 8)
    base = hh_laurent(2, 2, 8)
    manual = convolve_lists(as_list(base, 8), as_list(base, 8), 8)
    assert as_list(got, 8) == manual


def test_hh_poly_gens_frozen():
    s = hh_poly_gens([1], 1, 2, 6)
    assert as_list(s, 6) == [1, 1, 2, 2, 2, 2, 2]
    s = hh_poly_gens([1, 3], 1, 2, 4)
    assert dict(s.coeffs) == {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}


def test_hh_poly_gens_parity_and_errors():
    with pytest.raises(ValueError):
        hh_poly_gens([3], 1, 5, 10)  # odd degree needs p = 2
    with pytest.raises(ValueError):
        hh_poly_gens([0], 1, 2, 10)
    s = hh_poly_gens([2], 1, 5, 8)
    assert s.coefficient(0) == 1


def test_hh_poly_gens_single_even_matches_polynomial():
    # one even generator: series of HH^[n] of F_p[x] shifted by the base ring
    for p in (2, 3):
        a = hh_poly_gens([2], 1, p, 16)
        geom = {2 * j: 1 for j in range(9)}
        b = dict_convolve(family_series(family_bprime(2), 2, p, 16).coeffs,
                          geom, 16)
        assert a.coeffs == b


def test_series_json_and_table():
    s = thh_fp(2, 2, 6)
    blob = json.loads(json.dumps(s.to_json_dict(), sort_keys=True))
    assert blob["coeffs"] == {"0": 1, "3": 1}
    assert blob["truncation"] == 6
    table = s.text_table()
    assert any("3" in line and "1" in line for line in table)

