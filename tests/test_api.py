"""The package's public names resolve, and refuse bad input by name.

A stale ``__all__`` entry (a name deleted from its module but still
listed) passes ``import hochhom`` and fails only on a star import."""

import pytest

import hochhom
from hochhom import (EPS, MU, AlgebraPresentation, Bidegree, BigradedDims,
                     DifferentialCandidate, Generator, GroupSpec,
                     PoincareSeries, WordFamily, bar_homology, bidegree,
                     diff_candidates, enumerate_shapes, enumerate_words,
                     exponent_bound, exterior, family_b, hh_group_algebra,
                     hh_poly_gens, hh_polynomial, hh_truncated,
                     hh_truncated_words, is_admissible, iterated_tor,
                     polynomial, presentation_dims, rho, thh_fp,
                     total_degree, truncated, verify_powerwords,
                     verify_quasi_iso)
from hochhom.bar import BarComplex, _QuasiIsoCase
from hochhom.fplinear import SparseFpMatrix


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hochhom import *", namespace)
    assert sorted(set(hochhom.__all__)) == sorted(hochhom.__all__)
    assert all(namespace[name] is getattr(hochhom, name)
               for name in hochhom.__all__)


def _candidate(source_bidegree, target_bidegree):
    return DifferentialCandidate((EPS, MU), source_bidegree, (MU,),
                                 target_bidegree)


def test_bad_input_raises_its_own_error():
    bar_cx = BarComplex(AlgebraPresentation(3, (truncated("x", 3, 2),)), 2, 6)
    alg = AlgebraPresentation(3, (polynomial("x", 2),))
    # a window below |eps x| leaves the small model without generators
    no_gamma = _QuasiIsoCase("truncated", 2, 3, 3, 0, 1)
    gamma_beyond = "gamma index beyond the generators kept"
    n_zero = "n must be >= 1"
    cases = [
        (lambda: Generator("g", "cubic", None, 0, 2, 0), ValueError,
         "unknown generator kind 'cubic'"),
        (lambda: Generator("g", "truncated", 1, 0, 2, 0), ValueError,
         "truncated generators need height >= 2"),
        (lambda: Generator("g", "exterior", 2, 0, 1, 0), ValueError,
         "exterior generators carry no height"),
        (lambda: Generator("g", "polynomial", None, 0, -2, 0), ValueError,
         "degrees and weights must be nonnegative"),
        (lambda: BigradedDims({(0, 0, 0): -1}), ValueError,
         "dimensions must be nonnegative"),
        # a key is read as (hom, internal, weight): total_series would sum
        # a float or a bool into a degree
        (lambda: BigradedDims({(0, 2.5, True): 1}), TypeError,
         "key (0, 2.5, True) is not a 3-tuple of ints"),
        (lambda: BigradedDims({(0, 2, True): 1}), TypeError,
         "key (0, 2, True) is not a 3-tuple of ints"),
        (lambda: BigradedDims({(0, 2): 1}), TypeError,
         "key (0, 2) is not a 3-tuple of ints"),
        (lambda: BigradedDims({(0, 2, 0, 0): 1}), TypeError,
         "key (0, 2, 0, 0) is not a 3-tuple of ints"),
        (lambda: BigradedDims({"0,2,0": 1}), TypeError,
         "key '0,2,0' is not a 3-tuple of ints"),
        (lambda: BigradedDims({0: 1}), TypeError,
         "key 0 is not a 3-tuple of ints"),
        (lambda: BarComplex(bar_cx.presentation, -1, 6), ValueError,
         "max_s must be >= 0"),
        (lambda: bar_cx.coboundary(3, 6), ValueError,
         "delta^3 lies past max_s = 2"),
        (lambda: verify_quasi_iso("truncated", 2, 3, 3, -1, 6), ValueError,
         "max_s must be >= 0"),
        (lambda: verify_quasi_iso("truncated", 2, 3, 3, 2, -1), ValueError,
         "degree bound must be nonnegative"),
        (lambda: no_gamma._gamma_element(1), ValueError, gamma_beyond),
        (lambda: no_gamma._gamma_element(0, 1), ValueError, gamma_beyond),
        (lambda: SparseFpMatrix(3, -1, 2), ValueError,
         "matrix dimensions must be nonnegative"),
        (lambda: PoincareSeries({}, -1), ValueError,
         "truncation must be nonnegative"),
        (lambda: PoincareSeries({-1: 1}, 4), ValueError,
         "degrees must be nonnegative"),
        (lambda: PoincareSeries({1: -1}, 4), ValueError,
         "coefficients must be nonnegative"),
        (lambda: thh_fp(0, 3, 10), ValueError, n_zero),
        (lambda: hh_polynomial(0, 3, 10), ValueError, n_zero),
        (lambda: hh_truncated(0, 3, 1, 10), ValueError, n_zero),
        (lambda: hh_truncated_words(0, 3, 3, 10), ValueError, n_zero),
        (lambda: hh_group_algebra(GroupSpec(1), 0, 3, 10), ValueError, n_zero),
        (lambda: hh_poly_gens((2,), 0, 3, 10), ValueError, n_zero),
        (lambda: hh_group_algebra(GroupSpec(1), 1, 3, -1), ValueError,
         "truncation must be nonnegative"),
        (lambda: GroupSpec(-1), ValueError, "free rank must be nonnegative"),
        (lambda: GroupSpec.parse("Z x x Z/3"), ValueError,
         "empty factor in group spec 'Z x x Z/3'"),
        (lambda: WordFamily("C"), ValueError, "unknown family kind 'C'"),
        (lambda: enumerate_shapes(0, family_b()), ValueError,
         "word length must be >= 1"),
        (lambda: bidegree((rho(None), EPS, MU), 3, family_b()), ValueError,
         "word still has unassigned exponents"),
        # eps carries no exponent, so a payload makes the word inadmissible
        (lambda: bidegree((("eps", 3), MU), 3, family_b()), ValueError,
         "word (('eps', 3), ('mu',)) is not admissible in B"),
        (lambda: total_degree((("eps", 3), MU), 3, family_b()), ValueError,
         "word (('eps', 3), ('mu',)) is not admissible in B"),
        (lambda: _candidate(Bidegree(3, 2), Bidegree(1, 2)), ValueError,
         "candidate totals must differ by exactly 1"),
        (lambda: _candidate(Bidegree(2, 2), Bidegree(1, 2)), ValueError,
         "candidate must drop homological degree by > 1"),
        (lambda: verify_powerwords(3, -1), ValueError, "k_max must be >= 0"),
        # non-int and bool fields are refused where they are set, not read
        # as a height or degree between two ints, nor failed on far inside
        (lambda: truncated("x", 2.5, 2), TypeError, "height 2.5 is not an int"),
        (lambda: bar_homology(AlgebraPresentation(3, (truncated("x", 2.5, 2),)),
                              2, 8), TypeError, "height 2.5 is not an int"),
        (lambda: polynomial("x", 2.0), TypeError, "internal 2.0 is not an int"),
        (lambda: exterior("y", 1, True), TypeError, "weight True is not an int"),
        (lambda: Generator("g", "polynomial", None, 1.0, 2, 0), TypeError,
         "hom 1.0 is not an int"),
        (lambda: AlgebraPresentation(3.0, (truncated("x", 3, 2),)), TypeError,
         "p 3.0 is not an int"),
        (lambda: WordFamily("B''", 2.5), TypeError, "m 2.5 is not an int"),
        (lambda: WordFamily("B", None, 2.0), TypeError,
         "base_degree 2.0 is not an int"),
        (lambda: GroupSpec(0, (2.5,)), TypeError,
         "torsion order 2.5 is not an int"),
        (lambda: GroupSpec(True), TypeError, "free rank True is not an int"),
        (lambda: exponent_bound(100, 2.5), TypeError, "p 2.5 is not an int"),
        (lambda: bidegree((rho(1), EPS, MU), 2.5, family_b()), TypeError,
         "p 2.5 is not an int"),
        (lambda: total_degree((rho(1), EPS, MU), 3.0, family_b()), TypeError,
         "p 3.0 is not an int"),
        (lambda: diff_candidates(5, 3.0, 100, "raw"), TypeError,
         "p 3.0 is not an int"),
        (lambda: verify_powerwords(3.0, 1), TypeError, "p 3.0 is not an int"),
        (lambda: verify_powerwords(9, 1), ValueError,
         "p must be prime, got 9"),
        (lambda: verify_powerwords(2, 1), ValueError,
         "the length-bounded degree count needs an odd prime"),
        (lambda: exponent_bound(100, True), TypeError, "p True is not an int"),
        # a non-int window bound is refused at the gate it enters, by the
        # gate's name for it
        (lambda: diff_candidates(5, 3, 100.0), TypeError,
         "max_degree 100.0 is not an int"),
        (lambda: enumerate_words(3, family_b(), 3, 10.5), TypeError,
         "max_degree 10.5 is not an int"),
        (lambda: thh_fp(3, 3, 10.5), TypeError,
         "max_degree 10.5 is not an int"),
        (lambda: thh_fp(True, 3, 10), TypeError, "n True is not an int"),
        # hh_polynomial reads the words one letter longer than its order n
        (lambda: hh_polynomial(1.0, 3, 10), TypeError, "n 2.0 is not an int"),
        (lambda: verify_powerwords(3, 1.0), TypeError,
         "k_max 1.0 is not an int"),
        (lambda: bar_homology(alg, 2.0, 10), TypeError,
         "max_s 2.0 is not an int"),
        (lambda: bar_homology(alg, 2, 10, 1.5), TypeError,
         "max_weight 1.5 is not an int"),
        (lambda: BarComplex(alg, True, 10), TypeError,
         "max_s True is not an int"),
        (lambda: iterated_tor(alg, 1, 10.5), TypeError,
         "max_total 10.5 is not an int"),
        (lambda: presentation_dims(alg, 10.5), TypeError,
         "max_total 10.5 is not an int"),
        (lambda: iterated_tor(alg, 1.5, 10), TypeError,
         "iterations 1.5 is not an int"),
    ]
    # the word route's prime gate is memoised: with 3 let through first,
    # 3.0 (equal to 3, of equal hash) must not hit its entry
    assert exponent_bound(100, 3) == 4
    for call, error, message in cases:
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error, message
        assert str(caught.value) == message, (str(caught.value), message)
    # a negative exponent is not refused, only inadmissible
    assert is_admissible((rho(-1), EPS, MU), family_b()) is False
    assert is_admissible((rho(1), EPS, MU), family_b()) is True
