"""The package's public names resolve, and refuse bad input by name.

A stale ``__all__`` entry (a name deleted from its module but still
listed) passes ``import hochhom`` and fails only on a star import."""

import pytest

import hochhom
from hochhom import (EPS, MU, AlgebraPresentation, BarComplex, Bidegree,
                     BigradedDims, DifferentialCandidate, Generator,
                     GroupSpec, PoincareSeries, SparseFpMatrix, WordFamily,
                     bidegree, enumerate_shapes, family_b, hh_group_algebra,
                     hh_poly_gens, hh_polynomial, hh_truncated,
                     hh_truncated_words, is_admissible, rho, thh_fp,
                     truncated, verify_powerwords, verify_quasi_iso)
from hochhom.bar import _QuasiIsoCase


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
        (lambda: _candidate(Bidegree(3, 2), Bidegree(1, 2)), ValueError,
         "candidate totals must differ by exactly 1"),
        (lambda: _candidate(Bidegree(2, 2), Bidegree(1, 2)), ValueError,
         "candidate must drop homological degree by > 1"),
        (lambda: verify_powerwords(3, -1), ValueError, "k_max must be >= 0"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error, message
        assert str(caught.value) == message, (str(caught.value), message)
    # a negative exponent is not refused, only inadmissible
    assert is_admissible((rho(-1), EPS, MU), family_b()) is False
    assert is_admissible((rho(1), EPS, MU), family_b()) is True
