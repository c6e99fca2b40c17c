"""Bar construction, shuffle product, small models, iterated Tor."""

import itertools
import json
import math
import random
import re

import pytest

from hochhom import bar, packed
from hochhom.bar import (
    AlgebraPresentation,
    BarChain,
    BarComplex,
    BigradedDims,
    Generator,
    _QuasiIsoCase,
    _gamma_coeff,
    _gamma_digits,
    bar_homology,
    exterior,
    iterated_tor,
    iterated_tor_presentation,
    polynomial,
    presentation_dims,
    tor_presentation,
    truncated,
    verify_quasi_iso,
)
from hochhom.fplinear import CompositionError, SparseFpMatrix
from bar_reference import (reference_chain_map_failures,
                           reference_differential, reference_homology,
                           reference_multiplicativity_witness,
                           reference_pi_product, reference_pi_tensor,
                           reference_shuffle)
from shared_complexes import grid_complexes, weight_graded_complex
from tor_reference import reference_presentation_dims


def poly_algebra(p, degree=2):
    return AlgebraPresentation(p, (polynomial("x", degree),))


def trunc_algebra(p, m, degree=2):
    return AlgebraPresentation(p, (truncated("x", m, degree),))


def test_presentation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation(4, (polynomial("x", 2),))
    with pytest.raises(ValueError):
        AlgebraPresentation(3, (polynomial("x", 2), exterior("x", 3)))
    # odd-degree commutative generator needs p = 2
    with pytest.raises(ValueError):
        AlgebraPresentation(3, (polynomial("x", 3),))
    with pytest.raises(ValueError):
        AlgebraPresentation(5, (exterior("x", 2),))
    AlgebraPresentation(2, (polynomial("x", 3),))  # fine at p = 2
    AlgebraPresentation(2, (exterior("x", 2),))
    # degree-0 generators carry a weight
    with pytest.raises(ValueError):
        AlgebraPresentation(3, (polynomial("x", 0),))
    AlgebraPresentation(3, (polynomial("x", 0, weight=1),))


def test_multiply_koszul_signs():
    P = AlgebraPresentation(3, (exterior("a", 3), exterior("b", 5)))
    assert P.multiply((1, 0), (0, 1)) == (1, (1, 1))
    assert P.multiply((0, 1), (1, 0)) == (-1, (1, 1))  # odd past odd
    assert P.multiply((1, 0), (1, 0)) is None  # a^2 = 0
    Q = trunc_algebra(3, 3)
    assert Q.multiply((1,), (1,)) == (1, (2,))
    assert Q.multiply((2,), (1,)) is None  # x^3 = 0
    R = poly_algebra(2, 2)
    assert R.multiply((4,), (5,)) == (1, (9,))


def test_augmentation_monomials():
    P = trunc_algebra(3, 3, 2)
    mons = P.augmentation_monomials(8, None)
    assert set(mons) == {(1,), (2,)}
    Q = AlgebraPresentation(3, (polynomial("u", 2),))
    mons = Q.augmentation_monomials(6, None)
    assert set(mons) == {(1,), (2,), (3,)}
    W = AlgebraPresentation(3, (polynomial("x", 0, weight=1),))
    with pytest.raises(ValueError):
        W.augmentation_monomials(4, None)
    assert set(W.augmentation_monomials(4, 3)) == {(1,), (2,), (3,)}


def test_bar_homology_polynomial_is_exterior():
    # Tor over F_p[x] is an exterior algebra on one class in (1, |x|)
    for p in (2, 3):
        dims = bar_homology(poly_algebra(p, 2), 4, 10)
        assert dims.as_dict() == {(0, 0, 0): 1, (1, 2, 0): 1}


def test_bar_homology_truncated_square_f2():
    # Tor over F_2[x]/x^2 is a divided power tower: one class in each (s, 2s)
    dims = bar_homology(trunc_algebra(2, 2, 2), 6, 12)
    assert dims.by_bidegree() == {(s, 2 * s): 1 for s in range(7)}


def test_bar_homology_truncated_cube_f3():
    # exterior class (1, 2) times divided powers on (2, 6)
    dims = bar_homology(trunc_algebra(3, 3, 2), 5, 16)
    expect = {}
    for j in range(3):
        if 2 * j <= 5 and 6 * j <= 16:
            expect[(2 * j, 6 * j)] = 1
        if 2 * j + 1 <= 5 and 6 * j + 2 <= 16:
            expect[(2 * j + 1, 6 * j + 2)] = 1
    assert dims.by_bidegree() == expect


def test_bar_homology_exterior_is_divided_power():
    # Tor over an exterior algebra: gamma_s in (s, s|x|) for every s
    dims = bar_homology(AlgebraPresentation(3, (exterior("x", 3),)), 6, 18)
    assert dims.by_bidegree() == {(s, 3 * s): 1 for s in range(7)}


def test_bar_complex_d_squared_checked_at_build():
    # construction asserts d o d = 0 stratum by stratum; just build a few
    for p, alg in ((2, trunc_algebra(2, 4, 2)), (3, trunc_algebra(3, 9, 2)),
                   (5, poly_algebra(5, 4))):
        cx = BarComplex(alg, 4, 20)
        assert cx.homology().as_dict()[(0, 0, 0)] == 1


def _transpose(m):
    columns = {}
    for (r, c), v in m.items():
        columns.setdefault(r, {})[c] = v
    return SparseFpMatrix(m.modulus, m.cols, m.rows, columns)


def test_differentials_match_boundary_column_by_column():
    # the coboundary delta^{s-1} is the transpose of d_s, built entry by
    # entry by the reference's own face rule
    for p in (2, 3, 5):
        for cx in grid_complexes(p):
            for s in range(1, cx.max_s + 2):
                for t, w in cx.strata(s):
                    expected = _transpose(reference_differential(cx, s, t, w))
                    assert cx.coboundary(s - 1, t, w) == expected, \
                        (cx.presentation, s, t, w)


def test_basis_strata_come_out_sorted():
    # the basis is built level by level and never sorted, and each level
    # must come out in the order of its monomial tensors
    for p in (2, 3, 5):
        for cx in grid_complexes(p):
            for s in range(cx.max_s + 2):
                for t, w in cx.strata(s):
                    basis = cx.basis(s, t, w)
                    assert basis and basis == sorted(basis), \
                        (cx.presentation, s, t)


def _window_tensors(P, s, max_total, max_weight):
    """{(total, weight): sorted tensors} of the length-s tensors of
    augmentation monomials in the window, by itertools.product over the
    monomials that leave room for s - 1 more factors."""
    monos = P.augmentation_monomials(max_total, max_weight)
    top_weight = max_weight if max_weight is not None else math.inf
    low_t = min(map(P.mono_total, monos), default=0)
    low_w = min(map(P.mono_weight, monos), default=0)
    room = [m for m in monos
            if P.mono_total(m) + (s - 1) * low_t <= max_total
            and P.mono_weight(m) + (s - 1) * low_w <= top_weight]
    totals = [P.mono_total(m) for m in room]
    weights = [P.mono_weight(m) for m in room]
    found = {}
    for picks in itertools.product(range(len(room)), repeat=s):
        t = sum(map(totals.__getitem__, picks))
        w = sum(map(weights.__getitem__, picks))
        if t <= max_total and w <= top_weight:
            found.setdefault((t, w), []).append(
                tuple(map(room.__getitem__, picks)))
    return {key: sorted(tensors) for key, tensors in found.items()}


def test_packed_basis_matches_an_independent_enumeration():
    # the tensors of every stratum against the tensors that
    # itertools.product finds in the window
    for p in (2, 3, 5):
        for cx in grid_complexes(p):
            for s in range(cx.max_s + 2):
                expected = _window_tensors(cx.presentation, s,
                                           cx.max_internal, cx.max_weight)
                assert cx.strata(s) == sorted(expected), (cx.presentation, s)
                for (t, w), tensors in expected.items():
                    assert cx.basis(s, t, w) == tensors, \
                        (cx.presentation, s, t, w)


def test_bar_strata_hold_the_levels_through_top_s(monkeypatch):
    # keys in increasing s, each level s <= top_s against the tensors that
    # itertools.product finds, and no level built past top_s: the tensor
    # levels are extended top_s times
    extended = []
    honest = bar._extend

    def counting(level, pieces, *rest):
        if pieces and isinstance(pieces[0][0], tuple):
            extended.append(len(level))
        return honest(level, pieces, *rest)

    monkeypatch.setattr(bar, "_extend", counting)
    P = AlgebraPresentation(3, (exterior("a", 3), truncated("b", 3, 2)))
    for top_s in (0, 1, 3):
        extended.clear()
        strata = bar._bar_strata(P, top_s, 10, None)
        assert len(extended) == top_s
        levels = [s for s, _, _ in strata]
        assert levels == sorted(levels)
        for s in range(top_s + 1):
            assert {(t, w): tensors for (s2, t, w), tensors in strata.items()
                    if s2 == s} == _window_tensors(P, s, 10, None), (top_s, s)
        assert set(levels) == set(range(top_s + 1))


@pytest.mark.parametrize("m", [2, 3, 5, 9, 17])
def test_coboundary_matches_the_reference_on_a_polynomial_window(m):
    # x, ..., x^m are the m monomials; a factor x^k of a source tensor is
    # split k - 1 ways, so one column of delta^{s-1} gathers up to m - 1
    # entries from each factor
    P = poly_algebra(3)
    assert len(P.augmentation_monomials(2 * m)) == m
    cx = BarComplex(P, 3, 2 * m)
    for s in range(1, cx.max_s + 2):
        for t, w in cx.strata(s):
            expected = _transpose(reference_differential(cx, s, t, w))
            assert cx.coboundary(s - 1, t, w) == expected, (m, s, t)


def test_coboundary_refuses_s_below_minus_one():
    cx = BarComplex(AlgebraPresentation(3, (truncated("x", 3, 2),)), 2, 8)
    with pytest.raises(ValueError, match=r"delta\^-2 lies below delta\^-1"):
        cx.coboundary(-2, 0, 0)
    # delta^-1 stays legal: the build starts the chain of B_0 = k with it
    d = cx.coboundary(-1, 0, 0)
    assert d == SparseFpMatrix(3, 1, 0)


def test_cohomology_pass_matches_the_top_down_reference():
    # the bottom-up pass over the coboundaries against the top-down pass
    # over the differentials, on the grid at p = 2, 3, 5, 7 and on the C5
    # complexes
    complexes = [cx for p in (2, 3, 5, 7) for cx in grid_complexes(p)]
    complexes += [weight_graded_complex(p) for p in (2, 3)]
    for cx in complexes:
        assert cx.homology() == reference_homology(cx), (
            cx.presentation, cx.max_s)


def test_bar_complex_builds_each_coboundary_once(monkeypatch):
    # fresh builds of the grid at p = 3 and of the C5 window at p = 2 read
    # their strata chain by chain and bottom-up in s, so the delta^s held
    # over from one stratum is the next one's delta^{s-1}: every stratum's
    # delta^s is built, none twice, and the homology is the shared build's
    shared = [*grid_complexes(3), weight_graded_complex(2)]
    built = []
    honest = BarComplex.coboundary

    def counting(self, s, internal, weight=0):
        built.append((s, internal, weight))
        return honest(self, s, internal, weight)

    monkeypatch.setattr(BarComplex, "coboundary", counting)
    for cx in shared:
        built.clear()
        P = cx.presentation
        fresh = BarComplex(AlgebraPresentation(P.p, P.generators), cx.max_s,
                           cx.max_internal, cx.max_weight)
        assert len(set(built)) == len(built), (P, cx.max_s)
        assert {(s, t, w) for s in range(cx.max_s + 1)
                for t, w in cx.strata(s)} <= set(built), (P, cx.max_s)
        assert fresh.homology() == cx.homology(), (P, cx.max_s)


def _pair(p=3):
    # F_3[x]/x^3 (x) Lambda(y), x in degree 0, both of weight 1
    return AlgebraPresentation(p, (truncated("x", 3, 0, weight=1),
                                   exterior("y", 1, weight=1)))


def test_bar_homology_matches_the_unreduced_build():
    # the Morse complex of the Anick-chain matching against BarComplex: on
    # the grid at p = 2, 3, 5, 7, on the C5 complexes, and on the three
    # bar jobs of the bar-oracle benchmark at one internal bound each
    complexes = [cx for p in (2, 3, 5, 7) for cx in grid_complexes(p)]
    complexes += [weight_graded_complex(p) for p in (2, 3)]
    complexes += [
        BarComplex(AlgebraPresentation(5, (truncated("x", 5, 0, weight=1),)),
                   6, 1, 24),
        BarComplex(_pair(), 6, 7, 9),
    ]
    # verify_quasi_iso reads its homology check from bar_homology: the
    # algebra and window of each of its cases and of the four verify bar
    # jobs of that benchmark
    complexes += [BarComplex(_QuasiIsoCase(*case).algebra, *case[4:])
                  for case in QUASI_ISO_CASES + BENCH_QUASI_ISO_WINDOWS]
    for cx in complexes:
        got = bar_homology(cx.presentation, cx.max_s, cx.max_internal,
                           cx.max_weight)
        assert got == cx.homology(), (cx.presentation, cx.max_s)


def test_anick_matching_is_a_morse_matching_on_the_grid():
    # on every basis cell: the partner's partner is the cell, in the other
    # direction, through a face of coefficient +-1; the cells the matching
    # leaves unmatched are the ones the search lists
    for p in (2, 3, 5, 7):
        for cx in grid_complexes(p):
            matching = bar._AnickMatching(cx.presentation, cx.max_internal,
                                          cx.max_weight)
            unmatched = set()
            for s in range(cx.max_s + 2):
                for t, w in cx.strata(s):
                    for cell in cx.basis(s, t, w):
                        found = matching.match(cell)
                        if found is None:
                            unmatched.add((cell, t, w))
                            continue
                        partner, up = found
                        assert matching.match(partner) == (cell, not up)
                        high, low = (partner, cell) if up else (cell, partner)
                        coeff = BarChain(cx.presentation,
                                         {high: 1}).boundary().terms.get(low)
                        assert coeff in (1, p - 1), (cell, coeff)
            assert set(matching.critical(cx.max_s + 1)) == unmatched, \
                (cx.presentation, cx.max_s)


@pytest.mark.parametrize("args, message", [
    ((trunc_algebra(3, 3), -1, 6), "max_s must be >= 0"),
    ((trunc_algebra(3, 3), 2, -1), "degree bound must be nonnegative"),
    ((AlgebraPresentation(3, (polynomial("x", 0, weight=1),)), 2, 0),
     "generator x has degree 0: a weight bound is required"),
])
def test_bar_homology_refuses_what_the_unreduced_build_refuses(args, message):
    for route in (bar_homology, BarComplex):
        with pytest.raises(ValueError, match=re.escape(message)):
            route(*args)


def _three_polynomials():
    return AlgebraPresentation(3, (polynomial("x", 2), polynomial("y", 2),
                                   polynomial("z", 2)))


def test_reduced_route_checks_d_squared(monkeypatch):
    # x * m picks up a wrong sign; d o d is checked on each cell whose
    # faces the reduction reads, and y|x|z, an up-partner on the way from
    # the critical z|y|x, is the first to fail
    honest = AlgebraPresentation._multiply

    def broken(self, m1, m2):
        res = honest(self, m1, m2)
        if res is None or m1 != (1, 0, 0):
            return res
        return -res[0], res[1]

    monkeypatch.setattr(AlgebraPresentation, "_multiply", broken)
    with pytest.raises(CompositionError, match=re.escape(
            "d o d != 0 on ((0, 1, 0), (1, 0, 0), (0, 0, 1)) in stratum "
            "(s=3, t=6, w=0)")):
        bar_homology(_three_polynomials(), 3, 6)


def test_reduced_route_raises_on_a_cyclic_matching(monkeypatch):
    # matching x|yz up with x|z|y closes a cycle x|yz -> x|z|y -> xz|y ->
    # x|z|y, which the reduction of z|y|x walks into
    honest = bar._AnickMatching.match

    def cyclic(self, cell):
        if cell == ((1, 0, 0), (0, 1, 1)):
            return cell[:1] + ((0, 0, 1), (0, 1, 0)), True
        return honest(self, cell)

    monkeypatch.setattr(bar._AnickMatching, "match", cyclic)
    with pytest.raises(ArithmeticError, match="the matching has a cycle"):
        bar_homology(_three_polynomials(), 3, 6)


def test_reduced_route_checks_that_d_M_vanishes(monkeypatch):
    # the face y|xy of the critical y|y|x read as critical gives d_M(y|y|x)
    # a term, which the minimality check must refuse
    honest = bar._AnickMatching.match

    def broken(self, cell):
        if cell == ((0, 1), (1, 1)):
            return None
        return honest(self, cell)

    monkeypatch.setattr(bar._AnickMatching, "match", broken)
    alg = AlgebraPresentation(3, (truncated("x", 3, 2), exterior("y", 3)))
    with pytest.raises(ArithmeticError, match=re.escape(
            "d_M(((0, 1), (0, 1), (1, 0))) != 0 in stratum (s=3, t=8, w=0)")):
        bar_homology(alg, 3, 12)


def test_reduced_route_raises_when_a_cell_is_not_a_face_of_its_partner(
        monkeypatch):
    # x|yz matched up with z|x|y, whose faces are zx|y and z|xy
    honest = bar._AnickMatching.match

    def stray(self, cell):
        if cell == ((1, 0, 0), (0, 1, 1)):
            return ((0, 0, 1), (1, 0, 0), (0, 1, 0)), True
        return honest(self, cell)

    monkeypatch.setattr(bar._AnickMatching, "match", stray)
    with pytest.raises(ArithmeticError, match=re.escape(
            "((1, 0, 0), (0, 1, 1)) is not a face of its partner")):
        bar_homology(_three_polynomials(), 3, 6)


def test_match_raises_on_a_factor_with_no_link_and_a_zero_product(
        monkeypatch):
    # without the lower-letter rule xy does not link after y, and merging
    # it into y meets y^2 = 0
    honest = bar._AnickMatching._link

    def no_lower_letter_rule(self, prev, w):
        if prev is not None and bar._low(w) < bar._high(prev):
            return None
        return honest(self, prev, w)

    monkeypatch.setattr(bar._AnickMatching, "_link", no_lower_letter_rule)
    alg = AlgebraPresentation(3, (truncated("x", 3, 2), exterior("y", 3)))
    with pytest.raises(ArithmeticError, match=re.escape(
            "((0, 1), (1, 1)): factor 1 has no link, yet its product with "
            "the one before is 0")):
        bar_homology(alg, 3, 12)


def test_bar_homology_reaches_two_generators_at_s_nine():
    # the unreduced build holds 2.1M tensors in B_0..B_9 here; the Morse
    # complex holds only the Anick chains
    S, N, W = 9, 9, 18
    predicted = presentation_dims(tor_presentation(_pair(), N + S, W),
                                  N + S, W).restrict(max_hom=S, max_internal=N)
    dims = bar_homology(_pair(), S, N, W)
    assert dims == predicted
    assert sum(dims.as_dict().values()) == 55


def test_bar_homology_on_a_wide_tor_stage_lists_no_window(monkeypatch):
    # the fifth Tor stage of F_3[x]/x^3, |x| = 2, has 56 generators and
    # 256,172 augmentation monomials of degree <= 200; the route reads
    # letters off the monomials and never lists them
    P = iterated_tor_presentation(trunc_algebra(3, 3), 5, 200)
    assert len(P.generators) == 56
    predicted = presentation_dims(tor_presentation(P, 201), 201).restrict(
        max_hom=1, max_internal=200)

    def refuse(self, max_total, max_weight=None):
        raise AssertionError("the window's monomials were listed")

    monkeypatch.setattr(AlgebraPresentation, "augmentation_monomials", refuse)
    assert bar_homology(P, 1, 200) == predicted


def test_homology_entries_come_out_sorted():
    # the build walks one (t, w) chain at a time, yet the table lists its
    # entries by (s, t, w), as as_dict, by_bidegree and total_series read it
    alg = AlgebraPresentation(3, (truncated("x", 3, 0, weight=1),
                                  exterior("y", 1, weight=1)))
    keys = list(bar_homology(alg, 5, 9, 8).as_dict())
    assert len({(t, w) for _s, t, w in keys}) > 1
    assert keys == sorted(keys)


def test_built_complex_stores_no_matrix():
    # coboundary() builds each delta^s afresh: the complex keeps its basis
    # and homology, and the build's pass holds two coboundaries at a time
    cx = BarComplex(trunc_algebra(3, 3), 4, 12)
    for value in vars(cx).values():
        inner = (value.values() if isinstance(value, dict)
                 else value if isinstance(value, list) else ())
        for item in (value, *inner):
            assert not isinstance(item, SparseFpMatrix), item


def test_window_below_weight_zero_is_empty():
    # weight 0 > max_weight, so not even B_0 lies in the window
    alg = AlgebraPresentation(3, (truncated("x", 3, 0, weight=1),))
    assert bar_homology(alg, 2, 0, -1).as_dict() == {}
    tor = tor_presentation(alg, 2, -1)
    assert presentation_dims(tor, 2, -1).as_dict() == {}
    assert presentation_dims(alg, 2, -1).as_dict() == {}
    assert bar_homology(alg, 2, 0, 0).as_dict() == {(0, 0, 0): 1}


def test_bar_complex_raises_at_build_on_nonassociative_products(monkeypatch):
    # x * x^j picks up a wrong sign, so (x x) x = -x^3 but x (x x) = x^3:
    # d o d != 0 on x|x|x must stop the build itself
    honest = AlgebraPresentation._multiply

    def broken(self, m1, m2):
        res = honest(self, m1, m2)
        if res is None or m1 != (1,):
            return res
        return -res[0], res[1]

    monkeypatch.setattr(AlgebraPresentation, "_multiply", broken)
    with pytest.raises(CompositionError,
                       match=r"d o d != 0 from stratum \(s=3, t=6, w=0\)"):
        BarComplex(poly_algebra(3), 3, 6)


def test_bar_complex_strata_and_differential_shapes():
    # delta^{s-1} : C^{s-1} -> C^s, the transpose of d_s, up to the top
    # target B_{max_s + 1}
    cx = BarComplex(trunc_algebra(3, 3, 2), 4, 12)
    for s in range(1, 6):
        for (internal, w) in cx.strata(s):
            d = cx.coboundary(s - 1, internal, w)
            assert d.rows == len(cx.basis(s, internal, w))
            assert d.cols == len(cx.basis(s - 1, internal, w))


def test_shuffle_unit_and_squares():
    P = AlgebraPresentation(3, (exterior("a", 3), polynomial("u", 2)))
    one = BarChain(P, {(): 1})
    a = BarChain(P, {((1, 0),): 1})
    u = BarChain(P, {((0, 1),): 1})
    assert one * a == a and a * one == a
    # odd suspended degree: (u) has degree 3, so (u)(u) = 0
    assert (u * u).is_zero()
    # even suspended degree: (a)(a) = 2 (a|a)
    sq = a * a
    assert sq == BarChain(P, {((1, 0), (1, 0)): 2})


def test_shuffle_interleaves():
    P = AlgebraPresentation(5, (polynomial("u", 2),))
    x1 = BarChain(P, {((1,),): 1})
    x2 = BarChain(P, {((2,),): 1})
    prod = x1 * x2
    # suspended degrees are odd: (u|u^2) and -(u^2|u)
    assert prod.terms == {((1,), (2,)): 1, ((2,), (1,)): 4}


def test_shuffle_commutativity_and_leibniz_sampled():
    rng = random.Random(2026)
    P = AlgebraPresentation(3, (exterior("e", 3), polynomial("u", 2)))
    mons = P.augmentation_monomials(6, None)

    def rand_chain():
        tensor = tuple(rng.choice(mons) for _ in range(rng.randint(0, 3)))
        return BarChain(P, {tensor: rng.randint(1, 2)})

    def suspended_degree(chain):
        tensor = next(iter(chain.terms))
        return len(tensor) + sum(P.mono_total(m) for m in tensor)

    for _ in range(250):
        a, b = rand_chain(), rand_chain()
        da, db = suspended_degree(a), suspended_degree(b)
        sign = -1 if (da % 2) and (db % 2) else 1
        assert (a * b + (b * a).scale(-sign)).is_zero()
        lhs = (a * b).boundary()
        rhs = a.boundary() * b + (a * b.boundary()).scale(
            -1 if da % 2 else 1)
        assert (lhs + rhs.scale(-1)).is_zero()


def test_shuffle_matches_reference_on_basis_pairs():
    # one generator of each kind, and two odd generators whose product
    # yz has odd suspended degree while y and z have even ones
    for p in (2, 3, 5):
        for gens in ((polynomial("x", 2),), (truncated("x", 3, 2),),
                     (exterior("x", 1),), (exterior("y", 1), exterior("z", 3))):
            P = AlgebraPresentation(p, gens)
            by_length = {}
            for t in _tensors(P, P.augmentation_monomials(4), 4):
                by_length.setdefault(len(t), []).append(BarChain(P, {t: 1}))
            for sa in range(5):
                for sb in range(5 - sa):
                    for a, b in itertools.product(by_length[sa],
                                                  by_length[sb]):
                        assert a * b == reference_shuffle(a, b), (p, a, b)


def test_boundary_squares_to_zero_sampled():
    rng = random.Random(77)
    P = AlgebraPresentation(2, (polynomial("x", 1), exterior("y", 2)))
    mons = P.augmentation_monomials(4, None)
    for _ in range(120):
        tensor = tuple(rng.choice(mons) for _ in range(rng.randint(0, 4)))
        c = BarChain(P, {tensor: 1})
        assert c.boundary().boundary().is_zero()


# (case, |x|, p, m, max_s, max_internal) of every verify_quasi_iso run
QUASI_ISO_CASES = (
    ("poly", 2, 2, None, 4, 12), ("poly", 2, 3, None, 4, 12),
    ("truncated", 2, 2, 2, 5, 14), ("truncated", 2, 3, 3, 5, 16),
    ("exterior", 3, 3, None, 5, 18),
    *((case, xd, p, m, 4, 12) for case, xd, p, m in [
        ("truncated", 2, 5, 4), ("truncated", 2, 5, 5),
        ("truncated", 2, 5, 25), ("exterior", 3, 5, None),
        ("truncated", 2, 3, 4), ("truncated", 2, 3, 9),
        ("exterior", 2, 2, None), ("poly", 1, 2, None),
        ("truncated", 1, 2, 3)]),
    # a window below |eps x| leaves the small model without generators
    ("truncated", 2, 3, 3, 0, 1),
)


# the four verify bar windows of the bar-oracle benchmark
BENCH_QUASI_ISO_WINDOWS = (
    ("poly", 2, 3, None, 6, 24), ("poly", 4, 3, None, 6, 48),
    ("truncated", 2, 3, 3, 8, 24), ("truncated", 4, 3, 3, 8, 48),
)


def test_quasi_iso_all_cases(monkeypatch):
    # every check passes with no BarComplex, homology_dim or matrix built
    def refuse(*args, **kwargs):
        raise AssertionError("verify_quasi_iso reached the unreduced build")

    monkeypatch.setattr(BarComplex, "__init__", refuse)
    monkeypatch.setattr(bar, "homology_dim", refuse)
    monkeypatch.setattr(SparseFpMatrix, "__init__", refuse)
    for case in QUASI_ISO_CASES:
        assert verify_quasi_iso(*case).ok, case


def _tensors(P, monos, max_s, max_total=None):
    """Every tensor of at most max_s factors from monos, of total degree
    <= max_total when that is given."""
    level, out = [((), 0)], [()]
    for _ in range(max_s):
        level = [(t + (m,), d + P.mono_total(m)) for t, d in level
                 for m in monos if max_total is None
                 or d + P.mono_total(m) <= max_total]
        out += [t for t, _ in level]
    return out


def test_pi_matches_reference_on_every_basis_tensor():
    # every tensor of each complex verify_quasi_iso builds, top block too
    for case in QUASI_ISO_CASES:
        qc = _QuasiIsoCase(*case)
        _, _, _, _, max_s, max_internal = case
        monos = qc.algebra.augmentation_monomials(max_internal)
        for tensor in _tensors(qc.algebra, monos, max_s + 1, max_internal):
            assert qc._pi_tensor(tensor) == (
                reference_pi_tensor(qc, tensor) or {}), (case, tensor)


def _reference_pi(qc, chain):
    """pi of a chain from reference_pi_tensor, with no memo."""
    out = {}
    for tensor, coeff in chain.terms.items():
        for m, v in (reference_pi_tensor(qc, tensor) or {}).items():
            out[m] = (out.get(m, 0) + v * coeff) % qc.p
    return {m: v for m, v in out.items() if v}


def test_pi_product_matches_pi_of_the_shuffle_product():
    # every pair of basis tensors the multiplicativity check can visit:
    # s_a + s_b <= max_s and internal degrees summing to <= max_internal.
    # The memo-free reference side catches a memo that mixes up tensors.
    # verify_quasi_iso skips the (s, internal) strata where pi is 0 on
    # every basis tensor: the pairs whose shuffles land there, and the
    # tensors whose boundary lands there.  pi of each of them is 0.  Of
    # the pairs landing there it walks only those with pi(ta) and pi(tb)
    # both nonzero, as pi(ta) pi(tb) = 0 when either is 0: that skip is
    # checked on the benchmark's windows too, and so is the block count
    # against the sum over every shuffle on the pairs landing in the
    # other strata; the products are built on the small cases only.
    for case in QUASI_ISO_CASES + BENCH_QUASI_ISO_WINDOWS:
        qc = _QuasiIsoCase(*case)
        _, _, _, _, max_s, max_internal = case
        P = qc.algebra
        strata = {(s, internal): [(t, reference_pi_tensor(qc, t) or {})
                                  for t in tensors]
                  for (s, internal, _w), tensors in bar._bar_strata(
                      P, max_s, max_internal, None).items()}
        live = {st for st, rows in strata.items()
                if any(pi for _, pi in rows)}
        small = case in QUASI_ISO_CASES
        for (sa, ia), rows_a in strata.items():
            for ta, _ in rows_a if small else ():
                if (sa - 1, ia) not in live:
                    assert qc.pi(BarChain(P, {ta: 1}).boundary()) == {}, (
                        case, ta)
            for (sb, ib), rows_b in strata.items():
                if sa + sb > max_s or ia + ib > max_internal:
                    continue
                lands_live = (sa + sb, ia + ib) in live
                for (ta, pa), (tb, pb) in itertools.product(rows_a, rows_b):
                    if not lands_live and not (pa and pb):
                        assert bar._model_mul(qc.model, pa, pb) == {}, (
                            case, ta, tb)
                    if not (small or lands_live):
                        continue
                    got = qc.pi_product(ta, tb)
                    assert got == reference_pi_product(qc, ta, tb), (
                        case, ta, tb)
                    if not small:
                        continue
                    a, b = BarChain(P, {ta: 1}), BarChain(P, {tb: 1})
                    assert got == qc.pi(a * b), (case, ta, tb)
                    assert got == _reference_pi(qc, reference_shuffle(a, b)), (
                        case, ta, tb)
                    if not lands_live:
                        assert got == {}, (case, ta, tb)


def _bend_odd_factors(monkeypatch, bend):
    """Replace the odd-factor mask of every tensor t by bend(mask, len(t)):
    the signs of _shuffles and of the block count in pi_product both read
    it."""
    honest = bar._odd_factors
    monkeypatch.setattr(bar, "_odd_factors",
                        lambda P, t: bend(honest(P, t), len(t)))


def _flip_past_the_first(mask, length):
    """The parity of every factor but the first flipped: products of
    one-factor tensors keep their signs."""
    return mask ^ (((1 << length) - 1) & ~1)


def _bend_one_model_product(monkeypatch, window):
    """Make pi(ta) pi(tb) nonzero on the first pair of the window with
    pi(ta), pi(tb) both nonzero and ta tb off the strata where pi is not
    0, where pi(ta * tb) is 0."""
    qc = _QuasiIsoCase(*window)
    max_s, max_internal = window[4:]
    rows = [(s, t, pi) for (s, t, _w), tensors in bar._bar_strata(
        qc.algebra, max_s, max_internal, None).items()
        for tensor in tensors if (pi := qc._pi_tensor(tensor))]
    live = {(s, t) for s, t, _ in rows}
    pa, pb = next(
        (pa, pb) for sa, ia, pa in rows for sb, ib, pb in rows
        if sa + sb <= max_s and ia + ib <= max_internal
        and (sa + sb, ia + ib) not in live)
    honest = bar._model_mul

    def bent(model, a, b):
        return {model.unit: 1} if (a, b) == (pa, pb) else honest(model, a, b)

    monkeypatch.setattr(bar, "_model_mul", bent)


# (case, |x|, p, m) of the long-pair comparison of the block count
LONG_PAIR_CASES = (
    ("truncated", 1, 2, 2), ("truncated", 1, 2, 3), ("truncated", 2, 3, 3),
    ("truncated", 2, 3, 4), ("truncated", 2, 3, 9), ("truncated", 2, 5, 4),
    ("truncated", 2, 5, 5), ("exterior", 1, 2, None),
    ("exterior", 3, 3, None), ("exterior", 3, 5, None), ("poly", 2, 3, None),
)


def _long_pairs(case, rng, count, max_length):
    """count seeded pairs (ta, tb), 2 <= |ta| + |tb| <= max_length, in
    turn: random tensors; a tensor of the shape pi keeps ((x) first at odd
    length, then blocks with exponent sum m) split in two; two tensors of
    that shape."""
    kind, _, _, m = case
    top = m - 1 if kind == "truncated" else 1 if kind == "exterior" else 3

    def scattered(length):
        return [rng.randint(1, top) for _ in range(length)]

    def shaped(length):
        if kind != "truncated":
            return scattered(length)
        exps = [1] * (length % 2)
        for _ in range(length // 2):
            a = rng.randint(1, m - 1)
            exps += [a, m - a]
        return exps

    pairs = []
    for k in range(count):
        length = rng.randint(2, max_length)
        if k % 3 == 2:
            la = rng.randint(1, length - 1)
            ea, eb = shaped(la), shaped(length - la)
        else:
            exps = (shaped if k % 3 else scattered)(length)
            left = set(rng.sample(range(length), rng.randint(1, length - 1)))
            ea = [e for i, e in enumerate(exps) if i in left]
            eb = [e for i, e in enumerate(exps) if i not in left]
        pairs.append((tuple((e,) for e in ea), tuple((e,) for e in eb)))
    return pairs


def _mix_parities(mask, length):
    """Every other factor's parity flipped."""
    return (mask ^ 0x555) & ((1 << length) - 1)


@pytest.mark.parametrize("bend", [None, _mix_parities],
                         ids=["honest", "mixed-parities"])
def test_pi_product_matches_the_reference_on_long_pairs(monkeypatch, bend):
    # pairs up to 12 factors, far past the windows verify bar checks.  At
    # odd p every factor of a one-generator algebra has odd suspended
    # degree, so only mixed parities put signed and unsigned crossings in
    # one pair, and only they keep a block (a_i | b_j) from cancelling
    # against (b_j | a_i)
    if bend:
        _bend_odd_factors(monkeypatch, bend)
    rng = random.Random(2013)
    for case in LONG_PAIR_CASES:
        kind, xd, p, m = case
        qc = _QuasiIsoCase(kind, xd, p, m, 12, 12 * (m or 2) * xd)
        nonzero = 0
        for ta, tb in _long_pairs(case, rng, 24, 12):
            got = qc.pi_product(ta, tb)
            assert got == reference_pi_product(qc, ta, tb), (case, ta, tb)
            nonzero += bool(got)
        # poly: pi is 0 on every tensor of two or more factors
        assert (nonzero > 0) == (kind != "poly"), case


def test_pi_multiplicativity_check_still_sees_a_flipped_shuffle_sign(
        monkeypatch):
    # pi is 0 on most strata, where the check walks only the pairs with
    # pi(ta) and pi(tb) both nonzero, but it walks every pair that lands
    # where pi is not 0, and there the flipped signs show
    _bend_odd_factors(monkeypatch, _flip_past_the_first)
    report = verify_quasi_iso("truncated", 2, 3, 3, 5, 16)
    assert not dict((name, ok) for name, ok, _ in report.checks)[
        "pi is multiplicative"]


WITNESS_WINDOW = ("truncated", 2, 3, 3, 5, 16)


@pytest.mark.parametrize("mutation", [
    # first fails on pi((x) * (x | x^2)), pi of both factors nonzero
    lambda mp: _bend_odd_factors(mp, _flip_past_the_first),
    # no shuffle signed: first fails on pi((x) * (x^2)), pi((x^2)) = 0,
    # so the check must walk every row of a stratum where pi is not 0
    lambda mp: _bend_odd_factors(mp, lambda mask, length: 0),
    # fails only off the strata where pi is not 0: the check must walk the
    # pairs with pi of both factors nonzero there
    lambda mp: _bend_one_model_product(mp, WITNESS_WINDOW),
], ids=["flipped-sign", "unsigned", "model-product"])
def test_pi_multiplicativity_witness_matches_the_full_walk(monkeypatch,
                                                          mutation):
    # the check drops only pairs that cannot fail, so its first witness
    # is the full prefix walk's first failing pair
    qc = _QuasiIsoCase(*WITNESS_WINDOW)
    assert reference_multiplicativity_witness(qc, *WITNESS_WINDOW[4:]) is None
    mutation(monkeypatch)
    want = reference_multiplicativity_witness(qc, *WITNESS_WINDOW[4:])
    assert want is not None
    report = verify_quasi_iso(*WITNESS_WINDOW)
    assert dict((name, witness) for name, _, witness in report.checks)[
        "pi is multiplicative"] == want


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["table-order", "reversed-table"])
def test_pi_chain_map_witness_matches_the_full_walk(monkeypatch, reverse):
    # pi doubled on the tensors of length >= 2 ending in (x) fails the
    # chain-map check in several strata; the check walks only the strata
    # whose boundaries land where pi is not 0, and its first witness is
    # that of the walk over every tensor in (s, internal, tensor) order,
    # whatever order the stratum table lists its keys in
    if reverse:
        strata = bar._bar_strata
        monkeypatch.setattr(bar, "_bar_strata", lambda *window: dict(
            reversed(strata(*window).items())))
    qc = _QuasiIsoCase(*WITNESS_WINDOW)
    assert reference_chain_map_failures(qc, *WITNESS_WINDOW[4:]) == []
    honest = _QuasiIsoCase._pi_tensor

    def bent(self, tensor):
        image = honest(self, tensor)
        if len(tensor) >= 2 and tensor[-1] == (1,):
            return {m: 2 * v % self.p for m, v in image.items()}
        return image

    monkeypatch.setattr(_QuasiIsoCase, "_pi_tensor", bent)
    qc = _QuasiIsoCase(*WITNESS_WINDOW)
    failures = reference_chain_map_failures(qc, *WITNESS_WINDOW[4:])
    P = qc.algebra
    assert len({(len(t), sum(map(P.mono_total, t))) for t in failures}) > 1
    report = verify_quasi_iso(*WITNESS_WINDOW)
    assert dict((name, witness) for name, _, witness in report.checks)[
        "pi is a chain map"] == f"pi(d{failures[0]}) != 0"


def test_shuffle_patterns_have_one_process_wide_cache():
    # a second identical run meets only patterns the first one cached
    bar._shuffle_patterns.cache_clear()
    verify_quasi_iso("truncated", 2, 3, 3, 5, 16)
    first = bar._shuffle_patterns.cache_info().misses
    assert first > 0
    verify_quasi_iso("truncated", 2, 3, 3, 5, 16)
    assert bar._shuffle_patterns.cache_info().misses == first
    assert not hasattr(_QuasiIsoCase("truncated", 2, 3, 3, 5, 16), "_patterns")


def test_quasi_iso_rejects_bad_parity():
    with pytest.raises(ValueError):
        verify_quasi_iso("poly", 3, 3)
    with pytest.raises(ValueError):
        verify_quasi_iso("exterior", 2, 5)
    with pytest.raises(ValueError):
        verify_quasi_iso("truncated", 2, 3)  # missing m
    with pytest.raises(ValueError, match="carries no height"):
        verify_quasi_iso("poly", 2, 3, m=3)
    with pytest.raises(ValueError, match="carries no height"):
        verify_quasi_iso("exterior", 3, 3, m=3)
    with pytest.raises(ValueError):
        verify_quasi_iso("bogus", 2, 3)


def test_inclusion_of_divided_powers():
    # gamma_n of the height-m class maps to alternating (x^{m-1}, x) blocks
    case = _QuasiIsoCase("truncated", 2, 3, 3, 5, 20)
    gamma2 = case._gamma_element(2)
    ((mono, coeff),) = gamma2.items()
    chain = case.inc(mono)
    ((tensor, c),) = chain.terms.items()
    assert tensor == ((2,), (1,), (2,), (1,))
    # gamma_2 at p = 3 carries coefficient 2! = 2; inc times the stored
    # inverse gives 2 * inverse(2) = 1
    assert (c * coeff) % 3 == 1
    # eps x maps to the 1-tensor (x)
    eps = case.pi(BarChain(case.algebra, {((1,),): 1}))
    ((mono_e, coeff_e),) = eps.items()
    assert case.inc(mono_e).terms == {((1,),): 1}
    assert coeff_e == 1


def test_gamma_bookkeeping():
    assert _gamma_digits(7, 3) == [1, 2]
    assert _gamma_coeff(1, 3) == 1
    # gamma_1^2 = 2! gamma_2, and 2! = 2 mod 3
    assert _gamma_coeff(2, 3) == 2
    assert _gamma_coeff(4, 2) == 1
    assert _gamma_coeff(3, 2) == 1
    assert _gamma_coeff(6, 3) == 2  # digits (0, 2): 0! * 2!


def test_presentation_dims_matches_enumeration():
    P = AlgebraPresentation(3, (exterior("a", 3), truncated("b", 3, 2),
                                polynomial("c", 4)))
    dims = presentation_dims(P, 12)
    count = {}
    mons = [P.unit] + list(P.augmentation_monomials(12, None))
    for mono in mons:
        key = (P.mono_hom(mono), P.mono_internal(mono), P.mono_weight(mono))
        count[key] = count.get(key, 0) + 1
    assert dims.as_dict() == count


def _dims_or_error(fold, presentation, max_total, max_weight):
    try:
        return fold(presentation, max_total, max_weight).as_dict()
    except ValueError as exc:
        return str(exc)


def _random_presentation(rng, p):
    """One to five generators of every kind, with hom > 0 splits, heights
    2, 3, 4 and 9, and weight-graded degree-0 generators."""
    gens = []
    for i in range(rng.randint(1, 5)):
        kind = rng.choice(("exterior", "polynomial", "truncated"))
        if kind != "exterior" and rng.random() < 0.25:
            degree, weight = 0, rng.randint(1, 3)
        else:
            degree, weight = rng.randint(1, 12), rng.randint(0, 3)
            if p != 2 and degree % 2 != (kind == "exterior"):
                degree += 1
        height = rng.choice((2, 3, 4, 9)) if kind == "truncated" else None
        hom = rng.randint(0, degree)
        gens.append(Generator(f"g{i}", kind, height, hom, degree - hom,
                              weight))
    return AlgebraPresentation(p, gens)


def test_presentation_dims_matches_reference_fold():
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        cases = []
        for _ in range(25):
            P = _random_presentation(rng, p)
            below = min((g.total for g in P.generators if g.total),
                        default=1) - 1
            for max_total in sorted({-1, 0, below, 6, 15}):
                for max_weight in (None, -1, 0, 2, 6):
                    cases.append((P, max_total, max_weight))
        # every rewrite stage of the B, B' and B''(m) starts
        starts = [polynomial("μ", 2), polynomial("x", 0, weight=1)]
        starts += [truncated("x", m, 0, weight=1) for m in (2, 3, 4, 9)]
        for start in starts:
            stage = AlgebraPresentation(p, (start,))
            for _ in range(6):
                for max_weight in (None, 12):
                    cases.append((stage, 30, max_weight))
                stage = tor_presentation(stage, 30)
        for P, max_total, max_weight in cases:
            got = _dims_or_error(presentation_dims, P, max_total, max_weight)
            want = _dims_or_error(reference_presentation_dims, P, max_total,
                                  max_weight)
            assert got == want, (P, max_total, max_weight)


def _or_error(enumerate_, presentation, max_total, max_weight):
    try:
        return enumerate_(presentation, max_total, max_weight)
    except ValueError as exc:
        return str(exc)


def _product_monomials(P, max_total, max_weight):
    """Independent enumeration: every exponent vector of a box, filtered by
    the degree and weight bounds."""
    if max_total < 0:
        raise ValueError("degree bound must be nonnegative")
    tops = []
    for g in P.generators:
        top = [max_total // g.total] if g.total else []
        if g.cap is not None:
            top.append(g.cap)
        if max_weight is not None and g.weight:
            top.append(max_weight // g.weight)
        if not top:
            raise ValueError(
                f"generator {g.name} has degree 0: a weight bound is required")
        tops.append(min(top))
    return [m for m in itertools.product(*(range(t + 1) for t in tops))
            if any(m) and P.mono_total(m) <= max_total
            and (max_weight is None or P.mono_weight(m) <= max_weight)]


def test_augmentation_monomials_match_product_enumeration():
    rng = random.Random(20261019)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(25):
            P = _random_presentation(rng, p)
            for max_total in (-1, 0, 6, 15):
                for max_weight in (None, -1, 0, 2, 6):
                    got, want = (_or_error(enumerate_, P, max_total,
                                           max_weight)
                                 for enumerate_ in (
                                     AlgebraPresentation.augmentation_monomials,
                                     _product_monomials))
                    assert got == want, (P, max_total, max_weight)
                    checked += isinstance(got, list) and len(got) > 1
    assert checked > 100


def test_presentation_dims_degree_zero_needs_a_weight_bound():
    P = AlgebraPresentation(3, (polynomial("a", 4),
                                polynomial("x", 0, weight=1)))
    with pytest.raises(ValueError) as new:
        presentation_dims(P, 10)
    with pytest.raises(ValueError) as old:
        reference_presentation_dims(P, 10)
    assert str(new.value) == str(old.value) == (
        "generator x has degree 0: a weight bound is required")
    assert presentation_dims(P, 10, 4) == reference_presentation_dims(P, 10, 4)


def _degree_one_polynomials(k_hom, k_internal):
    """k_hom polynomial generators of bidegree (1, 0) and k_internal of
    bidegree (0, 1), at p = 2."""
    return AlgebraPresentation(2, tuple(
        Generator(f"a{i}", "polynomial", None, 1, 0, 0)
        for i in range(k_hom)) + tuple(
        polynomial(f"b{i}", 1) for i in range(k_internal)))


def _monomials_of_degree(k, d):
    """Monomials of degree d in k generators of degree 1."""
    return math.comb(d + k - 1, k - 1) if k else int(d == 0)


def test_presentation_dims_counts_past_64_bits():
    # 40 generators of degree 1 give comb(t + 39, 39) monomials in degree
    # t, 76 bits at t = 40: the slots are 80 bits wide, past struct's
    # widths, and with a (1, 0) / (0, 1) split the slots themselves pass
    # 2^64 (73 bits at (20, 20))
    N = 40
    for k_hom, k_internal in ((0, 40), (20, 20)):
        dims = presentation_dims(_degree_one_polynomials(k_hom, k_internal),
                                 N)
        assert dims.as_dict() == {
            (h, i, 0): _monomials_of_degree(k_hom, h)
            * _monomials_of_degree(k_internal, i)
            for h in range(N + 1) for i in range(N + 1 - h)
            if _monomials_of_degree(k_hom, h)}, (k_hom, k_internal)
    assert packed.slot_width(math.comb(N + 39, 39)) == 80
    assert max(dims.as_dict().values()).bit_length() == 73


def test_presentation_dims_raises_when_a_slot_carries(monkeypatch):
    # one byte narrower than proved: 16 -> 8 bits at N = 12 (6,188
    # monomials in degree 12, 784 in bidegree (6, 6) of the split case),
    # 80 -> 72 bits at N = 40; a carry leaves the slot sums short of the
    # first pass's level totals.  The last case has 5 weight-0 and 2
    # weight-1 generators of degree 1 and a binding max_weight = 1: both
    # passes count the monomials whose every power lies in the window
    # (5,551 in degree 12, weight 2 included), so the check is exact there
    # too (level 7 unpacks to 366 monomials of the 876 counted)
    weighted = AlgebraPresentation(2, tuple(
        polynomial(f"a{i}", 1) for i in range(5)) + tuple(
        polynomial(f"b{i}", 1, weight=1) for i in range(2)))
    proved = packed.slot_width
    for P, N, max_weight in ((_degree_one_polynomials(0, 6), 12, None),
                             (_degree_one_polynomials(3, 3), 12, None),
                             (_degree_one_polynomials(20, 20), 40, None),
                             (weighted, 12, 1)):
        assert presentation_dims(P, N, max_weight) == \
            reference_presentation_dims(P, N, max_weight)
        monkeypatch.setattr(packed, "slot_width",
                            lambda largest: proved(largest) - 8)
        with pytest.raises(ArithmeticError, match="carried"):
            presentation_dims(P, N, max_weight)
        monkeypatch.setattr(packed, "slot_width", proved)


def test_tor_presentation_rewrites():
    # polynomial generator becomes a single exterior class
    P = poly_algebra(3, 2)
    T = tor_presentation(P, 20)
    assert [(g.kind, g.hom, g.internal) for g in T.generators] == \
        [("exterior", 1, 2)]
    # exterior class of total 3 becomes a height-p tower at p^k (1, 3)
    T2 = tor_presentation(T, 20)
    kinds = [(g.kind, g.height, g.hom, g.internal) for g in T2.generators]
    assert kinds == [("truncated", 3, 1, 3), ("truncated", 3, 3, 9)]
    # truncated of height m: one exterior class and a height-p phi tower
    Q = trunc_algebra(3, 3, 2)
    TQ = tor_presentation(Q, 30)
    kinds = [(g.kind, g.height, g.hom, g.internal) for g in TQ.generators]
    assert kinds[0] == ("exterior", None, 1, 2)
    assert kinds[1] == ("truncated", 3, 2, 6)
    assert kinds[2] == ("truncated", 3, 6, 18)


def test_tor_presentation_height_two():
    # an even class squaring to zero is truncated of height 2 at odd p
    P = AlgebraPresentation(3, (truncated("a", 2, 2),))
    T = tor_presentation(P, 20)
    assert T.generators[0].kind == "exterior"
    assert (T.generators[0].hom, T.generators[0].internal) == (1, 2)
    assert all(g.height == 3 for g in T.generators[1:])
    assert [(g.hom, g.internal) for g in T.generators[1:]] == [(2, 4), (6, 12)]


def test_iterated_tor_against_bar_oracle():
    # each rewrite stage must match the bar homology of the previous stage
    # on the whole (hom, internal, weight) table, from the polynomial start
    # and from B' and B''(m) with |x| in {0, 2}.  A class of hom <= S and
    # internal <= N has total degree up to N + S, so the rewrite runs there
    S, N, W = 5, 14, 10
    for p in (2, 3, 5, 7):
        starts = [poly_algebra(p, 2)]
        for x in (0, 2):
            starts.append(AlgebraPresentation(
                p, (polynomial("x", x, weight=1),)))
            starts += [AlgebraPresentation(p, (truncated("x", m, x, weight=1),))
                       for m in (2, 3, 4, 9)]
        for start in starts:
            stage = start
            for level in range(3):
                rewritten = tor_presentation(stage, N + S, W)
                predicted = presentation_dims(rewritten, N + S, W).restrict(
                    max_hom=S, max_internal=N)
                assert bar_homology(stage, S, N, W) == predicted, \
                    (p, start, level)
                stage = rewritten


def test_bar_oracle_matches_the_rewrite_on_random_presentations():
    # one rewrite step against the bar homology of random presentations
    # of up to five generators, with hom splits and degree-0 weights
    S, N, W = 5, 12, 8
    rng = random.Random(20261020)
    wide = 0
    for p in (2, 3, 5):
        for _ in range(25):
            P = _random_presentation(rng, p)
            predicted = presentation_dims(tor_presentation(P, N + S, W),
                                          N + S, W).restrict(max_hom=S,
                                                             max_internal=N)
            dims = bar_homology(P, S, N, W)
            assert dims == predicted, P
            wide += len(dims.as_dict()) > 5
    assert wide > 30


def test_bar_oracle_matches_the_paper_towers_stage_by_stage():
    # THH^[n](F_p) for n <= 2p + 2 rests on the iterated Tor stages P_k of
    # F_p[mu], |mu| = 2; at s <= 2 each stage's bar homology must equal the
    # next rewrite.  A class of hom 2 and internal N has total N + 2, so
    # the rewrite runs there
    for p, stages, N in ((5, 12, 120), (3, 8, 90)):
        start = AlgebraPresentation(p, (polynomial("μ", 2),))
        for k in range(stages):
            P = iterated_tor_presentation(start, k, N)
            predicted = presentation_dims(tor_presentation(P, N + 2),
                                          N + 2).restrict(2, N)
            assert bar_homology(P, 2, N) == predicted, (p, k)
    # cut at N + 1, the rewrite loses the two classes at (2, 60, 0) of the
    # F_3 stage 4 at N = 60
    P = iterated_tor_presentation(
        AlgebraPresentation(3, (polynomial("μ", 2),)), 4, 60)
    assert bar_homology(P, 2, 60).as_dict()[(2, 60, 0)] == 2
    short = presentation_dims(tor_presentation(P, 61), 61).restrict(2, 60)
    assert (2, 60, 0) not in short.as_dict()


def test_iterated_tor_total_series():
    dims = iterated_tor(poly_algebra(2, 2), 2, 16)
    series = dims.total_series(16)
    # divided tower on a degree-4 class at p = 2
    assert series == {0: 1, 4: 1, 8: 1, 12: 1, 16: 1}
    P0 = iterated_tor_presentation(poly_algebra(2, 2), 0, 16)
    assert P0 == poly_algebra(2, 2)
    with pytest.raises(ValueError):
        iterated_tor_presentation(poly_algebra(2, 2), -1, 16)


def test_bigraded_dims_helpers():
    dims = BigradedDims({(0, 0, 0): 1, (1, 2, 0): 2, (2, 2, 1): 3})
    assert dims.as_dict()[(1, 2, 0)] == 2
    assert (9, 9, 0) not in dims.as_dict()
    assert dims.total_series(4) == {0: 1, 3: 2, 4: 3}
    assert dims.total_series(3) == {0: 1, 3: 2}
    assert dims.by_bidegree() == {(0, 0): 1, (1, 2): 2, (2, 2): 3}
    cut = dims.restrict(max_hom=1, max_internal=4)
    assert cut.as_dict() == {(0, 0, 0): 1, (1, 2, 0): 2}
    assert repr(cut) == "BigradedDims({(0, 0, 0): 1, (1, 2, 0): 2})"


def test_json_round_trips():
    P = AlgebraPresentation(3, (exterior("a", 3), truncated("b", 3, 2,
                                                            weight=2)))
    dims = bar_homology(P, 3, 10, 8)
    blob2 = json.dumps(dims.to_json_dict(), sort_keys=True)
    assert BigradedDims.from_json_dict(json.loads(blob2)) == dims


def test_bigraded_dims_refuse_non_int_dimensions():
    # a float or bool dimension is refused, whether given directly or read
    # from JSON, so no table holds 2.5 or compares True equal to 1
    for dim in (2.5, True, 1.0):
        refused = rf"^dimension {dim!r} is not an int$"
        with pytest.raises(TypeError, match=refused):
            BigradedDims({(1, 2, 0): dim})
        with pytest.raises(TypeError, match=refused):
            BigradedDims.from_json_dict({"dims": {"0,0,0": 2, "1,2,0": dim}})
    assert BigradedDims.from_json_dict(
        {"dims": {"0,0,0": 2, "1,2,0": 0}}).as_dict() == {(0, 0, 0): 2}


def test_weight_graded_bar_homology_truncated_degree_zero():
    # F_p[x]/x^p with |x| = 0 and weight 1: all-ones homology per hom degree
    for p in (2, 3):
        alg = AlgebraPresentation(p, (truncated("x", p, 0, weight=1),))
        dims = bar_homology(alg, 6, 0, 2 * 6 + 1)
        totals = {}
        for (h, i, w), d in dims.items():
            assert i == 0
            totals[h] = totals.get(h, 0) + d
        assert totals == {h: 1 for h in range(7)}


def test_bar_chain_repr():
    P = AlgebraPresentation(3, (truncated("x", 3, 2), exterior("y", 3)))
    assert repr(BarChain(P)) == "BarChain(0)"
    chain = BarChain(P, {((2, 0), (0, 1)): 1, ((1, 1),): 5})
    assert repr(chain) == "BarChain(2*[x*y] + 1*[(x)^2|y])"


def test_chains_over_different_presentations_do_not_mix():
    q = BarChain(poly_algebra(5, 2), {((1,),): 1})
    r = BarChain(poly_algebra(3, 2), {((1,),): 1})
    with pytest.raises(ValueError):
        q + r
