"""Admissible words, bidegrees, and the degree-adjacency search."""

import gc
import random
import weakref
from collections import Counter
from functools import cache

import pytest

from hochhom import series, words
from hochhom.bar import (AlgebraPresentation, iterated_tor_presentation,
                         polynomial, truncated)
from hochhom.words import (
    EPS,
    MU,
    X,
    WordFamily,
    bidegree,
    canonical_key,
    classify,
    diff_candidates,
    enumerate_shapes,
    enumerate_words,
    exponent_bound,
    family_b,
    family_bdoubleprime,
    family_bprime,
    graded_words,
    is_admissible,
    phi,
    render_human,
    render_key,
    rho,
    total_degree,
    verify_powerwords,
)
from diff_reference import diff_candidates as listing_candidates
from diff_reference import listed_total_tables
from word_reference import (
    grid_cases,
    reference_canonical,
    reference_human,
    reference_key,
    reference_words,
    sum_bounded_words,
)


def fold_bidegree(word, p, family):
    """Independent right-to-left fold computing the bidegree pair and the
    x-weight: the exponent of x in the class the word names (0 on mu)."""
    h, i, wt = 0, 0, 0
    base_seen = False
    for pos in range(len(word) - 1, -1, -1):
        name = word[pos][0]
        if name in ("mu", "x"):
            h, i = 0, family.base_degree
            wt = 1 if name == "x" else 0
            base_seen = True
        elif name == "eps":
            h, i = 1, h + i
            base_seen = False
        elif name == "rho":
            k = word[pos][1]
            h, i = p ** k * 1, p ** k * (h + i)
            wt *= p ** k
            base_seen = False
        else:  # phi
            k = word[pos][1]
            if base_seen and family.kind == "B''":
                h, i = p ** k * 2, p ** k * family.m * i
                wt *= p ** k * family.m
            else:
                h, i = p ** k * 2, p ** k * p * (h + i)
                wt *= p ** k * p
            base_seen = False
    return (h, i, wt)


def test_shape_counts_are_fibonacci():
    fam = family_b()
    counts = [len(enumerate_shapes(n, fam)) for n in range(1, 9)]
    assert counts == [1, 1, 1, 2, 3, 5, 8, 13]


def test_shapes_are_admissible_all_families():
    for fam in (family_b(), family_bprime(), family_bdoubleprime(3)):
        for n in range(1, 8):
            shapes = enumerate_shapes(n, fam)
            assert len(shapes) == len(set(shapes))
            for shape in shapes:
                assert len(shape) == n
                assert is_admissible(shape, fam), (fam, shape)


def test_bprime_shapes_end_in_x():
    fam = family_bprime()
    for n in range(2, 7):
        for shape in enumerate_shapes(n, fam):
            assert shape[-1] == X
            assert shape[-2] == EPS
    fam2 = family_bdoubleprime(4)
    seen_phi_on_x = False
    for shape in enumerate_shapes(3, fam2):
        assert shape[-1] == X
        if shape[-2][0] == "phi":
            seen_phi_on_x = True
    assert seen_phi_on_x


def test_bidegree_base_cases():
    fam = family_b()
    assert bidegree((MU,), 3, fam).hom == 0
    assert bidegree((MU,), 3, fam).internal == 2
    assert bidegree((EPS, MU), 3, fam) == bidegree((EPS, MU), 5, fam)
    bd = bidegree((EPS, MU), 3, fam)
    assert (bd.hom, bd.internal, bd.total) == (1, 2, 3)
    bd = bidegree((rho(0), EPS, MU), 3, fam)
    assert (bd.hom, bd.internal) == (1, 3)
    bd = bidegree((rho(2), EPS, MU), 3, fam)
    assert (bd.hom, bd.internal) == (9, 27)


def test_bidegree_phi_on_base_in_bdoubleprime():
    fam = family_bdoubleprime(3, 2)
    bd = bidegree((phi(0), X), 3, fam)
    assert (bd.hom, bd.internal) == (2, 6)
    bd = bidegree((phi(1), X), 3, fam)
    assert (bd.hom, bd.internal) == (6, 18)
    # away from the base letter, phi multiplies the degree by p
    fam0 = family_bdoubleprime(3, 0)
    bd = bidegree((phi(0), rho(0), EPS, X), 3, fam0)
    assert (bd.hom, bd.internal) == (2, 3 * (1 + 1))


def test_bidegree_matches_independent_fold():
    rng = random.Random(4242)
    fams = [family_b(), family_bprime(), family_bdoubleprime(3),
            family_bdoubleprime(5, 2)]
    for p in (2, 3, 5):
        for fam in fams:
            for n in range(1, 7):
                for w in enumerate_words(n, fam, p, 400):
                    assert (bidegree(w, p, fam).hom,
                            bidegree(w, p, fam).internal) == \
                        fold_bidegree(w, p, fam)[:2], (p, fam, w)
                    assert total_degree(w, p, fam) == bidegree(w, p, fam).total


def test_graded_words_match_the_checked_functions():
    fams = [family_b(), family_bprime(), family_bdoubleprime(3),
            family_bdoubleprime(4, 1)]
    for p in (2, 3, 5):
        for fam in fams:
            for n in range(1, 7):
                graded = graded_words(n, fam, p, 400)
                assert [w for w, *_ in graded] == \
                    enumerate_words(n, fam, p, 400), (p, fam, n)
                for w, bd, weight, cls in graded:
                    assert bd == bidegree(w, p, fam), (p, fam, w)
                    assert weight == fold_bidegree(w, p, fam)[2], (p, fam, w)
                    assert cls == classify(w, fam), (p, fam, w)


def test_known_degree_drop_pair_bidegrees():
    # the length-9 pair with homological drop 5, for each odd prime
    fam = family_b()
    for p in (3, 5):
        w = (phi(1),) + (rho(0), EPS) * (p - 1) + (phi(0), rho(0), EPS, MU)
        v = (EPS,) + (rho(0), EPS) * (p - 2) + (phi(0), rho(2), EPS,
                                                rho(0), EPS, MU)
        assert is_admissible(w, fam) and is_admissible(v, fam)
        bw = bidegree(w, p, fam)
        bv = bidegree(v, p, fam)
        assert (bw.hom, bw.internal) == (2 * p, 6 * p ** 3)
        assert (bv.hom, bv.internal) == (1, 6 * p ** 3 + 2 * p - 2)
        assert bw.total == bv.total + 1
        assert bw.hom - bv.hom == 2 * p - 1
    w3 = (phi(1), rho(0), EPS, rho(0), EPS, phi(0), rho(0), EPS, MU)
    assert render_key(w3) == "l^1r^0er^0el^0r^0eu"
    assert (bidegree(w3, 3, fam).hom, bidegree(w3, 3, fam).internal) == (6, 162)


def test_enumerate_words_frozen_example():
    fam = family_b()
    ws = enumerate_words(3, fam, 3, 108)
    assert [render_key(w) for w in ws] == ["r^0eu", "r^1eu", "r^2eu", "r^3eu"]
    ws2 = enumerate_words(3, fam, 3, 107)
    assert [render_key(w) for w in ws2] == ["r^0eu", "r^1eu", "r^2eu"]


def test_enumerate_words_monotone_in_bound():
    fam = family_bprime()
    for p in (2, 3):
        small = set(enumerate_words(4, fam, p, 30))
        large = set(enumerate_words(4, fam, p, 90))
        assert small <= large
        for w in large:
            assert total_degree(w, p, fam) <= 90
        for w in large - small:
            assert total_degree(w, p, fam) > 30


def test_exponent_bound_exact():
    assert exponent_bound(108, 3) == 4  # 3^4 = 81 <= 108 < 243
    assert exponent_bound(81, 3) == 4
    assert exponent_bound(80, 3) == 3
    assert exponent_bound(1, 5) == 0
    assert exponent_bound(1024, 2) == 10
    assert exponent_bound(1023, 2) == 9
    assert exponent_bound(0, 3) == -1  # no letter fits
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        exponent_bound(-1, 3)
    with pytest.raises(ValueError, match="degree bound must be >= 1"):
        diff_candidates(5, 3, 0)


def test_word_calculus_refuses_a_non_prime_p():
    # p = 0 and 1 looped for ever in exponent_bound; 4 and 9 were accepted,
    # and the single-word bidegree and total_degree took any p
    for p in (0, 1, 4, 9):
        for call in (lambda: exponent_bound(50, p),
                     lambda: enumerate_words(3, family_b(), p, 50),
                     lambda: graded_words(3, family_bprime(), p, 50),
                     lambda: diff_candidates(5, p, 50),
                     lambda: diff_candidates(6, p, 100, "raw"),
                     lambda: bidegree((rho(1), EPS, MU), p, family_b()),
                     lambda: total_degree((rho(2), EPS, MU), p, family_b())):
            with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
                call()


def test_classify():
    fam = family_b()
    assert classify((EPS, MU), fam) == "exterior"
    assert classify((rho(1), EPS, MU), fam) == "truncated_height_p"
    assert classify((MU,), fam) == "free"
    fam2 = family_bdoubleprime(4)
    assert classify((X,), fam2) == "truncated_height_m"
    assert classify((phi(0), X), fam2) == "truncated_height_p"


def test_render_round_trip_and_canonical_order():
    fam = family_b()
    ws = enumerate_words(5, fam, 3, 200)
    keys = [render_key(w) for w in ws]
    assert len(keys) == len(set(keys))
    assert [canonical_key(w) for w in ws] == sorted(canonical_key(w) for w in ws)
    w = (phi(2), rho(1), EPS, MU)
    assert render_key(w) == "l^2r^1eu"
    assert render_human(w) == "φ^2ρ^1εμ"
    # a shape's blank exponent reads ? in both syntaxes
    shape = enumerate_shapes(3, fam)[0]
    assert (render_key(shape), render_human(shape)) == ("r^?eu", "ρ^?εμ")


def test_inadmissible_rejected():
    fam = family_b()
    assert not is_admissible((MU, MU), fam)
    assert not is_admissible((EPS, EPS, MU), fam)
    assert not is_admissible((rho(0), MU), fam)
    assert not is_admissible((EPS, X), fam)
    assert not is_admissible((), fam)
    # eps carries no exponent
    assert not is_admissible((("eps", 3), MU), fam)
    assert not is_admissible((rho(0), ("eps", None), MU), fam)
    with pytest.raises(ValueError):
        bidegree((MU, MU), 3, fam)
    # phi directly on the base letter is only admissible in B''
    assert not is_admissible((phi(0), MU), fam)
    assert is_admissible((phi(0), X), family_bdoubleprime(3))
    # an unknown letter is refused wherever it stands
    for bad in (("nu",), ("nu", 1)):
        for word in ((bad,), (bad, MU), (EPS, bad, MU), (bad, EPS, MU),
                     (rho(0), bad, EPS, MU), (EPS, MU, bad)):
            assert not is_admissible(word, fam), word
        assert not is_admissible((bad, X), family_bdoubleprime(3))


def test_letter_without_exponent_slot_is_inadmissible():
    fam = family_b()
    for word in ((("rho",), EPS, MU), (("phi",), rho(0), EPS, MU),
                 (EPS, ("rho",), EPS, MU)):
        assert not is_admissible(word, fam), word
        with pytest.raises(ValueError, match="not admissible"):
            bidegree(word, 3, fam)


def test_unknown_letter_raises_not_admissible():
    fam = family_b()
    for word in ((("nu",), MU), (rho(0), ("nu", 1), MU)):
        for check in (lambda w: bidegree(w, 3, fam),
                      lambda w: total_degree(w, 3, fam),
                      lambda w: classify(w, fam)):
            with pytest.raises(ValueError, match="not admissible"):
                check(word)


def test_bool_exponent_is_inadmissible():
    fam = family_b()
    for word in ((("rho", True), EPS, MU), (("phi", False), rho(0), EPS, MU),
                 (EPS, ("rho", True), EPS, MU)):
        assert not is_admissible(word, fam), word
        for check in (lambda w: bidegree(w, 3, fam),
                      lambda w: total_degree(w, 3, fam),
                      lambda w: classify(w, fam)):
            with pytest.raises(ValueError, match="not admissible"):
                check(word)


def same_as_reference(word):
    """The memoised renderers and sort key give the reference's values,
    down to the type of each exponent in the key."""
    return (render_key(word) == reference_key(word)
            and render_human(word) == reference_human(word)
            and repr(canonical_key(word)) == repr(reference_canonical(word)))


@pytest.mark.parametrize("bool_first", (True, False))
def test_letter_memo_keeps_bool_and_int_exponents_apart(bool_first):
    # True == 1 and False == 0, with equal hashes: a memo keyed on the
    # letter alone would render the second of the two as the first
    for memo in (words._key_form, words._human_form, words._letter_key):
        memo.cache_clear()
    for ints, bools, keys in (
            ((rho(1), EPS, MU), (("rho", True), EPS, MU),
             ("r^1eu", "r^Trueeu")),
            ((phi(0), rho(0), EPS, MU), (("phi", False), rho(0), EPS, MU),
             ("l^0r^0eu", "l^Falser^0eu"))):
        for word in (bools, ints) if bool_first else (ints, bools):
            assert same_as_reference(word), word
        assert (render_key(ints), render_key(bools)) == keys


def test_xweight():
    # the weight graded_words reports, and the independent fold
    famp, famm = family_bprime(), family_bdoubleprime(4)
    for fam, word, weight in ((famp, (X,), 1), (famp, (EPS, X), 1),
                              (famp, (rho(1), EPS, X), 3),
                              (famm, (phi(0), X), 4),
                              (family_b(), (EPS, MU), 0)):
        assert fold_bidegree(word, 3, fam)[2] == weight
        graded = graded_words(len(word), fam, 3,
                              max(1, total_degree(word, 3, fam)))
        assert (word, weight) in [(w, wt) for w, _, wt, _ in graded]


def test_word_family_base_degree():
    # None marks an unset base degree; -1 is refused like any negative
    assert WordFamily("B").base_degree == family_b().base_degree == 2
    assert WordFamily("B'", None, None).base_degree == 0
    assert family_bdoubleprime(3).base_degree == 0
    assert WordFamily("B", None, 0).base_degree == 0
    for make in (lambda: WordFamily("B", None, -1), lambda: family_b(-1),
                 lambda: family_bprime(-1), lambda: family_bdoubleprime(3, -2)):
        with pytest.raises(ValueError, match="base degree must be nonnegative"):
            make()


def test_powerwords_pass():
    rep = verify_powerwords(3, 3)
    assert len(rep.found) == 4
    for k, ws in rep.found:
        assert [render_key(w) for w in ws] == [f"r^{k}eu"]
    rep5 = verify_powerwords(5, 2)
    assert len(rep5.found) == 3


def test_powerwords_requires_odd_prime():
    with pytest.raises(ValueError):
        verify_powerwords(2, 2)
    with pytest.raises(ValueError):
        verify_powerwords(9, 1)


def test_diff_candidates_small_n_empty():
    for n in (2, 3, 4):
        assert list(diff_candidates(n, 3, 200, "raw")) == []
        assert list(diff_candidates(n, 3, 200, "refined")) == []
    with pytest.raises(ValueError):
        diff_candidates(1, 3, 100, "raw")
    with pytest.raises(ValueError):
        diff_candidates(5, 3, 100, "bogus")


def test_diff_candidates_finds_known_pair():
    cands = diff_candidates(9, 3, 170, "refined")
    lines = [c.key_line() for c in cands]
    assert ("l^1r^0er^0el^0r^0eu(6,162) ---> er^0el^0r^2er^0eu(1,166): 5"
            in lines)
    for c in cands:
        assert c.source_bidegree.total == c.target_bidegree.total + 1
        assert c.drop == c.source_bidegree.hom - c.target_bidegree.hom
        assert c.drop > 1


def test_refined_subset_of_raw():
    raw = diff_candidates(9, 3, 170, "raw")
    ref = diff_candidates(9, 3, 170, "refined")
    raw_pairs = {(c.source, c.target) for c in raw}
    assert all((c.source, c.target) in raw_pairs for c in ref)
    for c in ref:
        first = c.source[0]
        assert first[0] in ("rho", "phi") and first[1] >= 1
        assert c.target[0][0] == "eps"


def brute_force_pairs(n, p, max_degree, refined=False):
    """Independent search: every shape filled with every exponent tuple of
    sum at most the cap, no degree filter, graded by fold_bidegree; each
    source meets every target of total one lower.  refined keeps sources
    leading with rho^k or phi^k, k >= 1, and targets leading with eps."""
    fam = family_b()
    cap = 0
    while p ** (cap + 1) <= max_degree:
        cap += 1
    graded = [(w,) + fold_bidegree(w, p, fam)[:2]
              for w in sum_bounded_words(n, fam, cap)]
    by_total = {}
    for v, hv, iv in graded:
        if not refined or v[0][0] == "eps":
            by_total.setdefault(hv + iv, []).append((v, hv))
    found = set()
    for w, hw, iw in graded:
        if refined and (w[0][0] not in ("rho", "phi") or w[0][1] < 1):
            continue
        for v, hv in by_total.get(hw + iw - 1, ()):
            if hw - hv > 1:
                found.add((render_key(w), render_key(v)))
    return found


def test_diff_candidates_against_brute_force():
    for n, p, bound in ((5, 3, 120), (6, 2, 40), (9, 3, 170)):
        got = {(render_key(c.source), render_key(c.target))
               for c in diff_candidates(n, p, bound, "raw")}
        assert got == brute_force_pairs(n, p, bound), (n, p, bound)
    for (n, p, bound), count in (((6, 2, 40), 10), ((7, 2, 64), 115),
                                 ((9, 3, 170), 13)):
        got = {(render_key(c.source), render_key(c.target))
               for c in diff_candidates(n, p, bound, "refined")}
        assert got == brute_force_pairs(n, p, bound, refined=True)
        assert len(got) == count, (n, p, bound)


def test_enumerate_words_matches_reference_enumerator():
    # the pruned generator against shapes x exponent tuples x degree filter
    for fam, n, p, bound in grid_cases():
        assert enumerate_words(n, fam, p, bound) == \
            list(reference_words(n, fam, p, bound)), (fam, n, p, bound)
    with pytest.raises(ValueError):
        enumerate_words(0, family_b(), 3, 10)
    # a bound of 0 admits no letter, and mu has degree 2
    assert enumerate_words(3, family_b(), 3, 0) == []


def exponent_sum(word):
    return sum(letter[1] for letter in word if letter[0] in ("rho", "phi"))


def test_prepending_a_letter_never_lowers_degree_or_exponent_sum():
    # the invariant the generator's pruning rests on, checked with the
    # scalar total_degree recursion on seeded random admissible words
    rng = random.Random(20260418)
    alphabet = [EPS] + [f(k) for f in (rho, phi) for k in range(4)]
    fams = [family_b(), family_b(4), family_bprime(), family_bprime(3),
            family_bdoubleprime(2), family_bdoubleprime(4, 1),
            family_bdoubleprime(9)]
    checked = 0
    for fam in fams:
        for p in (2, 3, 5):
            for _ in range(25):
                word = (fam.base_letter,)
                for _ in range(rng.randrange(8)):
                    lefts = [l for l in alphabet
                             if is_admissible((l,) + word, fam)]
                    word = (rng.choice(lefts),) + word
                d = total_degree(word, p, fam)
                for left in alphabet:
                    longer = (left,) + word
                    if is_admissible(longer, fam):
                        assert total_degree(longer, p, fam) > d
                        assert exponent_sum(longer) >= exponent_sum(word)
                        checked += 1
    assert checked > 1000


# (p, N, longest n), run in both modes: exponent bounds E = 2..6.  p = 3
# has its first pairs at n = 9; p = 5 has none this short.  At p = 2,
# N = 64 the length-7 tables hold 35 totals in two runs each.
DIFF_GRID = ((2, 8, 7), (2, 64, 6), (2, 64, 8), (3, 26, 9), (3, 170, 7),
             (5, 124, 8), (5, 3125, 7))
# (p, N, n): at p = 2^31 - 1, N = p^2 the totals of length 5 pass 2^64 - 1;
# at N = 2^300 each table has 301 runs, most of one total
BIG = 2 ** 31 - 1
PAST_64_BITS = ((BIG, BIG ** 2, 5), (BIG, BIG ** 2, 6), (2, 2 ** 300, 4))


@cache
def listed(n, p, N, mode):
    """listing_candidates, listed once per case for this module."""
    return listing_candidates(n, p, N, mode)


def test_diff_candidates_match_listing_reference():
    cases = dict.fromkeys((p, N, n, mode) for p, N, longest in DIFF_GRID
                          for n in range(2, longest + 1)
                          for mode in ("raw", "refined"))
    for p, N, n, mode in cases:
        assert diff_candidates(n, p, N, mode) == listed(n, p, N, mode), \
            (p, N, n, mode)
    # p = 2 refined: 105 of these 115 targets are eps phi^k ..., which a
    # solver that only tries rho right of eps (enough for odd p) misses
    want = listed(7, 2, 64, "refined")
    assert len(want) == 115
    assert sum(c.target[1][0] == "phi" for c in want) == 105


def test_memoised_renderers_match_the_reference():
    fams = (family_b(), family_bprime(), family_bdoubleprime(3),
            family_bdoubleprime(4))
    listed_words = {w for fam in fams for p in (2, 3, 5) for n in range(1, 8)
                    for w in enumerate_words(n, fam, p, 100)}
    shapes = {w for fam in fams for n in range(1, 9)
              for w in enumerate_shapes(n, fam)}
    assert any(l[1:] == (None,) for w in shapes for l in w)
    # raw pairs hold the refined ones
    pairs = {w for p, N, longest in DIFF_GRID for n in range(2, longest + 1)
             for c in diff_candidates(n, p, N, "raw")
             for w in (c.source, c.target)}
    for ws in (listed_words, shapes, pairs):
        assert ws and all(map(same_as_reference, ws))


def test_diff_candidates_keep_totals_past_64_bits():
    # totals past 2^64 - 1 are held in lists, never truncated
    for p, N, n in PAST_64_BITS:
        for mode in ("raw", "refined"):
            assert diff_candidates(n, p, N, mode) == listed(n, p, N, mode), \
                (p, N, n, mode)
    tables = words._total_tables(5, family_b(), words.letter_moves(
        family_b(), BIG, BIG ** 2), 2)
    runs = tables[-1]["phi"]
    assert max(max(run, default=0) for run in runs) >= 2 ** 64
    assert any(isinstance(run, list) for run in runs)


@cache
def reference_tables(p, N, n):
    """Letter moves, exponent bound and the listing's tables of lengths
    1..n - 1: run s of a kind holds, sorted, the totals of exponent sum s."""
    bound = exponent_bound(N, p)
    return (words.letter_moves(family_b(), p, N), bound,
            listed_total_tables(n - 1, p, bound))


@pytest.mark.parametrize("window", (1, 2, 3))
def test_window_cuts_keep_the_search_and_its_tables(monkeypatch, window):
    # the shipped window is too wide for any case here to cross a cut
    monkeypatch.setattr(words, "_WINDOW", window)
    in_two_runs = 0
    for p, N, n in DIFF_GRID + PAST_64_BITS:
        # at E = 300 each length-4 row holds one total, so no window cuts
        # that search; its tables are still checked
        for mode in ("raw", "refined") if N < 2 ** 300 else ():
            assert diff_candidates(n, p, N, mode) == listed(n, p, N, mode), \
                (window, p, N, n, mode)
        moves, bound, want = reference_tables(p, N, n)
        assert [{kind: [list(run) for run in runs]
                 for kind, runs in level.items()}
                for level in words._total_tables(n - 1, family_b(), moves,
                                                 bound)] == want, \
            (window, p, N, n)
        in_two_runs += sum(sum(map(len, runs)) - len(set().union(*runs))
                           for level in want for runs in level.values())
    assert in_two_runs > 0  # the grid keeps a total that two sums reach


def test_word_counts_match_grown_level_sizes():
    fam = family_b()

    def counts(n, p, N):
        return words._word_counts(n, fam, words.letter_moves(fam, p, N),
                                  exponent_bound(N, p))

    for p, N, n in ((2, 64, 9), (3, 170, 11), (5, 3125, 9)):
        e = exponent_bound(N, p)
        assert counts(n, p, N) == [len(sum_bounded_words(length, fam, e))
                                   for length in range(1, n + 1)], (p, N)
    assert counts(13, 3, 170)[10:] == [16435, 36122, 77645]
    assert counts(13, 5, 3125)[-1] == 209034
    assert counts(17, 7, 117649)[-1] == 13343820


def test_diff_candidates_refuses_an_oversized_search_before_building(
        monkeypatch):
    def no_tables(*_args):
        raise AssertionError("the search started building its tables")

    monkeypatch.setattr(words, "_total_tables", no_tables)
    with pytest.raises(ValueError, match="28,947,240 words of length 18"):
        diff_candidates(18, 7, 117649, "refined")


def test_first_refined_pairs_where_the_proved_collapse_ends():
    # odd p: the collapse is proved for n <= 2p + 2 and the first refined
    # pairs stand at 2p + 3.  p = 2: "proved" stops at n = 3, but the
    # first pairs stand at 6; that bound rests on another argument.
    for p, N, first_pairs, first_open in ((3, 729, 9, 9), (5, 625, 13, 13),
                                          (2, 64, 6, 4)):
        assert next(n for n in range(2, first_pairs + 1)
                    if diff_candidates(n, p, N, "refined")) == first_pairs
        assert next(n for n in range(1, first_pairs + 1)
                    if series.thh_fp(n, p, 1).validity != "proved") \
            == first_open, p


def test_refined_search_record_at_p5():
    # E = 5: empty through length 12, the first pairs at length 2p + 3
    for n in range(2, 13):
        assert diff_candidates(n, 5, 3125, "refined") == [], n
    cands = diff_candidates(13, 5, 3125, "refined")
    assert len(cands) == 16
    assert cands[0].key_line() == ("l^1r^0er^0er^0er^0el^0r^0eu(10,750) ---> "
                                   "er^0er^0er^0el^0r^2er^0eu(1,758): 9")


def test_diff_candidates_sorted_deterministically():
    a = diff_candidates(9, 3, 170, "refined")
    b = diff_candidates(9, 3, 170, "refined")
    assert a == b
    keys = [(canonical_key(c.source), canonical_key(c.target)) for c in a]
    assert keys == sorted(keys)


def test_diff_candidates_leave_no_cyclic_garbage():
    # the memo, the tables and the hit sets hold no reference cycle, so
    # they are freed when the search returns, not at the next full
    # collection, and the pairs alone outlive it
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        found = diff_candidates(13, 3, 170, "raw")
        assert len(found) == 2826
        del found
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_diff_candidates_solve_with_only_the_hit_set_alive(monkeypatch):
    # while hits are solved back into words, no window's target set is
    # left alive beside the hit set being read.  The search's sets are
    # made by the name set in its module, so a stand-in there sees them
    refs = []

    def tracked(*args):
        made = set(*args)
        refs.append(weakref.ref(made))
        return made

    alive = []
    spell = words._spell

    def counting(branches, length):
        alive.append(sum(ref() is not None for ref in refs))
        return spell(branches, length)

    monkeypatch.setattr(words, "set", tracked, raising=False)
    monkeypatch.setattr(words, "_spell", counting)
    want = listed(10, 3, 120, "raw")
    assert diff_candidates(10, 3, 120, "raw") == want and want
    assert refs and alive and max(alive) == 1


def test_diff_candidates_solve_each_word_once_under_its_exact_sum(
        monkeypatch):
    # a memo key (total, leading kind, exponent sum, length) names exactly
    # the words its branches spell, so no word is solved under two keys
    solvers = []
    init = words._Solver.__init__

    def capture(self, *args):
        init(self, *args)
        solvers.append(self)

    monkeypatch.setattr(words._Solver, "__init__", capture)
    diff_candidates(13, 3, 240, "raw")
    (solver,) = solvers
    assert len(solver.memo) == 4713
    spelled = Counter()
    for key, branches in solver.memo.items():
        total, kind, s, length = key
        ws = words._spell(branches, length)
        assert ws, key
        for w in ws:
            assert (total_degree(w, 3, family_b()), w[0][0],
                    sum(l[1] for l in w if len(l) == 2), len(w)) == key, w
        spelled.update(ws)
    assert max(spelled.values()) == 1


def _rewrite_generators(family, p, n, max_degree):
    """(hom, internal, weight, class) of each generator of the (n - 1)-fold
    Tor rewrite of the family's base ring, from bar alone: a polynomial
    generator is "free", a truncated one of height p "truncated_height_p",
    and the base of B''(m) "truncated_height_m"."""
    if family.kind == "B":
        base = polynomial("mu", family.base_degree)
    elif family.kind == "B'":
        base = polynomial("x", family.base_degree, weight=1)
    else:
        base = truncated("x", family.m, family.base_degree, weight=1)
    final = iterated_tor_presentation(AlgebraPresentation(p, (base,)), n - 1,
                                      max_degree)
    kinds = {"exterior": "exterior", "polynomial": "free"}
    out = Counter()
    for g in final.generators:
        if g.kind == "truncated":
            kind = ("truncated_height_m" if g == base else
                    "truncated_height_p" if g.height == p else g.height)
        else:
            kind = kinds[g.kind]
        out[(g.hom, g.internal, g.weight, kind)] += 1
    return out


def test_words_and_tor_rewrite_agree_generator_by_generator():
    # the two routes meet otherwise only in total-degree series
    families = [family_b(2), family_b(4), family_bprime(0), family_bprime(2)]
    families += [family_bdoubleprime(m, d) for m in (2, 3, 4, 9)
                 for d in (0, 2)]
    for p in (2, 3, 5):
        N = 2000 if p == 5 else 400
        for family in families:
            for n in range(1, 8):
                got = Counter((b.hom, b.internal, weight, kind)
                              for _word, b, weight, kind
                              in graded_words(n, family, p, N))
                assert got == _rewrite_generators(family, p, n, N), (
                    str(family), family.base_degree, p, n)
