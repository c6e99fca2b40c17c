"""Admissible words, bidegrees, and the degree-adjacency search."""

import random

import pytest

from hochhom.words import (
    EPS,
    MU,
    X,
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
    xweight,
)
from word_reference import grid_cases, reference_words


def fold_bidegree(word, p, family):
    """Independent right-to-left fold computing the bidegree pair."""
    h, i = 0, 0
    base_seen = False
    for pos in range(len(word) - 1, -1, -1):
        name = word[pos][0]
        if name in ("mu", "x"):
            h, i = 0, family.base_degree
            base_seen = True
        elif name == "eps":
            h, i = 1, h + i
            base_seen = False
        elif name == "rho":
            k = word[pos][1]
            h, i = p ** k * 1, p ** k * (h + i)
            base_seen = False
        else:  # phi
            k = word[pos][1]
            if base_seen and family.kind == "B''":
                h, i = p ** k * 2, p ** k * family.m * i
            else:
                h, i = p ** k * 2, p ** k * p * (h + i)
            base_seen = False
    return (h, i)


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
                        fold_bidegree(w, p, fam), (p, fam, w)
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
                    assert weight == xweight(w, p, fam), (p, fam, w)
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


def test_classify():
    fam = family_b()
    assert classify((EPS, MU), fam).kind == "exterior"
    assert classify((EPS, MU), fam).primitive
    assert classify((rho(1), EPS, MU), fam).kind == "truncated_height_p"
    assert classify((MU,), fam).kind == "free"
    fam2 = family_bdoubleprime(4)
    assert classify((X,), fam2).kind == "truncated_height_m"
    assert classify((phi(0), X), fam2).kind == "truncated_height_p"


def test_render_round_trip_and_canonical_order():
    fam = family_b()
    ws = enumerate_words(5, fam, 3, 200)
    keys = [render_key(w) for w in ws]
    assert len(keys) == len(set(keys))
    assert [canonical_key(w) for w in ws] == sorted(canonical_key(w) for w in ws)
    w = (phi(2), rho(1), EPS, MU)
    assert render_key(w) == "l^2r^1eu"
    assert render_human(w) == "φ^2ρ^1εμ"


def test_inadmissible_rejected():
    fam = family_b()
    assert not is_admissible((MU, MU), fam)
    assert not is_admissible((EPS, EPS, MU), fam)
    assert not is_admissible((rho(0), MU), fam)
    assert not is_admissible((EPS, X), fam)
    assert not is_admissible((), fam)
    with pytest.raises(ValueError):
        bidegree((MU, MU), 3, fam)
    # phi directly on the base letter is only admissible in B''
    assert not is_admissible((phi(0), MU), fam)
    assert is_admissible((phi(0), X), family_bdoubleprime(3))


def test_xweight():
    famp = family_bprime()
    assert xweight((X,), 3, famp) == 1
    assert xweight((EPS, X), 3, famp) == 1
    assert xweight((rho(1), EPS, X), 3, famp) == 3
    famm = family_bdoubleprime(4)
    assert xweight((phi(0), X), 3, famm) == 4
    assert xweight((EPS, MU), 3, family_b()) == 0


def test_powerwords_pass():
    rep = verify_powerwords(3, 3)
    assert rep.ok
    assert len(rep.found) == 4
    for k, ws in rep.found:
        assert [render_key(w) for w in ws] == [f"r^{k}eu"]
    rep5 = verify_powerwords(5, 2)
    assert rep5.ok and len(rep5.found) == 3


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
    """Independent search: enumerate exponent fillings of every shape with
    exponent sum at most the cap, no degree filter, then scan all pairs.
    refined keeps sources leading with rho^k or phi^k, k >= 1, and
    targets leading with eps."""
    fam = family_b()
    cap = 0
    while p ** (cap + 1) <= max_degree:
        cap += 1
    words_all = []
    for shape in enumerate_shapes(n, fam):
        slots = [i for i, letter in enumerate(shape)
                 if letter[0] in ("rho", "phi")]
        def fill(idx, budget, current):
            if idx == len(slots):
                words_all.append(tuple(current))
                return
            for e in range(budget + 1):
                nxt = list(current)
                nxt[slots[idx]] = (current[slots[idx]][0], e)
                fill(idx + 1, budget - e, nxt)
        fill(0, cap, list(shape))
    graded = [(w,) + fold_bidegree(w, p, fam) for w in words_all]
    found = set()
    for w, hw, iw in graded:
        if refined and (w[0][0] not in ("rho", "phi") or w[0][1] < 1):
            continue
        for v, hv, iv in graded:
            if refined and v[0][0] != "eps":
                continue
            if hw + iw == hv + iv + 1 and hw - hv > 1:
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
    with pytest.raises(ValueError):
        enumerate_words(3, family_b(), 3, 0)


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


def test_diff_candidates_sorted_deterministically():
    a = diff_candidates(9, 3, 170, "refined")
    b = diff_candidates(9, 3, 170, "refined")
    assert a == b
    keys = [(canonical_key(c.source), canonical_key(c.target)) for c in a]
    assert keys == sorted(keys)
