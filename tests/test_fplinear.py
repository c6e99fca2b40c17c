"""Exact sparse linear algebra over F_p."""

import random

import numpy as np
import pytest

from hochhom.bar import (
    AlgebraPresentation,
    BarComplex,
    exterior,
    truncated,
)
from hochhom.fplinear import (
    CompositionError,
    SparseFpMatrix,
    homology_dim,
)

from fplinear_reference import markowitz_rank
from shared_complexes import weight_graded_complex


def dense(p, rows):
    """The matrix with these dense rows."""
    ncols = len(rows[0]) if rows else 0
    columns = {j: {i: row[j] for i, row in enumerate(rows)}
               for j in range(ncols)}
    return SparseFpMatrix(p, len(rows), ncols, columns)


def dense_rank_modp(rows, p):
    """Independent oracle: dense Gaussian elimination on numpy int arrays."""
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if a[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p) if p > 2 else int(a[rank, col])
        a[rank] = (a[rank] * inv) % p
        for r in range(nrows):
            if r != rank and a[r, col] % p:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def test_mixed_moduli_rejected():
    m3 = dense(3, [[1, 0], [0, 1]])
    m5 = dense(5, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m3.compose(m5)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        SparseFpMatrix(9, 2, 2)
    with pytest.raises(ValueError):
        SparseFpMatrix(4, 2, 2)


def test_matrix_construction():
    m = dense(3, [[1, 2], [2, 1]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.nnz == 4
    entries = dict(m.items())
    assert entries[(0, 1)] == 2
    z = SparseFpMatrix(5, 3, 4)
    assert list(z.items()) == [] and z.nnz == 0
    assert repr(m) == "SparseFpMatrix(p=3, 2x2, nnz=4)"
    eye = SparseFpMatrix(2, 3, 3, {i: {i: 1} for i in range(3)})
    assert eye.rank() == 3
    # entries reduced mod p, zeros dropped
    m2 = dense(3, [[3, 4], [0, 6]])
    assert list(m2.items()) == [((0, 1), 1)]
    with pytest.raises(IndexError):
        SparseFpMatrix(3, 2, 2, {0: {2: 1}})
    # the modulus and the entries are ints, not floats or bools; items()
    # reads the entries back as ints
    with pytest.raises(TypeError):
        SparseFpMatrix(3, 2, 2, {0: {0: 1.0}})
    with pytest.raises(TypeError,
                       match=r"^entry \(0, 0\) is True, not an int$"):
        SparseFpMatrix(3, 2, 2, {0: {0: True}})
    for modulus in (3.0, True):
        with pytest.raises(TypeError,
                           match=rf"^modulus {modulus!r} is not an int$"):
            SparseFpMatrix(modulus, 2, 2, {0: {0: 4}})
    assert type(entries[(1, 1)]) is int and entries[(1, 0)] == 2


def test_matrix_entries_default_to_none_and_are_all_checked():
    # no columns gives a fresh zero matrix; given entries are each
    # bounds-, type- and mod-p-checked, wherever they sit in the columns
    a, b = SparseFpMatrix(3, 2, 2), SparseFpMatrix(3, 2, 2, None)
    assert list(a.items()) == [] and a == b
    good = {0: {0: 1}, 1: {1: 5}}
    assert dict(SparseFpMatrix(3, 2, 2, good).items()) == {(0, 0): 1,
                                                           (1, 1): 2}
    with pytest.raises(IndexError):
        SparseFpMatrix(3, 2, 2, {**good, 2: {0: 1}})  # beside good columns
    with pytest.raises(TypeError):
        SparseFpMatrix(3, 2, 2, {**good, 1: {1: 5, 0: "1"}})


def test_column_path_checks_every_entry_like_the_mapping_path():
    # the constructor takes columns; each lone bad entry is still caught
    for bad in ({0: {2: 1}},  # row 2
                {2: {0: 1}},  # column 2
                {0: {-1: 1}}):
        with pytest.raises(IndexError):
            SparseFpMatrix(3, 2, 2, bad)
    for bad in ({1: {0: 1.0}},
                {1: {0: 1, 1: "1"}}):
        with pytest.raises(TypeError):
            SparseFpMatrix(3, 2, 2, bad)


def test_column_path_reduces_mod_p_and_stores_no_empty_column():
    # 3 and 6 are 0 mod 3 and column 1 is empty: neither is stored, so
    # the matrix equals one built from its one entry
    m = SparseFpMatrix(3, 2, 3, {0: {0: 4, 1: 3}, 1: {}, 2: {1: 6}})
    expected = SparseFpMatrix(3, 2, 3, {0: {0: 1}})
    assert list(m.items()) == [((0, 0), 1)] and m.nnz == 1
    assert m == expected
    zero = SparseFpMatrix(5, 3, 2, {0: {2: 5}, 1: {}})
    assert zero == SparseFpMatrix(5, 3, 2)
    # the caller's columns are copied, not shared
    cols = {0: {0: 1}}
    m = SparseFpMatrix(2, 1, 1, cols)
    cols[0][0] = 0
    assert list(m.items()) == [((0, 0), 1)]


def test_rank_small_examples():
    # [[1,2],[2,1]] over F_3: second row is twice the first
    assert dense(3, [[1, 2], [2, 1]]).rank() == 1
    # same matrix over F_5 is invertible
    assert dense(5, [[1, 2], [2, 1]]).rank() == 2
    assert dense(2, [[1, 1], [1, 1]]).rank() == 1
    assert SparseFpMatrix(7, 4, 5).rank() == 0
    m = dense(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2
    assert m.cols - m.rank() == 1


def test_rank_against_dense_oracle():
    rng = random.Random(20240)
    for p in (2, 3, 5):
        for _ in range(60):
            nr = rng.randint(1, 7)
            nc = rng.randint(1, 7)
            rows = [[rng.randint(0, p - 1) if rng.random() < 0.6 else 0
                     for _ in range(nc)] for _ in range(nr)]
            m = dense(p, rows)
            assert m.rank() == dense_rank_modp(rows, p), (p, rows)


def test_rank_invariances():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice((2, 3, 5))
        nr, nc = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[rng.randint(0, p - 1) for _ in range(nc)] for _ in range(nr)]
        m = dense(p, rows)
        perm = list(range(nr))
        rng.shuffle(perm)
        shuffled = dense(p, [rows[i] for i in perm])
        assert m.rank() == shuffled.rank()
        assert m.rank() == dense(p, [list(c) for c in zip(*rows)]).rank()
        assert m.cols - m.rank() == nc - dense_rank_modp(rows, p)


def test_compose():
    a = dense(5, [[1, 2], [3, 4]])
    b = dense(5, [[0, 1], [1, 0]])
    ab = a.compose(b)
    assert ab == dense(5, [[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a.compose(SparseFpMatrix(5, 3, 2))


def test_homology_dim_exact_sequence():
    # F_2: d_in = [1 1]^T, d_out = [1 1]; middle dim 2, homology 0
    d_in = dense(2, [[1], [1]])
    d_out = dense(2, [[1, 1]])
    assert homology_dim(d_in, d_out) == 0
    # zero maps: homology = full middle dimension
    z_in = SparseFpMatrix(3, 4, 2)
    z_out = SparseFpMatrix(3, 5, 4)
    assert homology_dim(z_in, z_out) == 4


def test_homology_dim_rejects_noncomplex():
    d_in = dense(3, [[1], [0]])
    d_out = dense(3, [[1, 0]])
    with pytest.raises(CompositionError):
        homology_dim(d_in, d_out)  # d_out o d_in = [1] != 0
    with pytest.raises(ValueError):
        homology_dim(SparseFpMatrix(3, 4, 2),
                     SparseFpMatrix(3, 5, 3))
    with pytest.raises(ValueError):
        homology_dim(SparseFpMatrix(3, 2, 2), SparseFpMatrix(5, 2, 2))


def test_homology_dim_checks_the_composite_before_ranking():
    # d_in is ranked already, as the bottom-up pass of a bar complex
    # leaves it; a non-complex must still be refused, before d_out is
    # ranked
    d_in = dense(3, [[1], [0]])
    d_out = dense(3, [[1, 0]])
    assert d_in.rank() == 1
    with pytest.raises(CompositionError):
        homology_dim(d_in, d_out)
    assert d_out._rank is None  # no rank computed
    assert d_out.rank() == 1


def test_homology_dim_checks_the_composite_on_every_call():
    # homology_dim ranks only once d_out o d_in = 0 is checked, and a
    # stored rank skips no check
    eye = SparseFpMatrix(3, 2, 2, {0: {0: 1}, 1: {1: 1}})
    with pytest.raises(CompositionError):
        homology_dim(eye, eye)
    assert eye._rank is None
    assert homology_dim(SparseFpMatrix(3, 2, 4), eye) == 0  # 2 - 2 - 0
    assert eye.rank() == 2
    with pytest.raises(CompositionError):
        homology_dim(eye, eye)
    with pytest.raises(ValueError):
        homology_dim(SparseFpMatrix(5, 2, 1), eye)
    assert eye.rank() == 2
    # [1 1] o (1, 2)^T = 0 mod 3: both columns of d_out are ranked, 1
    d_out = dense(3, [[1, 1]])
    assert homology_dim(dense(3, [[1], [2]]), d_out) == 0  # 2 - 1 - 1
    assert d_out.rank() == 1 == dense(3, [[1, 1]]).rank()


def test_homology_dim_raises_exactly_when_the_product_is_nonzero():
    # random small pairs, half of them with d_out's rows in the left kernel
    # of d_in, where the integer sums of the product are often nonzero
    # multiples of p; the product-free check must agree with compose
    rng = random.Random(2024)
    seen = {"nonzero": 0, "multiple of p": 0, "zero": 0}
    for p in (2, 3, 5):
        for trial in range(60):
            inner, ncols = rng.randint(1, 3), rng.randint(1, 3)
            in_rows = [[rng.randint(0, p - 1) for _ in range(ncols)]
                       for _ in range(inner)]
            candidates = list(_all_vectors(p, inner))
            if trial % 2:
                candidates = [v for v in candidates
                              if all(sum(v[k] * in_rows[k][c]
                                         for k in range(inner)) % p == 0
                                     for c in range(ncols))]
            out_rows = [list(rng.choice(candidates))
                        for _ in range(rng.randint(1, 3))]
            sums = [sum(row[k] * in_rows[k][c] for k in range(inner))
                    for row in out_rows for c in range(ncols)]
            kind = ("nonzero" if any(v % p for v in sums) else
                    "multiple of p" if any(sums) else "zero")
            seen[kind] += 1
            d_out, d_in = dense(p, out_rows), dense(p, in_rows)
            empty = SparseFpMatrix(p, d_out.rows, d_in.cols)
            assert (d_out.compose(d_in) == empty) == (kind != "nonzero")
            if kind == "nonzero":
                with pytest.raises(CompositionError):
                    homology_dim(d_in, d_out)
                assert d_out._rank is None and d_in._rank is None
            else:
                r_out = dense_rank_modp(out_rows, p)
                r_in = dense_rank_modp(in_rows, p)
                assert homology_dim(d_in, d_out) == inner - r_out - r_in
                assert d_out._rank == r_out  # the memoised rank
                assert d_in._rank == r_in
    assert min(seen.values()) > 10, seen


def test_product_free_check_keeps_the_compose_errors():
    # mixed moduli and shapes raise the plain ValueError of compose, not
    # CompositionError, from homology_dim as from compose
    m3 = dense(3, [[1, 0], [0, 1]])
    bad = [(dense(5, [[1], [1]]), "cannot compose matrices over different "
                                  "primes"),
           (dense(3, [[1], [1], [1]]), r"shape mismatch: 2x2 o 3x1")]
    for d_in, message in bad:
        for call in (m3.compose, lambda d_in: homology_dim(d_in, m3)):
            with pytest.raises(ValueError, match=message) as exc:
                call(d_in)
            assert type(exc.value) is ValueError


def test_homology_dim_random_complexes():
    # build complexes as d_in = A*B, d_out = C with C*A*B = 0 by killing C*A
    rng = random.Random(99)
    for _ in range(40):
        p = rng.choice((2, 3))
        mid = rng.randint(2, 5)
        nc = rng.randint(1, 4)
        d_in_rows = [[rng.randint(0, p - 1) for _ in range(nc)]
                     for _ in range(mid)]
        d_in = dense(p, d_in_rows)
        # d_out rows drawn from the left kernel of d_in, brute force over F_p^mid
        kernel_rows = []
        for vec in _all_vectors(p, mid):
            if all(sum(vec[r] * d_in_rows[r][c] for r in range(mid)) % p == 0
                   for c in range(d_in.cols)):
                kernel_rows.append(list(vec))
        if not kernel_rows:
            kernel_rows = [[0] * mid]
        d_out = dense(p, kernel_rows)
        h = homology_dim(d_in, d_out)
        # a fresh d_out gives the same rank
        assert h == d_out.cols - dense(p, kernel_rows).rank() - d_in.rank()
        assert 0 <= h <= mid


def _all_vectors(p, n):
    if n == 0:
        yield ()
        return
    for rest in _all_vectors(p, n - 1):
        for v in range(p):
            yield (v,) + rest


def test_matrix_equality_and_items():
    a = dense(3, [[1, 0], [0, 2]])
    b = SparseFpMatrix(3, 2, 2, {1: {1: 2}, 0: {0: 4}})
    assert a == b
    assert list(a.items()) == [((0, 0), 1), ((1, 1), 2)]


def _assert_rank_matches(m, expected, label):
    assert m.rank() == expected, label
    assert m.rank() == expected, label  # the second call reads the memo


def test_rank_matches_markowitz_reference_on_bar_blocks():
    # the C5 complexes (weight-graded height-p algebras in degree 0,
    # s <= 13), F_5[x]/x^5 and F_3[x]/x^3 (x) Lambda(y) at small s
    def x(p):
        return truncated("x", p, 0, weight=1)

    complexes = (
        weight_graded_complex(2),
        weight_graded_complex(3),
        BarComplex(AlgebraPresentation(5, (x(5),)), 5, 0, 20),
        BarComplex(AlgebraPresentation(3, (x(3), exterior("y", 1, weight=1))),
                   5, 9, 8),
    )
    for cx in complexes:
        dims = cx.homology().as_dict()
        chains = {(t, w) for s in range(cx.max_s + 1) for t, w in cx.strata(s)}
        for t, w in sorted(chains):
            # coboundary() builds a fresh delta^s; cols - r_s - r_{s-1}
            # from the reference ranks must give the build's homology
            r_below = 0  # delta^{-1} has no columns
            for s in range(cx.max_s + 1):
                d = cx.coboundary(s, t, w)
                label = (cx.presentation.p, s, t, w)
                r = markowitz_rank(d)
                _assert_rank_matches(d, r, label)
                assert d.cols - r - r_below == dims.get((s, t, w), 0), label
                r_below = r


def test_rank_matches_markowitz_reference_on_random_shapes():
    rng = random.Random(4096)
    shapes = ((0, 0), (0, 6), (6, 0), (1, 15), (15, 1), (4, 13), (13, 4),
              (9, 9), (20, 20))
    for p in (2, 3, 5, 7):
        for nr, nc in shapes:
            for density in (0.1, 0.3, 0.8):
                columns = {}
                for r in range(nr):
                    for c in range(nc):
                        if rng.random() < density:
                            columns.setdefault(c, {})[r] = rng.randint(1, p - 1)
                m = SparseFpMatrix(p, nr, nc, columns)
                _assert_rank_matches(m, markowitz_rank(m), (p, nr, nc, density))
        # row-dependent: extra rows are combinations of k base rows
        for _ in range(12):
            k, extra, nc = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 10)
            base = [[rng.randint(0, p - 1) if rng.random() < 0.5 else 0
                     for _ in range(nc)] for _ in range(k)]
            coeffs = [[rng.randint(0, p - 1) for _ in base]
                      for _ in range(extra)]
            combos = [[sum(a * row[j] for a, row in zip(cs, base)) % p
                       for j in range(nc)] for cs in coeffs]
            rows = base + combos
            rng.shuffle(rows)
            m = dense(p, rows)
            _assert_rank_matches(m, markowitz_rank(m), (p, rows))
            assert m.rank() <= k
