"""Bar complexes that more than one test reads, built once per process.

``weight_graded_complex(p)`` is the bar complex of F_p[x]/x^p with
|x| = 0 and weight 1, for s <= 13 and weight <= 13 (p - 1): C5 compares
its homology with the closed form, and the rank test compares the rank
of each of its differentials with the Markowitz reference.

``grid_complexes(p)`` are the bar complexes of GRID at p, on which
``tests/test_bar.py`` checks the build: the differentials column by
column, the basis order, and the homology against the top-down pass.

The complexes are read, never changed, so the tests can share them.
"""

from functools import cache

from hochhom.bar import (AlgebraPresentation, BarComplex, exterior,
                         polynomial, truncated)

# (generators, max_s, max_internal, max_weight) of the bar complexes that
# the build is checked on, at every p of a test
GRID = [((truncated("x", h, 2),), 5, 18, None) for h in (2, 3, 4, 9)]
GRID += [((truncated("x", h, 0, weight=1),), 5, 0, 10) for h in (2, 3, 4, 9)]
GRID += [
    ((polynomial("x", 2),), 5, 12, None),
    ((polynomial("x", 0, weight=1),), 5, 0, 8),
    ((exterior("x", 3),), 5, 15, None),
    ((exterior("a", 3), exterior("b", 5)), 4, 16, None),
    ((truncated("x", 3, 0, weight=1), exterior("y", 1, weight=1)), 5, 6, 8),
]


@cache
def weight_graded_complex(p):
    alg = AlgebraPresentation(p, (truncated("x", p, 0, weight=1),))
    return BarComplex(alg, 13, 0, 13 * (p - 1))


@cache
def grid_complexes(p):
    return tuple(BarComplex(AlgebraPresentation(p, gens), *window)
                 for gens, *window in GRID)
