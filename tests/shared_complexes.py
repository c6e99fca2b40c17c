"""Bar complexes that more than one test reads, built once per process.

``weight_graded_complex(p)`` is the bar complex of F_p[x]/x^p with
|x| = 0 and weight 1, for s <= 13 and weight <= 13 (p - 1): C5 compares
its homology with the closed form, and the rank test compares the rank
of each of its differentials with the Markowitz reference.  The complex
is read, never changed, so the tests can share it.
"""

from functools import cache

from hochhom.bar import AlgebraPresentation, BarComplex, truncated


@cache
def weight_graded_complex(p):
    alg = AlgebraPresentation(p, (truncated("x", p, 0, weight=1),))
    return BarComplex(alg, 13, 0, 13 * (p - 1))
