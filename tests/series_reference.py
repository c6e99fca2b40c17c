"""The dense-list series product, kept as the reference for the packed one.

Each factor multiplies one list of coefficients in place, by
Python-level passes over the list: a shifted add per term of a factor,
a running sum per residue class of a free factor, a list comprehension
for a scale.
"""

from itertools import accumulate, repeat
from operator import add, mul


def times(coeffs, step, factor):
    """Multiply the dense list in place by sum_j factor[j] t^(j step),
    truncated to its length; factor[0] must be 1."""
    old, n = coeffs[:], len(coeffs)
    for j in range(1, min(len(factor), (n - 1) // step + 1)):
        shift, c = j * step, factor[j]
        terms = old[:n - shift] if c == 1 else map(mul, old[:n - shift], repeat(c))
        coeffs[shift:] = map(add, coeffs[shift:], terms)


def free_times(coeffs, step):
    """Multiply the dense list in place by 1/(1 - t^step): a running sum
    at stride step."""
    if step < 1:
        raise ValueError("free factor needs positive degree")
    for r in range(min(step, len(coeffs))):
        coeffs[r::step] = accumulate(coeffs[r::step])


def scale(coeffs, c):
    """Multiply the dense list in place by the constant c."""
    coeffs[:] = [x * c for x in coeffs]
