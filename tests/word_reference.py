"""The first word enumerator, renderers and series product, kept as
reference oracles.

``sum_bounded_words`` lists every admissible shape and fills its rho/phi
slots with every exponent tuple of sum <= E; ``reference_words`` keeps
those (E with p^E <= bound) whose scalar total degree is within the
bound.  ``reference_series`` multiplies one class factor per listed
word.  ``reference_key``, ``reference_human`` and ``reference_canonical``
render and key a word letter by letter, with no memo.  All are slow, and
none shares the level step, the letter moves, the letter rule (_action)
or the letter memo of the code they are compared with.
"""

from functools import lru_cache

from hochhom.words import (
    X,
    classify,
    enumerate_shapes,
    exponent_bound,
    family_b,
    family_bdoubleprime,
    family_bprime,
    total_degree,
)

# The equivalence grid: families, then (N, longest length n) for each p.
# The height m of B''(m) enters degrees only through phi^k x, which has
# degree p^k (2 + m |x|), so some heights also get |x| > 0.  N = 1 lies
# below the base degree of B and of B' with |x| = 3; the later rows have
# exponent bounds E = 1, 2 and 4 or more, with n shortened as the
# reference's candidate count grows.
GRID_FAMILIES = ((family_b(), family_bprime(), family_bprime(3))
                 + tuple(family_bdoubleprime(m, x) for m, x in
                         ((2, 0), (3, 1), (4, 0), (4, 1), (6, 2), (9, 0))))
GRID = {
    2: ((1, 11), (3, 11), (7, 8), (40, 5)),
    3: ((1, 11), (8, 9), (26, 8), (90, 5)),
    5: ((1, 11), (24, 9), (124, 8), (400, 5)),
}


def grid_cases(families=GRID_FAMILIES):
    """Every (family, n, p, N) of the equivalence grid."""
    return [(fam, n, p, N) for p, rows in GRID.items() for N, longest in rows
            for fam in families for n in range(1, longest + 1)]


KEY_FORMS = {"mu": "u", "x": "x", "eps": "e", "rho": "r^", "phi": "l^"}
HUMAN_FORMS = {"mu": "μ", "x": "x", "eps": "ε", "rho": "ρ^", "phi": "φ^"}
LETTER_RANK = {"eps": 0, "rho": 1, "phi": 2, "mu": 3, "x": 3}


def reference_key(word):
    """Compact key syntax, each letter formed afresh."""
    return "".join(KEY_FORMS[l[0]] + "".join(map(str, l[1:])) for l in word)


def reference_human(word):
    """Unicode math syntax, ? for a blank exponent, each letter afresh."""
    return "".join(HUMAN_FORMS[l[0]] + "".join("?" if k is None else str(k)
                                               for k in l[1:])
                   for l in word)


def reference_canonical(word):
    """The canonical sort key: (rank of the kind, exponent or -1) per letter."""
    return tuple((LETTER_RANK[l[0]],
                  l[1] if len(l) > 1 and l[1] is not None else -1)
                 for l in word)


def sum_bounded_tuples(length, bound):
    if length == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in sum_bounded_tuples(length - 1, bound - head):
            yield (head,) + tail


def fill_exponents(shape, exps):
    out, i = [], 0
    for letter in shape:
        if letter[0] in ("rho", "phi"):
            out.append((letter[0], exps[i]))
            i += 1
        else:
            out.append(letter)
    return tuple(out)


@lru_cache(maxsize=None)
def sum_bounded_words(n, family, bound):
    """Every admissible length-n word with exponent sum <= bound: shapes x
    sum-bounded exponent tuples x fill, shape by shape."""
    return _filled_shapes(tuple(enumerate_shapes(n, family)), bound)


@lru_cache(maxsize=None)
def _filled_shapes(shapes, bound):
    """The shapes filled with every exponent tuple of sum <= bound, once
    for all the families that share these shapes."""
    out = []
    for shape in shapes:
        slots = sum(1 for letter in shape if letter[0] in ("rho", "phi"))
        out += [fill_exponents(shape, exps)
                for exps in sum_bounded_tuples(slots, bound)]
    return tuple(out)


@lru_cache(maxsize=None)
def word_degree(word, p, family):
    """The checked total_degree, once per (word, p, family): the grids list
    the same words under several degree bounds, and the series product
    reads the degrees that the filter computed."""
    return total_degree(word, p, family)


@lru_cache(maxsize=None)
def reference_words(n, family, p, max_degree):
    """Sum-bounded words, then a degree filter.  Cached, so the word and
    series grids share one enumeration."""
    bound = exponent_bound(max_degree, p)
    return tuple(sorted((w for w in sum_bounded_words(n, family, bound)
                         if word_degree(w, p, family) <= max_degree),
                        key=reference_canonical))


def reference_series(family, n, p, max_degree):
    """Dense coefficients of the product of one factor per length-n word."""
    coeffs = [1] + [0] * max_degree
    for w in reference_words(n, family, p, max_degree):
        if w == (X,):
            continue  # the bare x belongs to the base ring
        d, kind = word_degree(w, p, family), classify(w, family)
        if kind == "free":
            terms = range(0, max_degree + 1, d)
        elif kind == "exterior":
            terms = (0, d)
        else:
            terms = range(0, p * d, d)
        out = [0] * (max_degree + 1)
        for i, c in enumerate(coeffs):
            for j in terms:
                if i + j <= max_degree:
                    out[i + j] += c
        coeffs = out
    return coeffs
