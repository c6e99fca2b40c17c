"""The first shuffle product, projection pi and homology pass of the bar
oracle, kept as reference oracles.

``reference_shuffle`` walks the slots of every merged tensor, testing
each slot against the set of positions chosen for the left factors and
carrying a running parity of the right factors already placed.
``reference_pi_tensor`` treats the poly, exterior and truncated cases
separately, and the truncated case splits again by the parity of the
length.  ``reference_differential`` builds a differential d_s from the
adjacent factors of each basis tensor, with its own sign rule, and
``reference_homology`` ranks the d_s top-down in s, d_s with the leads
of d_{s+1} cleared.  ``bar.BarChain.__mul__``,
``bar._QuasiIsoCase._pi_tensor``, the coboundaries of ``bar.BarComplex``
and its bottom-up pass are compared with them.
"""

import itertools
from functools import cache

from hochhom.bar import BarChain, BigradedDims
from hochhom.fplinear import SparseFpMatrix, homology_dim


def reference_shuffle(left, right):
    """The shuffle product of two chains, slot by slot."""
    P = left.presentation
    acc = {}
    for ta, ca in left.terms.items():
        ea = [P.mono_total(m) + 1 for m in ta]
        for tb, cb in right.terms.items():
            eb = [P.mono_total(m) + 1 for m in tb]
            la, lb = len(ta), len(tb)
            for positions in itertools.combinations(range(la + lb), la):
                pos_set = frozenset(positions)
                merged = []
                ia = ib = 0
                sign_exp = 0
                b_prefix = 0  # parity sum of suspended degrees of b factors placed
                for slot in range(la + lb):
                    if slot in pos_set:
                        sign_exp += ea[ia] * b_prefix
                        merged.append(ta[ia])
                        ia += 1
                    else:
                        b_prefix += eb[ib]
                        merged.append(tb[ib])
                        ib += 1
                coeff = ca * cb * (-1 if sign_exp % 2 else 1)
                key = tuple(merged)
                acc[key] = acc.get(key, 0) + coeff
    return BarChain(P, acc)


def reference_pi_tensor(qc, tensor):
    """pi of one basis tensor for the _QuasiIsoCase qc, case by case."""
    s = len(tensor)
    exps = [mono[0] for mono in tensor]
    if qc.case == "poly":
        if s == 0:
            return {qc.model.unit: 1}
        if s == 1 and exps == [1]:
            return qc._gamma_element(0, delta=1)
        return None
    if qc.case == "exterior":
        # every factor is x itself
        return qc._gamma_element(s)
    m = qc.m
    if s % 2 == 0:
        pairs = list(zip(exps[0::2], exps[1::2]))
        if all(a + b == m for a, b in pairs):
            return qc._gamma_element(s // 2)
        return None
    if exps[0] != 1:
        return None
    pairs = list(zip(exps[1::2], exps[2::2]))
    if all(a + b == m for a, b in pairs):
        return qc._gamma_element((s - 1) // 2, delta=1)
    return None


def reference_differential(cx, s, t, w):
    """d_s of the BarComplex cx on one stratum, read from the adjacent
    factors of each basis tensor of monomials."""
    P = cx.presentation
    rows = {u: i for i, u in enumerate(cx.basis(s - 1, t, w))}
    sources = cx.basis(s, t, w)
    columns = {}
    for col, tensor in enumerate(sources):
        column = columns[col] = {}
        prefix = 0  # sum of (|a_j| + 1) for j < i
        for i in range(s - 1):
            a = tensor[i]
            res = P.multiply(a, tensor[i + 1])
            if res is not None:
                sign, ab = res
                if (prefix + P.mono_total(a)) % 2:
                    sign = -sign
                column[rows[tensor[:i] + (ab,) + tensor[i + 2:]]] = sign
            prefix += P.mono_total(a) + 1
    return SparseFpMatrix(P.p, len(rows), len(sources), columns)


def reference_homology(cx):
    """Homology of the BarComplex cx by the top-down pass over the
    differentials d_s."""
    # each d_s is built once, so d_{s+1} keeps the leads its own ranking
    # found when d_s is cleared by them
    @cache
    def diffs(s, t, w):
        return reference_differential(cx, s, t, w)

    dims = {}
    for s in range(cx.max_s, -1, -1):
        for t, w in cx.strata(s):
            dims[(s, t, w)] = homology_dim(diffs(s + 1, t, w), diffs(s, t, w))
    return BigradedDims(dims)
