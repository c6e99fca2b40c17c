"""The first shuffle product and projection pi of the bar oracle, kept as
reference oracles.

``reference_shuffle`` walks the slots of every merged tensor, testing
each slot against the set of positions chosen for the left factors and
carrying a running parity of the right factors already placed.
``reference_pi_tensor`` treats the poly, exterior and truncated cases
separately, and the truncated case splits again by the parity of the
length.  ``bar.BarChain.__mul__`` and ``bar._QuasiIsoCase._pi_tensor``
are compared with them.
"""

import itertools

from hochhom.bar import BarChain


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
