"""The first monomial counter of the Tor rewrite, kept as a reference oracle.

``reference_presentation_dims`` multiplies in one generator at a time:
it lists the generator's powers inside the bounds and adds each of them
to every (hom, internal, weight) entry counted so far, building a fresh
table per generator and keeping what stays inside the window.  It is
slow on long presentations, and it shares neither the degree levels nor
the in-place descent of ``bar.presentation_dims`` it is compared with.
"""

from hochhom.bar import BigradedDims


def reference_presentation_dims(presentation, max_total, max_weight=None):
    dims = {(0, 0, 0): 1}
    for g in presentation.generators:
        if g.total == 0 and g.cap is None and max_weight is None:
            raise ValueError(
                f"generator {g.name} has degree 0: a weight bound is required")
        powers = []
        e = 0
        while True:
            if g.cap is not None and e > g.cap:
                break
            if e * g.total > max_total:
                break
            if max_weight is not None and e * g.weight > max_weight:
                break
            powers.append((e * g.hom, e * g.internal, e * g.weight))
            e += 1
        nxt = {}
        for (h, i, w), dim in dims.items():
            for dh, di, dw in powers:
                h2, i2, w2 = h + dh, i + di, w + dw
                if h2 + i2 > max_total:
                    continue
                if max_weight is not None and w2 > max_weight:
                    continue
                key = (h2, i2, w2)
                nxt[key] = nxt.get(key, 0) + dim
        dims = nxt
    return BigradedDims(dims)
