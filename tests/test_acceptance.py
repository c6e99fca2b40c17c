"""Acceptance gate.  One test per criterion; each prints a PASS/FAIL line
to the live terminal (capture disabled) before asserting."""

import random
import time

from hochhom import cli
from hochhom.bar import (
    AlgebraPresentation,
    BarChain,
    BarComplex,
    bar_homology,
    iterated_tor,
    polynomial,
    truncated,
    verify_quasi_iso,
)
from hochhom.series import (
    GroupSpec,
    family_series,
    hh_laurent,
    hh_polynomial,
    hh_truncated,
    thh_fp,
    thh_group_algebra,
)
from hochhom.words import (
    diff_candidates,
    family_b,
    render_key,
    verify_powerwords,
)


def report(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"{cid}: {detail}"


def test_c1_degree_drop_pair_found(capsys):
    start = time.perf_counter()
    pair = ("l^1r^0er^0el^0r^0eu", "er^0el^0r^2er^0eu")
    hits = {}
    for mode in ("raw", "refined"):
        cands = diff_candidates(9, 3, 170, mode)
        hits[mode] = any(
            (render_key(c.source), render_key(c.target)) == pair
            and (c.source_bidegree.hom, c.source_bidegree.internal) == (6, 162)
            and (c.target_bidegree.hom, c.target_bidegree.internal) == (1, 166)
            and c.drop == 5
            for c in cands)
    elapsed = time.perf_counter() - start
    ok = hits["raw"] and hits["refined"] and elapsed < 60
    report(capsys, "C1", ok,
           f"length-9 search at p=3 finds the (6,162) -> (1,166) drop-5 pair "
           f"in raw and refined modes ({elapsed:.2f}s)")


def test_c2_refined_empty_below_length_nine(capsys):
    start = time.perf_counter()
    refined_counts = {}
    raw_counts = {}
    for n in range(2, 9):
        refined_counts[n] = len(diff_candidates(n, 3, 200, "refined"))
        raw_counts[n] = len(diff_candidates(n, 3, 200, "raw"))
    elapsed = time.perf_counter() - start
    ok = all(c == 0 for c in refined_counts.values()) and elapsed < 300
    raw_note = ", ".join(f"n={n}:{c}" for n, c in raw_counts.items())
    report(capsys, "C2", ok,
           f"refined search is empty for lengths 2..8 at p=3 up to degree "
           f"200 ({elapsed:.2f}s; raw counts as observation: {raw_note})")


def test_c3_powerword_uniqueness(capsys):
    ok3 = verify_powerwords(3, 3).ok
    ok5 = verify_powerwords(5, 2).ok
    ok = ok3 and ok5
    report(capsys, "C3", ok,
           "rho^k eps mu is the unique short word of total degree 4p^k "
           "(p=3, k<=3 and p=5, k<=2)")


def test_c4_quasi_isomorphisms(capsys):
    start = time.perf_counter()
    cases = [("poly", 2, 2, None), ("poly", 2, 3, None),
             ("truncated", 2, 2, 2), ("truncated", 2, 3, 3),
             ("exterior", 3, 3, None)]
    failures = []
    for case, xd, p, m in cases:
        rep = verify_quasi_iso(case, xd, p, m, max_s=5, max_internal=16)
        if not rep.ok:
            failures.append((case, xd, p, m, [c for c in rep.checks
                                              if not c[1]]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120
    report(capsys, "C4", ok,
           f"explicit maps to the small models are quasi-isomorphisms and "
           f"multiplicative for {len(cases)} cases through s=5 "
           f"({elapsed:.2f}s)" + (f"; failures: {failures}" if failures
                                  else ""))


def test_c5_closed_forms_match_homology_oracles(capsys):
    problems = []
    for p in (2, 3):
        for n in range(1, 6):
            closed = family_series(family_b(), n, p, 32)
            start = AlgebraPresentation(p, (polynomial("u", 2),))
            oracle = iterated_tor(start, n - 1, 32).total_series(32)
            if any(closed.coeffs.get(d, 0) != oracle.get(d, 0)
                   for d in range(33)):
                problems.append(f"family B p={p} n={n}")
    for p in (2, 3):
        closed = hh_truncated(1, p, 1, 12)
        alg = AlgebraPresentation(p, (truncated("x", p, 0, weight=1),))
        hom = bar_homology(alg, 13, 0, 13 * (p - 1))
        per_degree = {}
        for (h, i, w), d in hom.items():
            per_degree[h] = per_degree.get(h, 0) + d
        if any(closed.coeffs.get(d, 0) != per_degree.get(d, 0)
               for d in range(13)):
            problems.append(f"weight-graded truncated p={p}")
    ok = not problems
    report(capsys, "C5", ok,
           "closed-form series match the iterated Tor rewrite (p=2,3; "
           "n<=5; degree<=32) and the weight-graded bar homology of the "
           "height-p algebra in degree 0" +
           (f"; mismatches: {problems}" if problems else ""))


def test_c6_fixed_point_series(capsys):
    checks = []
    s = thh_fp(2, 2, 12)
    checks.append(dict(s.coeffs) == {0: 1, 3: 1})
    s = thh_fp(3, 2, 16)
    checks.append(dict(s.coeffs) == {0: 1, 4: 1, 8: 1, 12: 1, 16: 1})
    for p in (2, 3):
        s = hh_polynomial(2, p, 24)
        checks.append(dict(s.coeffs) == {2 * j: 1 for j in range(13)})
    ok = all(checks)
    report(capsys, "C6", ok,
           "ground-field and polynomial coefficient series match their "
           "frozen values (exterior class at degree 3, divided tower at "
           "degree 4, all-ones in even degrees)")


def test_c7_group_algebra_example(capsys):
    n, p, N = 2, 3, 12
    got = thh_group_algebra(GroupSpec.parse("Z x Z/6"), n, p, N)
    frozen = {0: 2, 2: 4, 3: 4, 4: 6, 5: 8, 6: 10, 7: 14, 8: 16, 9: 20,
              10: 26, 11: 30, 12: 36}
    # independent assembly: convolve the published factors by hand
    def tolist(s):
        return [s.coefficient(d) for d in range(N + 1)]

    def conv(a, b):
        out = [0] * (N + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= N:
                    out[i + j] += x * y
        return out

    manual = conv(conv(conv(tolist(thh_fp(n, p, N)),
                            tolist(hh_laurent(n, p, N))),
                       tolist(hh_truncated(n, p, 1, N))),
                  [2] + [0] * N)
    ok = dict(got.coeffs) == frozen and tolist(got) == manual
    report(capsys, "C7", ok,
           "the rank-one times Z/6 example reproduces the frozen table and "
           "an independent hand convolution of its four factors")


def test_c8_structural_invariants(capsys):
    # d o d = 0 is asserted stratum by stratum during construction
    built = 0
    for p, alg in ((2, AlgebraPresentation(2, (truncated("x", 2, 2),))),
                   (3, AlgebraPresentation(3, (truncated("x", 3, 2),))),
                   (3, AlgebraPresentation(3, (polynomial("u", 2),))),
                   (5, AlgebraPresentation(5, (polynomial("u", 2),)))):
        BarComplex(alg, 5, 14)
        built += 1

    # shuffle product: graded commutativity and Leibniz on sampled pairs
    rng = random.Random(20260819)
    P = AlgebraPresentation(3, (polynomial("u", 2),))
    Q = AlgebraPresentation(2, (polynomial("x", 1),))
    pairs = 0
    sign_ok = True
    leibniz_ok = True
    for pres in (P, Q):
        mons = pres.augmentation_monomials(5, None)

        def rand_chain():
            tensor = tuple(rng.choice(mons)
                           for _ in range(rng.randint(0, 3)))
            return BarChain.from_tensor(pres, tensor)

        def sdeg(chain):
            tensor = next(iter(chain.terms))
            return len(tensor) + sum(pres.mono_total(m) for m in tensor)

        for _ in range(550):
            a, b = rand_chain(), rand_chain()
            da, db = sdeg(a), sdeg(b)
            sign = -1 if (da % 2) and (db % 2) else 1
            if not (a * b - (b * a).scale(sign)).is_zero():
                sign_ok = False
            lhs = (a * b).boundary()
            rhs = a.boundary() * b + (a * b.boundary()).scale(
                -1 if da % 2 else 1)
            if not (lhs - rhs).is_zero():
                leibniz_ok = False
            pairs += 1

    # identical run configuration gives byte-identical reports
    import io
    from contextlib import redirect_stdout, redirect_stderr
    outs = []
    for _ in range(2):
        buf, sink = io.StringIO(), io.StringIO()
        with redirect_stdout(buf), redirect_stderr(sink):
            cli.main(["diff-search", "--p", "3", "--n", "9",
                      "--max-degree", "170", "--mode", "refined"])
        outs.append(buf.getvalue())
    deterministic = outs[0] == outs[1] and len(outs[0]) > 0

    ok = built == 4 and sign_ok and leibniz_ok and pairs >= 1000 \
        and deterministic
    report(capsys, "C8", ok,
           f"d o d = 0 on {built} complexes, shuffle sign and Leibniz rules "
           f"hold on {pairs} sampled pairs, and repeated runs are "
           f"byte-identical")
