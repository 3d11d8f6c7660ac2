"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Each test prints exactly one line of the form

    ACCEPTANCE CRITERION <k>: PASS|FAIL -- <short description>

and then asserts, so a red test always corresponds to a FAIL line.
Analyses and reports are cached at module scope because several
criteria look at the same catalog instances.
"""

import random
import time
from fractions import Fraction

from hochschild.catalog import catalog_instance, verify_invariant_relation
from hochschild.bar import (
    bar_cohomology_dims,
    bar_homology_dims,
    truncated_closed_form,
)
from hochschild.engine import Analysis, analyze
from hochschild.grading import detect_weights, euler_identity_holds
from hochschild.ideals import buchberger, divide, milnor_number
from hochschild.koszul import chain_complex, cochain_complex
from hochschild.linalg import rank_dense
from hochschild.poly import Polynomial
from reference import exponents_of_weight, s_polynomial, verify_infinite_part

CURVES = (["a%d-curve" % k for k in range(1, 6)]
          + ["d%d-curve" % k for k in (4, 5, 6)]
          + ["e6-curve", "e7-curve", "e8-curve"])
SURFACES = (["a%d-surface" % k for k in range(1, 6)]
            + ["d%d-surface" % k for k in (3, 4, 5, 6)]
            + ["e6-surface", "e7-surface", "e8-surface"])

_ANALYSES: dict = {}
_REPORTS: dict = {}


def analysis_for(name):
    if name not in _ANALYSES:
        _ANALYSES[name] = Analysis(catalog_instance(name).f)
    return _ANALYSES[name]


def report_for(name, direction):
    key = (name, direction)
    if key not in _REPORTS:
        _REPORTS[key] = analyze(catalog_instance(name).f, direction=direction,
                                analysis=analysis_for(name))
    return _REPORTS[key]


def _verdict(k, ok, text):
    print("ACCEPTANCE CRITERION %d: %s -- %s" % (k, "PASS" if ok else "FAIL",
                                                 text))
    assert ok


def _total_dim(degree):
    return sum(degree.oracle_graded.values())


def test_criterion_1_curve_cohomology():
    start = time.perf_counter()
    ok = True
    for name in CURVES:
        mu = catalog_instance(name).expected_milnor
        r = report_for(name, "cohomology")
        ok = ok and r.crosscheck == "agree" and r.milnor == mu
        for p in range(2, 7):
            deg = r.degrees[p]
            ok = ok and _total_dim(deg) == mu and deg.finite_dim == mu
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(1, ok, "curve cohomology dims equal the Milnor number for "
             "2 <= p <= 6 with classifier/oracle agreement (%.1fs, "
             "budget 60s)" % elapsed)


def test_criterion_2_curve_homology():
    start = time.perf_counter()
    ok = True
    for name in CURVES:
        mu = catalog_instance(name).expected_milnor
        r = report_for(name, "homology")
        ok = ok and r.crosscheck == "agree"
        for p in range(2, 7):
            ok = ok and _total_dim(r.degrees[p]) == mu
    elapsed = time.perf_counter() - start
    _verdict(2, ok, "curve homology dims equal the Milnor number for "
             "2 <= p <= 6 (%.1fs)" % elapsed)


def test_criterion_3_surfaces():
    start = time.perf_counter()
    ok = True
    for name in SURFACES:
        mu = catalog_instance(name).expected_milnor
        an = analysis_for(name)
        coh = report_for(name, "cohomology")
        hom = report_for(name, "homology")
        ok = ok and coh.crosscheck == "agree" and hom.crosscheck == "agree"
        ok = ok and coh.milnor == mu
        for p in range(3, 7):
            ok = ok and _total_dim(coh.degrees[p]) == mu
            ok = ok and _total_dim(hom.degrees[p]) == mu
        # degree 2 cohomology is A plus a finite part of dimension mu;
        # the free summand sits at weight shift 3d - (w1 + w2 + w3)
        d, ws = an.ws.degree, an.ws.weights
        h2 = coh.degrees[2]
        ok = ok and h2.finite_dim == mu
        ok = ok and verify_infinite_part(h2, an, 3 * d - sum(ws))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(3, ok, "surface (co)homology dims equal the Milnor number for "
             "3 <= p <= 6 and the degree-2 excess over A equals it "
             "(%.1fs, budget 300s)" % elapsed)


def _same_ideal(gens_a, gens_b):
    """Equal ideals have equal reduced bases."""
    return buchberger(gens_a) == buchberger(gens_b)


def test_criterion_4_groebner_goldens():
    z1, z2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    y1, y2, y3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
    ok = True
    for k in (4, 5, 6):
        f = z1 ** 2 * z2 + z2 ** (k - 1)
        ok = ok and _same_ideal(
            [f, f.diff(2)],
            [z1 ** 2 + (k - 1) * z2 ** (k - 2), z2 ** (k - 1)])
        ok = ok and _same_ideal(
            [f.diff(1), f.diff(2)],
            [z1 ** 2 + (k - 1) * z2 ** (k - 2), z1 * z2, z2 ** (k - 1)])
        g = y1 ** 2 + y2 ** 2 * y3 + y3 ** k
        ok = ok and _same_ideal(
            list(g.gradient()),
            [y3 ** k, y2 * y3, y2 ** 2 + k * y3 ** (k - 1), y1])
        ok = ok and _same_ideal(
            [g, g.diff(1), g.diff(3)],
            [y1, y3 ** k, y2 ** 2 + k * y3 ** (k - 1)])
    e7 = z1 ** 3 + z1 * z2 ** 3
    ok = ok and _same_ideal(
        [e7, e7.diff(1)],
        [3 * z1 ** 2 + z2 ** 3, z1 * z2 ** 3, z2 ** 6])
    ok = ok and _same_ideal(
        [e7.diff(1), e7.diff(2)],
        [3 * z1 ** 2 + z2 ** 3, z1 * z2 ** 2, z2 ** 5])
    _verdict(4, ok, "reduced Groebner bases match the pinned golden bases "
             "for the non-quasi-diagonal families (k in {4,5,6})")


def test_criterion_5_one_variable_triple_agreement():
    start = time.perf_counter()
    ok = True
    for k in range(1, 5):
        bar_coh = bar_cohomology_dims(k, 3)
        bar_hom = bar_homology_dims(k, 3)
        f = Polynomial(1, {(k,): 1})
        coh = analyze(f, direction="cohomology", p_max=3, mode="graded")
        hom = analyze(f, direction="homology", p_max=3, mode="graded")
        koszul_coh = [_total_dim(d) for d in coh.degrees]
        koszul_hom = [_total_dim(d) for d in hom.degrees]
        closed = [truncated_closed_form(k, p) for p in range(4)]
        ok = ok and bar_coh == koszul_coh == closed
        ok = ok and bar_hom == koszul_hom == closed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(5, ok, "bar resolution, Koszul oracle and closed forms agree "
             "for one-variable truncated algebras, k = 1..4, degrees 0..3 "
             "(%.1fs, budget 30s)" % elapsed)


def _macaulay_milnor(f):
    """Milnor number via per-weight rank counting only, independent of
    the standard-monomial enumeration: in each weight s, the Milnor
    algebra slice has dimension (#monomials of weight s) minus the rank
    of the multiplication rows m * d_i f written in the monomial basis.
    """
    ws = detect_weights(f)
    d, weights = ws.degree, ws.weights
    top = sum(d - 2 * w for w in weights)
    grad = list(f.gradient())
    total = 0
    for s in range(0, top + 1):
        cols = {e: j for j, e in enumerate(exponents_of_weight(weights, s))}
        if not cols:
            continue
        rows = []
        for i, g in enumerate(grad):
            for m in exponents_of_weight(weights, s - (d - weights[i])):
                prod = Polynomial(f.n, {m: Fraction(1)}) * g
                row = [Fraction(0)] * len(cols)
                for e, c in prod.terms.items():
                    row[cols[e]] = c
                rows.append(row)
        total += len(cols) - rank_dense(rows)
    return total


def _random_poly(rng, n, max_deg=6, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg // n) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-5, 5))
    return Polynomial(n, terms)


def test_criterion_6_structural_suite():
    start = time.perf_counter()
    ok = True
    for name in CURVES + SURFACES:
        f = catalog_instance(name).f
        ws = detect_weights(f)
        ok = ok and euler_identity_holds(f, ws)
        for build in (cochain_complex, chain_complex):
            cx = build(f, 4)
            cx.verify_d_squared_zero(cx.verify_entries())
            cx.assign_weights(ws)
        ok = ok and _macaulay_milnor(f) == milnor_number(f)
    # randomized division / Groebner invariants
    rng = random.Random(20260824)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        p = _random_poly(rng, n)
        gs = [g for g in (_random_poly(rng, n) for _ in range(2))
              if not g.is_zero()]
        if not gs or p.is_zero():
            continue
        q, r = divide(p, gs)
        ok = ok and sum((qi * gi for qi, gi in zip(q, gs)),
                        Polynomial.zero(n)) + r == p
        lts = [g.leading_term().exponents for g in gs]
        ok = ok and not any(
            any(all(a <= b for a, b in zip(lt, exps)) for lt in lts)
            for exps in r.terms)
        gb = buchberger(gs)
        ok = ok and all(gb.normal_form(g).is_zero() for g in gs)
        for i in range(len(gb.elements)):
            for j in range(i):
                sp = s_polynomial(gb.elements[i], gb.elements[j])
                ok = ok and gb.normal_form(sp).is_zero()
        checked += 1
    # invariant relations, including the degree-30 case
    for name in ("a3-surface", "d5-surface", "e6-surface", "e7-surface",
                 "e8-surface"):
        ok = ok and verify_invariant_relation(catalog_instance(name))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(6, ok, "d o d = 0 and entry structure for all catalog "
             "complexes, Euler identities, 200 randomized division/Groebner "
             "instances, rank-based Milnor cross-counts and the invariant "
             "relations all hold (%.1fs, budget 120s)" % elapsed)


def test_criterion_7_finite_parts_vanish_above_top_weight():
    ok = True
    for name in CURVES + SURFACES:
        for direction in ("cohomology", "homology"):
            r = report_for(name, direction)
            for deg in r.degrees:
                if deg.kind != "finite":
                    continue
                lo, hi = deg.window
                top = deg.top_weight if deg.top_weight is not None else lo - 1
                for s in range(top + 1, hi + 1):
                    ok = ok and deg.oracle_graded.get(s, 0) == 0
                if deg.finite_dim:
                    ok = ok and max(deg.oracle_graded) == top
    _verdict(7, ok, "every finite-dimensional degree has no graded "
             "contribution above its recorded top weight, out to the end "
             "of the scan window")
