import json
import random
from fractions import Fraction
from itertools import product
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import cli, engine, grading, ideals
from hochschild.catalog import catalog_instance, catalog_names
from hochschild.engine import (
    Analysis,
    PreconditionError,
    _degree,
    _module_totals,
    _strand_blocks,
    analyze,
    kernel_description,
)
from hochschild.grading import NotWeightedHomogeneousError
from hochschild.ideals import (
    INFINITE,
    buchberger,
    colon_ideal,
    standard_monomials,
)
from hochschild.koszul import KoszulComplex, chain_complex, cochain_complex
from hochschild.linalg import rank_dense, rank_sparse
from hochschild.parsing import parse_polynomial
from hochschild.poly import Polynomial
from hochschild.series import poincare_dims
from reference import verify_infinite_part
from test_koszul import _dense


def curve_a(k):
    return Polynomial(2, {(k + 1, 0): 1, (0, 2): 1})


def curve_d(k):
    return Polynomial(2, {(2, 1): 1, (0, k - 1): 1})


def surface_d(k):
    return Polynomial(3, {(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, k): 1})


def test_a2_curve_cohomology_details():
    r = analyze(curve_a(2))
    assert r.crosscheck == "agree"
    assert r.milnor == 2
    assert [d.structure for d in r.degrees] == \
        ["A", "A + C^2", "C^2", "C^2", "C^2", "C^2", "C^2"]
    # weights (2, 3), degree 6: Milnor part lives at weights 0 and 2,
    # the odd colon-quotient part at weights 6 and 8
    assert r.degrees[2].oracle_graded == {0: 1, 2: 1}
    assert r.degrees[3].oracle_graded == {6: 1, 8: 1}
    assert r.degrees[3].top_weight == 8


def test_a2_curve_homology_details():
    r = analyze(curve_a(2), direction="homology")
    assert r.crosscheck == "agree"
    assert [d.structure for d in r.degrees][:3] == \
        ["A", "A^2/(A grad f)", "C^2"]
    # HH_2 = Milnor algebra shifted by w1 + w2 = 5
    assert r.degrees[2].oracle_graded == {5: 1, 7: 1}


def test_route_for_d_curve():
    an = Analysis(curve_d(5))
    route = an.route()
    assert route is not None
    # J = <f, d2 f> has colength 10, K has colength 5
    assert len(route.basis) == 5


def test_route_uses_non_zero_divisor_back_substitution():
    # E7 curve: d2 f is a zero divisor, so the route must solve for g2
    f = Polynomial(2, {(3, 0): 1, (1, 3): 1})
    an = Analysis(f)
    route = an.route()
    assert route is not None
    assert route.solved == 2    # so the partial of z1 is back-substituted
    assert len(route.basis) == 7


def test_shared_analysis_between_directions():
    an = Analysis(surface_d(4))
    coh = analyze(an.f, direction="cohomology", analysis=an)
    hom = analyze(an.f, direction="homology", analysis=an)
    assert coh.crosscheck == "agree" and hom.crosscheck == "agree"
    assert coh.degrees[3].finite_dim == hom.degrees[3].finite_dim == 5


def test_verify_infinite_part_h1_curve():
    an = Analysis(curve_a(2))
    r = analyze(an.f, analysis=an)
    d, w = an.ws.degree, an.ws.weights
    assert verify_infinite_part(r.degrees[0], an, 0)
    assert verify_infinite_part(r.degrees[1], an, 2 * d - w[0] - w[1])
    # the wrong shift must not validate
    assert not verify_infinite_part(r.degrees[1], an, 0)


def test_kernel_families_verified():
    for f in (curve_a(3), curve_d(5), surface_d(4),
              Polynomial(3, {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 4): 1}),
              Polynomial(2, {(3, 0): 1, (1, 3): 1})):
        desc = kernel_description(Analysis(f))
        assert desc.verified
        assert desc.families


def test_kernel_of_one_variable_is_the_euler_family():
    # f = z1^4: g * f' = 4 g z1^3 vanishes mod f exactly on z1*A
    an = Analysis(parse_polynomial("z1^4"))
    desc = analyze(an.f, analysis=an).kernel
    z1 = Polynomial.variable(1, 1)
    assert [(fam.name, fam.vector) for fam in desc.families] == \
        [("euler", (z1,))]
    assert desc.verified
    for j in range(4):
        g = z1 ** j
        assert an.gb_f.normal_form(g * an.grad[0]).is_zero() == (j >= 1)


def test_kernel_families_d_surface_names():
    desc = kernel_description(Analysis(surface_d(5)))
    names = {fam.name for fam in desc.families}
    assert {"grad_wedge_e1", "grad_wedge_e2", "grad_wedge_e3",
            "d_surface_b", "d_surface_a"} <= names


def test_non_weighted_homogeneous_rejected():
    f = Polynomial(2, {(2, 0): 1, (3, 0): 1})
    with pytest.raises(NotWeightedHomogeneousError):
        analyze(f)


def test_non_isolated_singularity_structural_mode_fails():
    f = Polynomial(2, {(2, 1): 1})   # z1^2 z2, non-isolated
    with pytest.raises((PreconditionError, NotWeightedHomogeneousError)):
        analyze(f, mode="structural")


def _refuse(*args):
    raise AssertionError("called outside its mode")


def test_graded_mode_skips_crosscheck(monkeypatch):
    monkeypatch.setattr(Analysis, "route", _refuse)
    monkeypatch.setattr(engine, "kernel_description", _refuse)
    r = analyze(curve_a(1), mode="graded", p_max=2)
    assert r.crosscheck == "skipped"
    assert r.classifier_ok is False and r.kernel is None
    assert all(d.kind == "oracle" for d in r.degrees)
    assert all(d.expected_graded is None for d in r.degrees)
    assert all(d.oracle_graded is not None for d in r.degrees)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_a_slice_off_by_one_is_a_disagreement(monkeypatch, capsys,
                                              direction):
    # one slice of degree 2 of 4, so a verdict that reads only some
    # degrees (the first, or the last) misses it
    oracle_dim = Analysis.oracle_dim

    def off_by_one(self, direction, windows):
        graded = oracle_dim(self, direction, windows)
        s = min(graded[2])
        graded[2][s] += 1
        return graded

    monkeypatch.setattr(Analysis, "oracle_dim", off_by_one)
    f = parse_polynomial("z1^3+z2^2")
    r = analyze(f, direction=direction, p_max=4)
    assert r.classifier_ok
    assert [d.p for d in r.degrees
            if d.expected_graded != d.oracle_graded] == [2]
    assert r.crosscheck == "disagree"
    code = cli.main([direction, "--poly", "z1^3+z2^2", "--max-degree", "4"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "crosscheck disagreement between classifier and oracle\n"
    assert json.loads(out)["crosscheck"] == "disagree"


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_graded_scan_walks_the_staircase_once(monkeypatch, direction):
    walks = []
    walk = grading.staircase

    def counted(lead, weights, top):
        walks.append(top)
        return walk(lead, weights, top)

    monkeypatch.setattr(grading, "staircase", counted)
    r = analyze(parse_polynomial("z1^3+z2^4+z3^5"), direction=direction,
                p_max=4, mode="graded")
    assert walks == [max(d.window[1] for d in r.degrees)]


def test_structural_mode_skips_oracle(monkeypatch):
    monkeypatch.setattr(Analysis, "oracle_dim", _refuse)
    r = analyze(curve_a(1), mode="structural", p_max=2)
    assert r.crosscheck == "skipped"
    assert all(d.oracle_graded is None for d in r.degrees)


def test_smooth_surface_has_zero_finite_parts():
    f = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1})
    r = analyze(f)
    assert r.milnor == 0
    assert r.crosscheck == "agree"
    assert all(d.finite_dim == 0 for d in r.degrees if d.finite_dim is not None)


@pytest.mark.parametrize("name", catalog_names())
def test_structural_window_is_lowest_module_shift(name):
    an = Analysis(catalog_instance(name).f)
    d = an.ws.degree
    for direction, build in (("cohomology", cochain_complex),
                             ("homology", chain_complex)):
        cx = build(an.f, 6)
        cx.assign_weights(an.ws)
        r = analyze(an.f, direction=direction, p_max=6, mode="structural",
                    analysis=an)
        for p, deg in enumerate(r.degrees):
            lo = min(cx.modules[p].shifts)
            assert deg.window == (lo, lo + 3 * d)


@pytest.mark.parametrize("kwargs", [{"p_max": -1}, {"cutoff": -1}])
def test_negative_degree_or_cutoff_rejected(kwargs):
    with pytest.raises(ValueError):
        analyze(curve_a(2), **kwargs)


# its lex-leading term 2*z1^3 makes some normal forms fractional
NON_MONIC = parse_polynomial("2*z1^3+z1^2*z2+z2^3")
# its multi-term partials give no two block slices equal content
MIXED_SURFACE = parse_polynomial("z1^4+z2^4+z3^4+z1*z2*z3^2")


def _dense_slice_rank(an, mat, dom, cod, s):
    """Rank of mat, one of `_dense`'s matrices, on the weight-s slice,
    assembled densely from its Polynomial entries with no cache: the
    reference for the oracle's sparse, cached and content-keyed path."""
    def basis(shifts):
        return [(c, mono) for c, t in enumerate(shifts)
                for mono in an.A.basis(s - t)]
    dom_basis, cod_basis = basis(dom), basis(cod)
    if not dom_basis or not cod_basis:
        return 0
    row_of = {be: r for r, be in enumerate(cod_basis)}
    rows = [[Fraction(0)] * len(dom_basis) for _ in cod_basis]
    for col, (c, mono) in enumerate(dom_basis):
        for r, row in enumerate(mat):
            image = an.gb_f.normal_form(row[c] * Polynomial.monomial(an.n, mono))
            for exps, v in image.terms.items():
                rows[row_of[(r, exps)]][col] += v
    return rank_dense(rows)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("f", [catalog_instance("d5-curve").f,
                               catalog_instance("e6-surface").f,
                               MIXED_SURFACE,
                               parse_polynomial("z1^2+z2^3+z3^5"),
                               NON_MONIC,
                               parse_polynomial("z1^3+z2^4+z3^5"),
                               parse_polynomial("z1^2*z2")],
                         ids=["d5-curve", "e6-surface", "mixed-surface",
                              "e8-surface", "non-monic", "brieskorn-345",
                              "non-isolated"])
def test_oracle_matches_dense_reference(monkeypatch, f, direction):
    # p_max 6 makes every strand block recur in a later differential,
    # at another base shift, so shared rank tables are read there
    p_max = 6
    an = Analysis(f)
    rows = []
    ranked = []             # one entry per slice that reaches the rank
    assembled = []          # one entry per block slice with columns and rows
    rank_sparse, block_rank = engine.rank_sparse, Analysis._block_rank

    def recorded(cols):
        ranked.append(len(cols))
        rows.extend(cols)
        return rank_sparse(cols)

    def recorded_block_rank(self, block, s, dims):
        if (any(self.A.basis(s - t) for t in block.dom)
                and any(dims[s - t] for t in block.cod if s >= t)):
            assembled.append(s)
        return block_rank(self, block, s, dims)

    monkeypatch.setattr(engine, "rank_sparse", recorded)
    monkeypatch.setattr(Analysis, "_block_rank", recorded_block_rank)
    r = analyze(f, direction=direction, p_max=p_max, mode="graded",
                analysis=an)
    # equal slice content at another relative weight is ranked once
    assert len(ranked) <= len(assembled)
    if f != MIXED_SURFACE:
        assert len(ranked) < len(assembled)
    if f == NON_MONIC:
        # normal forms mod a non-monic f: some slices reach the rank
        # with Fraction entries
        assert any(type(v) is Fraction for row in rows for v in row.values())
    _assert_oracle_matches_dense(an, r, direction)


def _assert_oracle_matches_dense(an, r, direction):
    """Every slice of report r equals its module total less the dense
    ranks of the differentials at both ends."""
    build = cochain_complex if direction == "cohomology" else chain_complex
    cx = build(an.f, len(r.degrees))
    cx.assign_weights(an.ws)
    shifts = [m.shifts for m in cx.modules]
    mats = _dense(cx)
    dense = {}      # (k, s) -> rank of diffs[k] at weight s
    for p, deg in enumerate(r.degrees):
        lo, hi = deg.window
        for s in range(lo, hi + 1):
            expected = sum(an.A.dim(s - t) for t in shifts[p])
            for k, mat in enumerate(mats):
                src, tgt = cx.ends(k)
                if p in (src, tgt):
                    if (k, s) not in dense:
                        dense[k, s] = _dense_slice_rank(
                            an, mat, shifts[src], shifts[tgt], s)
                    expected -= dense[k, s]
            assert deg.oracle_graded.get(s, 0) == expected, (an.f, p, s)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_table_scan_ranks_each_differential_once_per_weight(monkeypatch,
                                                            direction):
    f = parse_polynomial("z1^4+z2^4+z3^4+z1*z2*z3^2")
    scans = []          # direction per oracle_dim call
    current = []        # k of the differential the scan is ranking
    ranked = set()      # (k, s) per weight s a block of diffs[k] is read at
    assembled = []      # (rank table, s - base) per block slice assembled
    oracle_dim, slice_map = Analysis.oracle_dim, Analysis._slice_map
    ends = KoszulComplex.ends

    class RecordedTable:
        def __init__(self, table, k, base):
            self.table, self.k, self.base = table, k, base

        def get(self, key):
            ranked.add((self.k, key + self.base))
            return self.table.get(key)

        def __setitem__(self, key, rank):
            assembled.append((id(self.table), key))
            self.table[key] = rank

    def recorded_oracle_dim(self, direction, windows):
        scans.append(direction)
        return oracle_dim(self, direction, windows)

    def recorded_ends(self, k):
        # the scan reads a differential's ends just before cutting it
        current[:] = [k]
        return ends(self, k)

    def recorded_slice_map(self, columns, dom, cod):
        sm = slice_map(self, columns, dom, cod)
        return sm._replace(ranks=RecordedTable(sm.ranks, current[0], sm.base))

    monkeypatch.setattr(Analysis, "oracle_dim", recorded_oracle_dim)
    monkeypatch.setattr(Analysis, "_slice_map", recorded_slice_map)
    monkeypatch.setattr(KoszulComplex, "ends", recorded_ends)
    an = Analysis(f)
    r = analyze(f, direction=direction, p_max=6, mode="graded", analysis=an)
    assert scans == [direction]
    assert assembled and len(set(assembled)) == len(assembled)
    build = cochain_complex if direction == "cohomology" else chain_complex
    cx = build(f, len(r.degrees))
    cx.assign_weights(an.ws)
    for k, s in ranked:
        for q in (k, k + 1):
            assert sum(an.A.dim(s - t) for t in cx.modules[q].shifts), (k, s)


# the third f has multi-term partials, a Fraction coefficient, and tail
# products that one reduction step does not make standard; in the
# fourth, d_1 f * z1*z2^30 takes one step to a standard product
_IMAGE_POLYS = ["1/2*z1^3+z2^5", "z1^7+z2^11+z3^13",
                "z1^3+1/2*z1^2*z2^2+z2^6+z3^25", "z1^2+z2^2"]


def _map_content(an, i, u):
    """The images of M_i(u) as {exponents: coefficient} dicts, one per
    monomial of `an.A.basis(u)`, positions mapped back through the basis
    of the product weight; A is filled through that weight first."""
    weight = u + an.ws.degree - an.ws.weights[i - 1]
    basis = an.A.basis(weight)
    images = an._interned[an._map(i, u)]
    assert len(images) == len(an.A.basis(u))
    for image in images:
        for _, v in image:
            assert type(v) is int if v.denominator == 1 else type(v) is Fraction
    return [{basis[r]: v for r, v in image} for image in images]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_IMAGE_POLYS),
       st.lists(st.integers(0, 30), min_size=3, max_size=3),
       st.integers(1, 3))
@example("z1^2+z2^2", [1, 30, 0], 1)
def test_image_matches_normal_form(poly, exps, i):
    # u is the weight of an arbitrary monomial, standard or not; every
    # row of M_i(u) is the normal form of d_i f times its monomial
    an = Analysis(parse_polynomial(poly))
    i = min(i, an.n)
    u = sum(w * e for w, e in zip(an.ws.weights, exps[:an.n]))
    rows = _map_content(an, i, u)
    for mono, row in zip(an.A.basis(u), rows):
        expected = an.gb_f.normal_form(an.grad[i - 1]
                                       * Polynomial.monomial(an.n, mono))
        assert row == expected.terms


def test_image_above_the_filled_basis_fails_loudly(monkeypatch):
    # z2^10 is standard, but the basis of A is filled only through the
    # domain weight 0
    an = Analysis(parse_polynomial("z1^7+z2^11+z3^13"))
    with pytest.raises(LookupError, match="above the filled basis"):
        an._map(2, 0)
    # 2*z1*z2^30 is standard but lies past the filled weight 30
    an = Analysis(parse_polynomial("z1^2+z2^2"))
    with pytest.raises(LookupError, match=r"\(1, 30\) lies above the "
                       "filled basis"):
        an._map(1, 30)
    # A_5 is z1 alone, and z1 * 3/2*z1^2 takes one step to the tail
    # product -3*z2^5, standard but past the filled weight 5: it goes
    # to `ideals._reduce`, whose remainder z2^5 is not in the index
    an = Analysis(parse_polynomial("1/2*z1^3+z2^5"))
    calls = []
    reduce = ideals._reduce

    def counting(terms, divisors):
        calls.append(dict(terms))
        return reduce(terms, divisors)

    monkeypatch.setattr(ideals, "_reduce", counting)
    with pytest.raises(LookupError, match=r"\(0, 5\) lies above the "
                       "filled basis"):
        an._map(1, 5)
    assert an.A.basis(5) == ((1, 0),)
    assert calls == [{(0, 5): -3}]


def test_image_falls_back_only_for_products_that_stay_nonstandard(
        monkeypatch):
    # only the tail products one reduction step leaves non-standard reach
    # `ideals._reduce`, at most one call per image of a map; none of
    # them is in the position index, and the reports match a run
    # without counting
    f = parse_polynomial("z1^3+1/2*z1^2*z2^2+z2^6+z3^25")
    fresh = analyze(f, p_max=4, mode="graded")
    an = Analysis(f)
    calls = []
    reduce = ideals._reduce

    def counting(terms, divisors):
        calls.append(tuple(terms))
        return reduce(terms, divisors)

    monkeypatch.setattr(ideals, "_reduce", counting)
    report = analyze(f, p_max=4, mode="graded", analysis=an)
    assert calls
    assert len(calls) <= sum(len(an._interned[mid]) for maps in an._maps
                             for mid in maps if mid is not None)
    assert not any(m in an.A.position for terms in calls for m in terms)
    assert [deg.oracle_graded for deg in report.degrees] == \
        [deg.oracle_graded for deg in fresh.degrees]


_SHARED_RUNS = [("cohomology", 4, 20, "both"), ("homology", 9, None, "both"),
                ("cohomology", 12, None, "graded")]


@pytest.mark.parametrize("poly", ["z1^3+1/2*z1^2*z2^2+z2^6+z3^25",
                                  "z1^7+z2^11+z3^13", "2*z1^3+z1^2*z2+z2^3"])
def test_shared_analysis_reports_match_fresh_ones(poly):
    # each run asks for higher weights than the last, so the shared A is
    # re-walked under images cached as positions
    f = parse_polynomial(poly)
    shared = Analysis(f)
    for direction, p_max, cutoff, mode in _SHARED_RUNS:
        kwargs = dict(direction=direction, p_max=p_max, cutoff=cutoff,
                      mode=mode)
        assert cli._report_json(analyze(f, analysis=shared, **kwargs)) == \
            cli._report_json(analyze(f, **kwargs))


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_oracle_with_a_cochain_shift_of_zero(direction):
    # weights (45, 90, 2) and d = 90: w_2 = d, so eta_2 carries shift 0,
    # and d_2 f = 0; A is infinite-dimensional and the scan runs alone
    f = parse_polynomial("z1^2+z3^45")
    an = Analysis(f)
    assert an.ws.weights[1] == an.ws.degree
    r = analyze(f, direction=direction, p_max=3, cutoff=60, mode="graded",
                analysis=an)
    _assert_oracle_matches_dense(an, r, direction)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_oracle_matches_dense_reference_on_seeded_f(direction):
    # random weighted-homogeneous f, Brieskorn-Pham plus mixed terms with
    # coefficients other than 1, n = 2 and 3: every slice of p <= 3 over
    # two weighted degrees
    for f in _seeded_weighted_homogeneous(SEEDED_DENSE, 12):
        an = Analysis(f)
        r = analyze(f, direction=direction, p_max=3,
                    cutoff=2 * an.ws.degree, mode="graded", analysis=an)
        _assert_oracle_matches_dense(an, r, direction)


def test_strand_blocks_of_hand_built_columns():
    # domain components 0 and 2 meet in codomain row 1; component 1 is a
    # zero column; component 3 alone hits rows 0 and 4; rows 2 and 3 are
    # hit by no column
    columns = (((1, 1, 2),), (), ((1, 2, -1), (5, 3, 4)),
               ((4, 1, 1), (0, 2, 3)))
    assert _strand_blocks(columns) == [
        ((0, 2), (1, 5), (((0, 1, 2),), ((0, 2, -1), (1, 3, 4)))),
        ((3,), (0, 4), (((1, 1, 1), (0, 2, 3)),)),
    ]
    assert _strand_blocks(((), ())) == []


def _hand_built_analysis(basis, images):
    """An Analysis whose A has the standard monomials `basis[w]` at
    weight w and whose d_i f * z^mono reduces to `images[i, mono]`, a
    single term (position, 1): d_i f is the monomial z2^(100 i), and the
    position index places each product.  Its map and rank caches are
    real.  The dims list it returns holds len(basis[w]) at weight w."""
    an = Analysis(parse_polynomial("z1^2+z2^2"))
    an.grad = [Polynomial(2, {(0, 100 * i): 1}) for i in (1, 2)]
    position = {(a, b + 100 * i): pos
                for (i, (a, b)), ((pos, _),) in images.items()}
    an.A = SimpleNamespace(basis=lambda w: basis.get(w, ()),
                           position=position)
    return an, [len(basis.get(w, ())) for w in range(20)]


def _fresh_slice_rank(an, columns, dom, s, images):
    """rank_sparse of the weight-s slice of a block given as columns of
    (row, i, k) terms, assembled here with no cache and rows keyed
    (codomain component, position)."""
    cols = [{(r, pos): k * v for r, i, k in terms for pos, v in images[i, mono]}
            for terms, t in zip(columns, dom) for mono in an.A.basis(s - t)]
    return rank_sparse(cols)


# two codomain monomials at each weight a block's rows are read from
_ROWS = {w: [(0, w), (1, w - 1)] for w in (12, 13, 16)}


def test_block_rank_content_key_is_complete(monkeypatch):
    calls = []

    def recorded(cols):
        calls.append(len(cols))
        return rank_sparse(cols)

    monkeypatch.setattr(engine, "rank_sparse", recorded)
    x, y = ((0, 1),), ((1, 1),)
    # one block at three weights, its rows at weight s + 10: at s = 2 and
    # s = 3 component 0 holds two monomials, at s = 6 component 1 holds
    # one with two terms, and all three read the images x, y in that
    # order
    basis = {1: [(1, 0)], 2: [(2, 0), (1, 1)], 3: [(3, 0), (2, 1)], **_ROWS}
    images = {(1, (2, 0)): x, (1, (1, 1)): y, (1, (3, 0)): x,
              (1, (2, 1)): y, (1, (1, 0)): x, (2, (1, 0)): y}
    an, dims = _hand_built_analysis(basis, images)
    columns = (((0, 1, 1),), ((0, 1, 1), (1, 2, 1)))
    block = an._slice_map(columns, (0, 5), (-10, -10))
    for s, rank in ((2, 2), (6, 1), (3, 2)):
        assert an._block_rank(block, s, dims) == rank
        assert _fresh_slice_rank(an, columns, (0, 5), s, images) == rank
    # s = 3 has the content of s = 2 under other monomials: M_1(2) and
    # M_1(3) are equal maps at two weights and get one id
    assert an._maps[0][2] == an._maps[0][3] != an._maps[0][1]
    assert len(calls) == 2
    # signatures that differ in one k, or in the rows their terms hit,
    # over the same image at every (monomial, term)
    basis = {1: [(1, 0)], 2: [(2, 0), (1, 1)], **_ROWS}
    images = {(i, mono): x for i in (1, 2) for monos in basis.values()
              for mono in monos}
    an, dims = _hand_built_analysis(basis, images)
    signatures = [
        ((((0, 1, 1), (1, 2, 1)), ((0, 1, 1), (1, 2, 1))), (-10, -10), 1),
        ((((0, 1, 1), (1, 2, 1)), ((0, 1, 1), (1, 2, -1))), (-10, -10), 2),
        ((((0, 1, 1),), ((1, 1, 1),)), (-10, -10), 2),
        ((((0, 1, 1),), ((0, 1, 1),)), (-10,), 1)]
    for columns, cod, rank in signatures:
        block = an._slice_map(columns, (0, 1), cod)
        assert an._block_rank(block, 2, dims) == rank
        assert _fresh_slice_rank(an, columns, (0, 1), 2, images) == rank


def _seeded_weighted_homogeneous(seed, count):
    """Brieskorn-Pham f plus up to three mixed monomials of the same
    weighted degree, n = 2 and 3 alternately, coefficients from seed."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 2 + k % 2
        a = [rng.randint(2, 6) for _ in range(n)]
        d = lcm(*a)
        w = [d // ai for ai in a]
        mixed = [e for e in product(*(range(ai) for ai in a))
                 if sum(1 for x in e if x) >= 2
                 and sum(wi * x for wi, x in zip(w, e)) == d]
        terms = {tuple(ai if j == i else 0 for j in range(n)): 1
                 for i, ai in enumerate(a)}
        for e in rng.sample(mixed, min(k % 4, len(mixed))):
            terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(Polynomial(n, terms))
    return out


SEEDED_DENSE = 20261019


ROUTE_GROUPS = {
    "catalog": lambda: [catalog_instance(name).f for name in catalog_names()],
    "loop": lambda: [parse_polynomial("z1^3*z2+z2^3*z3+z3^3*z1")],
    "seeded": lambda: _seeded_weighted_homogeneous(20261018, 40),
}


# which per-variable quotients C[z]/<J'_i, z_i> occur over a group
ROUTE_OUTCOMES = {"catalog": {True, False}, "loop": {False},
                  "seeded": {True, False}}


@pytest.mark.parametrize("group", sorted(ROUTE_GROUPS))
def test_route_ideal_matches_colon_ideal(group):
    # for isolated f and every variable i, <J'_i, z_i> is the colon
    # ideal (<f> + J'_i : d_i f), J'_i being the other partials, and the
    # route solves for the first i whose quotient is finite
    outcomes = set()
    for f in ROUTE_GROUPS[group]():
        an = Analysis(f)
        if an.milnor is INFINITE:
            assert an.route() is None
            continue
        bases, finite = [], []
        for i in range(1, an.n + 1):
            others = [g for j, g in enumerate(an.grad, 1) if j != i]
            gb_k = buchberger(others + [Polynomial.variable(an.n, i)])
            colon = buchberger(colon_ideal([f] + others, an.grad[i - 1]))
            assert gb_k == colon, (f, i)
            bases.append((others, colon))
            finite.append(standard_monomials(gb_k, an.n).finite)
        route = an.route()
        if any(finite):
            i = finite.index(True) + 1
            others, colon = bases[i - 1]
            std_j = standard_monomials(buchberger([f] + others), an.n)
            in_k = set(standard_monomials(colon, an.n).monomials)
            assert route.solved == i, f
            assert route.basis == tuple(m for m in std_j.monomials
                                        if m not in in_k), f
        else:
            assert route is None, f
        outcomes.update(finite)
    assert outcomes == ROUTE_OUTCOMES[group]


def test_route_requires_isolated_singularity():
    # f = z2*(z1 + z2)^2 is singular along z1 = -z2.  C[z]/<d2 f, z1> is
    # finite, yet grad f is no regular sequence, so K = <d2 f, z1> is not
    # (J : d1 f) and there is no route
    f = parse_polynomial("z1^2*z2 + 2*z1*z2^2 + z2^3")
    an = Analysis(f)
    assert an.milnor is INFINITE
    gb = buchberger([an.grad[1], Polynomial.variable(2, 1)])
    assert standard_monomials(gb, 2).finite
    assert gb != buchberger(colon_ideal([f, an.grad[1]], an.grad[0]))
    assert an.route() is None
    with pytest.raises(PreconditionError, match="non-isolated"):
        analyze(f, mode="structural")
    report = analyze(f, mode="both", p_max=2)
    assert report.notes == ["classifier disabled: non-isolated singularity: "
                            "Milnor algebra is infinite-dimensional"]


def test_route_walk_past_the_limit_raises_every_time(monkeypatch):
    # the Milnor box of z1^3+z2^4 is 2 * 3 and fits; std(<f, z2^3>) has
    # box 3 * 3, so the route search is refused, and is not remembered
    # as "no route"
    monkeypatch.setattr(ideals, "MAX_STANDARD_MONOMIALS", 6)
    an = Analysis(parse_polynomial("z1^3+z2^4"))
    assert an.milnor == 6
    for _ in range(2):
        with pytest.raises(ideals.WalkLimitError):
            an.route()


def test_loop_singularity_has_no_route():
    # the benchmark's checks match this text as a precondition failure
    f = parse_polynomial("z1^3*z2+z2^3*z3+z3^3*z1")
    message = ("no valid elimination route: C[z]/<J'_i, z_i> is "
               "infinite-dimensional for every i")
    with pytest.raises(PreconditionError) as exc:
        analyze(f, mode="structural")
    assert str(exc.value) == message
    assert analyze(f, p_max=1).notes == ["classifier disabled: " + message]


def _table_degree(an, route, direction, A, p):
    """The classifier's former per-n table, kept as the reference for
    the one-rule `_degree`: (kind, finite source, shift, free formula
    s -> dim, or None), with A(s) = dim A_s."""
    n = an.n
    d, w = an.ws.degree, an.ws.weights
    W = sum(w)

    if p == 0:
        return ("A", None, 0, lambda s: A(s))

    if direction == "cohomology":
        if n == 1:
            if p % 2 == 0:
                return ("finite", "milnor", 0, None)
            return ("finite", "kj", d - w[0], None)
        if n == 2:
            c = 2 * d - w[0] - w[1]
            if p == 1:
                return ("A_plus_finite", "kj", d - w[route.solved - 1],
                        lambda s: A(s - c))
            if p % 2 == 0:
                return ("finite", "milnor", 0, None)
            return ("finite", "kj", d - w[route.solved - 1], None)
        # n == 3
        if p == 1:
            def free(s):
                return (sum(A(s - 2 * d + W - wi) for wi in w)
                        - A(s - 3 * d + W))
            return ("free_plus_finite", "kj", d - w[route.solved - 1], free)
        if p == 2:
            c = 3 * d - W
            return ("A_plus_finite", "milnor", 0, lambda s: A(s - c))
        if p % 2 == 1:
            return ("finite", "kj", d - w[route.solved - 1], None)
        return ("finite", "milnor", 0, None)

    # homology
    q = p // 2
    if n == 1:
        if p % 2 == 0:
            return ("finite", "kj", q * d, None)
        return ("finite", "milnor", q * d + w[0], None)
    if n == 2:
        if p == 1:
            def quot(s):
                return sum(A(s - wi) for wi in w) - A(s - d)
            return ("module_quotient", None, None, quot)
        if p % 2 == 0:
            return ("finite", "milnor", (q - 1) * d + w[0] + w[1], None)
        j = 3 - route.solved     # the back-substituted index
        return ("finite", "kj", q * d + w[j - 1], None)
    # n == 3
    if p == 1:
        def quot1(s):
            return sum(A(s - wi) for wi in w) - A(s - d)
        return ("module_quotient", None, None, quot1)
    if p == 2:
        def quot2(s):
            pairs = A(s - w[0] - w[1]) + A(s - w[1] - w[2]) + A(s - w[0] - w[2])
            image = sum(A(s - d - wi) for wi in w) - A(s - 2 * d)
            return pairs - image
        return ("module_quotient", None, None, quot2)
    if p % 2 == 1:
        return ("finite", "milnor", (q - 1) * d + W, None)
    return ("finite", "kj", (q - 1) * d + W - w[route.solved - 1], None)


TABLE_GROUPS = {
    "catalog": ROUTE_GROUPS["catalog"],
    "stress": lambda: [parse_polynomial(text) for text in (
        "z1^4+z2^4+z3^4+z1*z2*z3^2", "z1^4+z1*z2^3+z2*z3^3",
        "z1^7+z2^11+z3^13", "z1^2+z2^3+z3^5")],
    "seeded": ROUTE_GROUPS["seeded"],
    "z1^k": lambda: [Polynomial(1, {(k,): 1}) for k in range(2, 9)],
}


# how many f of each group have a route (the seeded group has 7
# non-isolated f)
TABLE_ROUTED = {"catalog": 37, "stress": 4, "seeded": 33, "z1^k": 7}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_totals_match_a_direct_sum(data):
    lo = data.draw(st.integers(0, 15))
    hi = lo + data.draw(st.integers(0, 12))
    dims = data.draw(st.lists(st.integers(0, 9), min_size=hi + 1,
                              max_size=hi + 1))
    terms = data.draw(st.lists(st.tuples(st.sampled_from((1, -1)),
                                         st.integers(0, hi + 2)),
                               max_size=5))
    expected = [sum(sign * dims[s - t] for sign, t in terms if s >= t)
                for s in range(lo, hi + 1)]
    assert _module_totals(dims, terms, lo, hi) == expected


@pytest.mark.parametrize("group", sorted(TABLE_GROUPS))
def test_degree_rule_matches_reference_table(group):
    routed = 0
    for f in TABLE_GROUPS[group]():
        an = Analysis(f)
        route = an.route()
        if route is None:
            continue
        routed += 1
        d = an.ws.degree
        # every free shift is >= 0, so no argument of A passes 8 * d
        dims = poincare_dims(an.ws.weights, d, 8 * d)

        def A(s):
            return dims[s] if s >= 0 else 0

        for direction in ("cohomology", "homology"):
            for p in range(15):
                kind, _, source, shift, free = _degree(an, route,
                                                       direction, p)
                ref_kind, ref_source, ref_shift, ref_free = \
                    _table_degree(an, route, direction, A, p)
                assert (kind, source) == (ref_kind, ref_source), (f, p)
                if source is not None:
                    assert shift == ref_shift, (f, direction, p)
                for s in range(-5, 8 * d + 1):
                    value = sum(sign * A(s - t)
                                for sign, t in free)
                    assert value == (ref_free(s) if ref_free else 0), \
                        (f, direction, p, s)
    assert routed == TABLE_ROUTED[group]


@st.composite
def _brieskorn_pham_plus_mixed(draw):
    """sum c_i z_i^a_i plus up to three mixed monomials of the same
    weighted degree lcm(a), n = 1..3, nonzero integer coefficients."""
    n = draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(2, 7 if n < 3 else 4),
                      min_size=n, max_size=n))
    d = lcm(*a)
    w = [d // ai for ai in a]
    mixed = [e for e in product(*(range(ai) for ai in a))
             if sum(1 for x in e if x) >= 2
             and sum(wi * x for wi, x in zip(w, e)) == d]
    coefficient = st.integers(-3, 3).filter(bool)
    terms = {tuple(ai if j == i else 0 for j in range(n)): draw(coefficient)
             for i, ai in enumerate(a)}
    if mixed:
        for e in draw(st.lists(st.sampled_from(mixed), max_size=3,
                               unique=True)):
            terms[e] = draw(coefficient)
    return Polynomial(n, terms)


@settings(max_examples=40, deadline=None)
@given(_brieskorn_pham_plus_mixed())
def test_classifier_agrees_with_oracle(f):
    # p_max = n + 3 reaches both parities of p >= n in both directions
    an = Analysis(f)
    for direction in ("cohomology", "homology"):
        report = analyze(f, direction=direction, p_max=f.n + 3, mode="both",
                         analysis=an)
        if report.classifier_ok:
            assert report.crosscheck == "agree", (f, direction)
            if direction == "cohomology":
                assert report.kernel.verified, f
        else:
            assert len(report.notes) == 1
            assert ("non-isolated" in report.notes[0]
                    or "no valid elimination route" in report.notes[0])
